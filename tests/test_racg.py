"""Right-angled engine and push-machinery tests."""

import itertools
import random
from math import inf

import pytest

from coxboundary import (
    append_letter,
    build_chain,
    descent_set,
    descent_update,
    generator_centralizer_finite,
    irreducible_components,
    is_hyperbolic,
    is_irreducible,
    normal_form,
    proper_union_step,
    push_to_common_singleton,
    push_to_singleton,
)
from coxboundary.core import _tits_canonical
from coxboundary.errors import (
    ChainStartsInDescent,
    DescentContainsS0,
    ForbiddenCoversS,
    NotRightAngled,
)

import oracles


def random_word(rng, system, max_len=12):
    return tuple(rng.randrange(system.rank) for _ in range(rng.randrange(max_len + 1)))


def test_normal_form_examples():
    commuting = oracles.ra_system_from_graph(2, [(0, 1)])
    assert normal_form(commuting, (1, 0)).word == (0, 1)
    free2 = oracles.free_product(2)
    assert normal_form(free2, (0, 1, 0)).word == (0, 1, 0)
    free3 = oracles.free_product(3)
    assert normal_form(free3, (0, 1, 1, 2)).word == (0, 2)


def test_normal_form_requires_right_angled():
    with pytest.raises(NotRightAngled):
        normal_form(oracles.dihedral(3), (0, 1))


def test_append_examples():
    commuting = oracles.ra_system_from_graph(2, [(0, 1)])
    empty = normal_form(commuting, ())
    assert append_letter(commuting, empty, 0).word == (0,)
    a = normal_form(commuting, (0,))
    assert append_letter(commuting, a, 1).word == (0, 1)
    free2 = oracles.free_product(2)
    aba = normal_form(free2, (0, 1, 0))
    assert append_letter(free2, aba, 0).word == (0, 1)


def test_normal_form_agrees_with_slow_reducer():
    rng = random.Random(23)
    for rank in (2, 3, 4, 5):
        for system in oracles.ra_systems_up_to_iso(rank):
            for _ in range(25):
                word = random_word(rng, system, 10)
                nf = normal_form(system, word)
                assert len(nf.word) == oracles.slow_ra_length(system, word)
                assert oracles.slow_ra_equal(system, nf.word, word)
                assert nf.descents == oracles.slow_ra_descents(system, word)


def test_descent_update_examples():
    system = oracles.ra_system_from_graph(3, [(0, 1)])
    assert descent_update(system, frozenset(), 0) == {0}
    assert descent_update(system, {0}, 2) == {2}
    assert descent_update(system, {0}, 1) == {0, 1}


def test_descent_update_rejects_descent_member():
    system = oracles.free_product(2)
    with pytest.raises(DescentContainsS0):
        descent_update(system, {0}, 0)


def test_descent_update_random():
    rng = random.Random(29)
    corpus = [
        oracles.free_product(2),
        oracles.ra_system_from_graph(3, [(0, 1)]),
        oracles.five_cycle(),
        oracles.dinf_x_dinf(),
    ]
    for system in corpus:
        done = 0
        while done < 120:
            word = random_word(rng, system)
            descents = normal_form(system, word).descents
            options = [s for s in system.generators if s not in descents]
            if not options:
                continue
            s0 = rng.choice(options)
            assert descent_update(system, descents, s0) == descent_set(
                system, word + (s0,)
            )
            done += 1


def chain_is_valid(system, chain, forbidden, last):
    if chain[0] in forbidden or chain[-1] != last:
        return False
    if set(chain) != set(system.generators):
        return False
    return all(
        system.order(chain[i], chain[i + 1]) == inf for i in range(len(chain) - 1)
    )


def test_build_chain_examples():
    free3 = oracles.free_product(3)
    chain = build_chain(free3, {0}, 2)
    assert chain_is_valid(free3, chain, {0}, 2)
    free2 = oracles.free_product(2)
    assert build_chain(free2, {0}, 0) == (1, 0)
    with pytest.raises(ForbiddenCoversS):
        build_chain(free2, {0, 1}, 0)


def test_build_chain_postconditions_everywhere():
    for rank in (2, 3, 4, 5):
        for system in oracles.ra_systems_up_to_iso(rank):
            if not is_irreducible(system):
                continue
            gens = set(system.generators)
            for last in system.generators:
                for size in range(rank):
                    for forbidden in itertools.combinations(range(rank), size):
                        chain = build_chain(system, set(forbidden), last)
                        assert chain_is_valid(system, chain, set(forbidden), last)
                        assert len(chain) <= 2 * rank


def test_push_to_singleton_examples():
    free2 = oracles.free_product(2)
    out = push_to_singleton(free2, normal_form(free2, ()), (0, 1))
    assert out.word == (0, 1) and out.descents == {1}
    free3 = oracles.free_product(3)
    out = push_to_singleton(free3, normal_form(free3, (1,)), (0, 1, 2))
    assert out.descents == {2}
    out = push_to_singleton(free3, normal_form(free3, (2, 0)), (1, 0, 2))
    assert out.descents == {2}


def test_push_to_singleton_rejects_descent_start():
    free2 = oracles.free_product(2)
    with pytest.raises(ChainStartsInDescent):
        push_to_singleton(free2, normal_form(free2, (0,)), (0, 1))


def test_push_to_singleton_random():
    rng = random.Random(31)
    corpus = [
        oracles.free_product(3),
        oracles.ra_system_from_graph(3, [(0, 1)]),
        oracles.free_product(4),
        oracles.five_cycle(),
    ]
    for system in corpus:
        for _ in range(50):
            word = random_word(rng, system, 8)
            nf = normal_form(system, word)
            last = rng.randrange(system.rank)
            chain = build_chain(system, nf.descents, last)
            result = push_to_singleton(system, nf, chain)
            # checked against the independent deletion-based reducer
            assert oracles.slow_ra_descents(system, word + chain) == {last}
            assert result.descents == {last}


def test_proper_union_step_examples():
    free3 = oracles.free_product(3)
    one = normal_form(free3, ())
    assert proper_union_step(free3, one, one) == ()
    w = normal_form(free3, (0,))
    v = normal_form(free3, (1, 2))
    assert proper_union_step(free3, w, v) == ()


def test_proper_union_step_needs_other_side():
    """A case where only a letter from the second descent set works."""
    system = oracles.ra_system_from_graph(3, [(1, 2)])  # b, c commute; a free
    w = normal_form(system, (1, 2, 0))  # descents {a}
    v = normal_form(system, (0, 1, 2))  # descents {b, c}
    assert w.descents == {0} and v.descents == {1, 2}
    x = proper_union_step(system, w, v)
    assert len(x) <= 1
    dw = normal_form(system, w.word + x).descents
    dv = normal_form(system, v.word + x).descents
    assert dw | dv != frozenset(system.generators)
    assert x == (1,)  # the empty word and a = 0 both fail


def test_proper_union_step_fails_only_on_two_point_boundary():
    """In the infinite dihedral group some pairs admit no step at all,
    which is exactly why the two-point boundary is excluded upstream."""
    free2 = oracles.free_product(2)
    w = normal_form(free2, (0, 1))
    v = normal_form(free2, (1, 0))
    from coxboundary.errors import NoSuchX

    with pytest.raises(NoSuchX):
        proper_union_step(free2, w, v)


def test_proper_union_step_rank5_sampled():
    """Totality spot-check over every irreducible rank-5 class."""
    from coxboundary import boundary_size_class
    from coxboundary.decision import MORE_THAN_TWO

    rng = random.Random(43)
    for system in oracles.ra_systems_up_to_iso(5):
        if not is_irreducible(system):
            continue
        if boundary_size_class(system) != MORE_THAN_TWO:
            continue
        everything = frozenset(system.generators)
        for _ in range(300):
            w = normal_form(system, random_word(rng, system, 6))
            v = normal_form(system, random_word(rng, system, 6))
            x = proper_union_step(system, w, v)
            assert len(x) <= 1
            dw = normal_form(system, w.word + x).descents
            dv = normal_form(system, v.word + x).descents
            assert dw | dv != everything


def test_push_to_common_singleton_examples():
    free3 = oracles.free_product(3)
    one = normal_form(free3, ())
    x = push_to_common_singleton(free3, one, one, 2)
    assert normal_form(free3, x).descents == {2}
    w = normal_form(free3, (0,))
    v = normal_form(free3, (1,))
    x = push_to_common_singleton(free3, w, v, 0)
    assert normal_form(free3, w.word + x).descents == {0}
    assert normal_form(free3, v.word + x).descents == {0}
    assert len(x) <= 1 + 2 * free3.rank


def test_push_to_common_singleton_random():
    rng = random.Random(37)
    corpus = [
        oracles.free_product(3),
        oracles.ra_system_from_graph(3, [(1, 2)]),
        oracles.five_cycle(),
    ]
    for system in corpus:
        for _ in range(40):
            w = normal_form(system, random_word(rng, system, 8))
            v = normal_form(system, random_word(rng, system, 8))
            s0 = rng.randrange(system.rank)
            x = push_to_common_singleton(system, w, v, s0)
            assert len(x) <= 1 + 2 * system.rank
            assert oracles.slow_ra_descents(system, w.word + x) == {s0}
            assert oracles.slow_ra_descents(system, v.word + x) == {s0}


def test_irreducible_examples():
    assert is_irreducible(oracles.free_product(3))
    assert not is_irreducible(oracles.dinf_x_dinf())
    assert is_irreducible(oracles.five_cycle())
    assert is_irreducible(oracles.free_product(1))


def test_irreducibility_matches_components_rank_up_to_6():
    """Exhaustive over labeled commutation graphs."""
    for rank in range(1, 7):
        pairs = list(itertools.combinations(range(rank), 2))
        for mask in range(1 << len(pairs)):
            edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
            system = oracles.ra_system_from_graph(rank, edges)
            assert is_irreducible(system) == (
                len(irreducible_components(system)) == 1
            )


def test_hyperbolicity_examples():
    assert not is_hyperbolic(oracles.dinf_x_dinf())
    assert is_hyperbolic(oracles.free_product(3))
    assert is_hyperbolic(oracles.five_cycle())


def test_centralizer_examples():
    free2 = oracles.free_product(2)
    assert generator_centralizer_finite(free2, 0)
    dd = oracles.dinf_x_dinf()
    assert not generator_centralizer_finite(dd, 0)
    cyc = oracles.five_cycle()
    for s in cyc.generators:
        # the two commuting neighbours do not commute with each other
        assert not generator_centralizer_finite(cyc, s)


def test_nf_agrees_with_general_reduce():
    rng = random.Random(41)
    for rank in (2, 3, 4, 5):
        for system in oracles.ra_systems_up_to_iso(rank):
            for _ in range(10):
                word = random_word(rng, system, 10)
                assert normal_form(system, word).word == _tits_canonical(
                    system, word
                )


def test_mask_predicates_match_oracles():
    for rank in (1, 2, 3, 4, 5):
        for system in oracles.ra_systems_up_to_iso(rank):
            assert is_hyperbolic(system) == (not oracles.has_induced_square(system))
            for s in system.generators:
                assert generator_centralizer_finite(
                    system, s
                ) == oracles.link_is_clique(system, s)


@pytest.mark.parametrize(
    "call",
    [
        lambda f: append_letter(f, normal_form(f, ()), 7),
        lambda f: append_letter(f, normal_form(f, (0, 1)), -1),
        lambda f: descent_update(f, {0}, 9),
        lambda f: descent_update(f, {0, -2}, 1),
        lambda f: push_to_singleton(f, normal_form(f, ()), (1, 5)),
        lambda f: generator_centralizer_finite(f, -1),
    ],
    ids=["append-7", "append-neg", "update-9", "update-neg-descent", "chain", "centralizer"],
)
def test_generator_arguments_are_checked(call):
    with pytest.raises(ValueError, match=r"letter -?\d+ out of range for rank 3"):
        call(oracles.free_product(3))
