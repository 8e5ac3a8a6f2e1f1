"""Verdicts, certificates, and the bounded condition checker."""

from math import inf

import pytest

from coxboundary import (
    EMPTY,
    MORE_THAN_TWO,
    NOT_SCRAMBLED,
    SCRAMBLED,
    TWO_POINTS,
    UNKNOWN,
    analyze,
    boundary_size_class,
    decide_scrambled,
    find_product_split,
    finite_centralizer_generator,
    induced,
    is_expansive,
    is_irreducible,
    is_spherical,
    uniform_push_condition,
    validate,
)
from coxboundary.decision import (
    BoundaryTooSmall,
    IrreducibleCore,
    OutOfScope,
    ProductSplit,
)
from coxboundary.errors import (
    BoundaryTooSmallError,
    NotRightAngled,
    OrderNotInfinite,
)

import oracles


def test_boundary_size_classes():
    commuting = oracles.ra_system_from_graph(3, [(0, 1), (0, 2), (1, 2)])
    assert boundary_size_class(commuting) == EMPTY
    assert boundary_size_class(oracles.free_product(2)) == TWO_POINTS
    assert boundary_size_class(oracles.free_product(3)) == MORE_THAN_TWO
    # two-point boundary with a finite direct factor
    padded = oracles.ra_system_from_graph(3, [(0, 2), (1, 2)])
    assert boundary_size_class(padded) == TWO_POINTS
    assert boundary_size_class(oracles.dinf_x_dinf()) == MORE_THAN_TWO
    assert boundary_size_class(oracles.figure_one()) == MORE_THAN_TWO


def test_decide_scrambled_examples():
    verdict = decide_scrambled(oracles.free_product(3))
    assert verdict.outcome == SCRAMBLED
    assert verdict.certificate == IrreducibleCore(frozenset({0, 1, 2}))

    verdict = decide_scrambled(oracles.dinf_x_dinf())
    assert verdict.outcome == NOT_SCRAMBLED
    assert verdict.certificate == ProductSplit(frozenset({0, 1}), frozenset({2, 3}))

    padded = oracles.ra_system_from_graph(3, [(0, 2), (1, 2)])
    verdict = decide_scrambled(padded)
    assert verdict.outcome == NOT_SCRAMBLED
    assert verdict.certificate == BoundaryTooSmall(TWO_POINTS)

    finite = oracles.ra_system_from_graph(3, [(0, 1), (0, 2), (1, 2)])
    verdict = decide_scrambled(finite)
    assert verdict.outcome == NOT_SCRAMBLED
    assert verdict.certificate == BoundaryTooSmall(EMPTY)


def test_decide_scrambled_rejects_general_systems():
    with pytest.raises(NotRightAngled):
        decide_scrambled(oracles.figure_one())


def triangle_x_dinf():
    """The affine (3,3,3) triangle group times an infinite dihedral group."""
    rows = [
        [1, 3, 3, 2, 2],
        [3, 1, 3, 2, 2],
        [3, 3, 1, 2, 2],
        [2, 2, 2, 1, inf],
        [2, 2, 2, inf, 1],
    ]
    return validate(rows, list("vwxyz"))


def test_analyze_general_systems():
    verdict = analyze(oracles.figure_one())
    assert verdict.outcome == UNKNOWN
    assert isinstance(verdict.certificate, OutOfScope)
    # affine (3,3,3) triangle times an infinite dihedral: product obstruction
    system = triangle_x_dinf()
    assert not system.right_angled
    verdict = analyze(system)
    assert verdict.outcome == NOT_SCRAMBLED
    assert verdict.certificate == ProductSplit(frozenset({0, 1, 2}), frozenset({3, 4}))
    assert verdict.certificate.revalidate(system)


def verdict_from_scratch(system):
    """Outcome and certificate rebuilt without the package's structure record.

    Components from the union-find oracle, one spherical test per
    component, and for right-angled systems the irreducibility of the
    induced infinite part; OutOfScope stands for its class.
    """
    infinite = [
        c for c in oracles.connected_components(system) if not is_spherical(system, c)
    ]
    support = frozenset().union(*infinite)
    if not support:
        return NOT_SCRAMBLED, BoundaryTooSmall(EMPTY)
    if len(support) == 2 and system.order(min(support), max(support)) == inf:
        return NOT_SCRAMBLED, BoundaryTooSmall(TWO_POINTS)
    if system.right_angled and is_irreducible(induced(system, support)[0]):
        return SCRAMBLED, IrreducibleCore(support)
    if len(infinite) > 1:
        split = ProductSplit(infinite[0], frozenset().union(*infinite[1:]))
        return NOT_SCRAMBLED, split
    return UNKNOWN, OutOfScope


def test_certificates_revalidate():
    systems = [
        oracles.free_product(3),
        oracles.dinf_x_dinf(),
        oracles.five_cycle(),
        oracles.ra_system_from_graph(3, [(0, 2), (1, 2)]),
        oracles.figure_one(),
        triangle_x_dinf(),
    ]
    for rank in (1, 2, 3, 4, 5):
        systems += oracles.ra_systems_up_to_iso(rank)
    systems += oracles.random_systems(400, seed=53)
    for system in systems:
        verdict = analyze(system)
        outcome, certificate = verdict_from_scratch(system)
        assert verdict.outcome == outcome, system
        if certificate is OutOfScope:
            assert isinstance(verdict.certificate, OutOfScope), system
        else:
            assert verdict.certificate == certificate, system
        assert verdict.certificate.revalidate(system), system
        if system.right_angled:
            assert decide_scrambled(system) == verdict


def test_forged_irreducible_cores_do_not_revalidate():
    dinf2 = oracles.dinf_x_dinf()
    assert not IrreducibleCore(frozenset({0, 1, 2, 3})).revalidate(dinf2)  # split
    assert not IrreducibleCore(frozenset({0, 1})).revalidate(oracles.free_product(3))
    assert not IrreducibleCore(frozenset()).revalidate(oracles.dihedral(3))
    assert IrreducibleCore(frozenset({0, 1, 2})).revalidate(oracles.free_product(3))


def test_out_of_scope_revalidates_only_undecided_systems():
    certificate = analyze(oracles.figure_one()).certificate
    assert isinstance(certificate, OutOfScope)
    assert certificate.revalidate(oracles.figure_one())
    assert not certificate.revalidate(oracles.free_product(3))  # right-angled
    assert not certificate.revalidate(triangle_x_dinf())  # product split
    assert not certificate.revalidate(oracles.dihedral(3))  # finite
    assert not certificate.revalidate(oracles.dihedral(5))  # finite


def test_product_split_examples():
    assert find_product_split(oracles.dinf_x_dinf()) == (
        frozenset({0, 1}),
        frozenset({2, 3}),
    )
    assert find_product_split(oracles.free_product(3)) is None
    assert find_product_split(oracles.figure_one()) is None


def test_reflection_criterion_examples():
    assert finite_centralizer_generator(oracles.free_product(3)) == 0
    assert finite_centralizer_generator(oracles.dinf_x_dinf()) is None
    assert finite_centralizer_generator(oracles.figure_one()) is None


def test_reflection_criterion_never_contradicts_decision():
    for rank in (2, 3, 4, 5):
        for system in oracles.ra_systems_up_to_iso(rank):
            s = finite_centralizer_generator(system)
            if s is None or boundary_size_class(system) != MORE_THAN_TWO:
                continue
            assert decide_scrambled(system).outcome == SCRAMBLED


def test_expansiveness_examples():
    assert is_expansive(oracles.five_cycle())
    assert not is_expansive(oracles.dinf_x_dinf())
    assert is_expansive(oracles.free_product(3))
    with pytest.raises(BoundaryTooSmallError):
        is_expansive(oracles.free_product(2))
    with pytest.raises(NotRightAngled):
        is_expansive(oracles.figure_one())


def test_uniform_push_condition_trivial_pair():
    dinf = oracles.free_product(2)
    ok, witnesses = uniform_push_condition(dinf, 0, 1, 1, 0)
    assert ok
    assert witnesses[((), ())] == (0,)


def test_uniform_push_condition_fails_with_zero_bound():
    dinf = oracles.free_product(2)
    ok, witnesses = uniform_push_condition(dinf, 0, 1, 0, 0)
    assert not ok
    assert ((), ()) not in witnesses


def test_uniform_push_condition_requires_infinite_order():
    dd = oracles.dinf_x_dinf()
    with pytest.raises(OrderNotInfinite):
        uniform_push_condition(dd, 0, 2, 3, 1)


def test_uniform_push_condition_general_fallback():
    d3 = oracles.dihedral(3)
    # finite dihedral group has no infinite pair at all
    with pytest.raises(OrderNotInfinite):
        uniform_push_condition(d3, 0, 1, 2, 1)
    fig = oracles.figure_one()
    ok, witnesses = uniform_push_condition(fig, 0, 3, 3, 1)
    # witnesses, when present, genuinely land both elements in the class
    from coxboundary import descent_set

    for (w, v), x in witnesses.items():
        assert descent_set(fig, w + x) == {0}
        assert descent_set(fig, v + x) == {0}


def test_checker_decision_agreement_rank3():
    """Irreducible right-angled systems admit a uniform bound."""
    for system in [
        oracles.free_product(3),
        oracles.ra_system_from_graph(3, [(0, 1)]),
    ]:
        bound = 2 * system.rank + 1
        for s0 in system.generators:
            for t0 in system.generators:
                if system.order(s0, t0) != inf:
                    continue
                ok, _ = uniform_push_condition(system, s0, t0, bound, 4)
                assert ok, (system.labels, s0, t0)


def test_checker_decision_agreement_rank4_sample():
    system = oracles.free_product(4)
    ok, _ = uniform_push_condition(system, 0, 1, 2 * system.rank + 1, 4)
    assert ok


def test_verdict_describe():
    text = decide_scrambled(oracles.free_product(3)).describe(
        oracles.free_product(3)
    )
    assert "scrambled" in text and "irreducible-core" in text
