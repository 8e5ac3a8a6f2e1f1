"""Core word-problem and diagram-combinatorics tests."""

import random
from math import inf

import pytest

from coxboundary import (
    ball,
    descent_set,
    infinite_support,
    inverse_word,
    irreducible_components,
    is_spherical,
    reduce,
    validate,
    word_distance,
    word_length,
)
from coxboundary.core import _tits_canonical, check_word
from coxboundary.errors import (
    AsymmetricMatrix,
    BadDiagonal,
    CoxboundaryError,
    DuplicateLabel,
    EntryBelowTwo,
    InvalidMatrix,
)

import oracles


def dinf():
    return validate([[1, inf], [inf, 1]], ["a", "b"])


def test_validate_dinf():
    system = dinf()
    assert system.rank == 2
    assert system.right_angled


def test_validate_figure_one_example():
    system = oracles.figure_one()
    assert not system.right_angled
    assert system.order(1, 2) == 4


def test_validate_rejects_entry_below_two():
    with pytest.raises(EntryBelowTwo) as err:
        validate([[1, 1], [1, 1]], ["a", "b"])
    assert err.value.pair == (0, 1)


def test_validate_rejects_asymmetric():
    with pytest.raises(AsymmetricMatrix):
        validate([[1, 3], [4, 1]], ["a", "b"])


def test_validate_rejects_bad_diagonal():
    with pytest.raises(BadDiagonal):
        validate([[2, 3], [3, 1]], ["a", "b"])


def test_validate_rejects_duplicate_label():
    with pytest.raises(DuplicateLabel):
        validate([[1, 2], [2, 1]], ["a", "a"])


def test_validate_rejects_non_integer_orders():
    with pytest.raises(InvalidMatrix, match=r"\(0, 1\)"):
        validate([[1, 2.5], [2.5, 1]], ["a", "b"])
    with pytest.raises(InvalidMatrix, match=r"\(1, 1\)"):
        validate([[1, inf], [inf, True]], ["a", "b"])


def test_check_word_rejects_bool_letters():
    with pytest.raises(ValueError, match="True"):
        check_word(dinf(), (0, True))
    with pytest.raises(ValueError):
        reduce(dinf(), (False,))
    assert check_word(dinf(), [1, 0]) == (1, 0)


@pytest.mark.parametrize(
    "call",
    [
        lambda: check_word(dinf(), (0, 2)),
        lambda: check_word(dinf(), (True,)),
        lambda: validate([[1, 2], [2]], ["a", "b"]),
        lambda: validate([[1, 2], [2, 1]], ["a"]),
    ],
    ids=["letter-out-of-range", "bool-letter", "ragged-row", "label-count"],
)
def test_word_and_shape_errors_are_typed(call):
    with pytest.raises(CoxboundaryError):
        call()


def test_reduce_involution():
    assert reduce(dinf(), (0, 0)) == ()


def test_reduce_dihedral_braid():
    d4 = oracles.dihedral(4)
    out = reduce(d4, (0, 1, 0, 1, 0))
    assert len(out) == 3
    # same element by the matrix oracle
    assert oracles.word_matrix(d4, out) == oracles.word_matrix(d4, (0, 1, 0, 1, 0))


def test_reduce_already_reduced():
    # m(a,b) = 2, other pairs infinite: b c b admits no rewrite
    system = oracles.ra_system_from_graph(3, [(0, 1)])
    assert reduce(system, (1, 2, 1)) == (1, 2, 1)
    assert word_length(system, (1, 2, 1)) == 3
    # with a and b commuting, b a b collapses to a
    assert reduce(system, (1, 0, 1)) == (0,)


def test_word_length_examples():
    assert word_length(dinf(), ()) == 0
    assert word_length(dinf(), (0, 1, 0, 1)) == 4
    assert word_length(oracles.dihedral(4), (0, 1, 0, 1, 0)) == 3


def test_word_distance_examples():
    system = dinf()
    assert word_distance(system, (0, 1), (0, 1)) == 0
    assert word_distance(system, (0,), (1,)) == 2
    assert word_distance(system, (0, 1, 0), (1, 0, 1)) == 6


def test_descent_set_examples():
    system = dinf()
    assert descent_set(system, ()) == frozenset()
    assert descent_set(system, (0, 1, 0)) == {0}
    commuting = oracles.ra_system_from_graph(2, [(0, 1)])
    assert descent_set(commuting, (0, 1)) == {0, 1}


def test_spherical_figure_one():
    fig = oracles.figure_one()
    assert is_spherical(fig, {0, 1, 2})  # s, t1, t2
    assert not is_spherical(fig, {1, 2, 3})  # the flat-plane triple
    assert is_spherical(fig, set())


@pytest.mark.parametrize(
    "rows,finite",
    [
        ([[1, 3], [3, 1]], True),  # dihedral
        ([[1, 3, 2], [3, 1, 3], [2, 3, 1]], True),  # A3 path
        ([[1, 4, 2], [4, 1, 3], [2, 3, 1]], True),  # B3
        ([[1, 5, 2], [5, 1, 3], [2, 3, 1]], True),  # H3
        ([[1, 3, 2, 2], [3, 1, 4, 2], [2, 4, 1, 3], [2, 2, 3, 1]], True),  # F4
        ([[1, 3, 3], [3, 1, 3], [3, 3, 1]], False),  # (3,3,3) triangle
        ([[1, 4, 4], [4, 1, 2], [4, 2, 1]], False),  # (4,4,2) triangle
        ([[1, 6, 2], [6, 1, 3], [2, 3, 1]], False),  # G2 tilde
        ([[1, inf], [inf, 1]], False),
    ],
)
def test_spherical_classification_table(rows, finite):
    labels = [f"g{i}" for i in range(len(rows))]
    assert is_spherical(validate(rows, labels), set(range(len(rows)))) == finite


def test_spherical_type_d_and_e():
    # star with three arms of length 1 (type D4)
    rows = [[1, 3, 3, 3], [3, 1, 2, 2], [3, 2, 1, 2], [3, 2, 2, 1]]
    assert is_spherical(validate(rows, list("wxyz")), {0, 1, 2, 3})
    # four arms is not a finite type
    rows = [
        [1, 3, 3, 3, 3],
        [3, 1, 2, 2, 2],
        [3, 2, 1, 2, 2],
        [3, 2, 2, 1, 2],
        [3, 2, 2, 2, 1],
    ]
    assert not is_spherical(validate(rows, list("vwxyz")), {0, 1, 2, 3, 4})


def test_components_examples():
    dd = oracles.dinf_x_dinf()
    assert sorted(sorted(c) for c in irreducible_components(dd)) == [[0, 1], [2, 3]]
    fig = oracles.figure_one()
    assert [sorted(c) for c in irreducible_components(fig)] == [[0, 1, 2, 3]]
    commuting = oracles.ra_system_from_graph(3, [(0, 1), (0, 2), (1, 2)])
    assert sorted(sorted(c) for c in irreducible_components(commuting)) == [
        [0],
        [1],
        [2],
    ]


def test_components_commute_across():
    for system in oracles.ra_systems_up_to_iso(4):
        comps = irreducible_components(system)
        for i, a in enumerate(comps):
            for b in comps[i + 1 :]:
                for s in a:
                    for t in b:
                        assert system.order(s, t) == 2


def test_components_match_connectivity_oracle():
    for system in oracles.random_systems(400, seed=53):
        assert irreducible_components(system) == oracles.connected_components(
            system
        )


def test_infinite_support_examples():
    assert infinite_support(oracles.dinf_x_dinf()) == {0, 1, 2, 3}
    commuting = oracles.ra_system_from_graph(3, [(0, 1), (0, 2), (1, 2)])
    assert infinite_support(commuting) == frozenset()
    lonely = oracles.ra_system_from_graph(3, [(0, 2), (1, 2)])
    assert infinite_support(lonely) == {0, 1}


def test_infinite_support_complement_is_spherical():
    for rank in (3, 4):
        for system in oracles.ra_systems_up_to_iso(rank):
            support = infinite_support(system)
            assert is_spherical(system, set(range(system.rank)) - support)
    fig = oracles.figure_one()
    assert is_spherical(fig, set(range(4)) - infinite_support(fig))


def test_spherical_matches_group_enumeration_rank3():
    """Exhaustive rank-3 cross-check of the diagram table.

    Every rank-3 system with orders in {2, 3, 4, inf} is enumerated and the
    table's verdict is compared against breadth-first closure of the matrix
    representation (the largest finite rank-3 group here has 48 elements, so
    a 1000-element cap separates finite from infinite safely).
    """
    import itertools

    for orders in itertools.product([2, 3, 4, inf], repeat=3):
        m01, m02, m12 = orders
        rows = [[1, m01, m02], [m01, 1, m12], [m02, m12, 1]]
        system = validate(rows, ["x", "y", "z"])
        mats = oracles.generator_matrices(system)
        seen = {oracles.identity_matrix(3)}
        frontier = list(seen)
        finite = None
        while frontier:
            new = []
            for mat in frontier:
                for s in range(3):
                    nxt = oracles._mat_mul(mat, mats[s], 3)
                    if nxt not in seen:
                        seen.add(nxt)
                        new.append(nxt)
            if len(seen) > 1000:
                finite = False
                break
            frontier = new
        if finite is None:
            finite = True
        assert is_spherical(system, {0, 1, 2}) == finite, orders


def test_word_length_exhaustive_figure_one():
    """Every word of length <= 6 in the worked example, against BFS."""
    import itertools

    fig = oracles.figure_one()
    dist = oracles.bfs_distances(fig, 6)
    mats = oracles.generator_matrices(fig)
    for length in range(7):
        for word in itertools.product(range(4), repeat=length):
            assert word_length(fig, word) == dist[oracles.word_matrix(fig, word, mats)]


def test_oracle_equivalence_small_systems():
    """Word length equals breadth-first Cayley distance, per matrix oracle."""
    rng = random.Random(7)
    for system in [
        dinf(),
        oracles.dihedral(3),
        oracles.dihedral(4),
        oracles.figure_one(),
        validate([[1, 3, 3], [3, 1, 3], [3, 3, 1]], ["x", "y", "z"]),
    ]:
        dist = oracles.bfs_distances(system, 8)
        mats = oracles.generator_matrices(system)
        for _ in range(120):
            word = tuple(
                rng.randrange(system.rank) for _ in range(rng.randrange(9))
            )
            mat = oracles.word_matrix(system, word, mats)
            assert word_length(system, word) == dist[mat]


def test_canonicity_random():
    rng = random.Random(11)
    for system in [dinf(), oracles.dihedral(4), oracles.free_product(3)]:
        words = [
            tuple(rng.randrange(system.rank) for _ in range(rng.randrange(8)))
            for _ in range(60)
        ]
        for u in words:
            for v in words[:20]:
                same = reduce(system, u) == reduce(system, v)
                assert same == (word_distance(system, u, v) == 0)


def test_descent_length_consistency():
    rng = random.Random(13)
    for system in [dinf(), oracles.dihedral(4), oracles.five_cycle()]:
        for _ in range(80):
            word = tuple(
                rng.randrange(system.rank) for _ in range(rng.randrange(10))
            )
            length = word_length(system, word)
            descents = descent_set(system, word)
            for s in system.generators:
                neighbour = word_length(system, word + (s,))
                assert abs(neighbour - length) == 1
                assert (s in descents) == (neighbour == length - 1)


def test_descents_are_spherical():
    rng = random.Random(17)
    for system in [oracles.figure_one(), oracles.five_cycle(), oracles.dihedral(4)]:
        for _ in range(60):
            word = tuple(
                rng.randrange(system.rank) for _ in range(rng.randrange(10))
            )
            assert is_spherical(system, descent_set(system, word))


def test_ball_enumeration_matches_oracle_counts():
    f3 = oracles.free_product(3)
    assert len(ball(f3, 8)) == 766  # 1 + 3 * (2^8 - 1)
    d4 = oracles.dihedral(4)
    assert len(ball(d4, 8)) == 8
    fig = oracles.figure_one()
    assert len(ball(fig, 4)) == len(oracles.bfs_distances(fig, 4))


def test_tits_agrees_with_ra_engine():
    rng = random.Random(19)
    for system in [oracles.free_product(3), oracles.dinf_x_dinf(), oracles.five_cycle()]:
        for _ in range(60):
            word = tuple(
                rng.randrange(system.rank) for _ in range(rng.randrange(9))
            )
            assert _tits_canonical(system, word) == reduce(system, word)


def test_inverse_word():
    assert inverse_word((0, 1, 2)) == (2, 1, 0)


# ---------------------------------------------------------------------------
# General reducer against the rewriting-closure oracle


def _chain(orders, branch=None):
    """System whose consecutive generators have the given orders, plus an
    optional extra generator of order 3 with ``branch``; all other pairs
    commute."""
    n = len(orders) + 1 + (branch is not None)
    rows = [[1 if i == j else 2 for j in range(n)] for i in range(n)]
    for i, m in enumerate(orders):
        rows[i][i + 1] = rows[i + 1][i] = m
    if branch is not None:
        rows[branch][n - 1] = rows[n - 1][branch] = 3
    return validate(rows, [f"g{i}" for i in range(n)])


def _triangle(p, q, r):
    return validate([[1, p, q], [p, 1, r], [q, r, 1]], ["x", "y", "z"])


CLOSURE_SYSTEMS = {
    "A3": _chain([3, 3]),
    "B3": _chain([4, 3]),
    "H3": _chain([5, 3]),
    "G2": _chain([6]),
    "I2(8)": _chain([8]),
    "(2,3,7)": _triangle(2, 3, 7),
    "(3,3,4)": _triangle(3, 3, 4),
    "(5,5,5)": _triangle(5, 5, 5),
    "figure-one": oracles.figure_one(),
    "(2,4,5)": _triangle(4, 2, 5),  # two irrational orders: theta = 2cos(pi/20)
}


@pytest.mark.parametrize("name", sorted(CLOSURE_SYSTEMS))
def test_reduce_matches_closure_oracle(name):
    import itertools

    system = CLOSURE_SYSTEMS[name]
    memo = {}
    for length in range(7):
        for word in itertools.product(range(system.rank), repeat=length):
            assert reduce(system, word) == oracles.closure_canonical(
                system, word, memo
            ), word
    rng = random.Random(name)
    for _ in range(25):
        word = tuple(rng.randrange(system.rank) for _ in range(12))
        canonical = oracles.closure_canonical(system, word, memo)
        assert reduce(system, word) == canonical, word
        assert descent_set(system, word) == {
            s
            for s in system.generators
            if len(oracles.closure_canonical(system, word + (s,), memo))
            < len(canonical)
        }, word


def test_figure_one_long_conjugate_is_exact():
    """A reduced 49-letter word whose roots defeat double precision."""
    fig = oracles.figure_one()
    s, t1, t2, t3 = range(4)
    word = (s, t3, t1) * 8 + (t2,) + (t1, t3, s) * 8
    assert oracles.root_length(fig, word) == 49
    out = reduce(fig, word)
    assert len(out) == 49
    assert oracles.word_matrix(fig, out) == oracles.word_matrix(fig, word)
    assert oracles.root_length(fig, out) == 49


def _bipartite_coxeter_element(rows):
    """One colour class of a tree diagram, then the other.

    For even Coxeter number h, c^(h/2) is the longest element, of length
    rank * h / 2 (Bourbaki, Lie Groups and Lie Algebras, ch. V, sec. 6).
    """
    n = len(rows)
    colour = {0: 0}
    stack = [0]
    while stack:
        u = stack.pop()
        for v in range(n):
            if v != u and rows[u][v] != 2 and v not in colour:
                colour[v] = 1 - colour[u]
                stack.append(v)
    return tuple(u for u in range(n) if colour[u] == 0) + tuple(
        u for u in range(n) if colour[u] == 1
    )


@pytest.mark.parametrize(
    "name,orders,branch,h,length",
    [
        ("A5", [3, 3, 3, 3], None, 6, 15),
        ("A7", [3, 3, 3, 3, 3, 3], None, 8, 28),
        ("H4", [5, 3, 3], None, 30, 60),
        ("E8", [3, 3, 3, 3, 3, 3], 2, 30, 120),  # chain 0-...-6, node 7 on node 2
    ],
)
def test_longest_elements(name, orders, branch, h, length):
    system = _chain(orders, branch)
    w0 = _bipartite_coxeter_element(system.matrix.entries) * (h // 2)
    assert len(w0) == length
    assert len(reduce(system, w0)) == length
    assert descent_set(system, w0) == frozenset(system.generators)
    for s in system.generators:
        assert word_length(system, w0 + (s,)) == length - 1


def _s_value(k, x):
    """S_k(x) from S_-1 = 0, S_0 = 1 and S_(j+1) = x S_j - S_(j-1)."""
    prev, cur = 0, 1
    for _ in range(k):
        prev, cur = cur, x * cur - prev
    return cur


def test_kappa_brackets_two_cos():
    """0 < 2 cos(pi/m) 2^p - K < 2, checked in exact rational arithmetic.

    2 cos(pi/m) is the largest root of S_(m-1), which is positive above
    it and negative just below it.
    """
    from fractions import Fraction
    from math import cos, pi

    from coxboundary.core import _kappa

    for m in range(4, 41):
        for p in (64, 128, 256, 512):
            K = _kappa(m, p)
            assert abs(K / 2**p - 2 * cos(pi / m)) < 1e-12, (m, p)
            below = _s_value(m - 1, Fraction(K - 2, 2**p))
            above = _s_value(m - 1, Fraction(K + 2, 2**p))
            assert below < 0 < above, (m, p)
            assert _s_value(m - 1, Fraction(K, 2**p)) < 0, (m, p)  # K rounds down


def test_precision_follows_the_orders(monkeypatch):
    """Orders in {2, 3, inf} take the exact integer path, p = 0."""
    from coxboundary import core

    used = []
    roots = core._Roots
    monkeypatch.setattr(
        core, "_Roots", lambda system, p: used.append(p) or roots(system, p)
    )
    word = (0, 1, 2, 0, 2, 1) * 10
    _tits_canonical(oracles.dinf_x_dinf(), word + (3,))
    system = _triangle(3, 3, inf)
    reduce(system, word)
    descent_set(system, word)
    assert used == [0, 0, 0]
    used.clear()
    system = CLOSURE_SYSTEMS["(2,4,5)"]
    reduce(system, word[:10])
    descent_set(system, word)
    assert used[0] == 64 and used[-1] >= 4 * len(word)


def _within(C, E, exact, p):
    """C - E <= c 2^p <= C + E for the exact coordinate c = a + b sqrt(2)."""
    a, b = exact
    low = oracles._sqrt2_sign((C - E - a * 2**p, -b * 2**p))
    high = oracles._sqrt2_sign((C + E - a * 2**p, -b * 2**p))
    return low <= 0 <= high


def test_fixed_point_error_bounds_hold():
    """Every coordinate stays within its column's bound of the exact root.

    Figure one has orders 4 and inf, so its roots lie in Z[sqrt(2)] and
    the oracle matrices give them exactly; row t of the matrix of a word w
    is w^-1(alpha_t).  Low precisions make the bounds large and tight.
    """
    from coxboundary.core import _Roots

    fig = oracles.figure_one()
    rng = random.Random(2)
    for p in (4, 8, 16, 64):
        roots = _Roots(fig, p)
        for _ in range(30):
            word = tuple(rng.randrange(4) for _ in range(rng.randrange(1, 25)))
            cols, errors = roots.fold(word)
            for s in [rng.randrange(4) for _ in range(4)]:
                exact = oracles.word_matrix(fig, word)
                for t in range(4):
                    for u in range(4):
                        assert _within(cols[t][u], errors[t], exact[t][u], p)
                roots.multiply_right(cols, errors, s)
                word = (s,) + word


def test_large_coprime_orders():
    """Coprime orders 31 and 37: short words against the closure oracle, the
    dihedral braid words, and a time budget."""
    import time

    system = validate([[1, 31, 2], [31, 1, 37], [2, 37, 1]], ["a", "b", "c"])
    rng = random.Random(3137)
    words = [
        tuple(rng.randrange(3) for _ in range(rng.randrange(13)))
        for _ in range(100)
    ]
    braids = [(1, 0) * 15 + (1,), (0, 1) * 15 + (0,), (2, 1) * 18 + (2,)]
    braids.append((1, 2) * 18 + (1,))
    start = time.monotonic()
    got = [reduce(system, w) for w in words + braids]
    assert reduce(system, (0, 1) * 31) == ()
    elapsed = time.monotonic() - start
    assert elapsed < 5, f"{elapsed:.1f}s"
    memo = {}
    for word, canonical in zip(words + braids, got):
        assert canonical == oracles.closure_canonical(system, word, memo), word
    for word, canonical in zip(braids, got[100:]):
        assert len(canonical) == len(word)
