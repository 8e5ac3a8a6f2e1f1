"""Coxeter systems and the word problem.

A Coxeter system is described by an ordered list of generator labels and a
symmetric matrix of product orders; ``math.inf`` marks an infinite order.
Group elements are handled through words (tuples of generator indices), with
``reduce`` mapping every word to a canonical reduced representative, so that
two words represent the same element exactly when their canonical forms are
equal tuples.

All functions here are pure.  Each system's ``_memo`` caches results of
pure computations on that system, so concurrent use is safe (at worst a
value is recomputed).  It holds two entries, each built on first use:
``"structure"``, the irreducible components and the infinite ones
(``_structure``), which every component, size-class and split question
reads; and ``"chains"``, the chains of ``racg.build_chain``.  The word
problem keeps no per-system state: only its fixed-point values of
2 cos(pi / m) are cached, per order and precision, for the whole process.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from math import floor, inf

from .errors import (
    AsymmetricMatrix,
    BadDiagonal,
    BadLetter,
    BadShape,
    DuplicateLabel,
    EntryBelowTwo,
    InvalidMatrix,
)

Word = tuple  # sequence of generator indices


@dataclass(frozen=True)
class CoxeterMatrix:
    """Symmetric table of pairwise product orders, 1 on the diagonal."""

    entries: tuple

    @property
    def rank(self):
        return len(self.entries)

    def order(self, i, j):
        return self.entries[i][j]


@dataclass(frozen=True)
class CoxeterSystem:
    labels: tuple
    matrix: CoxeterMatrix
    right_angled: bool
    # pure-result caches; idempotent, safe to drop or rebuild at any time
    _memo: dict = field(default_factory=dict, compare=False, repr=False)
    # per generator s, the bitmask of the generators commuting with s (order
    # <= 2, own bit set): the one place commutation is read off the matrix
    _commuting: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        commuting = tuple(
            sum(1 << t for t, m in enumerate(row) if m <= 2)
            for row in self.matrix.entries
        )
        object.__setattr__(self, "_commuting", commuting)

    @property
    def rank(self):
        return len(self.labels)

    @property
    def generators(self):
        return range(len(self.labels))

    def order(self, i, j):
        return self.matrix.entries[i][j]

    def index_of(self, label):
        try:
            return self.labels.index(label)
        except ValueError:
            from .errors import UnknownGenerator

            raise UnknownGenerator(label) from None


def validate(entries, labels):
    """Check matrix and label invariants and build a CoxeterSystem.

    ``entries`` is a square table whose values are integers >= 1 or
    ``math.inf``; ``labels`` is a sequence of distinct printable strings of
    the same length.  Raises BadShape (ragged rows, label count),
    InvalidMatrix (non-integer entry), AsymmetricMatrix, BadDiagonal,
    EntryBelowTwo or DuplicateLabel naming the first offending position.
    """
    labels = tuple(labels)
    rows = tuple(tuple(row) for row in entries)
    n = len(rows)
    if len(labels) != n:
        raise BadShape(f"{len(labels)} labels for a rank-{n} matrix")
    seen = {}
    for i, lab in enumerate(labels):
        if lab in seen:
            raise DuplicateLabel(lab, seen[lab], i)
        seen[lab] = i
    for i, row in enumerate(rows):
        if len(row) != n:
            raise BadShape(f"row {i} has {len(row)} entries, expected {n}")
        for j, m in enumerate(row):
            if type(m) is not int and m != inf:
                raise InvalidMatrix(
                    f"entry at ({i}, {j}) must be an integer or inf, got {m!r}"
                )
    for i in range(n):
        if rows[i][i] != 1:
            raise BadDiagonal(i)
        for j in range(i + 1, n):
            if rows[i][j] != rows[j][i]:
                raise AsymmetricMatrix(i, j)
            if rows[i][j] < 2:
                raise EntryBelowTwo(i, j)
    right_angled = all(
        rows[i][j] == 2 or rows[i][j] == inf
        for i in range(n)
        for j in range(i + 1, n)
    )
    return CoxeterSystem(labels, CoxeterMatrix(rows), right_angled)


def check_word(system, word):
    word = tuple(word)
    rank = system.rank
    for x in word:
        if type(x) is not int or not 0 <= x < rank:
            raise BadLetter(f"letter {x!r} out of range for rank {rank}")
    return word


# ---------------------------------------------------------------------------
# Word problem.
#
# Elements act on the geometric representation: the real vector space with
# basis alpha_s (the simple roots) and the form B(alpha_s, alpha_t) =
# -cos(pi / m(s, t)), read as -1 for infinite order.  The reflection for s
# changes only the alpha_s coordinate of a vector,
#
#     c_s  ->  -c_s + sum over t != s of kappa(s, t) c_t,
#
# with kappa(s, t) = -2 B(alpha_s, alpha_t) = 2 cos(pi / m(s, t)), which is
# 0, 1 and 2 for the orders 2, 3 and inf.  The image of a simple root is a
# root, whose coordinates are all >= 0 or all <= 0, and s is a left descent
# of w exactly when w^-1(alpha_s) is negative (Bjorner-Brenti, Combinatorics
# of Coxeter Groups, ch. 4).  Repeatedly taking the smallest left descent
# spells the lexicographically least reduced word, which is the canonical
# form: O(len * rank^2) integer operations per word.
#
# Only root signs are ever read, so certified fixed-point coordinates are
# enough (adaptive precision, as in C. K. Yap, "Towards exact geometric
# computation", Comput. Geom. 7, 1997).  At precision p a coordinate c is
# stored as an integer C with |C - c 2^p| <= E, where E is one integer error
# bound per column (a root).  An order m >= 4 other than inf gives an
# irrational kappa, stored as K = floor(lo 2^p) for a bracket lo <= kappa
# <= lo + 2^-p (_kappa), so |K - kappa 2^p| < 2, and applied to a
# coordinate as (K C) >> p.  Now (K C) / 2^p - kappa c 2^p =
# (K - kappa 2^p) C / 2^p + kappa (C - c 2^p): the first term is below
# floor(2|C| / 2^p) + 1 in size, the second at most 2E as kappa < 2, and the
# shift floors by less than 1, so the product is off by less than
# 2E + floor(2|C| / 2^p) + 2, which the code adds to the bound.  An integer
# kappa multiplies exactly and adds kappa E.  A root's sign is read from its
# coordinate of largest |C|, and only when |C| > E; otherwise the precision
# doubles and the word is refolded (_certified).  That ends: B(beta, beta) =
# 1 for a root beta, B(alpha_s, alpha_t) <= 0 for s != t and the
# coordinates share one sign, so their squares sum to at least 1 and the
# largest has |c| >= 1/sqrt(rank), while E stays bounded as p grows (each
# operation adds a few units and about 2|c|), so 2^p / sqrt(rank) > 2E, and
# then |C| > E, once p is large enough.  With orders in {2, 3, inf} only,
# every kappa is an integer: p = 0, E = 0 and the coordinates are exact.  No
# float is compared anywhere.  Double precision is not enough: on the
# figure-one system it turns the reduced 49-letter word
# (s t3 t1)^8 t2 (t1 t3 s)^8 into a shorter word for another element.
# Nothing is cached per system; the kappa brackets are cached per (order,
# precision) for the whole process.  Right-angled systems take a fast path
# on the commuting masks (see racg): linear per appended letter, quadratic
# per word.


def _poly_value(p, x):
    value = 0
    for c in reversed(p):
        value = value * x + c
    return value


def _theta_bounds(poly, prec):
    """Rationals lo <= theta <= hi with hi - lo <= 2^-prec.

    theta is the largest root of ``poly``, whose roots are real and below
    2.  Newton's method started above the largest root of such a polynomial
    f decreases towards it without crossing it, and x - D f(x) / f'(x) <=
    theta below any such x, because f'/f = sum of 1/(x - r) over the D roots
    r is at most D / (x - theta).  Iterates are rounded up to a grid finer
    than 2^-prec, which keeps them above theta and their denominators small.
    """
    degree = len(poly) - 1
    deriv = [i * c for i, c in enumerate(poly)][1:]
    grid = 1 << (prec + degree.bit_length() + 1)
    bound = Fraction(1, 1 << prec)
    x = Fraction(2)
    while True:
        step = _poly_value(poly, x) / _poly_value(deriv, x)
        if degree * step <= bound:
            return x - degree * step, x
        x = Fraction(-((step - x) * grid // 1), grid)


def _chebyshev_u(k):
    """S_k, with S_0 = 1, S_1 = x and S_(j+1) = x S_j - S_(j-1).

    S_k(2 cos a) = sin((k + 1) a) / sin a, so the roots of S_(m-1) are the
    m - 1 distinct reals 2 cos(j pi / m), the largest 2 cos(pi / m).
    """
    prev, cur = [1], [0, 1]
    for _ in range(k):
        prev, cur = cur, [-c for c in prev] + [0, 0]
        for i, c in enumerate(prev):
            cur[i + 1] += c
    return prev


_KAPPAS = {}  # (order, p) -> K, shared by every system of the process


def _kappa(m, p):
    """K with 0 <= 2 cos(pi / m) 2^p - K < 2, for a finite order m >= 4."""
    K = _KAPPAS.get((m, p))
    if K is None:
        lo, _ = _theta_bounds(_chebyshev_u(m - 1), p)
        K = _KAPPAS[m, p] = floor(lo * (1 << p))
    return K


class _Uncertain(Exception):
    """A root sign cannot be certified at the current precision."""


class _Roots:
    """Fixed-point root arithmetic of one system at precision p.

    A column is a list of rank integer coordinates, with its error bound
    kept alongside (see the word-problem notes above).  ``links[s]`` holds
    the pairs (t, kappa) with integer kappa and the pairs (t, K) with
    irrational kappa, for the t != s of order other than 2.
    """

    def __init__(self, system, p):
        self.p = p
        self.rank = system.rank
        self.links = []
        for s, row in enumerate(system.matrix.entries):
            exact, inexact = [], []
            for t, m in enumerate(row):
                if m == inf or m == 3:
                    exact.append((t, 2 if m == inf else 1))
                elif m > 3:
                    inexact.append((t, _kappa(m, p)))
            self.links.append((exact, inexact))

    def fold(self, letters):
        """Images of the simple roots under S_(l_n) ... S_(l_1), as columns.

        The reflection of the first letter acts first, so the word of w
        gives w^-1 and its reversal gives w.  Returns the columns and their
        error bounds.
        """
        n, p = self.rank, self.p
        cols = [[1 << p if u == t else 0 for u in range(n)] for t in range(n)]
        errors = [0] * n
        for s in letters:
            exact, inexact = self.links[s]
            for i, col in enumerate(cols):
                e = errors[i]
                c, grown = -col[s], e
                for t, k in exact:
                    c += k * col[t]
                    grown += k * e
                for t, K in inexact:
                    x = col[t]
                    c += (K * x) >> p
                    grown += 2 * e + (2 * abs(x) >> p) + 2
                col[s] = c
                errors[i] = grown
        return cols, errors

    def multiply_right(self, cols, errors, s):
        """Replace the columns of a map g by those of g S_s.

        g S_s (alpha_t) = g(alpha_t) + kappa(s, t) g(alpha_s) for t != s,
        and g S_s (alpha_s) = -g(alpha_s).
        """
        p, cs, e = self.p, cols[s], errors[s]
        exact, inexact = self.links[s]
        for t, k in exact:
            cols[t] = [a + k * b for a, b in zip(cols[t], cs)]
            errors[t] += k * e
        if inexact:
            grown = 2 * e + (2 * max(map(abs, cs)) >> p) + 2
            for t, K in inexact:
                cols[t] = [a + ((K * b) >> p) for a, b in zip(cols[t], cs)]
                errors[t] += grown
        cols[s] = [-b for b in cs]

    @staticmethod
    def negative(col, error):
        """True when the root is negative; raises _Uncertain if unsure."""
        c = max(col, key=abs)
        if abs(c) <= error:
            raise _Uncertain
        return c < 0


def _certified(system, length, run):
    """``run(roots)``, at a precision doubled until its signs are certain.

    The start grows with the word length, as the error bounds do, and is
    0 when every kappa is an integer (no sign is ever uncertain then).
    """
    p = 0
    if any(3 < m < inf for row in system.matrix.entries for m in row):
        p = 64
        while p < 4 * length:
            p *= 2
    while True:
        try:
            return run(_Roots(system, p))
        except _Uncertain:
            p *= 2


def _tits_canonical(system, word):
    """Lexicographically least reduced word of the element; any system.

    Greedy smallest left descent, read from the columns w^-1(alpha_t) of
    the remaining element w.
    """

    def run(roots):
        cols, errors = roots.fold(word)
        out = []
        while True:
            for s in system.generators:
                if roots.negative(cols[s], errors[s]):
                    break
            else:
                return tuple(out)
            out.append(s)
            roots.multiply_right(cols, errors, s)

    return _certified(system, len(word), run)


def reduce(system, word):
    """Canonical reduced word representing the same element as ``word``."""
    word = check_word(system, word)
    if system.right_angled:
        from . import racg

        return racg._fold(system, word)
    return _tits_canonical(system, word)


def word_length(system, word):
    """Length of the element represented by ``word``."""
    return len(reduce(system, word))


def inverse_word(word):
    # generators are involutions, so reversal inverts
    return tuple(reversed(word))


def word_distance(system, u, v):
    """Word metric: length of u^-1 v."""
    u = check_word(system, u)
    v = check_word(system, v)
    return word_length(system, inverse_word(u) + v)


def descent_set(system, word):
    """Generators s with length(w s) < length(w); empty exactly for 1."""
    word = check_word(system, word)
    if system.right_angled:
        from . import racg

        return racg._descents(system, racg._fold(system, word))

    def run(roots):  # right descents: the s with w(alpha_s) < 0
        cols, errors = roots.fold(reversed(word))
        return frozenset(
            s for s in system.generators if roots.negative(cols[s], errors[s])
        )

    return _certified(system, len(word), run)


# ---------------------------------------------------------------------------
# Finiteness of standard parabolic subgroups.
#
# A subset is spherical exactly when every irreducible component of its
# induced diagram is one of the finite diagram types.  The components of a
# subset are connected pieces of the graph whose edges are the pairs that do
# not commute (order >= 3, infinite included), found by a breadth-first
# search over the commuting masks; distinct components commute elementwise.


def _bits(mask):
    """Indices of the set bits of ``mask``, ascending."""
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def _components_of(system, members):
    commuting = system._commuting
    remaining = sum(1 << s for s in members)  # members has no repeats
    parts = []
    while remaining:
        comp = frontier = remaining & -remaining
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            new = remaining & ~comp & ~commuting[low.bit_length() - 1]
            comp |= new
            frontier |= new
        remaining &= ~comp
        parts.append(frozenset(_bits(comp)))
    return parts


def _structure(system):
    """The irreducible components and the infinite ones, as tuples.

    Computed once per system: the infinite components are those whose
    parabolic subgroup is infinite, and their union generates the minimum
    finite-index parabolic subgroup.
    """
    structure = system._memo.get("structure")
    if structure is None:
        comps = tuple(_components_of(system, system.generators))
        infinite = tuple(c for c in comps if not _component_is_finite(system, c))
        structure = system._memo["structure"] = (comps, infinite)
    return structure


def irreducible_components(system):
    """Partition of the generators into irreducible diagram components."""
    return list(_structure(system)[0])


def _branch_lengths(adj, center):
    lengths = []
    for first in adj[center]:
        length = 1
        prev, cur = center, first
        while True:
            nxt = [x for x in adj[cur] if x != prev]
            if not nxt:
                break
            prev, cur = cur, nxt[0]
            length += 1
        lengths.append(length)
    return sorted(lengths)


def _component_is_finite(system, comp):
    verts = sorted(comp)
    n = len(verts)
    if n == 1:
        return True
    entries = system.matrix.entries
    edges = []
    for a in range(n):
        for b in range(a + 1, n):
            m = entries[verts[a]][verts[b]]
            if m == inf:
                return False
            if m >= 3:
                edges.append((a, b, int(m)))
    if n == 2:
        return True  # dihedral of finite order
    if len(edges) != n - 1:
        return False  # a cycle; no finite type contains one
    adj = {a: [] for a in range(n)}
    for a, b, _ in edges:
        adj[a].append(b)
        adj[b].append(a)
    degrees = sorted(len(adj[a]) for a in range(n))
    heavy = sorted(m for _, _, m in edges if m > 3)
    if not heavy:
        if degrees[-1] <= 2:
            return True  # type A path
        if degrees[-1] > 3 or degrees.count(3) != 1:
            return False
        center = next(a for a in range(n) if len(adj[a]) == 3)
        arms = _branch_lengths(adj, center)
        if arms[0] == 1 and arms[1] == 1:
            return True  # type D
        return arms in ([1, 2, 2], [1, 2, 3], [1, 2, 4])  # E6, E7, E8
    if len(heavy) > 1 or degrees[-1] > 2:
        return False
    # a path with a single heavy edge
    end = next(a for a in range(n) if len(adj[a]) == 1)
    labels = []
    prev, cur = None, end
    while True:
        nxt = [x for x in adj[cur] if x != prev]
        if not nxt:
            break
        step = nxt[0]
        a, b = min(cur, step), max(cur, step)
        labels.append(next(m for x, y, m in edges if (x, y) == (a, b)))
        prev, cur = cur, step
    m = heavy[0]
    if m == 4:
        return labels[0] == 4 or labels[-1] == 4 or labels == [3, 4, 3]
    if m == 5:
        return n <= 4 and (labels[0] == 5 or labels[-1] == 5)
    return False


def is_spherical(system, subset):
    """True when the parabolic subgroup generated by ``subset`` is finite."""
    return all(
        _component_is_finite(system, comp)
        for comp in _components_of(system, frozenset(subset))
    )


def infinite_support(system):
    """Union of the irreducible components with infinite parabolic.

    The parabolic on this subset is the minimum finite-index parabolic
    subgroup; its complement generates a finite group.
    """
    return frozenset().union(*_structure(system)[1])


def induced(system, members):
    """Subsystem on a generator subset, plus the index-to-parent mapping."""
    members = sorted(members)
    entries = system.matrix.entries
    sub = validate(
        [[entries[a][b] for b in members] for a in members],
        [system.labels[a] for a in members],
    )
    return sub, members


def ball(system, radius):
    """Canonical words of every element with length <= radius, sorted.

    Breadth-first enumeration; each element appears once via its canonical
    reduced word.
    """
    if system.right_angled:
        from . import racg

        step = lambda w, s: racg._append(system, w, s)
    else:
        step = lambda w, s: _tits_canonical(system, w + (s,))
    seen = {()}
    frontier = [()]
    out = [()]
    for _ in range(radius):
        new = []
        for w in frontier:
            for s in system.generators:
                nb = step(w, s)
                if len(nb) > len(w) and nb not in seen:
                    seen.add(nb)
                    new.append(nb)
        new.sort()
        out.extend(new)
        frontier = new
    return out
