"""Coxeter systems and the word problem.

A Coxeter system is described by an ordered list of generator labels and a
symmetric matrix of product orders; ``math.inf`` marks an infinite order.
Group elements are handled through words (tuples of generator indices), with
``reduce`` mapping every word to a canonical reduced representative, so that
two words represent the same element exactly when their canonical forms are
equal tuples.

All functions here are pure.  Each system's ``_memo`` caches results of
pure computations on that system, so concurrent use is safe (at worst a
value is recomputed).  It holds three entries, each built on first use:
``"ring"``, the exact root arithmetic of the word problem (``_ring``);
``"structure"``, the irreducible components and the infinite ones
(``_structure``), which every component, size-class and split question
reads; and ``"chains"``, the chains of ``racg.build_chain``.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from math import inf, lcm

from .errors import (
    AsymmetricMatrix,
    BadDiagonal,
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
    the same length.  Raises InvalidMatrix (non-integer entry),
    AsymmetricMatrix, BadDiagonal, EntryBelowTwo or DuplicateLabel naming
    the first offending position.
    """
    labels = tuple(labels)
    rows = tuple(tuple(row) for row in entries)
    n = len(rows)
    if len(labels) != n:
        raise ValueError(f"{len(labels)} labels for a rank-{n} matrix")
    seen = {}
    for i, lab in enumerate(labels):
        if lab in seen:
            raise DuplicateLabel(lab, seen[lab], i)
        seen[lab] = i
    for i, row in enumerate(rows):
        if len(row) != n:
            raise ValueError(f"row {i} has {len(row)} entries, expected {n}")
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
            raise ValueError(f"letter {x!r} out of range for rank {rank}")
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
# form: O(len * rank^2) ring operations per word.
#
# The arithmetic is exact.  Every kappa lies in Z[theta] with theta =
# 2 cos(pi / L), L the lcm of the finite orders >= 4, so coordinates are
# integer vectors in the basis 1, theta, ..., theta^(D-1), D the degree of
# the minimal polynomial of theta; with orders in {2, 3, inf} only, D = 1
# and coordinates are plain integers.  Signs are read off as described at
# _Ring.negative.  Double-precision coordinates are not enough: on the
# figure-one system they turn the reduced 49-letter word
# (s t3 t1)^8 t2 (t1 t3 s)^8 into a shorter word for another element.
# Only the ring constants are cached per system, never words.  Right-angled
# systems take a fast path on the commuting masks (see racg): linear per
# appended letter, quadratic per word.


def _poly_divmod(p, q):
    """Quotient and remainder of integer polynomials; ``q`` is monic.

    Polynomials are coefficient lists, constant term first.
    """
    p = list(p)
    dq = len(q) - 1
    quotient = [0] * max(len(p) - dq, 0)
    for i in range(len(p) - 1, dq - 1, -1):
        c = p[i]
        if c:
            quotient[i - dq] = c
            for j, b in enumerate(q):
                p[i - dq + j] -= c * b
    return quotient, (p[:dq] + [0] * dq)[:dq]


def _chebyshev(k):
    """C_k with C_k(x + 1/x) = x^k + x^-k, so C_k(2 cos a) = 2 cos(k a)."""
    prev, cur = [2], [0, 1]
    if k == 0:
        return prev
    for _ in range(k - 1):
        nxt = [0] + cur
        for i, c in enumerate(prev):
            nxt[i] -= c
        prev, cur = cur, nxt
    return cur


def _cyclotomic(n):
    """Phi_n, from x^d - 1 = product of Phi_e over the divisors e of d."""
    phis = {}
    for d in range(1, n + 1):
        if n % d == 0:
            p = [-1] + [0] * (d - 1) + [1]
            for e, phi in phis.items():
                if d % e == 0:
                    p = _poly_divmod(p, phi)[0]
            phis[d] = p
    return phis[n]


def _minimal_polynomial(order):
    """Minimal polynomial over Q of 2 cos(pi / order), for order >= 2.

    Integer coefficients, constant term first, monic, of degree
    phi(2 * order) / 2.  With zeta = exp(i pi / order), a primitive root of
    unity of order n = 2 * order, 2 cos(pi / order) = zeta + 1/zeta.  The
    cyclotomic polynomial Phi_n = sum a_i x^i is palindromic of degree 2d,
    so x^-d Phi_n(x) = a_d + sum over k >= 1 of a_(d+k) (x^k + x^-k), and
    x^k + x^-k = C_k(x + 1/x).
    """
    phi = _cyclotomic(2 * order)
    d = (len(phi) - 1) // 2
    out = [0] * (d + 1)
    out[0] = phi[d]
    for k in range(1, d + 1):
        for i, c in enumerate(_chebyshev(k)):
            out[i] += phi[d + k] * c
    return out


def _poly_value(p, x):
    value = 0
    for c in reversed(p):
        value = value * x + c
    return value


def _theta_bounds(minpoly, prec):
    """Rationals lo <= theta <= hi with hi - lo <= 2^-prec.

    theta = 2 cos(pi / L) is the largest root of ``minpoly``, whose roots
    2 cos(k pi / L) are real and below 2.  Newton's method started above the
    largest root of such a polynomial f decreases towards it without
    crossing it, and x - D f(x) / f'(x) <= theta below any such x, because
    f'/f = sum of 1/(x - r) over the D roots r is at most D / (x - theta).
    Iterates are rounded up to a grid finer than 2^-prec, which keeps them
    above theta and their denominators small.
    """
    degree = len(minpoly) - 1
    deriv = [i * c for i, c in enumerate(minpoly)][1:]
    grid = 1 << (prec + degree.bit_length() + 1)
    bound = Fraction(1, 1 << prec)
    x = Fraction(2)
    while True:
        step = _poly_value(minpoly, x) / _poly_value(deriv, x)
        if degree * step <= bound:
            return x - degree * step, x
        x = Fraction(-((step - x) * grid // 1), grid)


class _Ring:
    """Exact root arithmetic of one system's geometric representation.

    A vector is a flat list of rank * D integers: the coordinate on alpha_u
    is the element sum of v[u*D + i] theta^i of Z[theta].  Multiplication
    by kappa(s, t) is stored as the nonzero entries (i, j, k) of its D x D
    integer matrix: coefficient i of the product gains k times coefficient j.
    """

    def __init__(self, entries):
        self.rank = len(entries)
        orders = {m for row in entries for m in row if m != inf and m >= 4}
        if orders:
            order = lcm(*orders)
            self.minpoly = _minimal_polynomial(order)
        else:  # D = 1: no theta occurs
            order, self.minpoly = None, [0, 1]
        self.degree = len(self.minpoly) - 1
        self.links = [
            [
                (t, self._times(self._kappa(m, order)))
                for t, m in enumerate(row)
                if t != s and m != 2
            ]
            for s, row in enumerate(entries)
        ]
        self._tables = {}

    def _kappa(self, m, order):
        """2 cos(pi / m) as a polynomial in theta = 2 cos(pi / order)."""
        if m == inf:
            return [2]
        if m == 3:
            return [1]
        return _poly_divmod(_chebyshev(order // m), self.minpoly)[1]

    def _times(self, kappa):
        D = self.degree
        out = []
        for j in range(D):
            power = [0] * j + kappa  # kappa * theta^j
            for i, k in enumerate(_poly_divmod(power, self.minpoly)[1]):
                if k:
                    out.append((i, j, k))
        return out

    def fold(self, letters):
        """Images of the simple roots under S_(l_n) ... S_(l_1), as columns.

        The reflection of the first letter acts first, so the word of w
        gives w^-1 and its reversal gives w.
        """
        D, n = self.degree, self.rank
        cols = [[0] * (n * D) for _ in range(n)]
        for t, col in enumerate(cols):
            col[t * D] = 1
        for s in letters:
            base = s * D
            links = self.links[s]
            for col in cols:
                new = [-c for c in col[base : base + D]]
                for t, times in links:
                    tb = t * D
                    for i, j, k in times:
                        new[i] += k * col[tb + j]
                col[base : base + D] = new
        return cols

    def multiply_right(self, cols, s):
        """Replace the columns of a map g by those of g S_s.

        g S_s (alpha_t) = g(alpha_t) + kappa(s, t) g(alpha_s) for t != s,
        and g S_s (alpha_s) = -g(alpha_s).
        """
        cs = cols[s]
        for t, times in self.links[s]:
            ct = cols[t]
            for b in range(0, len(cs), self.degree):
                for i, j, k in times:
                    ct[b + i] += k * cs[b + j]
        cols[s] = [-c for c in cs]

    def negative(self, root):
        """True when the root with coordinates ``root`` is negative.

        All coordinates of a root share one sign, so any nonzero one
        decides; with D = 1 they are integers and the first nonzero one is
        read directly.  Otherwise the coordinate of largest magnitude is
        used: B(beta, beta) = 1, B(alpha_s, alpha_t) <= 0 for s != t and the
        signs agree, so the sum of the squared coordinates is at least 1 and
        that coordinate has |c| >= 1/sqrt(rank).  Each coordinate x is
        evaluated as the integer S = sum a_i T_i, where T_i bounds
        theta^i 2^prec from below within an error e_i, so x 2^prec lies
        within E = sum |a_i| e_i of S.  The sign is accepted only when
        |S| > E.  The starting precision makes that certain for the largest
        coordinate (2^prec > 4 D rank 2^bits with e_i <= 2); the loop raises
        the precision should it ever not be.
        """
        D = self.degree
        if D == 1:
            return next(c for c in root if c) < 0
        prec = max(map(abs, root)).bit_length()
        prec += D.bit_length() + self.rank.bit_length() + 2
        prec = -(-prec // 32) * 32  # a few shared tables per system
        while True:
            powers, errors = self._table(prec)
            best, error = 0, 0
            for b in range(0, len(root), D):
                x = root[b : b + D]
                value = sum(a * p for a, p in zip(x, powers))
                if abs(value) > abs(best):
                    best = value
                    error = sum(abs(a) * e for a, e in zip(x, errors))
            if abs(best) > error:
                return best < 0
            prec += 32

    def _table(self, prec):
        """Lower bounds T_i of theta^i 2^prec and their error bounds e_i."""
        table = self._tables.get(prec)
        if table is None:
            D = self.degree
            lo, hi = _theta_bounds(self.minpoly, prec + 2 * D + 4)
            powers, errors = [], []
            for i in range(D):
                low = lo**i * (1 << prec) // 1
                high = -(-hi**i * (1 << prec) // 1)
                powers.append(low)
                errors.append(high - low)
            table = self._tables[prec] = (powers, errors)
        return table


def _ring(system):
    ring = system._memo.get("ring")
    if ring is None:
        ring = system._memo["ring"] = _Ring(system.matrix.entries)
    return ring


def _tits_canonical(system, word):
    """Lexicographically least reduced word of the element; any system.

    Greedy smallest left descent, read from the columns w^-1(alpha_t) of
    the remaining element w.
    """
    ring = _ring(system)
    cols = ring.fold(word)
    out = []
    while True:
        for s, col in enumerate(cols):
            if ring.negative(col):
                break
        else:
            return tuple(out)
        out.append(s)
        ring.multiply_right(cols, s)


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
    # right descents: the s with w(alpha_s) < 0
    ring = _ring(system)
    cols = ring.fold(reversed(word))
    return frozenset(s for s, col in enumerate(cols) if ring.negative(col))


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
