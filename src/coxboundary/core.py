"""Coxeter systems and the word problem.

A Coxeter system is described by an ordered list of generator labels and a
symmetric matrix of product orders; ``math.inf`` marks an infinite order.
Group elements are handled through words (tuples of generator indices), with
``reduce`` mapping every word to a canonical reduced representative, so that
two words represent the same element exactly when their canonical forms are
equal tuples.

All functions here are pure.  Internal memo tables are keyed on the system
instance and only cache results of pure computations, so concurrent use is
safe (at worst a value is recomputed).
"""

from collections import deque
from dataclasses import dataclass, field
from math import inf

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
# The general reduction walks the rewriting closure of a word: delete equal
# adjacent letters whenever possible, otherwise search all words reachable by
# defining-relation moves (an alternating run s t s ... of length m(s, t)
# may be rewritten as t s t ...).  A word is reduced once no member of its
# closure admits a deletion; the canonical representative of the element is
# the lexicographically least member of the closure of a reduced word.
# Right-angled systems take a fast path (see racg.normal_form): linear per
# appended letter, quadratic per word.


def _braid_neighbors(entries, word):
    n = len(word)
    for i in range(n - 1):
        s = word[i]
        t = word[i + 1]
        if s == t:
            continue
        m = entries[s][t]
        if m == inf or i + m > n:
            continue
        m = int(m)
        run = word[i : i + m]
        ok = True
        for k, x in enumerate(run):
            if x != (s if k % 2 == 0 else t):
                ok = False
                break
        if ok:
            flipped = tuple(t if k % 2 == 0 else s for k in range(m))
            yield word[:i] + flipped + word[i + m :]


def _delete_equal_adjacent(word):
    """Remove one pair of equal adjacent letters, or return None."""
    for i in range(len(word) - 1):
        if word[i] == word[i + 1]:
            return word[:i] + word[i + 2 :]
    return None


def _tits_canonical(system, word):
    """Canonical reduced form by closure search; valid for any system."""
    entries = system.matrix.entries
    memo = system._memo.setdefault("tits", {})
    word = tuple(word)
    stack = []
    while True:
        if word in memo:
            result = memo[word]
            break
        stack.append(word)
        shorter = _delete_equal_adjacent(word)
        if shorter is not None:
            word = shorter
            continue
        # closure of a deletion-free word
        closure = {word}
        queue = deque([word])
        found = None
        while queue:
            w = queue.popleft()
            for nb in _braid_neighbors(entries, w):
                if nb in closure:
                    continue
                shorter = _delete_equal_adjacent(nb)
                if shorter is not None:
                    found = shorter
                    break
                closure.add(nb)
                queue.append(nb)
            if found is not None:
                break
        if found is not None:
            word = found
            continue
        result = min(closure)
        for w in closure:
            memo[w] = result
        break
    for w in stack:
        memo[w] = result
    return result


def reduce(system, word):
    """Canonical reduced word representing the same element as ``word``."""
    word = check_word(system, word)
    if system.right_angled:
        from . import racg

        return racg.normal_form(system, word).word
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

        return racg.normal_form(system, word).descents
    w = _tits_canonical(system, word)
    n = len(w)
    return frozenset(
        s for s in system.generators if len(_tits_canonical(system, w + (s,))) < n
    )


def in_descent_class(system, word, subset):
    """True when the descent set of ``word`` equals ``subset`` exactly."""
    return descent_set(system, word) == frozenset(subset)


# ---------------------------------------------------------------------------
# Finiteness of standard parabolic subgroups.
#
# A subset is spherical exactly when every irreducible component of its
# induced diagram is one of the finite diagram types.  The components of a
# subset are connected pieces of the graph whose edges are pairs with order
# >= 3 (infinite included); distinct components commute elementwise.


def _components_of(system, members):
    members = sorted(members)
    entries = system.matrix.entries
    remaining = set(members)
    parts = []
    for start in members:
        if start not in remaining:
            continue
        comp = {start}
        queue = deque([start])
        remaining.discard(start)
        while queue:
            u = queue.popleft()
            for v in list(remaining):
                if entries[u][v] >= 3:
                    comp.add(v)
                    remaining.discard(v)
                    queue.append(v)
        parts.append(frozenset(comp))
    return parts


def irreducible_components(system):
    """Partition of the generators into irreducible diagram components."""
    return _components_of(system, range(system.rank))


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
    subset = frozenset(subset)
    if not subset:
        return True
    memo = system._memo.setdefault("spherical", {})
    if subset not in memo:
        memo[subset] = all(
            _component_is_finite(system, comp)
            for comp in _components_of(system, subset)
        )
    return memo[subset]


def infinite_support(system):
    """Union of the irreducible components with infinite parabolic.

    The parabolic on this subset is the minimum finite-index parabolic
    subgroup; its complement generates a finite group.
    """
    out = set()
    for comp in irreducible_components(system):
        if not is_spherical(system, comp):
            out |= comp
    return frozenset(out)


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
