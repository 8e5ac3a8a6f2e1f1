"""Independent oracles and shared system corpora for the test suite.

Three oracle families, all deliberately unrelated to the package's engines:

* an exact matrix representation over the ring Z[sqrt(2)] (numbers stored as
  integer pairs a + b*sqrt(2)), which is faithful, so breadth-first search
  over matrices gives ground-truth element identity and word length for any
  system whose orders lie in {1, 2, 3, 4, inf}; exact root signs in the same
  ring give the length of long words;

* a rewriting-closure search that works for any system: slow (exponential
  in the length of the element), but it uses nothing but the defining
  relations;

* a quadratic-time reducer for right-angled systems based on the deletion
  property: a word shortens exactly when it contains two equal letters with
  everything between commuting with them.
"""

import itertools
import random
from collections import deque
from math import inf

from coxboundary import validate

# ---------------------------------------------------------------------------
# Z[sqrt(2)] matrices


def _pair_mul(x, y):
    return (x[0] * y[0] + 2 * x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _mat_mul(a, b, n):
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            p, q = 0, 0
            for k in range(n):
                x = a[i][k]
                y = b[k][j]
                p += x[0] * y[0] + 2 * x[1] * y[1]
                q += x[0] * y[1] + x[1] * y[0]
            row.append((p, q))
        out.append(tuple(row))
    return tuple(out)


_TWO_COS = {2: (0, 0), 3: (1, 0), 4: (0, 1), inf: (2, 0)}


def generator_matrices(system):
    """Reflection matrices of the standard geometric representation."""
    n = system.rank
    mats = []
    for s in range(n):
        rows = []
        for t in range(n):
            row = [(1, 0) if t == u else (0, 0) for u in range(n)]
            rows.append(row)
        # image of basis vector e_t gains a multiple of e_s
        for t in range(n):
            if t == s:
                rows[t][s] = (-1, 0)
            else:
                m = system.order(s, t)
                if m not in _TWO_COS:
                    raise ValueError(f"matrix oracle unsupported for order {m}")
                rows[t][s] = _TWO_COS[m]
        mats.append(tuple(tuple(r) for r in rows))
    return mats


def identity_matrix(n):
    return tuple(
        tuple((1, 0) if i == j else (0, 0) for j in range(n)) for i in range(n)
    )


def walk_and_check(system, max_len, engine_step, engine_len):
    """Level-synchronized walk of the Cayley graph against the matrix oracle.

    Expands every (element, generator) edge of the radius-``max_len`` ball.
    First sightings pin the engine length to the breadth-first level;
    re-sightings pin the engine's canonical form to the stored one.  Since
    engine evaluation of a word is the fold of ``engine_step``, agreement on
    every edge covers every word of length <= max_len.  Returns the number
    of distinct elements seen.
    """
    n = system.rank
    mats = generator_matrices(system)
    ident = identity_matrix(n)
    canon = {ident: ()}
    frontier = [(ident, ())]
    for level in range(1, max_len + 1):
        new = []
        for mat, word in frontier:
            for s in range(n):
                mat2 = _mat_mul(mat, mats[s], n)
                word2 = engine_step(word, s)
                if mat2 in canon:
                    assert canon[mat2] == word2, (
                        f"engine canonical mismatch at level {level}"
                    )
                else:
                    assert engine_len(word2) == level, (
                        f"engine length {engine_len(word2)} != BFS level {level}"
                    )
                    canon[mat2] = word2
                    new.append((mat2, word2))
        frontier = new
    return len(canon)


def word_matrix(system, word, mats=None):
    if mats is None:
        mats = generator_matrices(system)
    n = system.rank
    out = identity_matrix(n)
    for s in word:
        out = _mat_mul(out, mats[s], n)
    return out


def bfs_distances(system, radius):
    """Ground-truth map matrix -> word length, radius-bounded."""
    n = system.rank
    mats = generator_matrices(system)
    ident = identity_matrix(n)
    dist = {ident: 0}
    frontier = [ident]
    for level in range(1, radius + 1):
        new = []
        for mat in frontier:
            for s in range(n):
                mat2 = _mat_mul(mat, mats[s], n)
                if mat2 not in dist:
                    dist[mat2] = level
                    new.append(mat2)
        frontier = new
    return dist


def _sqrt2_sign(x):
    """Sign of a + b*sqrt(2), exactly."""
    a, b = x
    if a >= 0 and b >= 0 or a <= 0 and b <= 0:
        return (a > 0 or b > 0) - (a < 0 or b < 0)
    # opposite signs: the term of larger square wins
    big = a * a - 2 * b * b
    return (1 if a > 0 else -1) * (1 if big > 0 else -1)


def root_length(system, word):
    """Word length by exact root signs over Z[sqrt(2)].

    Row t of the matrix of a word w is the root w^-1(alpha_t), so row s of
    the matrix of w^-1 (the reversed word) is w(alpha_s); appending s to w
    lengthens it exactly when that root is positive.
    """
    mats = generator_matrices(system)
    n = system.rank
    inverse = identity_matrix(n)  # matrix of w^-1 for the prefix w read so far
    length = 0
    for s in word:
        row = inverse[s]
        sign = next(_sqrt2_sign(x) for x in row if x != (0, 0))
        length += sign
        inverse = _mat_mul(mats[s], inverse, n)
    return length


# ---------------------------------------------------------------------------
# Rewriting-closure search for any system


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


def closure_canonical(system, word, memo=None):
    """Lexicographically least reduced word, by rewriting-closure search.

    Delete equal adjacent letters whenever possible, otherwise search all
    words reachable by braid moves (an alternating run s t s ... of length
    m(s, t) rewritten as t s t ...).  A word is reduced once no member of
    its closure admits a deletion, and the answer is the least member of
    the closure of a reduced word.  ``memo`` (a dict) may be shared between
    calls on one system.
    """
    entries = system.matrix.entries
    if memo is None:
        memo = {}
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


# ---------------------------------------------------------------------------
# Deletion-based reducer for right-angled systems


def slow_ra_reduce(system, word):
    """Reduce by repeatedly deleting a pair of equal letters whose
    separating letters all commute with them."""
    entries = system.matrix.entries
    word = list(word)
    changed = True
    while changed:
        changed = False
        for i in range(len(word)):
            for k in range(i + 1, len(word)):
                if word[k] != word[i]:
                    continue
                if all(entries[word[j]][word[i]] == 2 for j in range(i + 1, k)):
                    del word[k]
                    del word[i]
                    changed = True
                break
            if changed:
                break
    return tuple(word)


def slow_ra_length(system, word):
    return len(slow_ra_reduce(system, word))


def slow_ra_descents(system, word):
    base = slow_ra_length(system, word)
    word = tuple(word)
    return frozenset(
        s
        for s in system.generators
        if slow_ra_length(system, word + (s,)) < base
    )


def slow_ra_equal(system, u, v):
    return slow_ra_length(system, tuple(reversed(u)) + tuple(v)) == 0


# ---------------------------------------------------------------------------
# Commutation-graph predicates, read straight off the matrix


def has_induced_square(system):
    """True when four generators split into two infinite-order pairs whose
    four cross pairs all commute."""
    e = system.matrix.entries
    for a, *rest in itertools.combinations(system.generators, 4):
        for b in rest:
            c, d = [x for x in rest if x != b]
            if (
                e[a][b] == inf
                and e[c][d] == inf
                and all(e[x][y] == 2 for x in (a, b) for y in (c, d))
            ):
                return True
    return False


def link_is_clique(system, s):
    """True when the generators commuting with s commute pairwise."""
    e = system.matrix.entries
    link = [t for t in system.generators if t != s and e[s][t] == 2]
    return all(e[u][v] == 2 for u, v in itertools.combinations(link, 2))


def connected_components(system):
    """Components of the graph joining generators whose order is >= 3,
    each a frozenset, listed by their smallest member."""
    e = system.matrix.entries
    label = list(system.generators)  # component label = smallest member

    def find(x):
        while label[x] != x:
            x = label[x]
        return x

    for a, b in itertools.combinations(system.generators, 2):
        if e[a][b] >= 3:
            ra, rb = find(a), find(b)
            label[max(ra, rb)] = min(ra, rb)
    comps = {}
    for x in system.generators:
        comps.setdefault(find(x), set()).add(x)
    return [frozenset(comps[r]) for r in sorted(comps)]


# ---------------------------------------------------------------------------
# System corpora


def ra_system_from_graph(n, commuting_edges, labels=None):
    """Right-angled system whose commuting pairs are the given edges."""
    if labels is None:
        labels = tuple("abcdefgh"[:n])
    edges = {frozenset(e) for e in commuting_edges}
    rows = [
        [
            1 if i == j else (2 if frozenset((i, j)) in edges else inf)
            for j in range(n)
        ]
        for i in range(n)
    ]
    return validate(rows, labels)


def free_product(n):
    return ra_system_from_graph(n, [])


def dihedral(m):
    return validate([[1, m], [m, 1]], ("a", "b"))


def dinf_x_dinf():
    return ra_system_from_graph(
        4, [(0, 2), (0, 3), (1, 2), (1, 3)], ("a", "b", "c", "d")
    )


def five_cycle():
    edges = [(i, (i + 1) % 5) for i in range(5)]
    return ra_system_from_graph(5, edges, ("a", "b", "c", "d", "e"))


def figure_one():
    return validate(
        [
            [1, 2, 2, inf],
            [2, 1, 4, 4],
            [2, 4, 1, 2],
            [inf, 4, 2, 1],
        ],
        ("s", "t1", "t2", "t3"),
    )


def all_ra_graphs_up_to_iso(n):
    """All commutation graphs on n vertices, one per isomorphism class."""
    pairs = list(itertools.combinations(range(n), 2))
    perms = list(itertools.permutations(range(n)))
    seen = set()
    out = []
    for mask in range(1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
        canon = min(
            tuple(sorted(tuple(sorted((p[a], p[b]))) for a, b in edges))
            for p in perms
        )
        if canon in seen:
            continue
        seen.add(canon)
        out.append(edges)
    return out


def ra_systems_up_to_iso(n):
    return [
        ra_system_from_graph(n, edges) for edges in all_ra_graphs_up_to_iso(n)
    ]


def random_systems(count, seed):
    """Seeded random systems of rank 1 to 7, orders 2, 3, 4, 5, 6 and inf."""
    rng = random.Random(seed)
    orders = (2, 3, 4, 5, 6, inf)
    out = []
    for _ in range(count):
        n = rng.randint(1, 7)
        rows = [[1] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                rows[i][j] = rows[j][i] = rng.choice(orders)
        out.append(validate(rows, "abcdefg"[:n]))
    return out
