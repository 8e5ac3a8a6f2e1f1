"""Right-angled specializations.

In a right-angled system every relation is a commutation, so each element
has a unique normal form: the lexicographically least reduced word under the
generator ordering.  Appending a letter to a normal form either cancels an
earlier occurrence or inserts at a position determined by a single
right-to-left scan, so appending one letter is linear in the word length
and the normal form of a whole word is quadratic.

Every commutation question here is one bit test on the per-generator
commuting masks ``CoxeterSystem._commuting``, so the descent set of a
canonical word is one right-to-left pass.  Words are checked once, at the
public entry points; internal callers holding checked words use ``_fold``.

The update rules in this module track how descent sets evolve under right
multiplication; together they let two arbitrary elements be pushed into a
common one-generator descent class by a short, explicitly constructed word.
"""

from collections import deque
from dataclasses import dataclass

from . import core
from .errors import (
    BoundaryTooSmallError,
    ChainStartsInDescent,
    DescentContainsS0,
    ForbiddenCoversS,
    NoSuchX,
    NotIrreducible,
    NotRightAngled,
)


def _require_right_angled(system):
    if not system.right_angled:
        raise NotRightAngled("operation needs every order to be 2 or inf")


@dataclass(frozen=True)
class NormalForm:
    """Canonical reduced word together with its descent set."""

    word: tuple
    descents: frozenset

    def __len__(self):
        return len(self.word)


def _append(system, word, s):
    """Multiply a canonical word by generator s, returning a canonical word."""
    commuting = system._commuting[s]
    n = len(word)
    j = n - 1
    while j >= 0:
        t = word[j]
        if t == s:
            return word[:j] + word[j + 1 :]
        if not commuting >> t & 1:
            break
        j -= 1
    # every letter right of j commutes with s; place s before the first
    # larger one so the result stays lexicographically least
    i = j + 1
    while i < n and word[i] < s:
        i += 1
    return word[:i] + (s,) + word[i:]


def _descents(system, word):
    """Letters that can be shuffled to the end of a canonical word."""
    commuting = system._commuting
    out = []
    blocked = 0  # letters right of the current one
    for t in reversed(word):
        if not blocked & ~commuting[t]:
            out.append(t)
        blocked |= 1 << t
    return frozenset(out)


def _fold(system, word):
    """Canonical word of an already checked word."""
    w = ()
    for s in word:
        w = _append(system, w, s)
    return w


def normal_form(system, word):
    """Canonical normal form of the element represented by ``word``."""
    _require_right_angled(system)
    w = _fold(system, core.check_word(system, word))
    return NormalForm(w, _descents(system, w))


def append_letter(system, nf, s):
    """Normal form of nf * s, computed incrementally."""
    _require_right_angled(system)
    core.check_word(system, (s,))
    w = _append(system, nf.word, s)
    return NormalForm(w, _descents(system, w))


def descent_update(system, descents, s0):
    """Descent set of w*s0 from that of w, for s0 outside the descents.

    Only the commuting part of the old descent set survives, joined by s0.
    """
    _require_right_angled(system)
    descents = frozenset(descents)
    core.check_word(system, (*descents, s0))
    if s0 in descents:
        raise DescentContainsS0(f"generator {s0} already a descent")
    commuting = system._commuting[s0]
    return frozenset(t for t in descents if commuting >> t & 1) | {s0}


def is_irreducible(system):
    """True when the graph of non-commuting generator pairs is connected."""
    _require_right_angled(system)
    return len(core._structure(system)[0]) <= 1


def is_hyperbolic(system):
    """Flat-plane obstruction scan.

    A quadruple {a, b} x {c, d} with both inner orders infinite and all four
    cross pairs commuting generates a visible product of two infinite
    dihedral groups, i.e. a flat plane; the system is hyperbolic exactly when
    no such quadruple exists.  For each non-commuting pair {a, b} the scan
    looks for a non-commuting pair inside the generators commuting with both.
    """
    _require_right_angled(system)
    commuting = system._commuting
    everything = (1 << system.rank) - 1
    for a in system.generators:
        for b in core._bits(everything & ~commuting[a]):
            common = commuting[a] & commuting[b]
            if any(common & ~commuting[c] for c in core._bits(common)):
                return False
    return True


def generator_centralizer_finite(system, s):
    """True when the centralizer of generator s is finite.

    The centralizer of s in a right-angled system is generated by s together
    with the generators commuting with s, so it is finite exactly when those
    neighbours commute pairwise.
    """
    _require_right_angled(system)
    core.check_word(system, (s,))
    commuting = system._commuting
    link = commuting[s] & ~(1 << s)
    return not any(link & ~commuting[t] for t in core._bits(link))


# ---------------------------------------------------------------------------
# Chains: walks through the non-commuting graph covering every generator.


def _noncommuting_tree(system, start):
    commuting = system._commuting
    everything = (1 << system.rank) - 1
    parent = {start: None}
    children = {start: []}
    queue = deque([start])
    while queue:
        u = queue.popleft()
        for v in core._bits(everything & ~commuting[u]):
            if v not in parent:
                parent[v] = u
                children[v] = []
                children[u].append(v)
                queue.append(v)
    return parent, children


def build_chain(system, first_forbidden, last):
    """A generator walk t_1 .. t_n with non-commuting consecutive entries.

    The walk starts outside ``first_forbidden``, ends at ``last``, visits
    every generator (repetitions allowed) and has length at most twice the
    rank.  Construction: depth-first tour of a spanning tree of the
    non-commuting graph, emitting vertices on entry and on each return,
    truncated at the final visit to ``last``; the branch towards ``last`` is
    always explored last so the truncation loses no coverage.
    """
    _require_right_angled(system)
    if not is_irreducible(system):
        raise NotIrreducible("chains need a connected non-commuting graph")
    forbidden = frozenset(first_forbidden)
    allowed = [s for s in system.generators if s not in forbidden]
    if not allowed:
        raise ForbiddenCoversS("every generator is forbidden as a chain start")
    memo = system._memo.setdefault("chains", {})
    key = (forbidden, last)
    if key in memo:
        return memo[key]
    start = allowed[0]
    parent, children = _noncommuting_tree(system, start)
    path_to_last = set()
    node = last
    while node is not None:
        path_to_last.add(node)
        node = parent[node]
    walk = []

    def tour(u):
        walk.append(u)
        kids = sorted(children[u], key=lambda c: (c in path_to_last, c))
        for c in kids:
            tour(c)
            walk.append(u)

    tour(start)
    cut = len(walk) - 1 - walk[::-1].index(last)
    chain = tuple(walk[: cut + 1])
    assert len(chain) <= 2 * system.rank
    assert set(chain) == set(system.generators)
    memo[key] = chain
    return chain


def push_to_singleton(system, nf, chain):
    """Multiply by a chain, landing in the descent class of its last letter.

    Requires the chain to start outside the descent set of ``nf``; the
    result then has descent set exactly {chain[-1]}.
    """
    _require_right_angled(system)
    if chain[0] in nf.descents:
        raise ChainStartsInDescent(
            f"chain starts at {chain[0]}, a descent of the word"
        )
    out = nf
    for t in chain:
        out = append_letter(system, out, t)
    return out


def proper_union_step(system, w, v):
    """A word x of length <= 1 with descents(w x) union descents(v x) != S.

    Tries the empty word first, then single generators from the descent set
    of w and then of v, in index order.  For an irreducible right-angled
    system whose boundary has more than two points such an x always exists;
    NoSuchX therefore signals a violated hypothesis.
    """
    _require_right_angled(system)
    everything = frozenset(system.generators)
    if w.descents | v.descents != everything:
        return ()
    for s0 in sorted(w.descents) + sorted(v.descents):
        dw = _descents(system, _append(system, w.word, s0))
        dv = _descents(system, _append(system, v.word, s0))
        if dw | dv != everything:
            return (s0,)
    raise NoSuchX("no length-<=1 step keeps the descent union proper")


def push_to_common_singleton(system, w, v, s0):
    """A word x with descents(w x) = descents(v x) = {s0}.

    Composes a proper-union step with a chain ending at s0, so the word has
    length at most 1 + 2 * rank.  Requires an irreducible right-angled
    system with more than two boundary points.
    """
    from . import decision

    _require_right_angled(system)
    if not is_irreducible(system):
        raise NotIrreducible("joint push needs an irreducible system")
    if decision.boundary_size_class(system) != decision.MORE_THAN_TWO:
        raise BoundaryTooSmallError("joint push needs more than two ends")
    x0 = proper_union_step(system, w, v)
    for s in x0:
        w = append_letter(system, w, s)
        v = append_letter(system, v, s)
    return x0 + build_chain(system, w.descents | v.descents, s0)
