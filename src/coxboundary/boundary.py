"""Desk-scale simulation of the boundary action.

Boundary points are modelled by eventually periodic infinite reduced words
based at the identity; the action of a group element g sends such a ray to
the normal form of g times a long ray prefix, cut at a depth.  The prefix
is ``depth + 2|g| + period`` letters long, and the cut must not change when
one more period is appended (two-margin stability check), otherwise the
translation raises Unstable.

Distances between two translated rays use a word-metric stand-in for the
boundary metric: the sum over depths i of min(word distance at depth i,
2^-i).  Distinct prefixes are at word distance >= 1, so every term is 0 or
2^-i, and once two prefixes differ all longer ones do.  The sum is thus
exactly 2^-k - 2^-depth, where k is the length of the common prefix of the
two translated words (0 when they agree); it is computed in that closed
form, as exact rationals so experiments are bit-reproducible.

The proxy is NOT the boundary metric of the underlying CAT(0) geometry;
every report produced from these numbers must say so.  Translation requires
the right-angled normal-form engine, so rays are restricted to right-angled
systems.  Translation, the proxy distance and the simulations built on them
also refuse, with Unstable, a ray whose period's generators are not one
irreducible piece: the normal forms of its prefixes do not nest, so the proxy
cannot see it.  The simulations check each ray once per call.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import inf

from . import core, racg
from .errors import (
    CoxboundaryError,
    HorizonTooSmall,
    NotRightAngled,
    OrderNotInfinite,
    Unstable,
)

PROXY_DISCLAIMER = (
    "note: distances are word-metric proxy values, not CAT(0) boundary distances"
)


@dataclass(frozen=True)
class Ray:
    """Eventually periodic infinite word: head then period repeated."""

    head: tuple
    period: tuple

    def letters(self, n):
        """First n letters of head . period . period ..."""
        out = list(self.head[:n])
        i = 0
        while len(out) < n:
            out.append(self.period[i % len(self.period)])
            i += 1
        return tuple(out)


@dataclass(frozen=True)
class MetricSeries:
    """Indexed distance values, exact rationals in [0, 1]."""

    entries: tuple  # of (index, Fraction)

    def values(self):
        return [d for _, d in self.entries]


def format_decimal(q, digits=12):
    """Exact fixed-point decimal string (round half to even)."""
    scale = 10**digits
    n, r = divmod(q.numerator * scale, q.denominator)
    if 2 * r > q.denominator or (2 * r == q.denominator and n % 2):
        n += 1
    return f"{n // scale}.{n % scale:0{digits}d}"


def validate_ray(system, ray, horizon):
    """True when every prefix up to the horizon is a reduced word.

    The horizon must cover the head plus two periods, so that the periodic
    part is exercised against itself at least once.
    """
    if not system.right_angled:
        raise NotRightAngled("rays need the right-angled normal-form engine")
    if not ray.period:
        return False
    core.check_word(system, ray.head)
    core.check_word(system, ray.period)
    minimum = len(ray.head) + 2 * len(ray.period)
    if horizon < minimum:
        raise HorizonTooSmall(f"horizon {horizon} below minimum {minimum}")
    word = ()
    for s in ray.letters(horizon):
        nxt = racg._append(system, word, s)
        if len(nxt) <= len(word):
            return False
        word = nxt
    return True


def _require_representable(system, ray):
    """Raise Unstable unless the period's generators are one irreducible piece.

    Otherwise the lex-least prefixes of the ray do not converge to it: on
    D_inf x D_inf, n letters of ``| a c b d`` have the normal form
    (a b)^(n/4) (c d)^(n/4), whose cut at any fixed depth reads only
    {a, b}, so the proxy would identify the ray with ``| a b``.
    """
    parts = core._components_of(system, frozenset(core.check_word(system, ray.period)))
    if len(parts) != 1:

        def names(letters):
            return " ".join(system.labels[s] for s in letters)

        text = f"{names(ray.head)} | {names(ray.period)}".lstrip()
        split = " x ".join("{" + names(sorted(p)) + "}" for p in parts) or "{}"
        raise Unstable(
            f"ray '{text}' has no stable translates: its period splits as {split}"
        )


def _translated_word(system, g, ray, depth):
    """First ``depth`` letters of the normal form of g . ray, stability-checked.

    Folds g and then ``margin = depth + 2|g| + period`` ray letters into one
    canonical word, cuts it at ``depth``, then appends one more period and
    raises Unstable unless the cut is unchanged.
    """
    if depth < 0:
        raise CoxboundaryError(f"depth {depth} is negative")
    g = core.check_word(system, g)
    if depth == 0:
        return ()
    racg._require_right_angled(system)
    word = racg._fold(system, g)
    margin = depth + 2 * len(word) + len(ray.period)
    letters = ray.letters(margin + len(ray.period))
    for s in letters[:margin]:
        word = racg._append(system, word, s)
    first = word[:depth]
    for s in letters[margin:]:
        word = racg._append(system, word, s)
    if word[:depth] != first:
        raise Unstable("translated prefixes changed between margins")
    return first


def translate_ray(system, g, ray, depth):
    """Prefixes u_1 .. u_depth of the translated ray g . ray.

    u_i is the first i letters of the normal form of g times the first
    ``depth + 2|g| + period`` ray letters.  The cut at ``depth`` is rechecked
    one period later and must be unchanged, otherwise Unstable is raised.
    The proxy distance of two translates is 2^-k - 2^-depth, where k is the
    number of leading prefixes they share.  A ray whose period splits is
    refused with Unstable (see _require_representable).
    """
    _require_representable(system, ray)
    word = _translated_word(system, g, ray, depth)
    return [
        racg.NormalForm(word[:i], racg._descents(system, word[:i]))
        for i in range(1, depth + 1)
    ]


def proxy_distance(system, g, ray_a, ray_b, depth):
    """Word-metric proxy distance between the translates of two rays.

    Defined as the sum over i = 1..depth of min(word distance of the depth-i
    prefixes, 2^-i).  Distinct prefixes are at distance >= 1 and stay
    distinct at every larger depth, so the sum is exactly 2^-k - 2^-depth,
    where k is the length of the common prefix of the two translated words,
    and 0 when the words agree.  Symmetric, in [0, 1), exact.  Each word is
    cut at ``depth`` and must not change when one more ray period is
    appended to the prefix, otherwise Unstable is raised (see translate_ray),
    as it is for a ray whose period splits.
    """
    _require_representable(system, ray_a)
    _require_representable(system, ray_b)
    return _proxy_distance(system, g, ray_a, ray_b, depth)


def _proxy_distance(system, g, ray_a, ray_b, depth):
    """proxy_distance for rays already checked by _require_representable."""
    u = _translated_word(system, g, ray_a, depth)
    v = _translated_word(system, g, ray_b, depth)
    if u == v:
        return Fraction(0)
    k = 0
    for x, y in zip(u, v):
        if x != y:
            break
        k += 1
    return Fraction(1, 2**k) - Fraction(1, 2**depth)


def derive_push_data(system, ray_a, ray_b, s0=None, prefix_len=None):
    """Orbit data (s0, t0, x) for the contraction experiment.

    Pushes the inverses of matching ray prefixes into the descent class
    {s0}; t0 is the smallest non-commuting partner of s0.  The returned x
    satisfies descents(prefix_a^-1 x) = descents(prefix_b^-1 x) = {s0}.
    """
    entries = system.matrix.entries
    if s0 is None:
        s0 = next(
            s
            for s in system.generators
            if any(entries[s][t] == inf for t in system.generators)
        )
    t0 = next(
        (t for t in sorted(system.generators) if entries[s0][t] == inf), None
    )
    if t0 is None:
        raise OrderNotInfinite(f"{system.labels[s0]} has no infinite-order partner")
    if prefix_len is None:
        prefix_len = max(
            len(r.head) + 2 * len(r.period) for r in (ray_a, ray_b)
        )
    w = racg.normal_form(
        system, core.inverse_word(ray_a.letters(prefix_len))
    )
    v = racg.normal_form(
        system, core.inverse_word(ray_b.letters(prefix_len))
    )
    x = racg.push_to_common_singleton(system, w, v, s0)
    return s0, t0, x


def liminf_series(system, ray_a, ray_b, s0, t0, x, k_max, depth):
    """Distances along the orbit sequence built from (s0, t0, x).

    Entry k holds the proxy distance after translating both rays by
    (s0 t0)^k x^-1.  When x comes from derive_push_data the translated rays
    share ever longer prefixes, so the series contracts towards zero.
    """
    if system.order(s0, t0) != inf:
        raise OrderNotInfinite(
            f"order of {system.labels[s0]} {system.labels[t0]} is not inf"
        )
    x = core.check_word(system, x)
    _require_representable(system, ray_a)
    _require_representable(system, ray_b)
    entries = []
    for k in range(1, k_max + 1):
        g = (s0, t0) * k + core.inverse_word(x)
        entries.append((k, _proxy_distance(system, g, ray_a, ray_b, depth)))
    return MetricSeries(tuple(entries))


def _ball_scan(system, ray_a, ray_b, radius, depth, want_max):
    """Cumulative extreme of the proxy distance over balls of growing radius."""
    _require_representable(system, ray_a)
    _require_representable(system, ray_b)
    pick = max if want_max else min
    best = None
    out = []
    elements = core.ball(system, radius)
    by_length = {}
    for w in elements:
        by_length.setdefault(len(w), []).append(w)
    for r in range(radius + 1):
        for g in by_length.get(r, []):
            d = _proxy_distance(system, g, ray_a, ray_b, depth)
            best = d if best is None else pick(best, d)
        out.append(best)
    return out


def limsup_scan(system, ray_a, ray_b, radius, depth):
    """Maximum proxy distance over every g of length <= radius."""
    return _ball_scan(system, ray_a, ray_b, radius, depth, want_max=True)[-1]


def obstruction_scan(system, ray_a, ray_b, radius, depth):
    """Minimum proxy distance over every g of length <= radius."""
    return _ball_scan(system, ray_a, ray_b, radius, depth, want_max=False)[-1]
