"""Ray translation and proxy-metric tests."""

import itertools
import random
from fractions import Fraction

import pytest

from coxboundary import (
    Ray,
    derive_push_data,
    format_decimal,
    induced,
    liminf_series,
    limsup_scan,
    normal_form,
    obstruction_scan,
    proxy_distance,
    translate_ray,
    validate_ray,
)
from coxboundary.errors import (
    CoxboundaryError,
    HorizonTooSmall,
    NotRightAngled,
    OrderNotInfinite,
    Unstable,
)

import oracles


def dinf():
    return oracles.free_product(2)


AB = Ray((), (0, 1))
BA = Ray((), (1, 0))


def test_validate_ray_examples():
    system = dinf()
    assert validate_ray(system, AB, 4)
    assert not validate_ray(system, Ray((), (0, 0)), 4)
    free3 = oracles.free_product(3)
    assert validate_ray(free3, Ray((2,), (0, 1)), 5)


def test_validate_ray_horizon_floor():
    with pytest.raises(HorizonTooSmall):
        validate_ray(dinf(), AB, 3)


def test_validate_ray_needs_right_angled():
    with pytest.raises(NotRightAngled):
        validate_ray(oracles.dihedral(3), AB, 4)


def test_ray_prefix_examples():
    system = dinf()
    assert normal_form(system, AB.letters(0)).word == ()
    assert normal_form(system, AB.letters(3)).word == (0, 1, 0)
    free3 = oracles.free_product(3)
    assert normal_form(free3, Ray((2,), (0, 1)).letters(2)).word == (2, 0)


def test_translate_identity():
    system = dinf()
    prefixes = translate_ray(system, (), AB, 5)
    for i, nf in enumerate(prefixes, start=1):
        assert nf.word == normal_form(system, AB.letters(i)).word


def test_translate_by_generator():
    system = dinf()
    # a . (ab)^inf loses its leading letter
    us = translate_ray(system, (0,), AB, 3)
    assert [u.word for u in us] == [(1,), (1, 0), (1, 0, 1)]
    # b . (ab)^inf gains one
    us = translate_ray(system, (1,), AB, 3)
    assert [u.word for u in us] == [(1,), (1, 0), (1, 0, 1)]


def test_proxy_distance_zero_for_equal_rays():
    system = dinf()
    assert proxy_distance(system, (0, 1), AB, AB, 8) == 0
    assert proxy_distance(system, (), AB, BA, 0) == 0


def test_proxy_distance_opposite_rays():
    # each term saturates at 2^-i
    assert proxy_distance(dinf(), (), AB, BA, 8) == 1 - Fraction(1, 256)


def test_proxy_distance_symmetric():
    free3 = oracles.free_product(3)
    ra, rb = Ray((), (0, 1)), Ray((), (0, 2))
    for g in [(), (0,), (1, 2), (0, 1, 0)]:
        assert proxy_distance(free3, g, ra, rb, 10) == proxy_distance(
            free3, g, rb, ra, 10
        )


def test_proxy_distance_triangle():
    free3 = oracles.free_product(3)
    ra, rb, rc = Ray((), (0, 1)), Ray((), (0, 2)), Ray((), (1, 2))
    for g in [(), (0,), (2, 1)]:
        ab = proxy_distance(free3, g, ra, rb, 8)
        bc = proxy_distance(free3, g, rb, rc, 8)
        ac = proxy_distance(free3, g, ra, rc, 8)
        assert ac <= ab + bc


def test_proxy_distance_monotone_depth():
    free3 = oracles.free_product(3)
    ra, rb = Ray((), (0, 1)), Ray((), (0, 2))
    values = [proxy_distance(free3, (0,), ra, rb, d) for d in range(1, 12)]
    for lo, hi in zip(values, values[1:]):
        assert lo <= hi
    # tail beyond depth d is at most 2^-d
    for d, (lo, hi) in enumerate(zip(values, values[1:]), start=1):
        assert hi - lo <= Fraction(1, 2**d)


def test_translate_composition():
    """Translating by g h matches translating the h-translate by g."""
    free3 = oracles.free_product(3)
    ray = Ray((), (0, 1))
    g, h = (2, 0), (1, 2)
    direct = translate_ray(free3, g + h, ray, 6)
    # stabilized prefix of the h-translate, pushed through g
    deep = translate_ray(free3, h, ray, 6 + 2 * len(g) + len(ray.period))
    via = normal_form(free3, g + deep[-1].word).word
    for i, nf in enumerate(direct, start=1):
        assert nf.word == via[:i]


def test_liminf_series_trivial_cases():
    free3 = oracles.free_product(3)
    ra = Ray((), (0, 1))
    series = liminf_series(free3, ra, ra, 0, 1, (), 5, 12)
    assert all(d == 0 for _, d in series.entries)
    assert liminf_series(free3, ra, ra, 0, 1, (), 0, 12).entries == ()


def test_liminf_series_requires_infinite_order():
    dd = oracles.dinf_x_dinf()
    with pytest.raises(OrderNotInfinite):
        liminf_series(dd, Ray((), (0, 1)), Ray((), (2, 3)), 0, 2, (), 3, 8)


def test_liminf_series_contracts():
    free3 = oracles.free_product(3)
    ra, rb = Ray((), (0, 1)), Ray((), (0, 2))
    s0, t0, x = derive_push_data(free3, ra, rb)
    series = liminf_series(free3, ra, rb, s0, t0, x, 8, 32)
    values = series.values()
    assert all(b <= a for a, b in zip(values, values[1:]))
    assert values[-1] < Fraction(1, 256)


def test_limsup_scan_examples():
    free3 = oracles.free_product(3)
    ra, rb = Ray((), (0, 1)), Ray((), (0, 2))
    assert limsup_scan(free3, ra, ra, 2, 8) == 0
    at_identity = proxy_distance(free3, (), ra, rb, 8)
    assert limsup_scan(free3, ra, rb, 0, 8) == at_identity
    assert limsup_scan(free3, ra, rb, 4, 8) >= at_identity > 0


def test_obstruction_scan_examples():
    dd = oracles.dinf_x_dinf()
    ra, rb = Ray((), (0, 1)), Ray((), (2, 3))
    assert obstruction_scan(dd, ra, ra, 2, 8) == 0
    assert obstruction_scan(dd, ra, rb, 0, 8) == proxy_distance(dd, (), ra, rb, 8)
    assert obstruction_scan(dd, ra, rb, 4, 16) > 0


def test_translate_unvalidated_ray_raises_unstable():
    with pytest.raises(Unstable):
        translate_ray(dinf(), (), Ray((), (0,)), 1)


def test_representable_rays_have_irreducible_periods():
    """The normal forms of a ray's prefixes nest within a bounded lag exactly
    when the generators of its period form one irreducible piece, and the
    simulator refuses exactly the other rays.

    Every reduced headless ray with a period of length p <= 4 over every
    right-angled class of rank <= 5.  The lag is the largest n - k for
    N - 2p <= n <= N - p, with k the common prefix of the normal forms of n
    and N = 24 ray letters; a split period makes it grow like n / 2.
    """
    rays = split = 0
    for rank in (1, 2, 3, 4, 5):
        for system in oracles.ra_systems_up_to_iso(rank):
            for p in (1, 2, 3, 4):
                for period in itertools.product(system.generators, repeat=p):
                    ray = Ray((), period)
                    if not validate_ray(system, ray, 2 * p):
                        continue
                    rays += 1
                    parts = oracles.connected_components(
                        induced(system, set(period))[0]
                    )
                    top = normal_form(system, ray.letters(24)).word
                    lag = 0
                    for n in range(24 - 2 * p, 24 - p + 1):
                        word = normal_form(system, ray.letters(n)).word
                        k = next(
                            (i for i, (x, y) in enumerate(zip(word, top)) if x != y),
                            n,
                        )
                        lag = max(lag, n - k)
                    if len(parts) == 1:
                        assert lag <= 3, (system.matrix, period)
                        assert limsup_scan(system, ray, ray, 0, 8) == 0
                    else:
                        split += 1
                        assert lag >= 9, (system.matrix, period)
                        with pytest.raises(Unstable, match="splits as"):
                            limsup_scan(system, ray, ray, 0, 8)
    assert (rays, split) == (5972, 240)


def test_proxy_zero_iff_prefixes_coincide():
    free3 = oracles.free_product(3)
    ra, rb = Ray((), (0, 1)), Ray((), (0, 2))
    for g in [(), (0,), (0, 1)]:
        us = [u.word for u in translate_ray(free3, g, ra, 6)]
        vs = [v.word for v in translate_ray(free3, g, rb, 6)]
        assert (proxy_distance(free3, g, ra, rb, 6) == 0) == (us == vs)


def test_series_values_stay_in_unit_interval():
    free3 = oracles.free_product(3)
    ra, rb = Ray((), (0, 1)), Ray((), (0, 2))
    s0, t0, x = derive_push_data(free3, ra, rb)
    for _, d in liminf_series(free3, ra, rb, s0, t0, x, 6, 16).entries:
        assert 0 <= d <= 1


def test_format_decimal():
    assert format_decimal(Fraction(0)) == "0.000000000000"
    assert format_decimal(Fraction(1, 2)) == "0.500000000000"
    assert format_decimal(Fraction(1, 3)) == "0.333333333333"
    assert format_decimal(Fraction(255, 65536)) == "0.003890991211"
    # round half to even on an exact tie
    assert format_decimal(Fraction(1, 2 * 10**12)) == "0.000000000000"
    assert format_decimal(Fraction(3, 2 * 10**12)) == "0.000000000002"


def test_negative_depth_is_a_typed_error():
    free3 = oracles.free_product(3)
    ra, rb = Ray((), (0, 1)), Ray((), (0, 2))
    with pytest.raises(CoxboundaryError, match="depth -3"):
        proxy_distance(free3, (), ra, rb, -3)
    with pytest.raises(CoxboundaryError, match="depth -1"):
        translate_ray(free3, (0,), ra, -1)


# ---------------------------------------------------------------------------
# Closed form against the defining sum, computed with the test oracles only.


def _oracle_normal_form(system, word):
    """Lex-least reduced word: deletion reducer, then commutation sort."""
    entries = system.matrix.entries
    rest = list(oracles.slow_ra_reduce(system, word))
    out = []
    while rest:
        movable = [
            i
            for i, s in enumerate(rest)
            if all(entries[t][s] == 2 for t in rest[:i])
        ]
        i = min(movable, key=lambda i: rest[i])
        out.append(rest.pop(i))
    return tuple(out)


def _oracle_translate(system, g, ray, depth):
    """Depth-cut translated word, or None when the two margins disagree."""
    margin = depth + 2 * oracles.slow_ra_length(system, g) + len(ray.period)
    first = _oracle_normal_form(system, g + ray.letters(margin))[:depth]
    period = len(ray.period)
    second = _oracle_normal_form(system, g + ray.letters(margin + period))
    return first if second[:depth] == first else None


def _oracle_proxy(system, u, v, depth):
    """Sum over i <= depth of min(word distance of the i-prefixes, 2^-i)."""
    total = Fraction(0)
    for i in range(1, depth + 1):
        between = tuple(reversed(u[:i])) + v[:i]
        d = oracles.slow_ra_length(system, between)
        total += min(Fraction(d), Fraction(1, 2**i))
    return total


DIFFERENTIAL_CASES = [
    (
        oracles.free_product(3),
        [
            Ray((), (0, 1)),
            Ray((), (0, 2)),
            Ray((2,), (0, 1)),
            Ray((1, 2), (0, 1, 2)),
            Ray((), (0, 1, 1, 0)),  # not reduced: translates stay short
            Ray((), (0,)),  # not reduced: the cut flips between margins
        ],
    ),
    (
        oracles.five_cycle(),
        [
            Ray((1,), (0, 2)),
            Ray((), (0, 2, 4)),
            Ray((3,), (1, 3)),
            Ray((4, 1), (0, 2, 4)),
        ],
    ),
    (
        oracles.dinf_x_dinf(),
        [
            Ray((), (0, 1)),
            Ray((), (2, 3)),
            Ray((2,), (0, 1)),
            Ray((), (0, 2, 1, 3)),  # diagonal ray: its period splits
        ],
    ),
]


def _period_splits(system, ray):
    """True when the period's generators form more than one component."""
    sub = induced(system, set(ray.period))[0]
    return len(oracles.connected_components(sub)) != 1


def test_proxy_distance_matches_defining_sum():
    rng = random.Random(20080802)
    seen = {"unstable": 0, "split": 0, "positive": 0, "zero": 0}
    for system, rays in DIFFERENTIAL_CASES:
        for case in range(40):
            ra, rb = rng.choice(rays), rng.choice(rays)
            g = tuple(rng.randrange(system.rank) for _ in range(rng.randrange(7)))
            depth = 0 if case == 0 else rng.randrange(13)
            if _period_splits(system, ra) or _period_splits(system, rb):
                seen["split"] += 1
                with pytest.raises(Unstable, match="splits"):
                    proxy_distance(system, g, ra, rb, depth)
                if _period_splits(system, ra):
                    with pytest.raises(Unstable, match="splits"):
                        translate_ray(system, g, ra, depth)
                continue
            u = _oracle_translate(system, g, ra, depth)
            v = _oracle_translate(system, g, rb, depth)
            if u is None or v is None:
                seen["unstable"] += 1
                with pytest.raises(Unstable):
                    proxy_distance(system, g, ra, rb, depth)
                continue
            expected = _oracle_proxy(system, u, v, depth)
            assert proxy_distance(system, g, ra, rb, depth) == expected
            assert [p.word for p in translate_ray(system, g, ra, depth)] == [
                u[:i] for i in range(1, depth + 1)
            ]
            seen["positive" if expected else "zero"] += 1
    assert all(seen.values()), seen


def test_split_period_rays_are_refused_by_every_entry():
    """Regression: on D_inf x D_inf, | a c b d and | a b are distinct
    boundary points, yet their translates by (c d)^4 read as equal."""
    dinf2 = oracles.dinf_x_dinf()
    diagonal, axis = Ray((), (0, 2, 1, 3)), Ray((), (0, 1))
    g = (2, 3) * 4
    with pytest.raises(Unstable, match=r"splits as \{a b\} x \{c d\}"):
        proxy_distance(dinf2, g, diagonal, axis, 16)
    with pytest.raises(Unstable, match="splits"):
        proxy_distance(dinf2, g, axis, diagonal, 16)
    with pytest.raises(Unstable, match="splits"):
        translate_ray(dinf2, g, diagonal, 16)
    assert proxy_distance(dinf2, g, axis, Ray((), (2, 3)), 16) > 0
