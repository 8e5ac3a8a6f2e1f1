"""Layer scaling probes: fixed library calls that repeat the ROADMAP baseline.

Each probe calls one layer directly on a fixed input, independent of the
seed, and reports the median of a few repetitions.  Later changes quote
deltas against these numbers.
"""

import random
import statistics
from time import perf_counter

A5_W0 = (0, 1, 0, 2, 1, 0, 3, 2, 1, 0, 4, 3, 2, 1, 0)  # a b a c b a d c b a e d c b a


def _median_s(fn, repeats):
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        fn()
        times.append(perf_counter() - t0)
    return statistics.median(times)


def run(cb, fixtures):
    """Probe metrics; ``cb`` is the imported package, ``fixtures`` the texts."""

    def system(name, rays=""):
        return cb.parse_system_file(fixtures[name] + rays)

    free3, rays = system("free3", "rays:\nab = | a b\nac = | a c\n")
    free4, _ = system("free4")
    cycle5, _ = system("cycle5")
    rng = random.Random("probe")
    out = {}
    for name, sys_ in (("free4", free4), ("cycle5", cycle5)):
        word = tuple(rng.randrange(sys_.rank) for _ in range(4000))
        out[f"probe.racg.normal_form_4000_{name}_ms"] = 1000 * _median_s(
            lambda: cb.normal_form(sys_, word), 5
        )
    for depth in (16, 32, 64, 128):
        out[f"probe.boundary.proxy_distance_d{depth}_ms"] = 1000 * _median_s(
            lambda: cb.proxy_distance(free3, (), rays["ab"], rays["ac"], depth), 3
        )
    out["probe.boundary.ball_scan_free3_r8_s"] = _median_s(
        lambda: cb.limsup_scan(free3, rays["ab"], rays["ac"], 8, 16), 3
    )
    # a fresh system per repetition, so the reducer starts with a cold memo
    out["probe.core.reduce_A5_p13_ms"] = 1000 * _median_s(
        lambda: cb.reduce(system("a5")[0], A5_W0[:13]), 3
    )
    return out
