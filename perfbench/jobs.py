"""Seeded job lists for the three benchmark workloads.

A job list is a pure function of (workload, seed): the generated system
files plus, for every job, the CLI argv and what its output check needs.
It is built from the fixture texts and the standard library only, never
from the package under test, and it serialises to the same bytes for the
same seed.

Every round of a workload holds the same strata (command, system and size
class); the seed draws the words, rays, s0/t0, kmax and L inside each
stratum and shuffles the round.  Fixed strata keep the latency mix, and so
the percentiles, comparable from seed to seed.
"""

import hashlib
import itertools
import json
import random
from pathlib import Path

FIXTURE_DIR = Path(__file__).resolve().parent / "fixtures"
FIXTURES = (
    "free3", "free4", "cycle5", "dinf2",
    "a4", "a5", "b4", "d4", "figure_one", "tri237",
)
WORKLOADS = ("simulate", "check71", "coxeter")
ROUNDS = 40  # a run cycles through the list if it gets through all of them
SERIES_CSV = "series.csv"  # liminf jobs write their series here

# Rays known to be reduced.  The headless period-4 rays of D_inf x D_inf
# that use both factors trip the validate_ray nesting defect: translation
# raises Unstable even at g = 1.
RAY_POOLS = {
    "free3": (
        "| a b", "| a c", "| b c", "| c a", "| a b c", "| a c b",
        "b | a c", "c | a b", "| a b a c", "| a c b c", "| b a b c",
        "a | b c a",
    ),
    "cycle5": (
        "| a c", "| b d", "| c e", "| d a", "| e b", "b | a c",
        "| a b d", "| a c e", "| b d a", "d | a c e", "| a b c d",
        "| b e a c", "a | b c e a", "c | b e c d",
    ),
    "dinf2-left": ("| a b", "| b a"),
    "dinf2-right": ("| c d", "| d c"),
}
DIAGONAL_RAYS = tuple("| " + " ".join(p) for p in itertools.permutations("abcd"))
DIAGONAL_PER_ROUND = 1  # of SIMULATE_ROUND_SIZE jobs: the fixed failing share

# (mode, system, depth, inclusive range of kmax for liminf or of the radius
# L for ball scans).  Every stratum costs 40-400 ms at the seed commit; the
# last three, near 300 ms each, form the cluster that job_p90_ms falls in.
SIMULATE_STRATA = (
    ("liminf", "free3", 16, (32, 36)),
    ("liminf", "free3", 32, (14, 16)),
    ("liminf", "free3", 64, (5, 6)),
    ("liminf", "cycle5", 16, (32, 36)),
    ("liminf", "cycle5", 32, (14, 16)),
    ("liminf", "cycle5", 64, (5, 6)),
    ("limsup", "free3", 16, (4, 4)),
    ("limsup", "free3", 32, (3, 3)),
    ("limsup", "free3", 64, (2, 2)),
    ("limsup", "cycle5", 16, (3, 3)),
    ("obstruction", "dinf2", 16, (4, 5)),
    ("obstruction", "dinf2", 32, (3, 3)),
    ("obstruction", "dinf2", 64, (2, 2)),
    ("limsup", "dinf2", 64, (2, 2)),
    ("limsup", "cycle5", 64, (2, 2)),
)
SIMULATE_ROUND_SIZE = len(SIMULATE_STRATA) + DIAGONAL_PER_ROUND

# (fixture, L, jobs per round); K is always 2 * rank + 1.  free(4) at L = 3
# holds the middle of the latency mix and D_inf x D_inf its 90th
# percentile.  D_inf x D_inf takes the exhaustive fallback and answers "no";
# it runs at L = 3 only because L = 4 costs about 3 s there.
CHECK71_STRATA = (
    ("free3", 3, 4), ("free3", 4, 4), ("free4", 3, 8), ("cycle5", 3, 4),
    ("dinf2", 3, 2), ("free4", 4, 1), ("cycle5", 4, 1),
)
RANKS = {"free3": 3, "free4": 4, "cycle5": 5, "dinf2": 4}

# (command, fixture, word family, inclusive size range, jobs per round).
# Analyze and the three cheapest reductions make up the cheap 60 % of jobs,
# so job_p50_ms measures a short command; job_p90_ms falls in the middle
# of the seven A5 length-13 reductions.  The two largest strata take
# symmetric variants of one word, so their cost and memo size do not depend
# on the seed.
COXETER_STRATA = (
    *(("analyze", name, None, None, 5)
      for name in ("a4", "a5", "b4", "d4", "figure_one", "tri237")),
    ("reduce", "a4", "w0-prefix", (6, 8), 1),
    ("reduce", "b4", "coxeter-power", (2, 2), 1),
    ("reduce", "d4", "coxeter-power", (2, 2), 1),
    ("reduce", "a5", "w0-prefix", (8, 10), 1),
    ("reduce", "a5", "w0-prefix", (11, 12), 1),
    ("reduce", "b4", "coxeter-power", (3, 3), 1),
    ("reduce", "d4", "coxeter-power", (3, 4), 1),
    ("reduce", "figure_one", "coxeter-power", (4, 5), 1),
    ("reduce", "tri237", "coxeter-power", (6, 8), 1),
    ("reduce", "tri237", "coxeter-power", (9, 10), 1),
    ("reduce", "a5", "w0-variant", (13, 13), 7),
    ("reduce", "b4", "coxeter-power", (4, 4), 1),
    ("descent", "a4", "w0-prefix", (8, 10), 1),
    ("descent", "a5", "w0-prefix", (8, 9), 1),
    ("descent", "a5", "w0-prefix", (10, 10), 1),
    ("descent", "b4", "coxeter-power", (3, 3), 1),
    ("descent", "d4", "coxeter-power", (3, 3), 1),
    ("descent", "figure_one", "coxeter-power", (3, 4), 1),
    ("descent", "tri237", "coxeter-power", (5, 8), 1),
    ("descent", "a5", "w0-variant", (12, 12), 1),
)
A5_W0 = (0, 1, 0, 2, 1, 0, 3, 2, 1, 0, 4, 3, 2, 1, 0)  # a b a c b a d c b a e d c b a
# fixture -> (boundary class, analyze verdict lines, exit code): finite
# types have an empty boundary; the other two are irreducible, infinite and
# not right-angled, where only sufficient conditions are decided
ANALYZE_EXPECT = {
    name: ("empty", ["verdict: not-scrambled",
                     "certificate: boundary-too-small: empty"], 2)
    for name in ("a4", "a5", "b4", "d4")
}
ANALYZE_EXPECT.update({
    name: ("more-than-two", ["verdict: unknown"], 2)
    for name in ("figure_one", "tri237")
})

# Canary jobs pin three values from the test suite: the scanned minimum in
# D_inf x D_inf at radius 4 and 8, and the free(3) maximum at radius 6.
CANARY_FILES = {
    "canary-dinf2.cox": ("dinf2", {"x": "| a b", "y": "| c d"}),
    "canary-free3.cox": ("free3", {"x": "| a b", "y": "| a c"}),
}
CANARIES = (
    (["simulate", "canary-dinf2.cox", "x", "y", "--mode", "obstruction",
      "--L", "4", "--depth", "16"], "min over the radius-4 ball", (4095, 65536)),
    (["simulate", "canary-dinf2.cox", "x", "y", "--mode", "obstruction",
      "--L", "8", "--depth", "16"], "min over the radius-8 ball", (255, 65536)),
    (["simulate", "canary-free3.cox", "x", "y", "--mode", "limsup",
      "--L", "6", "--depth", "16"], "max over the radius-6 ball", (65535, 65536)),
)


def read_fixtures():
    return {name: (FIXTURE_DIR / f"{name}.cox").read_text() for name in FIXTURES}


def fixture_labels(text):
    for line in text.splitlines():
        if line.startswith("generators:"):
            return line[len("generators:"):].split()
    raise ValueError("fixture has no generators: line")


def with_rays(text, rays):
    lines = [f"{name} = {ray}" for name, ray in rays.items()]
    return text + "rays:\n" + "\n".join(lines) + "\n"


def w0_word(rng, rank):
    """A random reduced word of the longest element of type A_rank.

    Bubble sort of the identity permutation into the reversed one by
    adjacent transpositions that each add one inversion.
    """
    perm = list(range(rank + 1))
    word = []
    while True:
        ascents = [i for i in range(rank) if perm[i] < perm[i + 1]]
        if not ascents:
            return word
        i = rng.choice(ascents)
        perm[i], perm[i + 1] = perm[i + 1], perm[i]
        word.append(i)


def _simulate(rng, fixtures):
    def named(prefix, pool):
        return {f"{prefix}{i}": ray for i, ray in enumerate(pool)}

    rays = {name: named("r", RAY_POOLS[name]) for name in ("free3", "cycle5")}
    rays["dinf2"] = {**named("x", RAY_POOLS["dinf2-left"]),
                     **named("y", RAY_POOLS["dinf2-right"])}
    files = {f"{name}-rays.cox": with_rays(fixtures[name], r) for name, r in rays.items()}
    files["dinf2-diagonal.cox"] = with_rays(
        fixtures["dinf2"], {**named("g", DIAGONAL_RAYS), **named("y", RAY_POOLS["dinf2-right"])}
    )
    for name, (fixture, canary_rays) in CANARY_FILES.items():
        files[name] = with_rays(fixtures[fixture], canary_rays)

    def job(mode, system, depth, sizes):
        if system == "dinf2":  # one ray inside each factor
            a = rng.choice([r for r in rays[system] if r[0] == "x"])
            b = rng.choice([r for r in rays[system] if r[0] == "y"])
        else:
            a, b = rng.sample(sorted(rays[system]), 2)
        argv = ["simulate", f"{system}-rays.cox", a, b, "--mode", mode,
                "--depth", str(depth)]
        if mode == "liminf":
            argv += ["--kmax", str(rng.randint(*sizes)), "--out", SERIES_CSV]
        else:
            argv += ["--L", str(rng.randint(*sizes))]
        return {"stratum": f"{mode}/{system}/d{depth}", "argv": argv,
                "check": {"depth": depth}}

    rounds = []
    for _ in range(ROUNDS):
        jobs = [job(*stratum) for stratum in SIMULATE_STRATA]
        for _ in range(DIAGONAL_PER_ROUND):
            jobs.append({
                "stratum": "diagonal/dinf2/d16",
                "argv": ["simulate", "dinf2-diagonal.cox",
                         f"g{rng.randrange(len(DIAGONAL_RAYS))}",
                         f"y{rng.randrange(len(RAY_POOLS['dinf2-right']))}",
                         "--mode", "limsup", "--depth", "16", "--L", "2"],
                "check": {"depth": 16, "known_defect": "Unstable"},
            })
        rng.shuffle(jobs)
        rounds.append(jobs)
    return files, rounds


def _check71(rng, fixtures):
    files = {f"{name}.cox": fixtures[name] for name in RANKS}
    rounds = []
    for _ in range(ROUNDS):
        jobs = []
        for name, radius, count in CHECK71_STRATA:
            labels = fixture_labels(fixtures[name])
            infinite = _infinite_pairs(fixtures[name])
            bound = 2 * RANKS[name] + 1
            for _ in range(count):
                s0, t0 = rng.choice(infinite)
                jobs.append({
                    "stratum": f"check71/{name}/L{radius}",
                    "argv": ["check71", f"{name}.cox", "--s0", labels[s0],
                             "--t0", labels[t0], "--K", str(bound),
                             "--L", str(radius), "--table-rows", "100000000"],
                    "check": {"system": name, "s0": labels[s0], "K": bound,
                              "L": radius, "holds": name != "dinf2"},
                })
        rng.shuffle(jobs)
        rounds.append(jobs)
    return files, rounds


def _infinite_pairs(text):
    """Ordered generator pairs of infinite order, read from a fixture."""
    rows = []
    section = False
    for line in text.splitlines():
        line = line.split("#")[0].strip()
        if line.startswith("matrix:"):
            section = True
        elif section and line:
            rows.append(line.split())
    return [
        (i, j)
        for i in range(len(rows))
        for j in range(len(rows))
        if rows[i][j] == "inf"
    ]


def _coxeter_word(rng, family, size, rank):
    if family == "w0-prefix":
        return w0_word(rng, rank)[:size]
    if family == "coxeter-power":
        return rng.sample(range(rank), rank) * size
    # w0-variant: the image of a fixed prefix under a diagram symmetry and
    # inversion, which keeps the number of its reduced words
    word = A5_W0[:size]
    if rng.random() < 0.5:
        word = tuple(rank - 1 - s for s in word)
    if rng.random() < 0.5:
        word = word[::-1]
    return list(word)


def _coxeter(rng, fixtures):
    files = {f"{name}.cox": fixtures[name] for name in ANALYZE_EXPECT}
    rounds = []
    for _ in range(ROUNDS):
        jobs = []
        for command, name, family, sizes, count in COXETER_STRATA:
            labels = fixture_labels(fixtures[name])
            for _ in range(count):
                argv = [command, f"{name}.cox"]
                check = {"system": name}
                if family is None:
                    check["expect"] = ANALYZE_EXPECT[name]
                    stratum = f"analyze/{name}"
                else:
                    size = rng.randint(*sizes)
                    word = _coxeter_word(rng, family, size, len(labels))
                    argv.append(" ".join(labels[i] for i in word))
                    check["word"] = [labels[i] for i in word]
                    stratum = f"{command}/{name}/{family}{size}"
                jobs.append({"stratum": stratum, "argv": argv, "check": check})
        rng.shuffle(jobs)
        rounds.append(jobs)
    return files, rounds


def job_list(workload, seed):
    """Generated system files and rounds of jobs for one workload and seed."""
    build = {"simulate": _simulate, "check71": _check71, "coxeter": _coxeter}
    rng = random.Random(f"{workload}:{seed}")
    files, rounds = build[workload](rng, read_fixtures())
    return {"workload": workload, "seed": seed, "files": files, "rounds": rounds}


def encode(plan):
    return json.dumps(plan, sort_keys=True, separators=(",", ":")).encode()


def digest(plan):
    return hashlib.sha256(encode(plan)).hexdigest()
