"""Tests of the benchmark itself: seeded job lists and output checks.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

import random
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import checks  # noqa: E402
import jobs  # noqa: E402


def test_same_seed_gives_identical_job_list():
    for workload in jobs.WORKLOADS:
        first = jobs.encode(jobs.job_list(workload, 7))
        assert first == jobs.encode(jobs.job_list(workload, 7))
        assert jobs.digest(jobs.job_list(workload, 7)) == jobs.digest(jobs.job_list(workload, 7))


def test_other_seed_gives_other_job_list():
    for workload in jobs.WORKLOADS:
        assert jobs.digest(jobs.job_list(workload, 7)) != jobs.digest(jobs.job_list(workload, 8))


def test_every_round_has_the_same_strata():
    plan = jobs.job_list("simulate", 3)
    for round_ in plan["rounds"]:
        assert len(round_) == jobs.SIMULATE_ROUND_SIZE
        diagonal = [j for j in round_ if j["check"].get("known_defect")]
        assert len(diagonal) == jobs.DIAGONAL_PER_ROUND
    plan = jobs.job_list("check71", 3)
    want = Counter({f"check71/{n}/L{r}": c for n, r, c in jobs.CHECK71_STRATA})
    for round_ in plan["rounds"]:
        assert Counter(j["stratum"] for j in round_) == want


def test_w0_words_are_reduced_longest_elements():
    geometry = checks.CheckSystem(jobs.read_fixtures()["a5"]).geometry
    word = jobs.w0_word(random.Random(1), 5)
    assert len(word) == 15 and geometry.is_reduced(word)
    assert geometry.right_descents(word) == frozenset(range(5))


def _job(kind, fixture, word):
    return {"argv": [kind, f"{fixture}.cox", " ".join(word)],
            "check": {"system": fixture, "word": word}}


def test_coxeter_check_rejects_wrong_reductions():
    a5 = checks.CheckSystem(jobs.read_fixtures()["a5"])
    job = _job("reduce", "a5", ["b", "a", "b"])
    assert checks.check_coxeter(job, "a b a\nlength: 3\n", a5) is None
    assert "lex-least" in checks.check_coxeter(job, "b a b\nlength: 3\n", a5)
    assert "another element" in checks.check_coxeter(job, "a b c\nlength: 3\n", a5)
    tri = checks.CheckSystem(jobs.read_fixtures()["tri237"])
    job = _job("reduce", "tri237", ["b", "a", "a", "c", "b"])
    assert checks.check_coxeter(job, "b c b\nlength: 3\n", tri) is None
    assert "not reduced" in checks.check_coxeter(job, "b c b a a\nlength: 5\n", tri)
    job = _job("descent", "tri237", ["a", "c", "a"])
    assert checks.check_coxeter(job, "{a}\n", tri) is None
    assert checks.check_coxeter(job, "{a c}\n", tri) is not None


def test_simulate_check_recomputes_distances():
    free3 = checks.CheckSystem(jobs.with_rays(jobs.read_fixtures()["free3"],
                                              {"x": "| a b", "y": "| a c"}))
    job = {"argv": ["simulate", "f", "x", "y", "--mode", "limsup", "--depth", "16",
                    "--L", "4"], "check": {"depth": 16}}
    good = ("max over the radius-4 ball: 0.999984741211\nstrictly positive: yes\n"
            "min: 0.499984741211\nmax: 0.999984741211\n"
            "note: distances are word-metric proxy values, not CAT(0) boundary distances\n")
    assert checks.check_simulate(job, good, "", free3) is None
    bad = good.replace("0.999984741211", "0.999984741212")
    assert "not 2^-k" in checks.check_simulate(job, bad, "", free3)
    bad = good.replace("min: 0.499984741211", "min: 0.249984741211")  # right form, wrong k
    assert "recomputed" in checks.check_simulate(job, bad, "", free3)
    assert "disclaimer" in checks.check_simulate(job, good.rsplit("note", 1)[0], "", free3)


def test_check71_check_rejects_a_bad_witness():
    free3 = checks.CheckSystem(jobs.read_fixtures()["free3"])
    job = {"check": {"holds": True, "L": 0, "K": 7, "s0": "a"}}
    head = "condition holds up to length 0: yes\npush-witness: s0=a t0=b bound=7\npairs checked: 1\n"
    assert checks.check_check71(job, head + "w=1  v=1  x=b a\n", free3, random.Random(0)) is None
    assert "descents" in checks.check_check71(job, head + "w=1  v=1  x=a b\n", free3, random.Random(0))
