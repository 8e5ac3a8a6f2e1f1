"""Benchmark of the coxboundary CLI: whole commands, timed in process.

Usage, from the repository root:

    python3 perfbench/run.py --workload simulate --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all      # every workload, one process each

Each job is one CLI command, run through ``coxboundary.cli.main(argv)``
with its output captured; it re-reads its system file as a real call does.
One client runs the jobs one after another (a closed loop) until the jobs'
own time reaches ``--seconds``, stopping at the end of a round.  Each job's
output is checked right after it, outside its timed span.  With
``--trace 1`` the layer probes run first, then a fixed number of rounds
runs twice, untraced and then under the per-layer tracer.

The last line of standard output is one JSON object: correct, attempted,
failed and the metrics declared in BENCHMARK.json (end-to-end ones without
tracing, per-layer ones with it).  The exit code is 0 exactly when every
output check passed.  See NOTES.md for the workloads and predictions.
"""

import argparse
import contextlib
import gc
import importlib
import io
import itertools
import json
import random
import resource
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import jobs  # noqa: E402  (after the path set-up above)

MIN_COMPLETED = 110  # so that at least ten samples lie beyond job_p90_ms
MAX_STRETCH = 3  # but never run jobs for more than this many times --seconds
TRACE_ROUNDS = {"simulate": 2, "check71": 1, "coxeter": 2}
CHECK_SAMPLE = 8  # check71 witnesses re-checked per job


class SetupError(Exception):
    pass


def setup(workload, seed, workdir):
    """Import the package, round-trip every fixture, build the job list."""
    for name in [n for n in sys.modules if n == "coxboundary" or n.startswith("coxboundary.")]:
        del sys.modules[name]
    cb = importlib.import_module("coxboundary")
    cli = importlib.import_module("coxboundary.cli")
    plan = jobs.job_list(workload, seed)
    for name, text in [*jobs.read_fixtures().items(), *plan["files"].items()]:
        system, rays = cb.parse_system_file(text)
        formatted = cb.format_system_file(system, rays)
        again = cb.parse_system_file(formatted)
        if again != (system, rays) or cb.format_system_file(*again) != formatted:
            raise SetupError(f"{name}: system file does not round-trip")
    workdir.mkdir(parents=True, exist_ok=True)
    for name, text in plan["files"].items():
        (workdir / name).write_text(text)
    return cb, cli, plan


def timed_setup(workload, seed, workdir):
    """Time one more set-up, keeping the modules the jobs already use."""
    in_use = {n: m for n, m in sys.modules.items()
              if n == "coxboundary" or n.startswith("coxboundary.")}
    t0 = perf_counter()
    setup(workload, seed, workdir)
    elapsed = perf_counter() - t0
    sys.modules.update(in_use)
    gc.collect()  # the discarded modules are cyclic garbage; not inside a job
    return elapsed


def resolve(argv, workdir, files):
    return [str(workdir / a) if a in files or a == jobs.SERIES_CSV else a for a in argv]


def call(cli, argv):
    """Run one command in process: exit code, stdout, stderr, crash, seconds."""
    out, err = io.StringIO(), io.StringIO()
    crash = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # escaped main: a traceback for a real user
            code, crash = None, exc
        elapsed = perf_counter() - t0
    return code, out.getvalue(), err.getvalue(), crash, elapsed


def error_kind(cli, argv):
    """Class of the typed error a failed command raised, by running it again."""
    args = cli.build_parser().parse_args(argv)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            args.func(args)
        except SystemExit as exc:
            return f"exit {exc.code}"
        except Exception as exc:
            return type(exc).__name__
    return "no error on rerun"


class Runner:
    def __init__(self, workload, seed, cli, plan, workdir):
        import checks  # needs the package imported by setup

        self.checks = checks
        self.workload = workload
        self.seed = seed
        self.cli = cli
        self.plan = plan
        self.workdir = workdir
        self.systems = {name: checks.CheckSystem(text) for name, text in plan["files"].items()}
        self.attempted = 0
        self.failed = Counter()
        self.wrong = []
        self.latencies = []
        self.busy = 0.0

    def expected_exit(self, job):
        if job["argv"][0] == "check71":
            return 0 if job["check"]["holds"] else 1
        if job["argv"][0] == "analyze":
            return job["check"]["expect"][2]
        return 0

    def verdict(self, job, out, number):
        """None when the output passes its check, else the reason."""
        c = self.checks
        kind = job["argv"][0]
        system = self.systems[job["argv"][1]]
        if kind == "simulate":
            csv = self.workdir / jobs.SERIES_CSV
            return c.check_simulate(job, out, csv.read_text() if csv.exists() else "", system)
        if kind == "check71":
            rng = random.Random(f"{self.seed}:{number}")
            return c.check_check71(job, out, system, rng, CHECK_SAMPLE)
        return c.check_coxeter(job, out, system)

    def run(self, job, number):
        """Run, time and check one job; returns its stdout."""
        argv = resolve(job["argv"], self.workdir, self.plan["files"])
        (self.workdir / jobs.SERIES_CSV).unlink(missing_ok=True)  # no stale series
        code, out, err, crash, elapsed = call(self.cli, argv)
        self.attempted += 1
        self.busy += elapsed
        if crash is not None:
            self.failed["untyped " + type(crash).__name__] += 1
            self.wrong.append(f"job {number} {job['stratum']}: untyped error {crash!r}")
        elif err.startswith("error: ") or code == 64:
            kind = error_kind(self.cli, argv)
            self.failed[kind] += 1
            # a known-defect job may also be refused at parse time (exit 64)
            defect = job["check"].get("known_defect")
            if defect is None or (kind != defect and code != 64):
                self.wrong.append(f"job {number} {job['stratum']}: {kind}: {err.strip()}")
        elif code != self.expected_exit(job):
            self.failed[f"exit {code}"] += 1
            self.wrong.append(f"job {number} {job['stratum']}: exit {code}")
        else:
            try:
                reason = self.verdict(job, out, number)
            except (ValueError, IndexError, KeyError) as exc:
                reason = f"unreadable output ({exc!r})"
            if reason is None:
                self.latencies.append(elapsed)
            else:
                self.failed["wrong output"] += 1
                self.wrong.append(f"job {number} {job['stratum']}: {reason}")
        return out

    def canaries(self):
        for argv, label, fraction in jobs.CANARIES:
            code, out, err, crash, _ = call(self.cli, resolve(argv, self.workdir, self.plan["files"]))
            reason = (
                f"exit {code} {err.strip()} {crash!r}" if code != 0 or crash
                else self.checks.check_canary(out, label, fraction)
            )
            print(f"canary {label} = {fraction[0]}/{fraction[1]}: {reason or 'ok'}")
            if reason:
                self.wrong.append(f"canary {label}: {reason}")


def timed_rounds(runner, seconds, setup_times):
    """Run whole rounds until the jobs' time reaches ``seconds`` and enough
    jobs have completed (or, when jobs keep failing, a hard time limit).

    A set-up is timed again after every round, so that ``setup_s`` is a
    median over the same stretch of time as the job metrics.
    """
    number = 0
    for round_ in itertools.cycle(runner.plan["rounds"]):
        for job in round_:
            runner.run(job, number)
            number += 1
        setup_times.append(timed_setup(runner.workload, runner.seed, runner.workdir))
        if runner.busy >= seconds and (
            len(runner.latencies) >= MIN_COMPLETED or runner.busy >= MAX_STRETCH * seconds
        ):
            return


def percentile90(values):
    return statistics.quantiles(values, n=10)[-1]


def end_to_end(runner, setup_times):
    lat = runner.latencies
    if len(lat) < 2:
        raise SetupError("fewer than two completed jobs")
    p90 = percentile90(lat)
    beyond = sum(x > p90 for x in lat)
    print(f"samples: {len(lat)} completed jobs, {beyond} beyond job_p90_ms")
    return {
        "setup_s": statistics.median(setup_times),
        "job_p50_ms": 1000 * statistics.median(lat),
        "job_p90_ms": 1000 * p90,
        "jobs_per_s": len(lat) / runner.busy,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def report(metrics, declared):
    out = {}
    for entry in declared:
        name, unit = entry["name"], entry["unit"]
        if name not in metrics:
            raise SetupError(f"metric {name} was not measured")
        out[name] = {"value": metrics[name], "unit": unit}
        print(f"{name} = {metrics[name]:.6g} {unit}")
    return out


def run_workload(args):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workdir = HERE / ".work" / f"{args.workload}-{args.seed}"
    t0 = perf_counter()
    cb, cli, plan = setup(args.workload, args.seed, workdir)
    setup_times = [perf_counter() - t0]
    print(f"perfbench workload={args.workload} seed={args.seed} trace={args.trace}"
          f" python={sys.version.split()[0]}")
    rounds = plan["rounds"]
    print(f"job list: {len(rounds)} rounds of {len(rounds[0])} jobs,"
          f" sha256 {jobs.digest(plan)}")
    runner = Runner(args.workload, args.seed, cli, plan, workdir)
    if args.workload == "simulate":
        runner.canaries()
    # the harness's own long-lived objects should not slow the jobs' collections
    gc.collect()
    gc.freeze()
    if args.trace:
        metrics = traced_metrics(runner, cb, plan)
    else:
        timed_rounds(runner, args.seconds, setup_times)
    failed = sum(runner.failed.values())
    kinds = ", ".join(f"{k}: {v}" for k, v in sorted(runner.failed.items()))
    print(f"jobs: attempted {runner.attempted}, failed {failed}"
          + (f" ({kinds})" if kinds else ""))
    print(f"fail_ratio = {failed / runner.attempted:.6g} ratio")
    for line in runner.wrong[:20]:
        print(f"WRONG {line}")
    if args.trace:
        values = report(metrics, spec["per_layer"])
    else:
        values = report(end_to_end(runner, setup_times), spec["end_to_end"])
    correct = not runner.wrong
    print(json.dumps({"correct": correct, "attempted": runner.attempted,
                      "failed": failed, "metrics": values}))
    return 0 if correct else 1


def traced_metrics(runner, cb, plan):
    import probes
    import tracing

    metrics = probes.run(cb, jobs.read_fixtures())
    rounds = [job for round_ in plan["rounds"][: TRACE_ROUNDS[runner.workload]] for job in round_]
    untraced = [runner.run(job, number) for number, job in enumerate(rounds)]
    untraced_s = runner.busy
    tracer = tracing.Tracer()
    tracer.calibrate()
    tracer.install("coxboundary")
    traced_s = 0.0
    try:
        for number, job in enumerate(rounds):
            tracer.job = number
            argv = resolve(job["argv"], runner.workdir, plan["files"])
            _, out, _, _, elapsed = call(runner.cli, argv)
            tracer.end_job()
            traced_s += elapsed
            if out != untraced[number]:
                runner.wrong.append(f"job {number}: output changed under tracing")
    finally:
        tracer.uninstall()
    tracer.write_spans(runner.workdir / "spans.json")
    metrics.update(tracer.metrics())
    metrics["trace.overhead_ratio"] = traced_s / untraced_s
    print(f"traced {len(rounds)} jobs: {traced_s:.3f} s traced, {untraced_s:.3f} s untraced,"
          f" {len(tracer.spans)} spans in {runner.workdir / 'spans.json'}")
    return metrics


def run_all(args):
    """Every workload in its own process, so each has its own peak RSS."""
    results = {}
    status = 0
    for workload in jobs.WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
        print(proc.stdout, end="")
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            status = status or proc.returncode or 1
            continue
        results[workload] = json.loads(lines[-1])
    if status or len(results) != len(jobs.WORKLOADS):
        return status or 1
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{name}": m for w, r in results.items()
                    for name, m in r["metrics"].items()},
    }))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*jobs.WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    missing = [p for p in ("src/coxboundary/cli.py", "tests/oracles.py", "BENCHMARK.json")
               if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: missing {', '.join(missing)} under {ROOT}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    try:
        return run_workload(args)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
