"""Command-line entry point.

Subcommands: analyze, reduce, descent, simulate, check71.  Exit codes for
analyze: 0 scrambled, 1 not scrambled, 2 unknown or boundary too small,
64 parse error.  Simulation output always carries the proxy-metric
disclaimer line.
"""

import argparse
import sys
from fractions import Fraction

from . import boundary, core, decision, racg, sysfile
from .errors import CoxboundaryError, SystemFileError

EXIT_SCRAMBLED = 0
EXIT_NOT_SCRAMBLED = 1
EXIT_UNKNOWN = 2
EXIT_PARSE = 64


def exit_code(verdict):
    if verdict.outcome == decision.SCRAMBLED:
        return EXIT_SCRAMBLED
    if verdict.outcome == decision.NOT_SCRAMBLED:
        if isinstance(verdict.certificate, decision.BoundaryTooSmall):
            return EXIT_UNKNOWN
        return EXIT_NOT_SCRAMBLED
    return EXIT_UNKNOWN


def _load(path):
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        print(f"{path}: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_PARSE)
    try:
        return sysfile.parse_system_file(text)
    except SystemFileError as exc:
        print(f"{path}: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_PARSE)


def _subset_names(system, members):
    return "{" + " ".join(system.labels[i] for i in sorted(members)) + "}"


def cmd_analyze(args):
    system, _ = _load(args.path)
    print(f"rank: {system.rank}")
    print(f"right-angled: {'yes' if system.right_angled else 'no'}")
    comps = core.irreducible_components(system)
    print("components: " + " ".join(_subset_names(system, c) for c in comps))
    support = core.infinite_support(system)
    print(f"infinite support: {_subset_names(system, support)}")
    print(f"boundary: {decision.boundary_size_class(system)}")
    if system.right_angled:
        print(f"hyperbolic: {'yes' if racg.is_hyperbolic(system) else 'no'}")
        s = decision.finite_centralizer_generator(system)
        if s is not None:
            print(decision.FiniteCentralizer(s).describe(system))
    verdict = decision.analyze(system)
    print(verdict.describe(system))
    return exit_code(verdict)


def cmd_reduce(args):
    system, _ = _load(args.path)
    word = sysfile.parse_word(system, args.word)
    reduced = core.reduce(system, word)
    print(sysfile.format_word(system, reduced))
    print(f"length: {len(reduced)}")
    return 0


def cmd_descent(args):
    system, _ = _load(args.path)
    word = sysfile.parse_word(system, args.word)
    print(_subset_names(system, core.descent_set(system, word)))
    return 0


def _write_series(path, entries):
    lines = ["k,distance"]
    for k, d in entries:
        lines.append(f"{k},{boundary.format_decimal(d)}")
    text = "\n".join(lines) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def cmd_simulate(args):
    system, rays = _load(args.path)
    for name in (args.ray_a, args.ray_b):
        if name not in rays:
            from .errors import UnknownRay

            raise UnknownRay(name)
    ray_a = rays[args.ray_a]
    ray_b = rays[args.ray_b]
    if args.mode == "liminf":
        if args.s0 is not None and args.t0 is not None:
            s0 = system.index_of(args.s0)
            t0 = system.index_of(args.t0)
            x = sysfile.parse_word(system, args.x or "")
        else:
            chosen = system.index_of(args.s0) if args.s0 is not None else None
            s0, t0, x = boundary.derive_push_data(system, ray_a, ray_b, s0=chosen)
            print(
                f"derived: s0={system.labels[s0]} t0={system.labels[t0]}"
                f" x={sysfile.format_word(system, x) or '(empty)'}"
            )
        series = boundary.liminf_series(
            system, ray_a, ray_b, s0, t0, x, args.kmax, args.depth
        )
        entries = series.entries
        values = series.values()
        hit = next((k for k, d in entries if d < Fraction(1, 256)), None)
        met = "yes" if hit is not None else "no"
        extra = f" (first k: {hit})" if hit is not None else ""
        print(f"threshold below 2^-8 reached: {met}{extra}")
    else:
        values_by_radius = boundary._ball_scan(
            system,
            ray_a,
            ray_b,
            args.L,
            args.depth,
            want_max=(args.mode == "limsup"),
        )
        entries = tuple(enumerate(values_by_radius))
        values = list(values_by_radius)
        kind = "max" if args.mode == "limsup" else "min"
        print(
            f"{kind} over the radius-{args.L} ball:"
            f" {boundary.format_decimal(values[-1])}"
        )
        print(f"strictly positive: {'yes' if values[-1] > 0 else 'no'}")
    print(f"min: {boundary.format_decimal(min(values))}")
    print(f"max: {boundary.format_decimal(max(values))}")
    if args.out:
        _write_series(args.out, entries)
        print(f"wrote {args.out}")
    print(boundary.PROXY_DISCLAIMER)
    return 0


def cmd_check71(args):
    system, _ = _load(args.path)
    s0 = system.index_of(args.s0)
    t0 = system.index_of(args.t0)
    ok, witnesses = decision.uniform_push_condition(system, s0, t0, args.K, args.L)
    print(f"condition holds up to length {args.L}: {'yes' if ok else 'no'}")
    if ok:
        # bounded verification only; certifies the data, not the whole group
        print(decision.PushWitness(s0, t0, args.K).describe(system))
    print(f"pairs checked: {len(witnesses)}")
    shown = 0
    for (w, v), x in witnesses.items():
        if shown >= args.table_rows:
            print(f"... ({len(witnesses) - shown} more rows)")
            break
        print(
            f"w={sysfile.format_word(system, w) or '1'}"
            f"  v={sysfile.format_word(system, v) or '1'}"
            f"  x={sysfile.format_word(system, x) or '1'}"
        )
        shown += 1
    return 0 if ok else 1


def _int_at_least(low):
    def parse(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    return parse


def build_parser():
    parser = argparse.ArgumentParser(
        prog="coxboundary",
        description="Coxeter-system analysis and boundary-action experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="full system report with verdict")
    p.add_argument("path")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("reduce", help="canonical reduced word")
    p.add_argument("path")
    p.add_argument("word")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("descent", help="descent set of a word")
    p.add_argument("path")
    p.add_argument("word")
    p.set_defaults(func=cmd_descent)

    p = sub.add_parser("simulate", help="boundary-action experiments")
    p.add_argument("path")
    p.add_argument("ray_a")
    p.add_argument("ray_b")
    p.add_argument("--mode", choices=["liminf", "limsup", "obstruction"], required=True)
    p.add_argument("--depth", type=_int_at_least(0), default=16)
    p.add_argument("--L", type=_int_at_least(0), default=6)
    p.add_argument("--kmax", type=_int_at_least(1), default=40)
    p.add_argument("--s0")
    p.add_argument("--t0")
    p.add_argument("--x")
    p.add_argument("--out", help="CSV output path")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("check71", help="bounded joint-push condition check")
    p.add_argument("path")
    p.add_argument("--s0", required=True)
    p.add_argument("--t0", required=True)
    p.add_argument("--K", type=_int_at_least(0), required=True)
    p.add_argument("--L", type=_int_at_least(0), required=True)
    p.add_argument("--table-rows", type=_int_at_least(0), default=20)
    p.set_defaults(func=cmd_check71)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "simulate":
        if args.mode != "liminf" and {args.s0, args.t0, args.x} != {None}:
            parser.error("--s0, --t0 and --x apply only to --mode liminf")
        if args.t0 is not None and args.s0 is None:
            parser.error("--t0 requires --s0")
        if args.x is not None and args.t0 is None:
            parser.error("--x requires --s0 and --t0")
    try:
        return args.func(args)
    except CoxboundaryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
