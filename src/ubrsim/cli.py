"""Command-line interface.

ubrsim run      simulate the 24-cell grid for one delay class, emit CSV
ubrsim analyze  factorial effect/variation report from a results CSV
ubrsim oracle   run the analyzer over the bundled reference tables

Exit codes: 0 success, 1 run or input error, 2 usage error.
"""

from __future__ import annotations

import argparse
import sys

from . import __version__
from .experiment import run_grid, write_drop_logs, write_results
from .factorial import analyze, read_matrix, render_text, write_report_csvs
from .scenarios import DELAY_CLASSES, build_scenario

CLASSES = tuple(DELAY_CLASSES)
METRICS = ("efficiency", "fairness")
# the `build_scenario` inputs that `run` takes as flags
SCENARIO_INPUTS = ("seed", "scale", "connections", "duration_s", "buffers")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ubrsim",
        description="WWW-over-TCP traffic through an ATM UBR+ bottleneck: "
                    "simulation grid and factorial analysis.")
    parser.add_argument("--version", action="version", version=f"ubrsim {__version__}")
    sub = parser.add_subparsers(dest="verb", required=True)

    run = sub.add_parser("run", help="simulate all 24 policy/flavor/buffer cells")
    run.add_argument("--delay-class", required=True, choices=CLASSES,
                     help="path delay regime (sets MSS, windows, buffers)")
    # an unset scenario input is not passed on: build_scenario's default holds
    run.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                     help="master seed for all random streams")
    run.add_argument("--scale", type=float, default=argparse.SUPPRESS,
                     help="shrink connections and rates together, e.g. 0.1")
    run.add_argument("--connections", type=int, default=argparse.SUPPRESS,
                     help="client/server pairs")
    run.add_argument("--duration-s", type=float, default=argparse.SUPPRESS,
                     help="simulated seconds")
    run.add_argument("--buffers", type=int, nargs=3, default=argparse.SUPPRESS,
                     metavar="K", help="0.5, 1 and 2 RTT buffers in cells")
    run.add_argument("--out", default="-",
                     help="results CSV path, - for stdout (default)")
    run.add_argument("--drop-log", action="store_true",
                     help="log every drop decision to <out>.drops.csv")
    run.add_argument("--workers", type=int, default=1,
                     help="worker processes for the grid (default 1)")
    run.add_argument("--quiet", action="store_true",
                     help="suppress per-cell progress on stderr")

    an = sub.add_parser("analyze", help="factorial analysis of a results CSV")
    an.add_argument("--metric", required=True, choices=METRICS)
    an.add_argument("--in", dest="infile", required=True, help="results CSV")
    an.add_argument("--out", default=None,
                    help="prefix for <prefix>.effects.csv and <prefix>.variation.csv")

    orc = sub.add_parser("oracle",
                         help="analyze the bundled reference result tables")
    orc.add_argument("--delay-class", choices=CLASSES + ("all",), default="all")
    orc.add_argument("--metric", choices=METRICS + ("all",), default="all")
    orc.add_argument("--out", default=None,
                     help="prefix for per-table report CSVs")
    return parser


def _cmd_run(args) -> int:
    inputs = {k: v for k, v in vars(args).items() if k in SCENARIO_INPUTS}
    scenario = build_scenario(args.delay_class, **inputs)
    if args.drop_log and args.out == "-":
        raise ValueError("--drop-log needs --out, the log is written "
                         "next to the results file")

    def progress(i, total, res):
        if args.quiet:
            return
        print(f"[{i:2d}/{total}] {res.drop_policy:<3} {res.tcp_flavor:<8} "
              f"{res.buffer_rtt:>3} rtt  eff={res.efficiency:.4f} "
              f"fair={res.fairness:.4f} ({res.status})", file=sys.stderr)

    results = run_grid(scenario, workers=args.workers, log_drops=args.drop_log,
                       progress=progress)
    write_results(results, args.out)
    if args.drop_log:
        n = write_drop_logs(results, args.out + ".drops.csv")
        if not args.quiet:
            print(f"drop log: {n} rows -> {args.out}.drops.csv", file=sys.stderr)
    failed = {}
    for r in results:
        if r.status != "ok":
            failed.setdefault(r.status, []).append(r)
    for status, rows in failed.items():
        names = ", ".join(f"{r.drop_policy}/{r.tcp_flavor}/{r.buffer_rtt}"
                          for r in rows)
        print(f"cells {names} ({len(rows)} of {len(results)}): {status}",
              file=sys.stderr)
        print(rows[0].traceback, end="", file=sys.stderr)
    return 1 if failed else 0


def _report(rows, metric: str, prefix) -> None:
    """Analyze `rows`, print the report, and write its CSVs under `prefix`."""
    report = analyze(rows, metric)
    sys.stdout.write(render_text(report))
    if prefix:
        for path in write_report_csvs(report, prefix):
            print(f"wrote {path}", file=sys.stderr)


def _cmd_analyze(args) -> int:
    _report(read_matrix(args.infile, args.metric), args.metric, args.out)
    return 0


def _cmd_oracle(args) -> int:
    from importlib import resources
    classes = CLASSES if args.delay_class == "all" else (args.delay_class,)
    metrics = METRICS if args.metric == "all" else (args.metric,)
    for cls in classes:
        ref = resources.files("ubrsim").joinpath("data", f"reference_{cls}.csv")
        with resources.as_file(ref) as path:
            table_rows = read_matrix(str(path), metrics[0])
        for metric in metrics:
            sys.stdout.write(f"=== reference table: {cls} / {metric} ===\n")
            _report(table_rows, metric, args.out and f"{args.out}.{cls}.{metric}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.verb == "run":
            return _cmd_run(args)
        if args.verb == "analyze":
            return _cmd_analyze(args)
        return _cmd_oracle(args)
    except (ValueError, OSError) as exc:
        # every input error is a ValueError: build_scenario's, AnalysisError,
        # MetricError and run_grid's own
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
