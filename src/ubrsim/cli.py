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
from .config import ConfigError, load_config, scenario_from_config
from .experiment import run_grid, write_drop_logs, write_results
from .factorial import analyze, read_matrix, render_text, write_report_csvs
from .scenarios import DELAY_CLASSES

CLASSES = tuple(DELAY_CLASSES)
METRICS = ("efficiency", "fairness")


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
    run.add_argument("--seed", type=int, default=None,
                     help="master seed (default 1, or the config value)")
    run.add_argument("--scale", type=float, default=None,
                     help="shrink connections and rates together, e.g. 0.1")
    run.add_argument("--config", default=None, help="key=value config file")
    run.add_argument("--out", default="-",
                     help="results CSV path, - for stdout (default)")
    run.add_argument("--workers", type=int, default=1,
                     help="worker processes for the grid (default 1)")
    run.add_argument("--quiet", action="store_true",
                     help="suppress per-cell progress on stderr")

    an = sub.add_parser("analyze", help="factorial analysis of a results CSV")
    an.add_argument("--metric", required=True, choices=METRICS)
    an.add_argument("--in", dest="infile", required=True, help="results CSV")
    an.add_argument("--delay-class", choices=CLASSES, default=None,
                    help="pick one class from a mixed results file")
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
    cfg = load_config(args.config) if args.config else {}
    scenario = scenario_from_config(args.delay_class, cfg,
                                    seed=args.seed, scale=args.scale)
    log_drops = bool(cfg.get("drop_log", False))
    if log_drops and args.out == "-":
        raise ConfigError("drop_log=true needs --out, the log is written "
                          "next to the results file")

    def progress(i, total, res):
        if args.quiet:
            return
        print(f"[{i:2d}/{total}] {res.drop_policy:<3} {res.tcp_flavor:<8} "
              f"{res.buffer_rtt:>3} rtt  eff={res.efficiency:.4f} "
              f"fair={res.fairness:.4f} ({res.status})", file=sys.stderr)

    results = run_grid(scenario, workers=args.workers, log_drops=log_drops,
                       progress=progress)
    write_results(results, args.out)
    if log_drops:
        n = write_drop_logs(results, args.out + ".drops.csv")
        if not args.quiet:
            print(f"drop log: {n} rows -> {args.out}.drops.csv", file=sys.stderr)
    failed = [r for r in results if r.status != "ok"]
    for r in failed:
        print(f"cell {r.drop_policy}/{r.tcp_flavor}/{r.buffer_rtt}: {r.status}",
              file=sys.stderr)
        print(r.traceback, end="", file=sys.stderr)
    return 1 if failed else 0


def _cmd_analyze(args) -> int:
    rows = read_matrix(args.infile, args.metric, delay_class=args.delay_class)
    report = analyze(rows, args.metric)
    sys.stdout.write(render_text(report))
    if args.out:
        for path in write_report_csvs(report, args.out):
            print(f"wrote {path}", file=sys.stderr)
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
            report = analyze(table_rows, metric)
            sys.stdout.write(f"=== reference table: {cls} / {metric} ===\n")
            sys.stdout.write(render_text(report))
            if args.out:
                for path in write_report_csvs(report, f"{args.out}.{cls}.{metric}"):
                    print(f"wrote {path}", file=sys.stderr)
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
        # every input error is a ValueError: ConfigError, AnalysisError,
        # MetricError and run_grid's own
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
