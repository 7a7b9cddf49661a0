"""Run the 24-cell factor grid and serialize results to CSV.

Rows always appear in canonical grid order (policy, then flavor, then
buffer) regardless of worker count, and floats are formatted with fixed
precision, so identical inputs produce byte-identical result files.
"""

from __future__ import annotations

import csv
import math
import sys
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import nullcontext
from functools import partial
from traceback import format_exc

from .netsim import CSV_COLUMNS, RunResult, run_cell
from .scenarios import Scenario, grid

_FLOAT_COLUMNS = {"scale", "duration_s", "efficiency", "fairness",
                  "goodput_bps", "offered_bps"}


def run_cell_safe(spec, log_drops: bool = False) -> RunResult:
    """run_cell that degrades a crashed cell into an error row."""
    try:
        return run_cell(spec, log_drops=log_drops)
    except Exception as exc:  # report the cell, keep the grid going
        return _error_row(spec, exc, format_exc())


def _error_row(spec, exc: BaseException, traceback: str) -> RunResult:
    """The row of a cell that failed with `exc`."""
    sc = spec.scenario
    return RunResult(
        delay_class=sc.delay_class, drop_policy=spec.drop_policy,
        tcp_flavor=spec.tcp_flavor, buffer_rtt=spec.buffer_rtt,
        buffer_cells=spec.buffer_cells, seed=sc.seed, scale=sc.scale,
        connections=sc.connections, duration_s=sc.duration_s,
        efficiency=math.nan, fairness=math.nan, goodput_bps=math.nan,
        offered_bps=math.nan, cells_in=0, cells_out=0, cells_dropped=0,
        rev_cells_dropped=0, frames_corrupt=0, timeouts=0,
        fast_recoveries=0, rexmit_segs=0, events=0,
        status=f"error: {type(exc).__name__}: {exc}", traceback=traceback)


def _pool_result(future, spec) -> RunResult:
    # a worker that dies takes its cell and every pending one with it
    try:
        return future.result()
    except BrokenProcessPool as exc:
        return _error_row(spec, exc, format_exc())


def run_grid(scenario: Scenario, workers: int = 1, log_drops: bool = False,
             progress=None) -> list:
    """Execute every grid cell; results come back in canonical order."""
    specs = grid(scenario)
    job = partial(run_cell_safe, log_drops=log_drops)
    results = []
    pool = ProcessPoolExecutor(max_workers=workers) if workers > 1 else None
    with pool or nullcontext():
        if pool:
            futures = [pool.submit(job, spec) for spec in specs]
            rows = map(_pool_result, futures, specs)
        else:
            rows = map(job, specs)
        for i, res in enumerate(rows, start=1):
            results.append(res)
            if progress:
                progress(i, len(specs), res)
    return results


def format_row(result: RunResult) -> list:
    row = []
    for col in CSV_COLUMNS:
        v = getattr(result, col)
        if col in _FLOAT_COLUMNS:
            row.append(f"{v:.6f}")
        else:
            row.append(v)
    return row


def write_results(results, out) -> None:
    """Write result rows as CSV to a path or an open text file."""
    if isinstance(out, str):
        if out == "-":
            _write(results, sys.stdout)
        else:
            with open(out, "w", newline="") as fh:
                _write(results, fh)
    else:
        _write(results, out)


def _write(results, fh) -> None:
    w = csv.writer(fh, lineterminator="\n")
    w.writerow(CSV_COLUMNS)
    for res in results:
        w.writerow(format_row(res))


DROP_LOG_COLUMNS = ("t_ns", "port", "vc", "verdict", "occupancy",
                    "vc_occupancy", "active_vcs")


def write_drop_logs(results, path: str) -> int:
    """Flatten per-cell drop logs into one CSV; returns rows written."""
    rows = 0
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(("drop_policy", "tcp_flavor", "buffer_rtt") + DROP_LOG_COLUMNS)
        for res in results:
            if not res.drop_logs:
                continue
            head = (res.drop_policy, res.tcp_flavor, res.buffer_rtt)
            for port_name, entries in res.drop_logs.items():
                for t, vc, verdict, x, xi, na in entries:
                    w.writerow(head + (t, port_name, vc, verdict, x, xi, na))
                    rows += 1
    return rows
