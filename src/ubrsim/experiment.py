"""Run the 24-cell factor grid and serialize results to CSV.

Rows always appear in canonical grid order (policy, then flavor, then
buffer) regardless of worker count, and floats are formatted with fixed
precision, so identical inputs produce byte-identical result files.
"""

from __future__ import annotations

import csv
import math
import sys
from dataclasses import fields
from functools import partial

from .netsim import CSV_COLUMNS, RunResult, row_identity, run_cell
from .scenarios import Scenario, grid

# annotations are strings here: netsim postpones their evaluation
_FLOAT_COLUMNS = {f.name for f in fields(RunResult) if f.type == "float"}


def run_cell_safe(spec, log_drops: bool = False) -> RunResult:
    """run_cell that degrades a crashed cell into an error row."""
    try:
        return run_cell(spec, log_drops=log_drops)
    except Exception as exc:  # report the cell, keep the grid going
        return _error_row(spec, exc)


def _error_row(spec, exc: BaseException) -> RunResult:
    """The row of a cell that failed with `exc`, with its traceback."""
    from traceback import format_exception
    row = {col: math.nan if col in _FLOAT_COLUMNS else 0 for col in CSV_COLUMNS}
    row.update(row_identity(spec), traceback="".join(format_exception(exc)),
               status=f"error: {type(exc).__name__}: {exc}")
    return RunResult(**row)


def _pool_result(job, future, spec) -> RunResult:
    # a worker that dies takes its cell and every pending one with it; each
    # lost cell reruns once, alone, and fails only if it kills that worker too
    from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor
    try:
        return future.result()
    except BrokenProcessPool:
        with ProcessPoolExecutor(max_workers=1) as alone:
            try:
                return alone.submit(job, spec).result()
            except BrokenProcessPool as exc:
                return _error_row(spec, exc)


def run_grid(scenario: Scenario, workers: int = 1, log_drops: bool = False,
             progress=None) -> list:
    """Execute every grid cell; results come back in canonical order.

    Only a pool imports multiprocessing, so a serial grid never pays for it,
    and a pool starts no more workers than there are cells.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    specs = grid(scenario)
    job = partial(run_cell_safe, log_drops=log_drops)
    if workers <= 1:
        return _collect(map(job, specs), len(specs), progress)
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=min(workers, len(specs))) as pool:
        futures = [pool.submit(job, spec) for spec in specs]
        rows = map(partial(_pool_result, job), futures, specs)
        return _collect(rows, len(specs), progress)


def _collect(rows, total: int, progress) -> list:
    results = []
    for i, res in enumerate(rows, start=1):
        results.append(res)
        if progress:
            progress(i, total, res)
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


def write_results(results, out: str) -> None:
    """Write result rows as CSV to the path `out`, or to stdout for "-"."""
    if out == "-":
        _write(results, sys.stdout)
    else:
        with open(out, "w", newline="") as fh:
            _write(results, fh)


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
