"""The benchmark's workloads, one timed pass of each, and its output check.

A pass runs the workload through ubrsim's public API, writes the results
CSV with `write_results` and, for the grid, analyzes efficiency and
fairness from that file.  The CSV's SHA-256 is the pass's digest: every
pass of one workload and seed must reproduce it byte for byte.
"""

from __future__ import annotations

import gc
import hashlib
import math
import time
from contextlib import contextmanager
from dataclasses import dataclass

from ubrsim import experiment, factorial, netsim, scenarios


@dataclass(frozen=True)
class Workload:
    name: str
    delay_class: str
    scale: float
    duration_s: float
    cell: tuple | None  # (policy, flavor, buffer level); None runs the grid

    def scenario(self, seed: int) -> scenarios.Scenario:
        return scenarios.build_scenario(self.delay_class, seed=seed,
                                        scale=self.scale,
                                        duration_s=self.duration_s)

    def specs(self, scenario: scenarios.Scenario) -> list:
        if self.cell is None:
            return scenarios.grid(scenario)
        return [scenarios.RunSpec(scenario, *self.cell)]


# Why each workload was chosen is in README.md: the grid is the user's unit
# of work and carries the largest per-segment (tcp, aal5, www) share; the
# full-scale wan cell has the paper's 100 connections and the deepest heap;
# the geo cell's 193-cell frames leave almost all work to port and kernel.
WORKLOADS = {w.name: w for w in (
    Workload("grid-wan-desk", "wan", 0.1, 20.0, None),
    Workload("cell-wan-full", "wan", 1.0, 10.0, ("sd", "sack", "1")),
    Workload("cell-geo-desk", "geo", 0.1, 100.0, ("sd", "sack", "2")),
)}


ROW_TOTALS = ("cells_in", "events", "timeouts", "fast_recoveries", "rexmit_segs")


@dataclass
class Pass:
    """One timed pass of a workload."""
    wall_s: float
    digest: str
    totals: dict           # ROW_TOTALS summed over the result rows
    attempted: int         # grid cells run
    failures: list         # one message per failed cell or check
    ports: list            # port_counters() of every finished topology


def port_counters(topo: netsim.Topology) -> dict:
    """Both ports' and their reassemblers' counters after a run."""
    ports = (topo.forward, topo.reverse)
    reasm = [e.reasm for p in ports for e in p.egress]
    return {
        "conservation_ok": all(p.conservation_ok() for p in ports),
        "cells_in": sum(p.cells_in for p in ports),
        "cells_out": sum(p.cells_out for p in ports),
        "cells_dropped": sum(p.cells_dropped for p in ports),
        "frames_ok": sum(r.frames_ok for r in reasm),
        "frames_corrupt": sum(r.frames_corrupt for r in reasm),
        "cells_wasted": sum(r.cells_wasted + r.count for r in reasm),
    }


@contextmanager
def observe_ports(sink: list):
    """Append port_counters() of every Topology that finishes a run."""
    original = netsim.Topology.run

    def run(topo):
        result = original(topo)
        sink.append(port_counters(topo))
        return result

    netsim.Topology.run = run
    try:
        yield sink
    finally:
        netsim.Topology.run = original


def cell_failures(specs, results, ports) -> list:
    """Messages for every grid cell whose output fails the check."""
    out = []
    if len(results) != len(specs):
        out.append(f"{len(results)} result rows for {len(specs)} cells")
    for spec, res in zip(specs, results):
        where = f"{spec.drop_policy}/{spec.tcp_flavor}/{spec.buffer_rtt}"
        if res.status != "ok":
            out.append(f"{where}: {res.status}")
        elif (res.drop_policy, res.tcp_flavor, res.buffer_rtt) != (
                spec.drop_policy, spec.tcp_flavor, spec.buffer_rtt):
            out.append(f"{where}: row out of grid order")
        elif not (res.events > 0 and 0 < res.cells_out <= res.cells_in
                  and math.isfinite(res.efficiency) and res.efficiency > 0
                  and 0 < res.fairness <= 1 + 1e-9):
            out.append(f"{where}: implausible row {res}")
    ok_rows = sum(res.status == "ok" for res in results)
    if len(ports) != ok_rows:
        out.append(f"{len(ports)} finished topologies for {ok_rows} ok rows")
    out.extend(f"port conservation violated in run {i}"
               for i, p in enumerate(ports) if not p["conservation_ok"])
    return out


def failed_cells(p: Pass) -> int:
    return min(len(p.failures), p.attempted)


def cell_error_rate(passes) -> float:
    """Share of the cells attempted over all passes that failed the check."""
    return sum(map(failed_cells, passes)) / sum(p.attempted for p in passes)


def run_pass(wl: Workload, scenario, csv_path: str) -> Pass:
    """Run the workload once, write its CSV, check it and time it."""
    specs = wl.specs(scenario)
    ports: list = []
    gc.collect()  # start every pass from the same heap state
    with observe_ports(ports):
        t0 = time.perf_counter()
        if wl.cell is None:
            results = experiment.run_grid(scenario, workers=1)
        else:
            results = [experiment.run_cell_safe(s) for s in specs]
        experiment.write_results(results, csv_path)
        analysis_error = None
        if wl.cell is None:
            try:
                for metric in ("efficiency", "fairness"):
                    factorial.analyze(factorial.read_matrix(csv_path, metric),
                                      metric)
            except factorial.AnalysisError as exc:
                analysis_error = f"analysis failed: {exc}"
        wall = time.perf_counter() - t0
    with open(csv_path, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    failures = cell_failures(specs, results, ports)
    if analysis_error and not failures:
        failures.append(analysis_error)
    totals = {col: sum(getattr(r, col) for r in results) for col in ROW_TOTALS}
    return Pass(wall_s=wall, digest=digest, totals=totals,
                attempted=len(specs), failures=failures, ports=ports)
