"""Tests of the benchmark itself: python -m pytest perfbench/tests"""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

import run
import tracer
import workloads
from ubrsim import experiment, scenarios

ROOT = os.path.dirname(run.HERE)
GRID = workloads.WORKLOADS["grid-wan-desk"]


@pytest.fixture(scope="module")
def tiny():
    """Two connections for one second, over the full 24-cell grid."""
    return scenarios.build_scenario("wan", seed=3, scale=0.1, connections=2,
                                    duration_s=1.0)


def entry_attributes():
    return {(owner, name): vars(owner)[name]
            for _, owner, name in tracer.ENTRY_POINTS}


def test_traced_and_untraced_passes_write_the_same_csv(tiny, tmp_path):
    csv = str(tmp_path / "out.csv")
    plain = workloads.run_pass(GRID, tiny, csv)
    tr = tracer.LayerTracer()
    with tr.installed():
        traced = workloads.run_pass(GRID, tiny, csv)
    assert {s.tcp_flavor for s in GRID.specs(tiny)} == set(scenarios.FLAVORS)
    assert plain.failures == [] and traced.failures == []
    assert traced.digest == plain.digest
    assert traced.totals == plain.totals
    assert sum(tr.self_ns.values()) == tr.wall_ns
    assert all(tr.self_ns[layer] > 0 for layer in tracer.LAYERS)
    assert tr.calls["Simulator.run_until"] == 24


def test_wrappers_are_removed_after_a_traced_run(tiny, tmp_path):
    before = entry_attributes()
    with tracer.LayerTracer().installed():
        assert entry_attributes() != before
        workloads.run_pass(GRID, tiny, str(tmp_path / "out.csv"))
    assert entry_attributes() == before
    with pytest.raises(RuntimeError):
        with tracer.LayerTracer().installed():
            raise RuntimeError("abort the traced block")
    assert entry_attributes() == before


def test_emitted_metric_names_and_units_match_benchmark_json(tiny, tmp_path):
    csv = str(tmp_path / "out.csv")
    plain = workloads.run_pass(GRID, tiny, csv)
    tr = tracer.LayerTracer()
    with tr.installed():
        traced = workloads.run_pass(GRID, tiny, csv)
    layer = run.per_layer(tr, traced, plain)
    e2e = run.end_to_end([plain], [0.1], workloads.cell_error_rate([plain]))
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    for emitted, units, declared in ((e2e, run.END_TO_END, spec["end_to_end"]),
                                     (layer, run.PER_LAYER, spec["per_layer"])):
        assert list(emitted) == list(units)
        assert {m["name"]: m["unit"] for m in declared} == units
        for name in emitted:
            assert re.fullmatch(r"[A-Za-z0-9_.-]+", name), name
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
    assert e2e["cell_ok_rate"] == 1.0
    assert layer["www.requests"] > 0 and layer["www.responses"] > 0


def test_an_error_row_raises_the_cell_error_rate(tiny):
    good = scenarios.RunSpec(tiny, "sd", "sack", "1")
    bad = scenarios.RunSpec(tiny, "sd", "no-such-flavor", "1")
    ports = []
    with workloads.observe_ports(ports):
        rows = [experiment.run_cell_safe(s) for s in (good, bad)]
    assert rows[1].status.startswith("error")
    failures = workloads.cell_failures([good, bad], rows, ports)
    assert len(failures) == 1
    ok = workloads.Pass(1.0, "", {}, attempted=2, failures=[], ports=ports)
    broken = workloads.Pass(1.0, "", {}, attempted=2, failures=failures,
                            ports=ports)
    assert workloads.cell_error_rate([ok]) == 0.0
    assert workloads.cell_error_rate([ok, broken]) == 0.25


def test_fails_without_printing_a_result_when_sources_are_missing(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("runs", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cell-geo-desk",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
