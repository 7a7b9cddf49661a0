"""Factorial decomposition: invariants, known-table reproduction, t quantiles."""

import csv
import math
from importlib import resources

import pytest

from ubrsim.factorial import (T_TABLE_95, AnalysisError, analyze, effect_rows,
                              read_matrix, render_text, t_quantile_95,
                              variation_rows, write_report_csvs)


def reference_path(delay_class):
    return str(resources.files("ubrsim") / "data" / f"reference_{delay_class}.csv")

POLICIES = ("epd", "sd")
FLAVORS = ("vanilla", "reno", "newreno", "sack")
BUFFERS = ("0.5", "1", "2")


def rows_from(values):
    """values[(policy, flavor, buffer)] -> response; emits analyzer rows."""
    return [{"drop_policy": p, "tcp_flavor": f, "buffer_rtt": b,
             "y": values[(p, f, b)]}
            for p in POLICIES for f in FLAVORS for b in BUFFERS]


def full_grid(fn):
    return {(p, f, b): fn(p, f, b)
            for p in POLICIES for f in FLAVORS for b in BUFFERS}


def test_effects_sum_to_zero_and_interactions_balance():
    vals = full_grid(lambda p, f, b: hash((p, f, b)) % 97 / 97)
    rep = analyze(rows_from(vals), "y")
    for factor in rep.effects.values():
        assert sum(factor.values()) == pytest.approx(0, abs=1e-12)
    for (na, nb), per in rep.interactions.items():
        la = {k[0] for k in per}
        lb = {k[1] for k in per}
        for a in la:
            assert sum(per[(a, b)] for b in lb) == pytest.approx(0, abs=1e-12)
        for b in lb:
            assert sum(per[(a, b)] for a in la) == pytest.approx(0, abs=1e-12)


def test_sum_of_squares_decomposition_is_exhaustive():
    vals = full_grid(lambda p, f, b: (len(p) * 3 + len(f)) * 0.1 + float(b))
    rep = analyze(rows_from(vals), "y")
    parts = sum(rep.ss[k] for k in rep.ss if k not in ("total",))
    assert parts == pytest.approx(rep.ss["total"], abs=1e-9)


def test_purely_additive_data_has_zero_interactions_and_residual():
    a = {"epd": 0.1, "sd": -0.1}
    b = {"vanilla": -0.3, "reno": -0.1, "newreno": 0.2, "sack": 0.2}
    c = {"0.5": -0.2, "1": 0.0, "2": 0.2}
    vals = full_grid(lambda p, f, bu: 1.0 + a[p] + b[f] + c[bu])
    rep = analyze(rows_from(vals), "y")
    assert rep.grand_mean == pytest.approx(1.0)
    assert rep.effects["drop_policy"]["epd"] == pytest.approx(0.1)
    assert rep.effects["tcp_flavor"]["sack"] == pytest.approx(0.2)
    assert rep.effects["buffer_rtt"]["0.5"] == pytest.approx(-0.2)
    for per in rep.interactions.values():
        for v in per.values():
            assert v == pytest.approx(0, abs=1e-12)
    assert rep.ss["residual"] == pytest.approx(0, abs=1e-12)
    assert rep.s_e == 0.0


def test_replicates_are_averaged_per_cell():
    vals = full_grid(lambda p, f, b: 0.5 + (hash((f, b)) % 13) / 26)
    rows = rows_from(vals)
    jittered = []
    for r in rows:
        for dy in (-0.01, 0.01):
            r2 = dict(r)
            r2["y"] = r["y"] + dy
            jittered.append(r2)
    assert analyze(jittered, "y").grand_mean == \
        pytest.approx(analyze(rows, "y").grand_mean)


def test_reference_wan_efficiency_statistics():
    rows = read_matrix(reference_path("wan"), "efficiency")
    rep = analyze(rows, "efficiency")
    assert rep.sum_sq_individual == pytest.approx(14.6897, abs=5e-4)
    assert rep.ss["total"] == pytest.approx(0.4565, abs=5e-4)
    assert rep.ss["tcp_flavor"] == pytest.approx(0.2625, abs=5e-4)
    assert rep.ss["buffer_rtt"] == pytest.approx(0.1381, abs=5e-4)
    assert rep.ss["drop_policy"] == pytest.approx(0.0016, abs=5e-4)
    assert rep.ss[("tcp_flavor", "buffer_rtt")] == pytest.approx(0.0411, abs=5e-4)
    assert rep.s_e == pytest.approx(0.0156, abs=5e-4)
    assert rep.pct("tcp_flavor") == pytest.approx(57.50, abs=0.05)
    assert rep.effects["tcp_flavor"]["vanilla"] == pytest.approx(-0.1627, abs=5e-4)
    lo, hi = rep.effect_ci("tcp_flavor", "vanilla")
    assert lo == pytest.approx(-0.1734, abs=5e-4)
    assert hi == pytest.approx(-0.1520, abs=5e-4)
    assert rep.dof["residual"] == 6
    assert rep.t_crit == pytest.approx(1.943)


def test_t_table_against_scipy():
    scipy_stats = pytest.importorskip("scipy.stats")
    for dof, val in T_TABLE_95.items():
        assert val == pytest.approx(scipy_stats.t.ppf(0.95, dof), abs=1e-3)
    assert t_quantile_95(40) == pytest.approx(1.6449)   # normal fallback
    with pytest.raises(AnalysisError):
        t_quantile_95(0)


def test_incomplete_matrix_is_rejected():
    vals = full_grid(lambda p, f, b: 1.0)
    rows = rows_from(vals)[:-1]
    with pytest.raises(AnalysisError, match="incomplete"):
        analyze(rows, "y")


def test_unknown_level_and_bad_value_are_rejected():
    vals = full_grid(lambda p, f, b: 1.0)
    rows = rows_from(vals)
    rows[0] = dict(rows[0], drop_policy="rose")
    with pytest.raises(AnalysisError, match="rose"):
        analyze(rows, "y")
    rows = rows_from(vals)
    rows[3] = dict(rows[3], y="n/a")
    with pytest.raises(AnalysisError, match="not a number"):
        analyze(rows, "y")
    rows = rows_from(vals)
    rows[3] = dict(rows[3], y=math.nan)
    with pytest.raises(AnalysisError, match="finite"):
        analyze(rows, "y")


def test_report_rendering_and_csv_round_trip(tmp_path):
    rows = read_matrix(reference_path("meo"), "fairness")
    rep = analyze(rows, "fairness")
    text = render_text(rep)
    assert "allocation of variation" in text
    assert "tcp_flavor x buffer_rtt" in text
    assert "residual" in text
    paths = write_report_csvs(rep, str(tmp_path / "rep"))
    with open(paths[0]) as fh:
        var = list(csv.DictReader(fh))
    assert [r["component"] for r in var][:3] == \
        ["tcp_flavor", "buffer_rtt", "drop_policy"]
    assert float(var[-1]["pct_of_total"]) == pytest.approx(100.0)
    with open(paths[1]) as fh:
        eff = list(csv.DictReader(fh))
    assert eff[0]["term"] == "mean"
    got = [r for r in eff if r["term"] == "tcp_flavor=sack"][0]
    assert float(got["effect"]) == pytest.approx(
        rep.effects["tcp_flavor"]["sack"], abs=1e-6)


def test_read_matrix_rejects_mixed_classes_and_bad_status(tmp_path):
    path = tmp_path / "mixed.csv"
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(("delay_class", "drop_policy", "tcp_flavor", "buffer_rtt",
                    "efficiency", "status"))
        w.writerow(("wan", "epd", "reno", "1", "0.5", "ok"))
        w.writerow(("geo", "epd", "reno", "1", "0.6", "ok"))
    with pytest.raises(AnalysisError, match="mixes delay classes"):
        read_matrix(str(path), "efficiency")
    rows = read_matrix(str(path), "efficiency", delay_class="wan")
    assert len(rows) == 1
    bad = tmp_path / "bad.csv"
    with open(bad, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(("drop_policy", "tcp_flavor", "buffer_rtt", "efficiency",
                    "status"))
        w.writerow(("epd", "reno", "1", "0.5", "error: boom"))
    with pytest.raises(AnalysisError, match="status"):
        read_matrix(str(bad), "efficiency")
    with pytest.raises(AnalysisError, match="no column"):
        read_matrix(reference_path("wan"), "latency")
