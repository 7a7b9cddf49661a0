"""Factorial decomposition: invariants, known-table reproduction, t quantiles."""

import csv
import math
from decimal import Decimal
from importlib import resources

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ubrsim.factorial import (NO_BOUNDS, T_TABLE_95, AnalysisError, analyze,
                              effect_rows, read_matrix, render_text,
                              t_quantile_95, variation_rows, write_report_csvs)


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
    # every term is non-zero here, the three-factor one included
    vals = full_grid(lambda p, f, b: (len(p) * 3 + len(f)) * 0.1 + float(b)
                     + 0.05 * len(f) * float(b) * (p == "sd"))
    rep = analyze(rows_from(vals), "y")
    assert all(rep.ss[k] > 1e-6 for k in rep.ss)
    # the total is the terms' sum: it must be the variation about the mean
    mean = sum(vals.values()) / len(vals)
    assert rep.ss["total"] == pytest.approx(
        sum((v - mean) ** 2 for v in vals.values()), rel=1e-12)


ADDITIVE = ({"epd": 0.1, "sd": -0.1},
            {"vanilla": -0.3, "reno": -0.1, "newreno": 0.2, "sack": 0.2},
            {"0.5": -0.2, "1": 0.0, "2": 0.2})


def test_purely_additive_data_has_zero_interactions_and_residual():
    a, b, c = ADDITIVE
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
    assert rep.s_e == pytest.approx(0, abs=1e-12)


def test_a_small_three_factor_interaction_is_measured_not_clamped():
    # delta times a product of contrasts that each sum to zero: all of it
    # is three-factor interaction, with sum of squares 8 delta^2 over 6 dof
    a, b, c = ADDITIVE
    sp = {"epd": 1, "sd": -1}
    sf = {"vanilla": 1, "reno": -1, "newreno": 0, "sack": 0}
    sb = {"0.5": 1, "1": -1, "2": 0}
    delta = 1e-8
    vals = full_grid(lambda p, f, bu: 1.0 + a[p] + b[f] + c[bu]
                     + delta * sp[p] * sf[f] * sb[bu])
    rep = analyze(rows_from(vals), "y")
    assert rep.s_e == pytest.approx(delta * math.sqrt(8 / 6), rel=1e-6)
    assert rep.bounded


@pytest.mark.parametrize("fn", [
    lambda p, f, bu: 1.0 + ADDITIVE[0][p] + ADDITIVE[1][f] + ADDITIVE[2][bu],
    # every effect reads -4e-17 or so, which "{:.4f}" printed as -0.0000
    lambda p, f, bu: 0.1,
], ids=["additive", "all-equal"])
def test_an_error_that_is_zero_to_rounding_prices_no_bounds(fn, tmp_path):
    rep = analyze(rows_from(full_grid(fn)), "y")
    assert not rep.bounded
    assert rep.effect_ci("tcp_flavor", "sack") == (None, None)
    text = render_text(rep)
    assert NO_BOUNDS in text.splitlines()
    assert "-0.0" not in text
    for path in write_report_csvs(rep, str(tmp_path / "rep")):
        with open(path) as fh:
            assert "-0.0" not in fh.read()
    with open(tmp_path / "rep.effects.csv") as fh:
        eff = list(csv.DictReader(fh))
    assert len(eff) == 10
    assert all(r["ci_low"] == r["ci_high"] == "" for r in eff)


def printed_shares(text):
    """component -> pct as render_text prints its allocation of variation."""
    lines = text.splitlines()
    start = lines.index("allocation of variation") + 2  # past the header
    return {line[:30].strip(): line.split()[-1]
            for line in lines[start:lines.index("", start)]}


@pytest.mark.parametrize("v", [0.1, 0.3, 0.7, 1.0])
def test_an_all_equal_matrix_has_no_shares(v, tmp_path):
    # sum_sq - n * grand^2 read 1.1e-14 at 0.7, which printed a total of
    # 100.00 over components of 0.00; the terms' sum is 3.5e-29
    rep = analyze(rows_from(full_grid(lambda p, f, b: v)), "y")
    shares = printed_shares(render_text(rep))
    assert len(shares) == 8
    assert set(shares.values()) == {"0.00"}
    with open(write_report_csvs(rep, str(tmp_path / "rep"))[0]) as fh:
        assert {r["pct_of_total"] for r in csv.DictReader(fh)} == {"0.00"}


@pytest.mark.parametrize("response", ["efficiency", "fairness"])
@pytest.mark.parametrize("delay_class", ["wan", "meo", "geo"])
def test_reference_shares_add_up_to_the_total(delay_class, response):
    rep = analyze(read_matrix(reference_path(delay_class), response), response)
    assert rep.ss["total"] == sum(rep.ss[k] for k in rep.ss if k != "total")
    shares = printed_shares(render_text(rep))
    assert shares.pop("total") == "100.00"
    assert abs(sum(map(Decimal, shares.values())) - 100) <= Decimal("0.01")


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


@given(values=st.lists(st.floats(min_value=0.0, max_value=1.0),
                       min_size=24, max_size=24),
       r=st.sampled_from((2, 3)))
def test_identical_replicates_give_the_one_replicate_analysis(values, r):
    keys = [(p, f, b) for p in POLICIES for f in FLAVORS for b in BUFFERS]
    rows = rows_from(dict(zip(keys, values)))
    one = analyze(rows, "y")
    rep = analyze([dict(row) for row in rows for _ in range(r)], "y")
    # averaging r equal values may round, so the two agree to rounding
    assert rep.n == one.n == 24
    assert rep.grand_mean == pytest.approx(one.grand_mean, abs=1e-12)
    for name, per in one.effects.items():
        assert rep.effects[name] == pytest.approx(per, abs=1e-12)
    for term, per in one.interactions.items():
        assert rep.interactions[term] == pytest.approx(per, abs=1e-12)
    assert rep.ss == pytest.approx(one.ss, abs=1e-12)
    assert rep.dof == one.dof
    assert rep.s_e == pytest.approx(one.s_e, abs=1e-12)


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
    assert rep.bounded and NO_BOUNDS not in render_text(rep)


def test_t_table_against_scipy():
    scipy_stats = pytest.importorskip("scipy.stats")
    for dof, val in T_TABLE_95.items():
        assert t_quantile_95(dof) == val
        assert val == pytest.approx(scipy_stats.t.ppf(0.95, dof), abs=1e-3)
    # no normal fallback past the table: t(31) is 1.696, not 1.645
    for dof in (0, 31, 40):
        with pytest.raises(AnalysisError, match="1 to 30"):
            t_quantile_95(dof)


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
    for path in paths:
        with open(path, "rb") as fh:
            assert b"\r" not in fh.read()
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
    with pytest.raises(AnalysisError) as exc:
        read_matrix(str(path), "efficiency")
    assert str(exc.value) == (f"{path}: mixes delay classes geo, wan; "
                              "a results file holds one")
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
