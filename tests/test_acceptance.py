"""Acceptance gate: one pass/fail line per criterion, pinned tolerances.

Run with `pytest tests/test_acceptance.py -s` to see the gate lines as they
print; a captured run still shows them for any failing criterion.  The trend
criteria drive full 24-cell grids at the documented desk scale (0.1) and take
about two minutes combined; everything else is fast.
"""

import subprocess
import sys
import time
from importlib import resources
from itertools import combinations_with_replacement

import pytest

from oracles import offered_load_bps, water_fill_oracle
from ubrsim.aal5 import (Reassembler, Segment, cells_for_segment,
                         max_tcp_throughput, segment_to_cells)
from ubrsim.factorial import analyze, read_matrix, t_quantile_95
from ubrsim.kernel import RngStream
from ubrsim.metrics import max_min_allocation
from ubrsim.netsim import Topology, run_cell
from ubrsim.scenarios import RunSpec, build_scenario, buffer_table
from ubrsim.switchport import DROP_FRAME_START
from ubrsim.tcp import initial_ssthresh
from ubrsim.www import classify, draw_response_bytes

# README's document classes: base size in bytes and probability
README_CLASS_MIX = ((100, 0.20), (1_000, 0.28), (10_000, 0.40),
                    (100_000, 0.112), (1_000_000, 0.008))

DESK_SCALE = 0.1
DESK_DURATION_S = 20.0
TREND_SEEDS = (1, 2, 3)

SS_TOL = 0.0005
PCT_TOL = 0.05
EFFECT_TOL = 0.0005


def gate(num, label, checks):
    """Print the criterion verdict, then fail the test on any bad check."""
    bad = [desc for desc, ok in checks if not ok]
    verdict = "PASS" if not bad else "FAIL"
    print(f"criterion {num} [{verdict}] {label}"
          + (f" -- {'; '.join(bad)}" if bad else ""))
    assert not bad, f"criterion {num}: {'; '.join(bad)}"


def reference_path(delay_class):
    return str(resources.files("ubrsim") / "data" / f"reference_{delay_class}.csv")


def mean(vals):
    vals = list(vals)
    return sum(vals) / len(vals)


# Frozen expectations for the bundled reference matrices, recomputed
# independently before being pinned here.  Variation rows carry
# (sum of squared cells, 24 * grand_mean^2, total SS, SS for flavor, buffer
# and policy, SS for the three pairwise interactions, the six percentage
# shares, residual standard deviation).
REFERENCE_VARIATION = {
    ("wan", "efficiency"): (14.6897, 14.2331, 0.4565, 0.2625, 0.1381, 0.0016,
                            0.0411, 0.0104, 0.0015,
                            (57.50, 30.24, 0.34, 8.99, 2.27, 0.33), 0.0156),
    ("wan", "fairness"): (18.6266, 18.3816, 0.2450, 0.0526, 0.1312, 0.0002,
                          0.0424, 0.0041, 0.0009,
                          (21.49, 53.55, 0.09, 17.32, 1.68, 0.38), 0.0472),
    ("meo", "efficiency"): (19.3453, 19.3334, 0.0119, 0.0067, 0.0026, 0.0001,
                            0.0016, 0.0007, 0.0001,
                            (56.75, 21.73, 0.80, 13.42, 6.11, 0.53), 0.0036),
    ("meo", "fairness"): (22.1369, 22.1357, 0.0012, 0.0003, 0.0001, 0.0001,
                          0.0001, 0.0003, 0.0001,
                          (29.20, 7.70, 6.02, 10.16, 22.60, 6.03), 0.0060),
    ("geo", "efficiency"): (17.3948, 17.3451, 0.0497, 0.0344, 0.0068, 0.0001,
                            0.0037, 0.0025, 0.0002,
                            (69.16, 13.65, 0.25, 7.54, 4.96, 0.41), 0.0182),
    ("geo", "fairness"): (21.4938, 21.4884, 0.0054, 0.0008, 0.0006, 0.0001,
                          0.0012, 0.0014, 0.0001,
                          (14.47, 11.48, 2.31, 22.16, 26.44, 1.45), 0.0139),
}

# (effect, ci_low, ci_high) per factor level
REFERENCE_EFFECTS = {
    ("wan", "efficiency"): {
        ("tcp_flavor", "vanilla"): (-0.1627, -0.1734, -0.1520),
        ("tcp_flavor", "reno"): (-0.0208, -0.0315, -0.0101),
        ("tcp_flavor", "newreno"): (0.0939, 0.0832, 0.1046),
        ("tcp_flavor", "sack"): (0.0896, 0.0789, 0.1003),
        ("buffer_rtt", "0.5"): (-0.1000, -0.1087, -0.0912),
        ("buffer_rtt", "1"): (0.0163, 0.0076, 0.0250),
        ("buffer_rtt", "2"): (0.0837, 0.0749, 0.0924),
        ("drop_policy", "epd"): (-0.0081, -0.0142, -0.0019),
        ("drop_policy", "sd"): (0.0081, 0.0019, 0.0142),
    },
    ("wan", "fairness"): {
        ("tcp_flavor", "vanilla"): (-0.0308, -0.0632, 0.0016),
        ("tcp_flavor", "reno"): (0.0325, 0.0000, 0.0649),
        ("tcp_flavor", "newreno"): (0.0573, 0.0248, 0.0898),
        ("tcp_flavor", "sack"): (-0.0590, -0.0914, -0.0265),
        ("buffer_rtt", "0.5"): (-0.1034, -0.1299, -0.0769),
        ("buffer_rtt", "1"): (0.0382, 0.0117, 0.0647),
        ("buffer_rtt", "2"): (0.0651, 0.0386, 0.0916),
        ("drop_policy", "epd"): (-0.0030, -0.0217, 0.0157),
        ("drop_policy", "sd"): (0.0030, -0.0157, 0.0217),
    },
    ("meo", "efficiency"): {
        ("tcp_flavor", "vanilla"): (-0.0251, -0.0276, -0.0226),
        ("tcp_flavor", "reno"): (-0.0005, -0.0030, 0.0019),
        ("tcp_flavor", "newreno"): (0.0038, 0.0013, 0.0062),
        ("tcp_flavor", "sack"): (0.0219, 0.0194, 0.0244),
        ("buffer_rtt", "0.5"): (-0.0134, -0.0154, -0.0114),
        ("buffer_rtt", "1"): (0.0016, -0.0005, 0.0036),
        ("buffer_rtt", "2"): (0.0119, 0.0098, 0.0139),
        ("drop_policy", "epd"): (0.0020, 0.0006, 0.0034),
        ("drop_policy", "sd"): (-0.0020, -0.0034, -0.0006),
    },
    ("meo", "fairness"): {
        ("tcp_flavor", "vanilla"): (0.0037, -0.0004, 0.0078),
        ("tcp_flavor", "reno"): (0.0024, -0.0017, 0.0065),
        ("tcp_flavor", "newreno"): (0.0001, -0.0040, 0.0042),
        ("tcp_flavor", "sack"): (-0.0062, -0.0103, -0.0020),
        ("buffer_rtt", "0.5"): (0.0027, -0.0007, 0.0060),
        ("buffer_rtt", "1"): (-0.0008, -0.0042, 0.0026),
        ("buffer_rtt", "2"): (-0.0019, -0.0052, 0.0015),
        ("drop_policy", "epd"): (-0.0017, -0.0041, 0.0007),
        ("drop_policy", "sd"): (0.0017, -0.0007, 0.0041),
    },
    ("geo", "efficiency"): {
        ("tcp_flavor", "vanilla"): (-0.0295, -0.0420, -0.0170),
        ("tcp_flavor", "reno"): (-0.0252, -0.0377, -0.0127),
        ("tcp_flavor", "newreno"): (-0.0095, -0.0220, 0.0030),
        ("tcp_flavor", "sack"): (0.0642, 0.0517, 0.0768),
        ("buffer_rtt", "0.5"): (-0.0138, -0.0240, -0.0036),
        ("buffer_rtt", "1"): (-0.0099, -0.0201, 0.0004),
        ("buffer_rtt", "2"): (0.0237, 0.0134, 0.0339),
        ("drop_policy", "epd"): (0.0023, -0.0049, 0.0095),
        ("drop_policy", "sd"): (-0.0023, -0.0095, 0.0049),
    },
    ("geo", "fairness"): {
        ("tcp_flavor", "vanilla"): (0.0037, -0.0058, 0.0133),
        ("tcp_flavor", "reno"): (0.0027, -0.0068, 0.0123),
        ("tcp_flavor", "newreno"): (0.0034, -0.0062, 0.0129),
        ("tcp_flavor", "sack"): (-0.0098, -0.0194, -0.0003),
        ("buffer_rtt", "0.5"): (0.0050, -0.0029, 0.0128),
        ("buffer_rtt", "1"): (0.0020, -0.0058, 0.0098),
        ("buffer_rtt", "2"): (-0.0070, -0.0148, 0.0009),
        ("drop_policy", "epd"): (-0.0023, -0.0078, 0.0033),
        ("drop_policy", "sd"): (0.0023, -0.0033, 0.0078),
    },
}


def test_criterion_1_statistical_oracle():
    checks = []
    t0 = time.monotonic()
    for (cls, metric), expect in REFERENCE_VARIATION.items():
        rows = read_matrix(reference_path(cls), metric)
        rep = analyze(rows, metric)
        ind, mean_sq, total = expect[0], expect[1], expect[2]
        got_ss = (rep.sum_sq_individual,
                  rep.sum_sq_individual - rep.ss["total"],
                  rep.ss["total"],
                  rep.ss["tcp_flavor"], rep.ss["buffer_rtt"],
                  rep.ss["drop_policy"],
                  rep.ss[("tcp_flavor", "buffer_rtt")],
                  rep.ss[("tcp_flavor", "drop_policy")],
                  rep.ss[("buffer_rtt", "drop_policy")])
        for got, want, name in zip(
                got_ss, (ind, mean_sq, total) + expect[3:9],
                ("sum_sq_ind", "sum_sq_mean", "total", "ss_flavor",
                 "ss_buffer", "ss_policy", "ss_fb", "ss_fp", "ss_bp")):
            checks.append((f"{cls}/{metric} {name} {got:.4f} vs {want}",
                           abs(got - want) <= SS_TOL))
        components = ("tcp_flavor", "buffer_rtt", "drop_policy",
                      ("tcp_flavor", "buffer_rtt"),
                      ("tcp_flavor", "drop_policy"),
                      ("buffer_rtt", "drop_policy"))
        for comp, want in zip(components, expect[9]):
            checks.append((f"{cls}/{metric} pct {comp} {rep.pct(comp):.2f} vs {want}",
                           abs(rep.pct(comp) - want) <= PCT_TOL))
        checks.append((f"{cls}/{metric} s_e {rep.s_e:.4f} vs {expect[10]}",
                       abs(rep.s_e - expect[10]) <= SS_TOL))
        # grand mean against the stored 24*mean^2 component
        want_mean = (mean_sq / rep.n) ** 0.5
        checks.append((f"{cls}/{metric} grand mean",
                       abs(rep.grand_mean - want_mean) <= EFFECT_TOL))
        for (factor, level), (eff, lo, hi) in REFERENCE_EFFECTS[cls, metric].items():
            got_e = rep.effects[factor][level]
            got_lo, got_hi = rep.effect_ci(factor, level)
            ok = (abs(got_e - eff) <= EFFECT_TOL
                  and abs(got_lo - lo) <= EFFECT_TOL
                  and abs(got_hi - hi) <= EFFECT_TOL)
            checks.append((f"{cls}/{metric} effect {factor}={level}", ok))
    elapsed = time.monotonic() - t0
    checks.append((f"runtime {elapsed:.3f}s < 1s", elapsed < 1.0))
    gate(1, "analyzer reproduces the published reference statistics", checks)


def test_criterion_2_overhead_arithmetic():
    small = max_tcp_throughput(1024, 45e6) / 1e6
    large = max_tcp_throughput(9180, 45e6) / 1e6
    gate(2, "segmentation overhead arithmetic", [
        (f"cells_for_segment(1024)={cells_for_segment(1024)} vs 23",
         cells_for_segment(1024) == 23),
        (f"max throughput 1024B mss {small:.4f} vs 37.80",
         abs(small - 37.80) <= 0.01),
        (f"max throughput 9180B mss {large:.4f} vs 40.39",
         abs(large - 40.39) <= 0.01),
    ])


def test_criterion_3_configuration_arithmetic():
    ss = (initial_ssthresh(0.010, 45e6), initial_ssthresh(0.200, 45e6),
          initial_ssthresh(0.550, 45e6))
    one_rtt = {cls: buffer_table(cls)["1"] for cls in ("wan", "meo", "geo")}
    # halving the rate must halve the product: shows it is computed, not pinned
    half = buffer_table("wan", scale=0.5, connections=100)["1"]
    gate(3, "slow-start thresholds and delay-bandwidth buffer products", [
        (f"initial_ssthresh {ss} vs (56250, 1125000, 3093750)",
         ss == (56_250, 1_125_000, 3_093_750)),
        (f"wan 1-RTT buffer {one_rtt['wan']} vs 1062",
         abs(one_rtt["wan"] - 1062) <= 1),
        (f"meo 1-RTT buffer {one_rtt['meo']} vs 21230",
         abs(one_rtt["meo"] - 21230) <= 1),
        (f"geo 1-RTT buffer {one_rtt['geo']} vs 58380",
         abs(one_rtt["geo"] - 58380) <= 1),
        (f"wan 1-RTT buffer at half rate {half} vs 531",
         abs(half - 531) <= 1),
    ])


def test_criterion_4_traffic_model():
    n = 200_000
    checks = []

    freq_rng = RngStream(1, "acceptance-class-freq")
    counts = [0] * len(README_CLASS_MIX)
    for _ in range(n):
        counts[classify(freq_rng.random())] += 1
    for (base, want), count in zip(README_CLASS_MIX, counts):
        got = count / n
        checks.append((f"class {base}B freq {got:.4f} vs {want}",
                       abs(got - want) <= 0.005))

    size_rng = RngStream(1, "acceptance-response-size")
    total = 0
    for _ in range(n):
        total += draw_response_bytes(size_rng)
    got_mean = total / n
    checks.append((f"mean response {got_mean:.0f}B vs 117500 +/- 2000",
                   abs(got_mean - 117_500) <= 2_000))

    for seed in (1, 2, 3):
        bps = offered_load_bps(seed, 100, 100.0)
        checks.append((f"offered load seed {seed}: {bps/1e6:.2f} Mbps vs 48 +/- 10%",
                       abs(bps - 48e6) <= 4.8e6))
    gate(4, "request class frequencies, response mean, offered load", checks)


@pytest.fixture(scope="module")
def trend_runs():
    """Desk-scale grids for every delay class and seed, with grid timings."""
    from ubrsim.experiment import run_grid
    results = {}
    slowest = 0.0
    for cls in ("wan", "meo", "geo"):
        for seed in TREND_SEEDS:
            sc = build_scenario(cls, seed=seed, scale=DESK_SCALE,
                                duration_s=DESK_DURATION_S)
            t0 = time.monotonic()
            results[cls, seed] = run_grid(sc)
            slowest = max(slowest, time.monotonic() - t0)
    return results, slowest


def _pick(results, cls, metric, policy=None, flavor=None, buffer_rtt=None):
    out = []
    for seed in TREND_SEEDS:
        for r in results[cls, seed]:
            if policy and r.drop_policy != policy:
                continue
            if flavor and r.tcp_flavor != flavor:
                continue
            if buffer_rtt and r.buffer_rtt != buffer_rtt:
                continue
            out.append(getattr(r, metric))
    return out


def test_criterion_5_simulation_trends(trend_runs):
    results, slowest = trend_runs
    checks = [("all 216 cells ran clean",
               all(r.status == "ok"
                   for runs in results.values() for r in runs))]

    # (a) terrestrial efficiency strictly rises with buffer for the two
    # flavors that lean on retransmission timeouts (means over policy, seed)
    for flavor in ("vanilla", "reno"):
        levels = [mean(_pick(results, "wan", "efficiency", flavor=flavor,
                             buffer_rtt=b)) for b in ("0.5", "1", "2")]
        shown = ", ".join(f"{v:.4f}" for v in levels)
        checks.append((f"(a) wan {flavor} efficiency rises: {shown}",
                       levels[0] < levels[1] < levels[2]))

    # (b) longest-delay class: selective acknowledgements beat every other
    # flavor's mean efficiency by a clear margin
    geo_means = {f: mean(_pick(results, "geo", "efficiency", flavor=f))
                 for f in ("vanilla", "reno", "newreno", "sack")}
    margin = geo_means["sack"] - max(v for k, v in geo_means.items()
                                     if k != "sack")
    checks.append((f"(b) geo sack lead {margin:.4f} >= 0.02", margin >= 0.02))

    # (c) medium orbit separates the flavors no more than the long one
    def spread(cls):
        ms = [mean(_pick(results, cls, "efficiency", flavor=f))
              for f in ("vanilla", "reno", "newreno", "sack")]
        return max(ms) - min(ms)
    checks.append(
        (f"(c) flavor spread meo {spread('meo'):.4f} <= geo {spread('geo'):.4f}",
         spread("meo") <= spread("geo")))

    # (d) per-flow accounting never leaves fairness significantly worse at
    # the smallest terrestrial buffer: paired one-sided bound over the
    # flavor x seed pairs, since the raw differential's sign is seed noise
    diffs = []
    for flavor in ("vanilla", "reno", "newreno", "sack"):
        for seed in TREND_SEEDS:
            pair = {}
            for r in results["wan", seed]:
                if r.tcp_flavor == flavor and r.buffer_rtt == "0.5":
                    pair[r.drop_policy] = r.fairness
            diffs.append(pair["sd"] - pair["epd"])
    mean_diff = mean(diffs)
    var = sum((d - mean_diff) ** 2 for d in diffs) / (len(diffs) - 1)
    bound = -t_quantile_95(len(diffs) - 1) * (var / len(diffs)) ** 0.5
    checks.append(
        (f"(d) wan 0.5-RTT paired fairness diff {mean_diff:+.4f} "
         f"not significantly below 0 (bound {bound:+.4f})",
         mean_diff >= bound))

    checks.append((f"slowest grid {slowest:.1f}s < 900s", slowest < 900.0))
    gate(5, "desk-scale behavioral trends over three seeds", checks)


def test_criterion_6_mechanism_invariants(trend_runs):
    checks = []

    # frame -> cells -> frame identity across the whole length range
    reasm = Reassembler()
    aal5_ok = True
    for length in range(0, 20_001):
        seg = Segment(0, length, None)
        frame = segment_to_cells(0, seg)
        if frame.n != cells_for_segment(length):
            aal5_ok = False
            break
        reasm.body(frame.n - 1)
        if not (reasm.eom(frame.n) and frame.seg.length == length):
            aal5_ok = False
            break
    aal5_ok = aal5_ok and reasm.frames_ok == 20_001 and reasm.cells_wasted == 0
    checks.append(("aal5 round-trip identity for lengths 0..20000", aal5_ok))

    # conservation holds on every grid run (a violation raises inside run
    # and would surface as an error status) and on a directly probed port
    results, _ = trend_runs
    checks.append(("conservation on all 216 grid runs",
                   all(r.status == "ok"
                       for runs in results.values() for r in runs)))
    topo = Topology(RunSpec(build_scenario("wan", seed=5, scale=DESK_SCALE,
                                           connections=4, duration_s=4.0),
                            "sd", "vanilla", "0.5"))
    topo.run()
    checks.append(("conservation on probed ports",
                   topo.forward.conservation_ok()
                   and topo.reverse.conservation_ok()))

    # every frame-start drop under selective drop satisfied both gates;
    # integer cross-multiplication keeps the audit exact for R = Z = 0.8
    spec = RunSpec(build_scenario("wan", seed=1, scale=DESK_SCALE,
                                  duration_s=10.0), "sd", "vanilla", "0.5")
    res = run_cell(spec, log_drops=True)
    k = spec.buffer_cells
    audited = 0
    audit_ok = True
    for entries in res.drop_logs.values():
        for t, vc, verdict, x, x_i, n_a in entries:
            if verdict != DROP_FRAME_START:
                continue
            audited += 1
            if not (5 * x > 4 * k and 5 * n_a * x_i > 4 * x):
                audit_ok = False
    checks.append((f"selective-drop audit over {audited} logged drops",
                   audit_ok and audited > 0))

    # allocator equals the brute-force progressive-filling oracle on every
    # integer instance; sorted multisets cover all orderings because the
    # allocator is symmetric, which the permutation check below confirms
    sweep_ok = True
    instances = 0
    for n in range(1, 7):
        for demands in combinations_with_replacement(range(0, 11), n):
            top = sum(demands)
            for cap in range(0, top + 2):
                got = max_min_allocation(demands, float(cap))
                want = water_fill_oracle(demands, cap)
                instances += 1
                if any(abs(g - float(w)) > 1e-9 for g, w in zip(got, want)):
                    sweep_ok = False
    checks.append((f"max-min matches oracle on {instances} instances", sweep_ok))

    perm_rng = RngStream(7, "acceptance-permutations")
    perm_ok = True
    for _ in range(500):
        n = perm_rng.randint(2, 6)
        demands = [perm_rng.randint(0, 10) for _ in range(n)]
        cap = perm_rng.randint(0, sum(demands) + 1)
        base = max_min_allocation(demands, float(cap))
        rot = demands[1:] + demands[:1]
        got = max_min_allocation(rot, float(cap))
        if any(abs(a - b) > 1e-9 for a, b in zip(got, base[1:] + base[:1])):
            perm_ok = False
    checks.append(("max-min allocation is order-independent", perm_ok))

    gate(6, "adaptation, conservation, drop audit, max-min invariants", checks)


def test_criterion_7_byte_identical_reruns(tmp_path):
    outs = []
    codes = []
    for name in ("first.csv", "second.csv"):
        out = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "ubrsim", "run", "--delay-class", "wan",
             "--scale", "0.1", "--seed", "1", "--connections", "3",
             "--duration-s", "3", "--out", str(out), "--quiet"],
            capture_output=True, text=True)
        codes.append(proc.returncode)
        outs.append(out.read_bytes() if out.exists() else b"")
    gate(7, "byte-identical results for identical inputs and seed", [
        (f"both invocations exit 0 (got {codes})", codes == [0, 0]),
        ("results files non-empty", all(outs)),
        ("byte-identical CSVs", outs[0] == outs[1]),
    ])
