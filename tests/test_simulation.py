"""Scenario construction, end-to-end cell runs, grid execution, CSV output."""

import concurrent.futures
import dataclasses
import gc
import hashlib
import math
import os
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ubrsim import experiment, netsim
from ubrsim.aal5 import cells_for_segment
from ubrsim.experiment import (format_row, run_cell_safe, run_grid,
                               write_results)
from ubrsim.kernel import Timer, seconds
from ubrsim.netsim import CSV_COLUMNS, Topology, run_cell
from ubrsim.scenarios import (BUFFER_LEVELS, DELAY_CLASSES, POLICIES, RunSpec,
                              Scenario, build_scenario, buffer_table, grid)
from ubrsim.switchport import cell_time_ns
from ubrsim.tcp import FLAVORS, SegRecord, TcpEndpoint


def tiny_scenario(delay_class="wan", seed=1, connections=2, duration_s=2.0):
    return build_scenario(delay_class, seed=seed, scale=0.1,
                          connections=connections, duration_s=duration_s)


def test_full_scale_buffer_tables():
    assert buffer_table("wan") == {"0.5": 531, "1": 1062, "2": 2300}
    assert buffer_table("meo") == {"0.5": 10615, "1": 21230, "2": 42460}
    assert buffer_table("geo") == {"0.5": 29190, "1": 58380, "2": 116760}


def test_full_scale_windows_and_ssthresh():
    wan = build_scenario("wan")
    meo = build_scenario("meo")
    geo = build_scenario("geo")
    assert (wan.init_ssthresh, meo.init_ssthresh, geo.init_ssthresh) == \
        (56_250, 1_125_000, 3_093_750)
    # window scaling picks the smallest shift that covers one RTT of data:
    # 0, 5 and 6
    assert wan.rcv_wnd == 65_535
    assert meo.rcv_wnd == 2_097_120
    assert geo.rcv_wnd == 4_194_240


def test_scale_shrinks_rates_and_connections_together():
    sc = build_scenario("geo", scale=0.1)
    assert sc.connections == 10
    assert sc.bottleneck_bps == pytest.approx(4.5e6)
    assert sc.access_bps == pytest.approx(14.976e6)
    # load/capacity ratio preserved: windows track the scaled pipe
    assert sc.init_ssthresh == 309_375


def test_scenario_validation():
    with pytest.raises(ValueError, match="unknown delay class"):
        build_scenario("leo")
    with pytest.raises(ValueError, match="scale"):
        build_scenario("wan", scale=0)
    with pytest.raises(ValueError, match="scale"):
        build_scenario("wan", scale=1.5)
    with pytest.raises(ValueError, match="connection"):
        build_scenario("wan", connections=0)
    # a fractional count would pass every range rule, then crash each cell
    with pytest.raises(ValueError, match=r"^connections must be an integer"):
        build_scenario("wan", scale=0.1, connections=1.5, duration_s=0.5)
    with pytest.raises(ValueError, match="duration"):
        build_scenario("wan", duration_s=0)
    # seeds derive streams from their text: 1.0 would run other draws than 1
    with pytest.raises(ValueError, match=r"^seed must be an integer, got 1\.0$"):
        build_scenario("wan", scale=0.1, seed=1.0, duration_s=0.5)
    # a bool is an int to isinstance: True wrote itself into the row and
    # derived the streams of the text "True", not those of seed 1
    for key in ("seed", "connections"):
        with pytest.raises(ValueError, match=f"^{key} must be an integer, got True$"):
            build_scenario("wan", scale=0.1, duration_s=0.5, **{key: True})
    with pytest.raises(ValueError, match=r"^buffers must be 3 positive"):
        build_scenario("wan", buffers=(True, 106, 230))
    with pytest.raises(ValueError, match=r"^buffers must be 3 positive"):
        build_scenario("wan", buffers=(53.9, 106, 230))
    with pytest.raises(ValueError, match="buffer sizes"):
        build_scenario("wan", buffers=(10, 20))
    with pytest.raises(ValueError, match="positive"):
        build_scenario("wan", buffers=(10, 0, 40))
    # a tiny scale derives a 0-cell half-RTT buffer, which no port can hold
    with pytest.raises(ValueError, match=r"^buffers must be 3 positive buffer "
                       r"sizes in cells, scale 1e-12 derives \(0, 0, 46\)$"):
        build_scenario("wan", scale=1e-12, connections=2, duration_s=0.5)
    # int() of an infinite size raises OverflowError, not a rule's message
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match=r"^buffers must be 3 positive"):
            build_scenario("wan", buffers=(bad, 1, 1))
        with pytest.raises(ValueError, match=f"^duration_s must be finite, got {bad}$"):
            build_scenario("wan", duration_s=bad)
        # a type is judged before finiteness: no float is an integer
        for key in ("seed", "connections"):
            with pytest.raises(ValueError, match=f"^{key} must be an integer, got {bad}$"):
                build_scenario("wan", **{key: bad})


@pytest.mark.parametrize("key,value,message", [
    ("seed", "1", "seed must be an integer, got '1'"),
    ("connections", "2", "connections must be an integer, got '2'"),
    ("scale", "0.1", "scale must be a number, got '0.1'"),
    ("duration_s", "20", "duration_s must be a number, got '20'"),
    ("scale", True, "scale must be a number, got True"),
    ("duration_s", True, "duration_s must be a number, got True"),
    ("buffers", 5, "buffers must be 3 positive buffer sizes in cells, got 5"),
])
def test_a_wrong_input_type_fails_with_its_key(key, value, message):
    # a bool is never a number here: True would run as 1 and print as True
    with pytest.raises(ValueError) as exc:
        build_scenario("wan", **{key: value})
    assert str(exc.value) == message


# (mss, bottleneck_bps, access_bps, bottleneck_prop_ns, access_prop_ns,
#  init_ssthresh, rcv_wnd), written out: a derivation changes them only on
# purpose, and the types pin ints as ints and rates as floats
DERIVED = {
    ("wan", 1.0): (1024, 45000000.0, 149760000.0, 5000000, 5000, 56250, 65535),
    ("wan", 0.1): (1024, 4500000.0, 14976000.0, 5000000, 5000, 5625, 65535),
    ("meo", 1.0): (9180, 45000000.0, 149760000.0, 100000000, 5000, 1125000,
                   2097120),
    ("meo", 0.1): (9180, 4500000.0, 14976000.0, 100000000, 5000, 112500,
                   131070),
    ("geo", 1.0): (9180, 45000000.0, 149760000.0, 275000000, 5000, 3093750,
                   4194240),
    ("geo", 0.1): (9180, 4500000.0, 14976000.0, 275000000, 5000, 309375,
                   524280),
}


@pytest.mark.parametrize("delay_class,scale", sorted(DERIVED))
def test_a_scenario_is_six_inputs_and_derives_the_rest(delay_class, scale):
    assert [f.name for f in dataclasses.fields(Scenario)] == [
        "delay_class", "scale", "seed", "connections", "duration_s", "buffers"]
    sc = build_scenario(delay_class, scale=scale)
    derived = (sc.mss, sc.bottleneck_bps, sc.access_bps, sc.bottleneck_prop_ns,
               sc.access_prop_ns, sc.init_ssthresh, sc.rcv_wnd)
    assert derived == DERIVED[delay_class, scale]
    assert [type(v) for v in derived] == [int, float, float, int, int, int, int]
    with pytest.raises(TypeError):
        dataclasses.replace(sc, access_bps=4e6)
    with pytest.raises(dataclasses.FrozenInstanceError):
        sc.access_bps = 4e6


@given(delay_class=st.sampled_from(sorted(DELAY_CLASSES)),
       scale=st.floats(min_value=1e-300, max_value=1.0))
def test_every_access_link_keeps_up_with_the_bottleneck(delay_class, scale):
    """A port run's cells leave back to back: the port's blocks and the
    egress links' pure delay need access links at least as fast as the
    bottleneck.  Below about 1e-305, cell_time_ns overflows a float.  Scales
    below about 1e-15 derive 0-cell buffers, so the buffers are given."""
    sc = build_scenario(delay_class, scale=scale, buffers=(1, 2, 4))
    assert cell_time_ns(sc.access_bps) <= cell_time_ns(sc.bottleneck_bps)


def test_grid_is_24_cells_in_canonical_order():
    sc = tiny_scenario()
    cells = grid(sc)
    assert len(cells) == 24
    expect = [(p, f, b)
              for p in POLICIES for f in FLAVORS for b in BUFFER_LEVELS]
    assert [(c.drop_policy, c.tcp_flavor, c.buffer_rtt) for c in cells] == expect
    assert all(c.scenario is sc for c in cells)


def test_buffer_cells_follows_level():
    sc = tiny_scenario()
    spec = RunSpec(sc, "epd", "reno", "2")
    assert spec.buffer_cells == sc.buffers[2]


def test_run_cell_smoke():
    res = run_cell(RunSpec(tiny_scenario(), "epd", "reno", "1"))
    assert res.status == "ok"
    assert 0 < res.efficiency <= 1
    assert 0 < res.fairness <= 1
    # exact conservation (in == out + dropped + queued) is enforced in run()
    assert res.cells_in >= res.cells_out + res.cells_dropped
    assert res.goodput_bps <= res.offered_bps
    assert res.events > 0
    assert res.drop_logs is None


def test_a_cell_with_no_offered_load_is_an_error_row():
    # 50 ms is too short for any request to be answered
    sc = tiny_scenario(connections=2, duration_s=0.05)
    res = run_cell_safe(RunSpec(sc, "epd", "reno", "1"))
    assert res.status == "error: MetricError: no connection offered any load"


def test_a_cell_that_delivered_nothing_is_an_error_row():
    # requests are answered, but in 0.6 s no geo response reaches a client
    sc = build_scenario("geo", seed=1, scale=0.1, connections=2, duration_s=0.6)
    res = run_cell_safe(RunSpec(sc, "epd", "vanilla", "0.5"))
    assert res.status == "error: MetricError: no connection received any data"


def test_run_cell_is_deterministic():
    spec = RunSpec(tiny_scenario(seed=7), "sd", "sack", "0.5")
    a = run_cell(spec)
    b = run_cell(spec)
    assert format_row(a) == format_row(b)


def test_seed_changes_the_outcome():
    sc1 = tiny_scenario(seed=1, duration_s=4.0)
    sc2 = tiny_scenario(seed=2, duration_s=4.0)
    a = run_cell(RunSpec(sc1, "epd", "vanilla", "0.5"))
    b = run_cell(RunSpec(sc2, "epd", "vanilla", "0.5"))
    assert a.offered_bps != b.offered_bps


def test_every_retransmission_timer_expiry_is_a_timeout(monkeypatch):
    """The timer is cancelled whenever an ACK covers snd_nxt, so it never
    fires with nothing outstanding, and each expiry is one timeout."""
    outstanding = []
    on_timer = TcpEndpoint._on_timer

    def record(ep):
        outstanding.append(ep.snd_una < ep.snd_nxt)
        on_timer(ep)

    monkeypatch.setattr(TcpEndpoint, "_on_timer", record)
    rows = run_grid(tiny_scenario())
    assert all(r.status == "ok" for r in rows)
    assert all(outstanding)
    assert len(outstanding) == sum(r.timeouts for r in rows) > 0


def test_drop_log_capture():
    # small buffer and more load so the port actually discards frames
    sc = tiny_scenario(connections=4, duration_s=4.0)
    res = run_cell(RunSpec(sc, "sd", "vanilla", "0.5"), log_drops=True)
    assert set(res.drop_logs) == {"forward", "reverse"}
    assert res.cells_dropped > 0
    assert len(res.drop_logs["forward"]) > 0


@pytest.mark.parametrize("delay_class, duration_s", [("wan", 3.0), ("geo", 12.0)])
def test_a_cell_run_in_slices_matches_the_one_shot_run(delay_class, duration_s):
    """The kernel runs in about 200 slices that end at random times, and
    each port catches up at every slice end, so it holds exactly the cells
    that arrived by then: the row, `events` included, and the drop logs are
    those of one run to the end."""
    sc = tiny_scenario(delay_class, connections=10, duration_s=duration_s)
    spec = RunSpec(sc, "sd", "reno", "0.5")
    whole = run_cell(spec, log_drops=True)
    topo = Topology(spec, log_drops=True)
    run_until = topo.sim.run_until
    rng = random.Random(5)
    split = []  # cuts that fall inside a frame's arrival at a port

    def sliced(end):
        for cut in sorted(rng.sample(range(end), 199)):
            run_until(cut)
            for port in (topo.forward, topo.reverse):
                port.catch_up(cut)
                split.extend(cut for rec in port.arrivals if rec[2])
        run_until(end)

    topo.sim.run_until = sliced
    try:
        res = topo.run()
    finally:
        topo.close()
    assert whole.status == "ok" and whole.cells_dropped > 0 and split
    assert res == whole


def test_run_cell_safe_turns_crash_into_error_row():
    spec = RunSpec(tiny_scenario(), "epd", "bogus", "1")
    res = run_cell_safe(spec)
    assert res.status.startswith("error: ValueError")
    assert res.efficiency != res.efficiency      # nan
    assert res.tcp_flavor == "bogus"


IDENTITY_COLUMNS = ("delay_class", "drop_policy", "tcp_flavor", "buffer_rtt",
                    "buffer_cells", "seed", "scale", "connections", "duration_s")


def test_error_row_names_its_cell_as_an_ok_row_does(monkeypatch):
    spec = RunSpec(tiny_scenario(seed=5), "sd", "newreno", "2")
    ok = run_cell_safe(spec)
    monkeypatch.setattr(netsim.Topology, "run", lambda topo: 1 / 0)
    crashed = run_cell_safe(spec)
    assert ok.status == "ok"
    assert crashed.status.startswith("error: ZeroDivisionError")
    assert CSV_COLUMNS[:len(IDENTITY_COLUMNS)] == IDENTITY_COLUMNS
    assert ([getattr(crashed, c) for c in IDENTITY_COLUMNS]
            == [getattr(ok, c) for c in IDENTITY_COLUMNS])


def test_crashed_cell_keeps_a_traceback_out_of_the_csv(monkeypatch):
    build = Topology.__init__

    def explode_mid_run(_):
        raise RuntimeError("boom")

    def build_then_explode(topo, spec, **kwargs):
        build(topo, spec, **kwargs)
        topo.sim.schedule(seconds(0.1), explode_mid_run)

    monkeypatch.setattr(netsim.Topology, "__init__", build_then_explode)
    res = run_cell_safe(RunSpec(tiny_scenario(), "epd", "reno", "1"))
    assert res.status == "error: RuntimeError: boom"
    lines = res.traceback.splitlines()
    frames = [line for line in lines if line.lstrip().startswith("File ")]
    assert lines[0] == "Traceback (most recent call last):"
    assert frames[-1].endswith("in explode_mid_run")
    assert any(f.endswith("in run_until") for f in frames)
    assert lines[-1] == "RuntimeError: boom"
    assert "traceback" not in CSV_COLUMNS
    assert not any("Traceback" in str(v) for v in format_row(res))


def _bump(obj, attr, by=1):
    setattr(obj, attr, getattr(obj, attr) + by)


PORT_CORRUPTIONS = [
    (lambda topo: topo.reverse.x_per_vc.__setitem__(0, topo.reverse.x_per_vc[0] + 1),
     "sum(x_per_vc) == occupancy"),
    (lambda topo: _bump(topo.reverse.egress[0], "cells_in"),
     "egress cells_in == cells_out + occupancy"),
    (lambda topo: _bump(topo.reverse, "cells_in"),
     "cell conservation"),
    (lambda topo: topo.reverse.queue.append([10**18, 1, 0]),
     "occupancy == cells in buffer blocks"),
    (lambda topo: _bump(topo.reverse.egress[0].reasm, "frames_corrupt", 10**9),
     "frames_corrupt <= tail drops on each VC"),
    # occupancy is the busy period left before _free_at
    (lambda topo: _bump(topo.reverse, "_free_at", 10**9),
     "occupancy == cells in buffer blocks"),
]
# connection 0; the large bumps outlast any arrival at the final instant
CONNECTION_CORRUPTIONS = [
    (lambda topo: _bump(topo.clients[0], "rcv_nxt", 10**9),
     "client rcv_nxt <= server snd_nxt <= server app_bytes"),
    (lambda topo: _bump(topo.servers[0], "app_bytes", -10**9),
     "client rcv_nxt <= server snd_nxt <= server app_bytes"),
    (lambda topo: _bump(topo.servers[0], "rcv_nxt", 10**9),
     "server rcv_nxt <= client snd_nxt <= client app_bytes"),
    (lambda topo: _bump(topo.clients[0], "protocol_errors"),
     "protocol_errors == 0"),
    (lambda topo: _bump(topo.servers[0], "window_drops"),
     "window_drops == 0"),
    (lambda topo: _bump(topo.client_apps[0], "bytes_received"),
     "bytes_received == client rcv_nxt"),
    (lambda topo: topo.clients[0]._recs.append(SegRecord(10**18, 10**18 + 1)),
     "scoreboard spans snd_una..snd_nxt"),
    # the server still has data in flight when the run ends
    (lambda topo: topo.servers[0].timer.cancel(),
     "timer armed iff snd_una < snd_nxt"),
]


@pytest.mark.parametrize("corrupt, invariant",
                         PORT_CORRUPTIONS + CONNECTION_CORRUPTIONS)
def test_broken_run_end_invariant_names_itself_in_the_row(monkeypatch, corrupt,
                                                          invariant):
    build = Topology.__init__

    def build_then_corrupt_at_end(topo, spec, **kwargs):
        build(topo, spec, **kwargs)
        end = seconds(spec.scenario.duration_s)
        topo.sim.schedule(end, lambda _: corrupt(topo))

    monkeypatch.setattr(netsim.Topology, "__init__", build_then_corrupt_at_end)
    res = run_cell_safe(RunSpec(tiny_scenario(), "epd", "reno", "1"))
    where = ("reverse port" if (corrupt, invariant) in PORT_CORRUPTIONS
             else "connection 0")
    assert res.status.startswith(
        f"error: RuntimeError: invariant {invariant} violated on {where}")


@given(delay_class=st.sampled_from(sorted(DELAY_CLASSES)),
       seed=st.integers(1, 1000), connections=st.integers(1, 4),
       duration_s=st.sampled_from((1.0, 2.0, 3.0)),
       policy=st.sampled_from(POLICIES), flavor=st.sampled_from(FLAVORS),
       frames=st.integers(1, 6))
@settings(max_examples=60, deadline=None)
def test_random_small_topologies_pass_every_run_end_invariant(
        delay_class, seed, connections, duration_s, policy, flavor, frames):
    """Buffers down to one MSS frame; a broken port or TCP invariant turns
    the row's status into an error that names it.  The run-end invariants
    are checked before the metrics, so the one refusal allowed here, a
    short geo cell that delivered nothing, still passed every invariant."""
    frame = cells_for_segment(DELAY_CLASSES[delay_class].mss)
    sc = build_scenario(delay_class, seed=seed, scale=0.1,
                        connections=connections, duration_s=duration_s,
                        buffers=(frames * frame,) * 3)
    res = run_cell_safe(RunSpec(sc, policy, flavor, "1"))
    assert res.status in (
        "ok", "error: MetricError: no connection received any data"), res.traceback


def test_run_grid_frees_every_topology_without_the_cycle_collector():
    sc = tiny_scenario(connections=2, duration_s=0.5)
    gc.collect()
    gc.disable()
    try:
        results = run_grid(sc)
        live = [o for o in gc.get_objects()
                if isinstance(o, (Topology, TcpEndpoint, Timer))]
        garbage = gc.collect()
    finally:
        gc.enable()
    assert all(r.status == "ok" for r in results)
    assert live == []
    assert garbage == 0


def test_run_grid_sequential_order_and_status():
    sc = tiny_scenario(connections=1, duration_s=0.5)
    results = run_grid(sc)
    assert len(results) == 24
    key = [(r.drop_policy, r.tcp_flavor, r.buffer_rtt) for r in results]
    assert key == [(c.drop_policy, c.tcp_flavor, c.buffer_rtt)
                   for c in grid(sc)]
    assert all(r.status == "ok" for r in results)


def test_run_grid_parallel_matches_sequential():
    sc = tiny_scenario(connections=1, duration_s=0.5)
    seq = run_grid(sc, workers=1)
    par = run_grid(sc, workers=2)
    assert [format_row(r) for r in seq] == [format_row(r) for r in par]


@pytest.mark.parametrize("workers", [0, -3])
def test_run_grid_refuses_fewer_than_one_worker(workers):
    with pytest.raises(ValueError) as exc:
        run_grid(tiny_scenario(connections=1, duration_s=0.5), workers=workers)
    assert str(exc.value) == f"workers must be >= 1, got {workers}"


def test_a_pool_starts_no_more_workers_than_cells(monkeypatch):
    # a fork pool starts all its workers up front; this one runs jobs inline
    started = []

    class InlinePool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = concurrent.futures.Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    results = run_grid(tiny_scenario(connections=1, duration_s=0.5), workers=1000)
    assert started == [24]
    assert [r.status for r in results] == ["ok"] * 24


def _die_in_the_sd_reno_1_cell(spec, log_drops=False):
    if (spec.drop_policy, spec.tcp_flavor, spec.buffer_rtt) == ("sd", "reno", "1"):
        os._exit(3)
    return run_cell(spec, log_drops=log_drops)


def test_worker_death_fails_its_cells_not_the_grid(monkeypatch):
    # the forked workers inherit the patched run_cell; the cells pending in
    # the broken pool rerun alone, and only the cell that kills its worker
    # again keeps an error row
    monkeypatch.setattr(experiment, "run_cell", _die_in_the_sd_reno_1_cell)
    sc = tiny_scenario(connections=1, duration_s=0.5)
    results = run_grid(sc, workers=2)
    assert [(r.drop_policy, r.tcp_flavor, r.buffer_rtt) for r in results] == \
        [(c.drop_policy, c.tcp_flavor, c.buffer_rtt) for c in grid(sc)]
    lost = [r for r in results if r.status != "ok"]
    assert [(r.drop_policy, r.tcp_flavor, r.buffer_rtt) for r in lost] == \
        [("sd", "reno", "1")]
    assert all(r.status.startswith("error: BrokenProcessPool: ") for r in lost)
    assert all(r.efficiency != r.efficiency for r in lost)  # nan
    ok = [format_row(r) for r in results if r.status == "ok"]
    assert ok == [format_row(run_cell_safe(spec)) for spec in grid(sc)
                  if (spec.drop_policy, spec.tcp_flavor, spec.buffer_rtt)
                  != ("sd", "reno", "1")]


def test_results_csv_layout_and_determinism(tmp_path):
    sc = tiny_scenario(connections=1, duration_s=0.5)
    res = [run_cell_safe(spec) for spec in grid(sc)[:2]]
    bufs = []
    for k in range(2):
        path = tmp_path / f"r{k}.csv"
        write_results(res, str(path))
        bufs.append(path.read_bytes().decode())
    assert bufs[0] == bufs[1]
    lines = bufs[0].splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[0] == "wan" and first[-1] == "ok"
    # floats carry fixed precision so files are reproducible byte for byte
    assert first[CSV_COLUMNS.index("efficiency")].count(".") == 1
    assert len(first[CSV_COLUMNS.index("efficiency")].split(".")[1]) == 6


# SHA-256 of the results CSV of three tiny grids (2 connections, seed 3),
# run for 1 s, and for 5 s on geo, which drops nothing in 1 s.  The wan grid
# sees drops, timeouts and fast recovery.  The geo grid's 193-cell frames
# interleave the most at a port; it drops 45,384 cells, with 4 corrupt
# frames, 2 timeouts and 24 fast recoveries.  Refactors keep these digests;
# a change that alters results on purpose updates them and says why.
RESULTS_DIGESTS = {
    "wan": "a7be2bce2fa8e94d6d4f2cadc59d1b0f6ea0878bc03d5babb93025685ef5923f",
    "meo": "ecd7e1ff4277cfa8b059d55432dfeba9dfa20ebb6f8ec3e4d6f2203c58a986a1",
    "geo": "36590a988775af54ed6aba57f56475612478ebb4739f024939cbbc8a30f11935",
}
PINNED_DURATION_S = {"wan": 1.0, "meo": 1.0, "geo": 5.0}
# The same CSVs without the `events` column, which counts the kernel's heap
# pops: they pin what the model computes apart from the kernel's
# bookkeeping, so a kernel change that only moves `events` keeps them.
MODEL_DIGESTS = {
    "wan": "f6c197fbf2bd11a3eb9a3876265c08536f6c2d72753ba37fd408f89c6ce515cd",
    "meo": "98dc4bfc5049960d58029a4ad239ccaede2ad3d23e50933913a31e5255445468",
    "geo": "b383b36586b0bb1fc06825f3129cc8685bb89598a62061a5a32bfd248ecdbb50",
}


def _without_column(csv_text: str, column: str) -> str:
    rows = [line.split(",") for line in csv_text.splitlines()]
    k = rows[0].index(column)
    return "".join(",".join(row[:k] + row[k + 1:]) + "\n" for row in rows)


@pytest.mark.parametrize("delay_class", sorted(RESULTS_DIGESTS))
def test_tiny_grid_results_are_pinned_byte_for_byte(delay_class, tmp_path):
    sc = build_scenario(delay_class, seed=3, scale=0.1, connections=2,
                        duration_s=PINNED_DURATION_S[delay_class])
    path = tmp_path / "results.csv"
    write_results(run_grid(sc), str(path))
    text = path.read_bytes().decode()
    model = _without_column(text, "events")
    assert hashlib.sha256(model.encode()).hexdigest() == MODEL_DIGESTS[delay_class]
    assert hashlib.sha256(text.encode()).hexdigest() == RESULTS_DIGESTS[delay_class]


# SHA-256 of the drop log (`write_drop_logs`) of the tiny wan grid above: 373
# drops, 34 corrupt frames.  The drop policies judge frames at their first
# and eom cells, so this pins how the port sees frame boundaries.
DROP_LOG_DIGEST = "4828d2534215a29126db8cf035fd19982f645b6e7a7485850d5cdd8b4324bcca"


def test_tiny_wan_grid_drop_log_is_pinned_byte_for_byte(tmp_path):
    sc = build_scenario("wan", seed=3, scale=0.1, connections=2,
                        duration_s=1.0)
    results = run_grid(sc, log_drops=True)
    path = tmp_path / "drops.csv"
    assert experiment.write_drop_logs(results, str(path)) == 373
    assert sum(r.frames_corrupt for r in results) == 34
    assert hashlib.sha256(path.read_bytes()).hexdigest() == DROP_LOG_DIGEST
    out = tmp_path / "results.csv"
    write_results(results, str(out))  # logging drops changes no result
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == RESULTS_DIGESTS["wan"]


# One short cell per class at the paper's scale (100 connections, scale-1
# buffers, seed 1), so the port's closed forms are pinned at the paper's
# frame-to-buffer ratio too: the SHA-256 of its results CSV and of its drop
# log, with its forward cells dropped and drop-log rows.
PAPER_SCALE_PINS = {
    ("wan", "epd", "vanilla", "0.5", 2.0): (
        "730b2ce6726eccef27c5cd57941caf84640e58535602a3887b8740e333602893",
        "9cf71979eb3389536642b365fcdfb462664c73ecdf889eb6f51efdcf91cc2f67",
        23_482, 1_124),
    ("meo", "sd", "reno", "1", 2.0): (
        "1241a91236b7b82f2f226f2e9d6d5c798ab24c88aa061b9d5a32a7d8c3061b4d",
        "b103e8a8f130ca5e171003941ff42f6db8284ee323844715aab7b028b0a85a51",
        48_229, 271),
    ("geo", "epd", "sack", "0.5", 3.0): (
        "514211edc5419a156ca7ae5eb85d88641b781923cae1602ce82ecc134d1c306f",
        "c28ed8b19824a48d64f259f27d72e3b4ea27133dc29286c92924a1dd4269c266",
        43_363, 230),
}


@pytest.mark.parametrize("cell", sorted(PAPER_SCALE_PINS),
                         ids=lambda cell: "-".join(map(str, cell)))
def test_paper_scale_cell_is_pinned_byte_for_byte(cell, tmp_path):
    delay_class, policy, flavor, buffer_rtt, duration_s = cell
    results_digest, drops_digest, dropped, drop_rows = PAPER_SCALE_PINS[cell]
    sc = build_scenario(delay_class, seed=1, scale=1.0, duration_s=duration_s)
    res = run_cell_safe(RunSpec(sc, policy, flavor, buffer_rtt), log_drops=True)
    assert (res.status, res.connections, res.cells_dropped) == ("ok", 100, dropped)
    results, drops = tmp_path / "results.csv", tmp_path / "drops.csv"
    write_results([res], str(results))
    assert experiment.write_drop_logs([res], str(drops)) == drop_rows
    assert hashlib.sha256(results.read_bytes()).hexdigest() == results_digest
    assert hashlib.sha256(drops.read_bytes()).hexdigest() == drops_digest


def test_delay_class_constants_cover_all_orbits():
    assert set(DELAY_CLASSES) == {"wan", "meo", "geo"}
    assert DELAY_CLASSES["wan"].mss == 1024
    assert DELAY_CLASSES["meo"].mss == 9180
    assert DELAY_CLASSES["geo"].one_way_ms == 275
