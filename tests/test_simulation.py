"""Scenario construction, end-to-end cell runs, grid execution, CSV output."""

import dataclasses
import gc
import hashlib
import io
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ubrsim import experiment, netsim
from ubrsim.aal5 import cells_for_segment
from ubrsim.experiment import (format_row, run_cell_safe, run_grid,
                               write_results)
from ubrsim.kernel import seconds
from ubrsim.netsim import CSV_COLUMNS, Topology, run_cell
from ubrsim.scenarios import (BUFFER_LEVELS, DELAY_CLASSES, POLICIES, RunSpec,
                              build_scenario, buffer_table, grid)
from ubrsim.tcp import FLAVORS, TcpEndpoint


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
    # window scaling picks the smallest shift that covers one RTT of data
    assert (wan.wscale, meo.wscale, geo.wscale) == (0, 5, 6)
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
    with pytest.raises(ValueError, match="duration"):
        build_scenario("wan", duration_s=0)
    with pytest.raises(ValueError, match="buffer sizes"):
        build_scenario("wan", buffers=(10, 20))
    with pytest.raises(ValueError, match="positive"):
        build_scenario("wan", buffers=(10, 0, 40))


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
    assert len(res.goodputs) == res.connections == 2
    assert res.events > 0
    assert res.drop_logs is None


def test_run_cell_is_deterministic():
    spec = RunSpec(tiny_scenario(seed=7), "sd", "sack", "0.5")
    a = run_cell(spec)
    b = run_cell(spec)
    assert format_row(a) == format_row(b)
    assert a.goodputs == b.goodputs


def test_seed_changes_the_outcome():
    sc1 = tiny_scenario(seed=1, duration_s=4.0)
    sc2 = tiny_scenario(seed=2, duration_s=4.0)
    a = run_cell(RunSpec(sc1, "epd", "vanilla", "0.5"))
    b = run_cell(RunSpec(sc2, "epd", "vanilla", "0.5"))
    assert a.offered_bps != b.offered_bps


def test_drop_log_capture():
    # small buffer and more load so the port actually discards frames
    sc = tiny_scenario(connections=4, duration_s=4.0)
    res = run_cell(RunSpec(sc, "sd", "vanilla", "0.5"), log_drops=True)
    assert set(res.drop_logs) == {"forward", "reverse"}
    assert res.cells_dropped > 0
    assert len(res.drop_logs["forward"]) > 0


def test_run_cell_safe_turns_crash_into_error_row():
    spec = RunSpec(tiny_scenario(), "epd", "bogus", "1")
    res = run_cell_safe(spec)
    assert res.status.startswith("error: ValueError")
    assert res.efficiency != res.efficiency      # nan
    assert res.tcp_flavor == "bogus"


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
    (lambda topo: _bump(topo.reverse, "n_active"),
     "n_active == nonzero x_per_vc"),
    (lambda topo: _bump(topo.reverse.egress[0], "cells_in"),
     "egress cells_in == cells_out + occupancy"),
    (lambda topo: _bump(topo.reverse, "cells_in"),
     "cell conservation"),
    (lambda topo: topo.reverse.queue.append([10**18, 1, 0]),
     "occupancy == cells in buffer blocks"),
    (lambda topo: _bump(topo.reverse.egress[0].reasm, "frames_corrupt", 10**9),
     "frames_corrupt <= tail drops on each VC"),
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


def test_access_link_slower_than_the_bottleneck_is_refused():
    sc = dataclasses.replace(tiny_scenario(), access_bps=4e6)  # 4.5 Mbps bottleneck
    with pytest.raises(ValueError, match=r"access link rate 4e\+06 bps .* "
                                         r"bottleneck rate 4\.5e\+06 bps"):
        Topology(RunSpec(sc, "epd", "reno", "1"))
    res = run_cell_safe(RunSpec(sc, "epd", "reno", "1"))
    assert res.status.startswith("error: ValueError: access link rate")


@given(delay_class=st.sampled_from(sorted(DELAY_CLASSES)),
       seed=st.integers(1, 1000), connections=st.integers(1, 4),
       duration_s=st.sampled_from((1.0, 2.0, 3.0)),
       policy=st.sampled_from(POLICIES), flavor=st.sampled_from(FLAVORS),
       frames=st.integers(1, 6))
@settings(max_examples=60, deadline=None)
def test_random_small_topologies_pass_every_run_end_invariant(
        delay_class, seed, connections, duration_s, policy, flavor, frames):
    """Buffers down to one MSS frame; a broken port or TCP invariant turns
    the row's status into an error that names it."""
    frame = cells_for_segment(DELAY_CLASSES[delay_class].mss)
    sc = build_scenario(delay_class, seed=seed, scale=0.1,
                        connections=connections, duration_s=duration_s,
                        buffers=(frames * frame,) * 3)
    res = run_cell_safe(RunSpec(sc, policy, flavor, "1"))
    assert res.status == "ok", res.traceback


def test_run_grid_frees_every_topology_without_the_cycle_collector():
    sc = tiny_scenario(connections=2, duration_s=0.5)
    gc.collect()
    gc.disable()
    try:
        results = run_grid(sc)
        live = [o for o in gc.get_objects()
                if isinstance(o, (Topology, TcpEndpoint))]
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


def _die_in_the_sd_reno_1_cell(spec, log_drops=False):
    if (spec.drop_policy, spec.tcp_flavor, spec.buffer_rtt) == ("sd", "reno", "1"):
        os._exit(3)
    return run_cell(spec, log_drops=log_drops)


def test_worker_death_fails_its_cells_not_the_grid(monkeypatch):
    # the forked workers inherit the patched run_cell
    monkeypatch.setattr(experiment, "run_cell", _die_in_the_sd_reno_1_cell)
    sc = tiny_scenario(connections=1, duration_s=0.5)
    results = run_grid(sc, workers=2)
    assert [(r.drop_policy, r.tcp_flavor, r.buffer_rtt) for r in results] == \
        [(c.drop_policy, c.tcp_flavor, c.buffer_rtt) for c in grid(sc)]
    lost = [r for r in results if r.status != "ok"]
    assert any((r.drop_policy, r.tcp_flavor, r.buffer_rtt) == ("sd", "reno", "1")
               for r in lost)
    assert all(r.status.startswith("error: BrokenProcessPool: ") for r in lost)
    assert all(r.efficiency != r.efficiency for r in lost)  # nan


def test_results_csv_layout_and_determinism():
    sc = tiny_scenario(connections=1, duration_s=0.5)
    res = [run_cell_safe(spec) for spec in grid(sc)[:2]]
    bufs = []
    for _ in range(2):
        out = io.StringIO()
        write_results(res, out)
        bufs.append(out.getvalue())
    assert bufs[0] == bufs[1]
    lines = bufs[0].splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[0] == "wan" and first[-1] == "ok"
    # floats carry fixed precision so files are reproducible byte for byte
    assert first[CSV_COLUMNS.index("efficiency")].count(".") == 1
    assert len(first[CSV_COLUMNS.index("efficiency")].split(".")[1]) == 6


# SHA-256 of the results CSV of two tiny grids (2 connections, 1 s, seed 3).
# The wan grid sees drops, timeouts and fast recovery.  Refactors keep these
# digests; a change that alters results on purpose updates them and says why.
RESULTS_DIGESTS = {
    "wan": "7603eefb7a5206404698204a732089ba7fb512738b65a1db8b7962b8860f92c6",
    "meo": "ecd7e1ff4277cfa8b059d55432dfeba9dfa20ebb6f8ec3e4d6f2203c58a986a1",
}


@pytest.mark.parametrize("delay_class", sorted(RESULTS_DIGESTS))
def test_tiny_grid_results_are_pinned_byte_for_byte(delay_class):
    sc = build_scenario(delay_class, seed=3, scale=0.1, connections=2,
                        duration_s=1.0)
    out = io.StringIO()
    write_results(run_grid(sc), out)
    digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
    assert digest == RESULTS_DIGESTS[delay_class]


def test_delay_class_constants_cover_all_orbits():
    assert set(DELAY_CLASSES) == {"wan", "meo", "geo"}
    assert DELAY_CLASSES["wan"].mss == 1024
    assert DELAY_CLASSES["meo"].mss == 9180
    assert DELAY_CLASSES["geo"].one_way_ms == 275
