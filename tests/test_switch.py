"""Bottleneck policy port: drop decisions, conservation, conveyor links."""

import random

import pytest

from oracles import EventDrivenPort
from ubrsim.aal5 import Cell, Reassembler, Segment, segment_to_cells
from ubrsim.kernel import Simulator
from ubrsim.switchport import (DROP_FRAME_START, DROP_TAIL_OVERFLOW, EPD, SD,
                               Z, EgressLink, IngressLink, PolicyPort,
                               cell_time_ns, sd_over_fair_share)


class EgressRecorder:
    """Stands in for an EgressLink: records each offered cell as its port
    departure time and its eom cell, or None for a body cell."""

    def __init__(self, tx_ns):
        self.tx_ns = tx_ns
        self.cells = []
        self.departures = []

    def offer(self, eom, n, last_port_departure_ns):
        first = last_port_departure_ns - (n - 1) * self.tx_ns
        self.departures += range(first, last_port_departure_ns + 1, self.tx_ns)
        self.cells += [None] * (n - 1) + [eom]


def make_port(policy, capacity=1000, num_vcs=4, rate=45e6, log=True):
    sim = Simulator()
    port = PolicyPort(sim, "fwd", rate, capacity, policy, num_vcs, log_drops=log)
    port.egress = [EgressRecorder(port.tx_ns) for _ in range(num_vcs)]
    return sim, port


def frame_cells(vc, ncells, length=0, seq=0):
    return ([Cell(vc, False, None)] * (ncells - 1)
            + [Cell(vc, True, Segment(vc, 1, seq, length, None))])


def feed_frame(port, vc, ncells, length=0):
    """All of the frame's cells arrive now, as one run with a zero step."""
    port.on_cell(frame_cells(vc, ncells, length), 0, ncells, 0)


def test_cell_time_at_bottleneck_rate():
    assert cell_time_ns(45e6) == 9422        # 424 bits / 45 Mbps
    assert cell_time_ns(149.76e6) == 2831


def test_epd_drops_new_frame_above_threshold():
    sim, port = make_port(EPD)
    assert port.threshold == 800
    feed_frame(port, 0, 801)                 # occupancy ends at exactly 801
    assert port.occupancy == 801
    feed_frame(port, 1, 5)
    assert port.occupancy == 801             # whole frame refused
    assert port.frames_discarded == 1
    assert port.cells_dropped == 5
    verdicts = {e[2] for e in port.drop_log}
    assert verdicts == {DROP_FRAME_START}


def test_epd_admits_new_frame_at_threshold_boundary():
    sim, port = make_port(EPD)
    feed_frame(port, 0, 800)                 # occupancy == threshold, not above
    feed_frame(port, 1, 5)
    assert port.occupancy == 805
    assert port.frames_discarded == 0


def test_sd_drop_requires_both_conditions():
    sim, port = make_port(SD)
    for vc, n in ((0, 300), (1, 250), (2, 150), (3, 200)):
        feed_frame(port, vc, n)
    assert port.occupancy == 900 and port.n_active == 4
    # fair share = 0.8 * 900 / 4 = 180; VC3 holds 200 > 180: dropped
    feed_frame(port, 3, 10)
    assert port.frames_discarded == 1
    t, vc, verdict, x, x_i, n_a = port.drop_log[0]
    assert (vc, verdict, x, x_i, n_a) == (3, DROP_FRAME_START, 900, 200, 4)
    assert sd_over_fair_share(x_i, x, n_a, Z)
    # VC2 holds 150 <= 180: admitted despite occupancy above threshold
    feed_frame(port, 2, 10)
    assert port.frames_discarded == 1
    assert port.occupancy == 910


def test_sd_drop_log_audit_matches_shared_predicate():
    sim, port = make_port(SD, capacity=60, num_vcs=3)
    rng = random.Random(42)
    t = 0
    for _ in range(300):
        t += rng.randrange(0, 40_000)
        sim.run_until(t)
        feed_frame(port, rng.randrange(3), rng.randint(1, 12))
    for _, vc, verdict, x, x_i, n_a in port.drop_log:
        if verdict == DROP_FRAME_START:
            assert x > port.threshold
            assert sd_over_fair_share(x_i, x, n_a, Z)


def test_tail_overflow_discards_rest_of_frame():
    sim, port = make_port(EPD, capacity=10, num_vcs=2)
    feed_frame(port, 0, 8)                   # below threshold 8: admitted
    assert port.occupancy == 8
    feed_frame(port, 1, 6)                   # X=8 == threshold: frame admitted,
    assert port.occupancy == 10              # fills to K, then tail-drops
    assert port.cells_dropped == 4
    assert any(e[2] == DROP_TAIL_OVERFLOW for e in port.drop_log)
    # next frame decision is fresh (prior frame state cleared at its eom)
    sim.run_until(sim.now + 9422 * 6)        # drain a few cells
    feed_frame(port, 1, 2)
    assert port.cells_in == 8 + 6 + 2


def test_service_preserves_fifo_and_routes_per_vc():
    sim, port = make_port(EPD, num_vcs=2)
    feed_frame(port, 0, 3)
    feed_frame(port, 1, 2)
    sim.run_until(9422 * 5 + 1)
    port._complete(sim.now)
    assert [c and c.vc for c in port.egress[0].cells] == [None, None, 0]
    assert [c and c.vc for c in port.egress[1].cells] == [None, 1]
    assert port.egress[0].departures == [9422, 9422 * 2, 9422 * 3]
    assert port.egress[1].departures == [9422 * 4, 9422 * 5]
    assert port.cells_out == 5
    assert port.occupancy == 0


def test_active_vc_count_tracks_buffered_cells():
    sim, port = make_port(EPD, num_vcs=3)
    feed_frame(port, 0, 2)
    feed_frame(port, 2, 2)
    assert port.n_active == 2
    sim.run_until(9422 * 2 + 1)              # VC0's two cells served
    port._complete(sim.now)
    assert port.n_active == 1
    sim.run_until(9422 * 4 + 1)
    port._complete(sim.now)
    assert port.n_active == 0
    assert port.x_per_vc == [0, 0, 0]


def test_cell_conservation_through_random_load():
    sim, port = make_port(SD, capacity=40, num_vcs=4)
    rng = random.Random(7)
    t = 0
    for _ in range(500):
        t += rng.randrange(0, 30_000)
        sim.run_until(t)
        feed_frame(port, rng.randrange(4), rng.randint(1, 9))
        assert port.conservation_ok()
    sim.run_until(t + 10 ** 9)
    port._complete(sim.now)
    assert port.conservation_ok()
    assert port.occupancy == 0
    assert port.cells_in == port.cells_out + port.cells_dropped


def test_single_vc_sd_behaves_like_epd():
    """With one active VC the fair share is Z*X, and X_i = X > Z*X whenever
    X > 0, so SD's gate collapses to EPD's occupancy test."""
    logs = []
    for policy in (EPD, SD):
        sim, port = make_port(policy, capacity=50, num_vcs=1)
        rng = random.Random(123)
        t = 0
        for _ in range(400):
            t += rng.randrange(0, 25_000)
            sim.run_until(t)
            feed_frame(port, 0, rng.randint(1, 10))
        logs.append([(e[0], e[2]) for e in port.drop_log])
    assert logs[0] == logs[1]


def random_cell_trace(rng, num_vcs, tx, n):
    """(time, cell) arrivals with frames of 1-8 cells interleaved across VCs;
    many gaps are whole cell times, so arrivals often coincide with a
    departure, and a zero gap puts several arrivals on one nanosecond."""
    left = [0] * num_vcs
    frames = 0
    t = 0
    trace = []
    for _ in range(n):
        t += rng.choice((0, 0, tx, tx, 2 * tx, rng.randrange(3 * tx)))
        vc = rng.randrange(num_vcs)
        if left[vc] == 0:
            left[vc] = rng.randint(1, 8)
        left[vc] -= 1
        if left[vc]:
            trace.append((t, Cell(vc, False, None)))
        else:
            frames += 1
            trace.append((t, Cell(vc, True, Segment(vc, 1, frames, 0, None))))
    return trace


@pytest.mark.parametrize("policy", [EPD, SD])
@pytest.mark.parametrize("capacity", [8, 12, 40])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_lazy_port_matches_event_driven_oracle(policy, capacity, seed):
    num_vcs = 4
    fast_sim, fast = make_port(policy, capacity=capacity, num_vcs=num_vcs)
    slow_sim = Simulator()
    slow = EventDrivenPort(slow_sim, 45e6, capacity, policy, num_vcs)
    slow.egress = [EgressRecorder(slow.tx_ns) for _ in range(num_vcs)]
    ties = 0
    for t, cell in random_cell_trace(random.Random(seed), num_vcs, 9422, 4000):
        fast_sim.run_until(t)
        slow_sim.run_until(t)                # completions at t fire first
        ties += bool(fast.queue) and fast.queue[0][0] == t
        fast.on_cell([cell], 0, 1, 0)        # a run of one cell
        slow.on_cell(cell)
    assert ties > 0
    assert fast.drop_log == slow.drop_log
    assert len(fast.drop_log) > 0
    slow_sim.run_until(t + 10 ** 9)
    fast_sim.run_until(t + 10 ** 9)
    fast._complete(fast_sim.now)
    for f, s in zip(fast.egress, slow.egress):
        assert list(zip(f.departures, f.cells)) == list(zip(s.departures, s.cells))
    counters = ("cells_in", "cells_out", "cells_dropped", "frames_discarded",
                "occupancy", "n_active", "x_per_vc")
    assert ([getattr(fast, c) for c in counters]
            == [getattr(slow, c) for c in counters])


class Tap:
    """Port stand-in between IngressLinks and a port: logs each run's cells
    with their own arrival times, then hands the run on."""

    def __init__(self, sim, port):
        self.sim = sim
        self.port = port
        self.arrivals = []
        self.ties = 0  # runs that arrive just as the head block's cell departs
        self.blocks = 0  # runs admitted as one block of several cells

    def on_cell(self, items, i, j, step):
        t = self.sim.now - (j - 1 - i) * step
        self.arrivals += ((t + (k - i) * step, items[k]) for k in range(i, j))
        q = self.port.queue
        self.ties += bool(q) and q[0][0] == t
        tail = q[-1] if q else None
        self.port.on_cell(items, i, j, step)
        self.blocks += bool(q) and q[-1] is not tail and q[-1][1] > 1


@pytest.mark.parametrize("policy", [EPD, SD])
@pytest.mark.parametrize("max_frame, capacity", [(8, 8), (8, 20), (23, 23), (23, 60)])
@pytest.mark.parametrize("seed", [1, 2])
def test_block_port_fed_by_ingress_trains_matches_event_driven_oracle(
        policy, max_frame, capacity, seed):
    """Several VCs' IngressLinks feed the port as real kernel trains; the
    oracle port gets the same arrivals one cell at a time.  All times sit on
    the access cell time's grid and the port's cell time is three of those,
    so arrivals tie with each other and with departures."""
    num_vcs = 4
    access_tx = cell_time_ns(149.76e6)
    port_rate = 424e9 / (3 * access_tx)
    fast_sim, fast = make_port(policy, capacity=capacity, num_vcs=num_vcs,
                               rate=port_rate)
    tap = Tap(fast_sim, fast)
    links = [IngressLink(fast_sim, tap, 149.76e6, prop_ns=10 * access_tx)
             for _ in range(num_vcs)]
    rng = random.Random(seed)
    t = 0
    for frame in range(1500):
        t += access_tx * rng.choice((0, 0, 1, 3, rng.randrange(40)))
        vc = rng.randrange(num_vcs)
        cells = frame_cells(vc, rng.randint(1, max_frame), seq=frame)
        fast_sim.schedule(t, lambda c, link=links[vc]: link.offer_frame(c), cells)
    fast_sim.run_until(t + 10 ** 9)
    fast._complete(fast_sim.now)

    slow_sim = Simulator()
    slow = EventDrivenPort(slow_sim, port_rate, capacity, policy, num_vcs)
    slow.egress = [EgressRecorder(slow.tx_ns) for _ in range(num_vcs)]
    same_ns = 0
    for k, (t, cell) in enumerate(tap.arrivals):
        slow_sim.run_until(t)                # completions at t fire first
        slow.on_cell(cell)
        same_ns += k > 0 and tap.arrivals[k - 1][0] == t
    slow_sim.run_until(t + 10 ** 9)

    assert fast.tx_ns == 3 * access_tx
    assert tap.blocks > 0 and tap.ties > 0 and same_ns > 0
    assert sum(fast.tail_drops) > 0         # the cell-by-cell path dropped
    assert fast.drop_log == slow.drop_log
    for f, s in zip(fast.egress, slow.egress):
        assert list(zip(f.departures, f.cells)) == list(zip(s.departures, s.cells))
    counters = ("cells_in", "cells_out", "cells_dropped", "frames_discarded",
                "occupancy", "n_active", "x_per_vc")
    assert ([getattr(fast, c) for c in counters]
            == [getattr(slow, c) for c in counters])
    assert fast.cells_in == len(tap.arrivals)


def test_ingress_link_paces_and_delays_cells():
    sim = Simulator()
    arrivals = []

    class PortStub:
        def on_cell(self, items, i, j, step):
            arrivals.extend((sim.now - (j - 1 - k) * step, items[k])
                            for k in range(i, j))

    link = IngressLink(sim, PortStub(), 149.76e6, prop_ns=5000)
    seg = Segment(0, 1, 0, 100, None)
    link.offer_frame(segment_to_cells(0, seg))         # 4 cells
    link.offer_frame(segment_to_cells(0, seg))         # queued behind
    sim.run_until(10 ** 9)
    tx = 2831
    assert [t for t, _ in arrivals] == [tx * k + 5000 for k in range(1, 9)]
    assert arrivals[3][1].eom and arrivals[3][1].seg == seg


def test_egress_link_delivers_intact_frames_at_arrival_time():
    sim = Simulator()
    delivered = []
    link = EgressLink(sim, 149.76e6, bottleneck_prop_ns=5_000_000,
                      access_prop_ns=5000, reassembler=Reassembler(),
                      deliver=lambda seg: delivered.append((sim.now, seg)))
    seg = Segment(0, 1, 0, 100, None)
    cells = segment_to_cells(0, seg)
    # the 4 cells leave a 45 Mbps port back to back, the last at 4 * 9422
    link.offer(cells[-1], len(cells), 4 * 9422)
    sim.run_until(10 ** 9)
    assert delivered == [(4 * 9422 + 5_000_000 + 2831 + 5000, seg)]


def test_egress_link_drops_frame_missing_a_cell():
    sim = Simulator()
    delivered = []
    reasm = Reassembler()
    link = EgressLink(sim, 149.76e6, 5_000_000, 5000, reasm,
                      lambda seg: delivered.append(seg))
    seg = Segment(0, 1, 0, 100, None)
    cells = segment_to_cells(0, seg)
    link.offer(cells[-1], len(cells) - 1, 3 * 9422)  # a body cell lost upstream
    good = Segment(0, 1, 1, 100, None)
    link.offer(Cell(0, True, good), len(cells), 7 * 9422)
    sim.run_until(10 ** 9)
    assert delivered == [good]
    assert reasm.frames_corrupt == 1


def test_port_rejects_bad_parameters():
    sim = Simulator()
    with pytest.raises(ValueError):
        PolicyPort(sim, "x", 45e6, 0, EPD, 1)
    with pytest.raises(ValueError):
        PolicyPort(sim, "x", 45e6, 10, "red", 1)
