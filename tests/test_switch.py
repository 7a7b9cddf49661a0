"""Bottleneck policy port: drop decisions, conservation, conveyor links."""

import bisect
import random

import pytest

from oracles import EventDrivenPort
from ubrsim.aal5 import Frame, Reassembler, Segment, segment_to_cells
from ubrsim.kernel import Simulator
from ubrsim.switchport import (DROP_FRAME_START, DROP_TAIL_OVERFLOW, EPD, SD,
                               Z, EgressLink, IngressLink, PolicyPort,
                               cell_time_ns, sd_over_fair_share)


class EgressRecorder:
    """Stands in for an EgressLink: records each offered cell as its port
    departure time and, on an eom cell, its frame's segment, or None for a
    body cell; the eom cell's run is offered with its frame."""

    def __init__(self, tx_ns):
        self.tx_ns = tx_ns
        self.cells = []
        self.departures = []

    def offer(self, frame, n, last_port_departure_ns):
        first = last_port_departure_ns - (n - 1) * self.tx_ns
        self.departures += range(first, last_port_departure_ns + 1, self.tx_ns)
        self.cells += [None] * (n - 1) + [frame.seg if frame else None]


def make_port(policy, capacity=1000, num_vcs=4, rate=45e6, log=True):
    sim = Simulator()
    port = PolicyPort(sim, "fwd", rate, capacity, policy, num_vcs, log_drops=log)
    port.egress = [EgressRecorder(port.tx_ns) for _ in range(num_vcs)]
    return sim, port


def make_frame(vc, ncells, seq=0):
    return Frame(vc, ncells, Segment(seq, 0, None))


def cell_of(frame, k):
    """Cell k of a frame as the oracle port takes it: (vc, frame) on its eom
    cell, (vc, None) on a body cell."""
    return frame.vc, frame if k == frame.n - 1 else None


def feed_frame(port, vc, ncells, seq=0):
    """All of the frame's cells arrive now, as one run with a zero step."""
    port._arrive(make_frame(vc, ncells, seq), 0, ncells, 0, port.sim.now)


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
    assert len(port.drop_log) == 1
    assert port.cells_dropped == 5
    verdicts = {e[2] for e in port.drop_log}
    assert verdicts == {DROP_FRAME_START}


def test_epd_admits_new_frame_at_threshold_boundary():
    sim, port = make_port(EPD)
    feed_frame(port, 0, 800)                 # occupancy == threshold, not above
    feed_frame(port, 1, 5)
    assert port.occupancy == 805
    assert len(port.drop_log) == 0


def test_sd_drop_requires_both_conditions():
    sim, port = make_port(SD)
    for vc, n in ((0, 300), (1, 250), (2, 150), (3, 200)):
        feed_frame(port, vc, n)
    assert port.occupancy == 900 and port.n_active == 4
    # fair share = 0.8 * 900 / 4 = 180; VC3 holds 200 > 180: dropped
    feed_frame(port, 3, 10)
    assert len(port.drop_log) == 1
    t, vc, verdict, x, x_i, n_a = port.drop_log[0]
    assert (vc, verdict, x, x_i, n_a) == (3, DROP_FRAME_START, 900, 200, 4)
    assert sd_over_fair_share(x_i, x, n_a, Z)
    # VC2 holds 150 <= 180: admitted despite occupancy above threshold
    feed_frame(port, 2, 10)
    assert len(port.drop_log) == 1
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
    feed_frame(port, 0, 3, seq=10)
    feed_frame(port, 1, 2, seq=20)
    sim.run_until(9422 * 5 + 1)
    port._complete(sim.now)
    assert port.egress[0].cells == [None, None, Segment(10, 0, None)]
    assert port.egress[1].cells == [None, Segment(20, 0, None)]
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
    """(time, frame, k) arrivals of cell k of a frame, with frames of 1-8
    cells interleaved across VCs; many gaps are whole cell times, so
    arrivals often coincide with a departure, and a zero gap puts several
    arrivals on one nanosecond."""
    frame = [None] * num_vcs
    k = [0] * num_vcs
    frames = 0
    t = 0
    trace = []
    for _ in range(n):
        t += rng.choice((0, 0, tx, tx, 2 * tx, rng.randrange(3 * tx)))
        vc = rng.randrange(num_vcs)
        if frame[vc] is None:
            frames += 1
            frame[vc] = make_frame(vc, rng.randint(1, 8), seq=frames)
            k[vc] = 0
        trace.append((t, frame[vc], k[vc]))
        k[vc] += 1
        if k[vc] == frame[vc].n:
            frame[vc] = None
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
    for t, frame, k in random_cell_trace(random.Random(seed), num_vcs, 9422,
                                         4000):
        fast_sim.run_until(t)
        slow_sim.run_until(t)                # completions at t fire first
        ties += bool(fast.queue) and fast.queue[0][0] == t
        fast._arrive(frame, k, k + 1, 0, t)  # a run of one cell
        slow.on_cell(*cell_of(frame, k))
        assert fast.occupancy == slow.occupancy
    assert ties > 0
    assert fast.drop_log == slow.drop_log
    assert len(fast.drop_log) > 0
    slow_sim.run_until(t + 10 ** 9)
    fast_sim.run_until(t + 10 ** 9)
    fast._complete(fast_sim.now)
    for f, s in zip(fast.egress, slow.egress):
        assert list(zip(f.departures, f.cells)) == list(zip(s.departures, s.cells))
    counters = ("cells_in", "cells_out", "cells_dropped", "occupancy",
                "n_active", "x_per_vc")
    assert ([getattr(fast, c) for c in counters]
            == [getattr(slow, c) for c in counters])


class ArrivalLog:
    """Wraps a port's run logic: logs each run's cells as (arrival time,
    frame, k), then hands the run on."""

    def __init__(self, port):
        self.port = port
        self.judge = port._arrive
        port._arrive = self  # the instance attribute shadows the method
        self.cells = []
        self.ties = 0  # runs that arrive just as the head block's cell departs
        self.blocks = 0  # runs admitted as one block of several cells

    def __call__(self, frame, i, j, step, t):
        self.cells += ((t + (k - i) * step, frame, k) for k in range(i, j))
        q = self.port.queue
        self.ties += bool(q) and q[0][0] == t
        tail = q[-1] if q else None
        self.judge(frame, i, j, step, t)
        self.blocks += bool(q) and q[-1] is not tail and q[-1][1] > 1


def expected_arrivals(offers, tx, prop_ns):
    """(time, seq, frame, k) of every cell of `offers`, the (offer time,
    frame) pairs scheduled in this order on a new kernel, in (time, seq)
    order.  Each VC's link sends its frames back to back from
    max(offer time, link free), and the kernel numbers each frame's cells
    with the next n sequence numbers after the offers' own."""
    free = {}
    seq = len(offers)
    cells = []
    for t, frame in offers:
        start = max(t, free.get(frame.vc, 0))
        cells += ((start + (k + 1) * tx + prop_ns, seq + k, frame, k)
                  for k in range(frame.n))
        seq += frame.n
        free[frame.vc] = start + frame.n * tx
    return sorted(cells, key=lambda c: c[:2])


ORACLE_POLICIES = pytest.mark.parametrize("policy", [EPD, SD])
ORACLE_BUFFERS = pytest.mark.parametrize(
    "max_frame, capacity",
    [(8, 8), (8, 20), (23, 23), (23, 60), (193, 193), (193, 500)])
ORACLE_SEEDS = pytest.mark.parametrize("seed", [1, 2])


@ORACLE_POLICIES
@ORACLE_BUFFERS
@ORACLE_SEEDS
def test_block_port_fed_by_ingress_trains_matches_event_driven_oracle(
        policy, max_frame, capacity, seed, ratio=3, cuts=0):
    """Several VCs' IngressLinks feed the real port, each frame's cells an
    evenly spaced train; the oracle port gets the same arrivals one cell at
    a time.  All times sit on the access cell time's grid and the port's
    cell time is `ratio` of those, so arrivals tie with each other and with
    departures.  With `cuts`, the kernel runs in slices that end at random
    times, half of them on a cell's arrival, and the port catches up at
    each slice end, holding exactly the cells that arrive by then."""
    num_vcs = 4
    access_tx = cell_time_ns(149.76e6)
    prop_ns = 10 * access_tx
    port_rate = 424e9 / (ratio * access_tx)
    fast_sim, fast = make_port(policy, capacity=capacity, num_vcs=num_vcs,
                               rate=port_rate)
    log = ArrivalLog(fast)
    links = [IngressLink(fast_sim, fast, 149.76e6, prop_ns)
             for _ in range(num_vcs)]
    rng = random.Random(seed)
    offers = []
    t = 0
    for number in range(min(1500, 60_000 // max_frame)):
        t += access_tx * rng.choice((0, 0, 1, 3, rng.randrange(40)))
        frame = make_frame(rng.randrange(num_vcs), rng.randint(1, max_frame),
                           seq=number)
        fast_sim.schedule(t, links[frame.vc].offer_frame, frame)
        offers.append((t, frame))
    expected = expected_arrivals(offers, access_tx, prop_ns)
    times = [c[0] for c in expected]
    split = 0
    for cut in sorted(rng.sample(times, cuts // 2)
                      + rng.sample(range(times[-1]), cuts - cuts // 2)):
        fast_sim.run_until(cut)
        fast.catch_up(cut)
        arrived = bisect.bisect_right(times, cut)
        assert fast.cells_in == len(log.cells) == arrived
        assert fast_sim.events_processed == (
            bisect.bisect_right([o[0] for o in offers], cut) + arrived)
        split += any(rec[2] for rec in fast.arrivals)
    fast_sim.run_until(t + 10 ** 9)
    fast.catch_up(fast_sim.now)

    assert log.cells == [(t, frame, k) for t, _, frame, k in expected]
    assert fast_sim.events_processed == len(offers) + len(expected)
    slow_sim = Simulator()
    slow = EventDrivenPort(slow_sim, port_rate, capacity, policy, num_vcs)
    slow.egress = [EgressRecorder(slow.tx_ns) for _ in range(num_vcs)]
    same_ns = 0
    for a, (t, frame, k) in enumerate(log.cells):
        slow_sim.run_until(t)                # completions at t fire first
        slow.on_cell(*cell_of(frame, k))
        prev = log.cells[a - 1]
        same_ns += a > 0 and prev[0] == t and prev[1] is not frame
    slow_sim.run_until(t + 10 ** 9)

    assert fast.tx_ns == ratio * access_tx
    assert log.blocks > 0 and log.ties > 0 and same_ns > 0
    assert split >= (cuts > 0)              # some cut fell inside a frame
    assert sum(fast.tail_drops) > 0         # some runs met a full buffer
    assert fast.drop_log == slow.drop_log
    for f, s in zip(fast.egress, slow.egress):
        assert list(zip(f.departures, f.cells)) == list(zip(s.departures, s.cells))
    counters = ("cells_in", "cells_out", "cells_dropped", "occupancy",
                "n_active", "x_per_vc")
    assert ([getattr(fast, c) for c in counters]
            == [getattr(slow, c) for c in counters])
    assert fast.arrivals == []


@ORACLE_POLICIES
@ORACLE_BUFFERS
@ORACLE_SEEDS
def test_block_port_at_the_access_cell_time_matches_event_driven_oracle(
        policy, max_frame, capacity, seed):
    """The same check with the port as fast as the access links: a run's
    cells arrive exactly one port cell time apart, so none of them finds
    more cells buffered than the run's first cell did."""
    test_block_port_fed_by_ingress_trains_matches_event_driven_oracle(
        policy, max_frame, capacity, seed, ratio=1)


@ORACLE_POLICIES
@pytest.mark.parametrize("max_frame, capacity", [(8, 20), (23, 23), (193, 193)])
@pytest.mark.parametrize("ratio", [1, 3])
def test_block_port_cut_at_random_times_matches_event_driven_oracle(
        policy, max_frame, capacity, ratio):
    """The same check with the run cut at 50 random times and the port's
    end-of-run catch-up at each cut."""
    test_block_port_fed_by_ingress_trains_matches_event_driven_oracle(
        policy, max_frame, capacity, 3, ratio=ratio, cuts=50)


def test_ingress_link_paces_and_delays_cells():
    sim, port = make_port(EPD)
    log = ArrivalLog(port)
    link = IngressLink(sim, port, 149.76e6, prop_ns=5000)
    seg = Segment(0, 100, None)
    link.offer_frame(segment_to_cells(0, seg))         # 4 cells
    link.offer_frame(segment_to_cells(0, seg))         # queued behind
    # one kernel entry per frame, under the last of its 4 sequence numbers
    tx = 2831
    assert sorted(e[:2] for e in sim._heap) == [(4 * tx + 5000, 3),
                                                 (8 * tx + 5000, 7)]
    assert sim._seq == 8
    sim.run_until(10 ** 9)
    assert [t for t, _, _ in log.cells] == [tx * k + 5000 for k in range(1, 9)]
    assert [k for _, _, k in log.cells] == [0, 1, 2, 3] * 2
    _, frame, k = log.cells[3]
    assert cell_of(frame, k) == (0, frame)             # the first eom cell
    assert frame.seg == seg
    assert sim.events_processed == 8


def test_a_run_of_no_cells_raises():
    """Two frames registered at one time, the heap's top holding the higher
    seq: only a broken merge or heap order yields a run of no cells, and the
    port refuses it rather than take it."""
    sim, port = make_port(EPD)
    port.arrivals += [[1000, 10, 0, make_frame(0, 4), 2831],
                      [1000, 3, 0, make_frame(1, 4), 2831]]
    with pytest.raises(RuntimeError, match="port fwd: .* t=1000 ns, seq 10$"):
        port.catch_up(10 ** 6)


def test_egress_link_delivers_intact_frames_at_arrival_time():
    sim = Simulator()
    delivered = []
    link = EgressLink(sim, 149.76e6, bottleneck_prop_ns=5_000_000,
                      access_prop_ns=5000, reassembler=Reassembler(),
                      deliver=lambda seg: delivered.append((sim.now, seg)))
    seg = Segment(0, 100, None)
    frame = segment_to_cells(0, seg)
    # the 4 cells leave a 45 Mbps port back to back, the last at 4 * 9422
    link.offer(frame, frame.n, 4 * 9422)
    sim.run_until(10 ** 9)
    assert delivered == [(4 * 9422 + 5_000_000 + 2831 + 5000, seg)]


def test_egress_link_drops_frame_missing_a_cell():
    sim = Simulator()
    delivered = []
    reasm = Reassembler()
    link = EgressLink(sim, 149.76e6, 5_000_000, 5000, reasm,
                      lambda seg: delivered.append(seg))
    seg = Segment(0, 100, None)
    frame = segment_to_cells(0, seg)
    link.offer(frame, frame.n - 1, 3 * 9422)  # a body cell lost upstream
    good = Segment(1, 100, None)
    link.offer(segment_to_cells(0, good), frame.n, 7 * 9422)
    sim.run_until(10 ** 9)
    assert delivered == [good]
    assert reasm.frames_corrupt == 1


def test_port_rejects_bad_parameters():
    sim = Simulator()
    with pytest.raises(ValueError):
        PolicyPort(sim, "x", 45e6, 10, "red", 1)
