"""TCP flavors over a scripted wire: growth, recovery, timers, robustness."""

import random
from collections import Counter

import pytest

from ubrsim.aal5 import Segment
from ubrsim.kernel import NS_PER_MS, NS_PER_SEC, Simulator
from ubrsim.tcp import (FLAVORS, NEWRENO, RENO, SACK, VANILLA, TcpEndpoint,
                        initial_ssthresh)

MSS = 1000
RTT_MS = 100


class Wire:
    """Both directions of a lossless-by-default pipe with fixed delay.

    Every transmission is recorded as (time_ns, segment); optional predicates
    drop data segments / ACKs by (segment, per-direction ordinal).
    """

    def __init__(self, sim, delay_ns):
        self.sim = sim
        self.delay_ns = delay_ns
        self.data_sent = []
        self.acks_sent = []
        self.drop_data = None
        self.drop_ack = None

    def tx(self, dst):
        def transmit(seg):
            if seg.length > 0:
                k = len(self.data_sent)
                self.data_sent.append((self.sim.now, seg))
                if self.drop_data and self.drop_data(seg, k):
                    return
            else:
                k = len(self.acks_sent)
                self.acks_sent.append((self.sim.now, seg))
                if self.drop_ack and self.drop_ack(seg, k):
                    return
            self.sim.schedule(self.sim.now + self.delay_ns, dst.on_frame, seg)
        return transmit


def make_pair(flavor, mss=MSS, rcv_wnd=1_000_000, ssthresh=1_000_000,
              delay_ms=RTT_MS // 2):
    sim = Simulator()
    sender = TcpEndpoint(sim, flavor, mss, rcv_wnd, ssthresh, None)
    receiver = TcpEndpoint(sim, flavor, mss, rcv_wnd, ssthresh, None)
    wire = Wire(sim, delay_ms * NS_PER_MS)
    sender.transmit = wire.tx(receiver)
    receiver.transmit = wire.tx(sender)
    return sim, sender, receiver, wire


def sends_per_round(wire, rounds, rtt_ns=RTT_MS * NS_PER_MS):
    counts = [0] * rounds
    for t, _ in wire.data_sent:
        k = t // rtt_ns
        if k < rounds:
            counts[k] += 1
    return counts


def test_initial_ssthresh_is_path_bandwidth_delay_product():
    assert initial_ssthresh(0.010, 45e6) == 56_250
    assert initial_ssthresh(0.200, 45e6) == 1_125_000
    assert initial_ssthresh(0.550, 45e6) == 3_093_750


def test_slow_start_doubles_per_round_trip():
    sim, a, b, wire = make_pair(VANILLA)
    a.write(31 * MSS)
    sim.run_until(NS_PER_SEC)
    assert sends_per_round(wire, 5) == [1, 2, 4, 8, 16]
    assert b.rcv_nxt == 31 * MSS
    assert a.rexmit_segs == 0 and a.timeouts == 0


def test_congestion_avoidance_grows_sublinearly_after_ssthresh():
    sim, a, b, wire = make_pair(VANILLA, ssthresh=2 * MSS)
    a.write(12 * MSS)
    sim.run_until(NS_PER_SEC)
    # past ssthresh each ACK adds mss^2/cwnd, so whole-segment growth takes
    # more than one round trip at small windows
    assert sends_per_round(wire, 5) == [1, 2, 2, 3, 4]
    assert b.rcv_nxt == 12 * MSS


def test_receiver_acks_every_data_segment_with_pure_acks():
    sim, a, b, wire = make_pair(RENO)
    a.write(7 * MSS)
    sim.run_until(NS_PER_SEC)
    assert len(wire.acks_sent) == len(wire.data_sent) == 7
    assert all(seg.length == 0 for _, seg in wire.acks_sent)
    assert [seg.ack for _, seg in wire.acks_sent] == \
        [MSS * k for k in range(1, 8)]


def test_sub_mss_tail_is_sent_without_waiting():
    sim, a, b, wire = make_pair(RENO)
    a.write(MSS + 137)
    sim.run_until(NS_PER_SEC)
    assert [seg.length for _, seg in wire.data_sent] == [MSS, 137]
    assert b.rcv_nxt == MSS + 137


def test_retransmission_reuses_original_segment_boundaries():
    sim, a, b, wire = make_pair(VANILLA)
    a.write(MSS + 137)
    wire.drop_data = lambda seg, k: k == 1      # lose the 137-byte tail
    sim.run_until(10 * NS_PER_SEC)
    lengths = [seg.length for _, seg in wire.data_sent]
    assert lengths == [MSS, 137, 137]
    assert b.rcv_nxt == MSS + 137


def _flight_of_eight(flavor, dropped):
    sim, a, b, wire = make_pair(flavor)
    a.cwnd = 8 * MSS                            # start with a full window
    wire.drop_data = lambda seg, k: k in dropped
    a.write(8 * MSS)
    sim.run_until(30 * NS_PER_SEC)
    return sim, a, b, wire


def test_reno_single_loss_halves_and_fast_retransmits():
    sim, a, b, wire = _flight_of_eight(RENO, {0})
    assert a.timeouts == 0
    assert a.fast_recoveries == 1
    assert a.rexmit_segs == 1
    assert a.ssthresh == 4 * MSS                # half of the 8-segment flight
    assert a.cwnd == 4 * MSS                    # deflated on recovery exit
    assert b.rcv_nxt == 8 * MSS and a.snd_una == 8 * MSS


def test_vanilla_ignores_dupacks_and_waits_for_timeout():
    sim, a, b, wire = _flight_of_eight(VANILLA, {0})
    assert a.fast_recoveries == 0
    assert a.timeouts == 1
    assert a.rexmit_segs == 1
    # window collapsed to 1 MSS at the timeout, then the ACK of the
    # retransmission grew it one slow-start step
    assert a.cwnd == 2 * MSS
    assert a.ssthresh == 4 * MSS
    assert b.rcv_nxt == 8 * MSS
    # the retransmission waited for the initial 3 s timer
    assert wire.data_sent[8][0] >= 3 * NS_PER_SEC


def test_newreno_recovers_two_losses_without_timeout():
    sim, a, b, wire = _flight_of_eight(NEWRENO, {0, 3})
    assert a.timeouts == 0
    assert a.fast_recoveries == 1               # one episode covers both holes
    assert a.rexmit_segs == 2
    assert b.rcv_nxt == 8 * MSS
    # partial ACK drove the second retransmission one RTT after the first
    t1, s1 = wire.data_sent[8]
    t2, s2 = wire.data_sent[9]
    assert (s1.seq, s2.seq) == (0, 3 * MSS)
    assert t2 - t1 == pytest.approx(RTT_MS * NS_PER_MS, rel=0.05)


def test_reno_two_losses_needs_a_timeout_where_newreno_does_not():
    sim, a, b, wire = _flight_of_eight(RENO, {0, 3})
    assert b.rcv_nxt == 8 * MSS                 # still correct, just slower
    assert a.timeouts >= 1


def test_sack_retransmits_all_holes_in_one_round_trip():
    sim, a, b, wire = _flight_of_eight(SACK, {0, 3})
    assert a.timeouts == 0
    assert a.fast_recoveries == 1
    assert a.rexmit_segs == 2
    t1, s1 = wire.data_sent[8]
    t2, s2 = wire.data_sent[9]
    assert {s1.seq, s2.seq} == {0, 3 * MSS}
    assert t2 - t1 < 10 * NS_PER_MS             # same burst, no extra RTT
    assert b.rcv_nxt == 8 * MSS


def test_sack_retransmits_a_lost_retransmission_in_the_next_episode():
    # a twelve-segment flight loses segments 0 and 10; segment 12, sent in
    # that recovery above its `recover` mark, is lost, retransmitted in the
    # same episode and lost again
    sim, a, b, wire = make_pair(SACK)
    a.cwnd = 12 * MSS
    lost = {(0, 1), (10, 1), (12, 1), (12, 2)}  # (segment, transmission)
    sent = Counter()

    def drop(seg, k):
        sent[seg.seq] += 1
        return (seg.seq // MSS, sent[seg.seq]) in lost

    wire.drop_data = drop
    a.write(36 * MSS)
    sim.run_until(30 * NS_PER_SEC)
    assert a.fast_recoveries == 2
    assert a.timeouts == 0
    # the second episode retransmits it again, well before the 3 s timer
    times = [t // NS_PER_MS for t, seg in wire.data_sent if seg.seq == 12 * MSS]
    assert times == [100, 200, 400]
    assert b.rcv_nxt == 36 * MSS


def test_sack_pipe_limits_retransmission_burst():
    # five consecutive losses, three survivors: enough dupacks to recover,
    # but pipe lets only cwnd/MSS retransmissions out at entry
    sim, a, b, wire = _flight_of_eight(SACK, {0, 1, 2, 3, 4})
    entry_time = wire.data_sent[8][0]
    burst = [seg.seq for t, seg in wire.data_sent[8:]
             if t == entry_time]
    assert len(burst) == 4                      # ssthresh = 4 MSS worth
    assert a.timeouts == 0
    assert b.rcv_nxt == 8 * MSS


def test_sack_blocks_on_dupacks_name_received_ranges():
    sim, a, b, wire = _flight_of_eight(SACK, {0})
    # first dupack reports the first out-of-order arrival
    dup = next(seg for _, seg in wire.acks_sent if seg.ack == 0 and seg.sacks)
    assert dup.sacks[0] == (MSS, 2 * MSS)


def test_sack_blocks_outside_the_flight_mark_no_record():
    sim = Simulator()
    a = TcpEndpoint(sim, SACK, MSS, 1_000_000, 1_000_000, lambda seg: None)
    a.cwnd = 8 * MSS
    a.write(8 * MSS)
    a.on_frame(Segment(0, 0, 2 * MSS))
    assert (a.snd_una, a.snd_nxt, len(a._recs)) == (2 * MSS, 8 * MSS, 6)
    # wholly below snd_una, ending at it, and starting at snd_nxt
    a.on_frame(Segment(0, 0, 2 * MSS,
                       ((0, MSS), (MSS, 2 * MSS), (8 * MSS, 10 * MSS))))
    assert not any(r.sacked for r in a._recs)
    a.on_frame(Segment(0, 0, 2 * MSS, ((3 * MSS, 4 * MSS),)))
    assert [r.start for r in a._recs if r.sacked] == [3 * MSS]


def test_timeout_backoff_doubles_and_caps():
    sim, a, b, wire = make_pair(VANILLA)
    wire.drop_data = lambda seg, k: True        # black hole
    a.write(MSS)
    sim.run_until(300 * NS_PER_SEC)
    # every transmission after the first is one timeout's retransmission
    times = [t for t, _ in wire.data_sent[1:]]
    assert len(times) == a.timeouts
    deltas = [(t2 - t1) / NS_PER_SEC for t1, t2 in zip(times, times[1:])]
    assert times[0] == 3 * NS_PER_SEC           # initial timer
    assert deltas[:6] == [6.0, 12.0, 24.0, 48.0, 64.0, 64.0]


def test_rto_quantization_has_200ms_floor():
    sim, a, b, wire = make_pair(VANILLA, delay_ms=1)
    a.write(MSS)
    sim.run_until(NS_PER_SEC)
    assert a.srtt == pytest.approx(2 * NS_PER_MS)
    assert a.rto_ns == 200 * NS_PER_MS          # floor despite tiny RTT


def test_rto_rounds_up_to_granule():
    sim, a, b, wire = make_pair(VANILLA, delay_ms=160)
    a.write(MSS)
    sim.run_until(NS_PER_SEC)
    # srtt = 320 ms, rttvar = 160 ms: 320 + 640 = 960 -> next 100 ms granule
    assert a.rto_ns == 1000 * NS_PER_MS


def test_karn_skips_samples_for_retransmitted_data():
    sim, a, b, wire = make_pair(VANILLA)
    wire.drop_data = lambda seg, k: k == 0
    a.write(MSS)
    sim.run_until(10 * NS_PER_SEC)
    assert a.snd_una == MSS
    assert a.srtt is None                       # only ambiguous samples so far
    a.write(MSS)
    sim.run_until(20 * NS_PER_SEC)
    assert a.srtt == pytest.approx(RTT_MS * NS_PER_MS)


def test_ack_beyond_snd_nxt_is_a_protocol_error():
    sim, a, b, wire = make_pair(RENO)
    a.write(MSS)
    sim.run_until(NS_PER_SEC)
    before = (a.snd_una, a.cwnd)
    a.on_frame(Segment(0, 0, 10 * MSS))
    assert a.protocol_errors == 1
    assert (a.snd_una, a.cwnd) == before


def test_sender_respects_receiver_window():
    sim, a, b, wire = make_pair(RENO, rcv_wnd=4 * MSS)
    worst = 0

    def watch(seg, k):
        nonlocal worst
        worst = max(worst, a.snd_nxt - a.snd_una)
        return False

    wire.drop_data = watch
    a.write(50 * MSS)
    sim.run_until(20 * NS_PER_SEC)
    assert b.rcv_nxt == 50 * MSS
    assert worst <= 4 * MSS


def test_receiver_merges_out_of_order_ranges_and_orders_sack_blocks():
    sim = Simulator()
    acks = []
    r = TcpEndpoint(sim, SACK, MSS, 1_000_000, 1_000_000,
                    lambda seg: acks.append(seg))

    def arrive(seq):
        r.on_frame(Segment(seq, MSS, None))

    arrive(1000)
    arrive(3000)
    arrive(5000)
    arrive(7000)
    assert acks[-1].ack == 0
    assert acks[-1].sacks == ((7000, 8000), (5000, 6000), (3000, 4000))
    arrive(2000)   # bridges 1000..3000 with 3000..4000
    assert acks[-1].sacks == ((1000, 4000), (7000, 8000), (5000, 6000))
    arrive(0)      # fills the head: delivery jumps over the merged range
    assert acks[-1].ack == 4000
    assert acks[-1].sacks == ((7000, 8000), (5000, 6000))
    assert r.rcv_nxt == 4000
    arrive(5000)   # a repeat: the range holding it comes first (RFC 2018)
    assert acks[-1].ack == 4000
    assert acks[-1].sacks == ((5000, 6000), (7000, 8000))


def test_receiver_drops_data_beyond_its_window():
    sim = Simulator()
    acks = []
    r = TcpEndpoint(sim, RENO, MSS, 2 * MSS, 1_000_000,
                    lambda seg: acks.append(seg))
    r.on_frame(Segment(5 * MSS, MSS, None))
    assert r.window_drops == 1
    assert r._ooo == []
    assert acks[-1].ack == 0


def test_non_sack_receivers_never_advertise_sack_blocks():
    for flavor in (VANILLA, RENO, NEWRENO):
        sim, a, b, wire = _flight_of_eight(flavor, {0})
        assert all(seg.sacks == () for _, seg in wire.acks_sent)


def lossy_transfer(flavor, seed):
    """Five bursts of writes 2 s apart over a wire that loses 15% of data
    segments and 5% of ACKs; returns the pair and the bytes written."""
    sim, a, b, wire = make_pair(flavor, ssthresh=16 * MSS)
    rng = random.Random(seed)
    wire.drop_data = lambda seg, k: rng.random() < 0.15
    wire.drop_ack = lambda seg, k: rng.random() < 0.05
    total = 0
    for burst in range(5):
        size = rng.randint(1, 30) * MSS + rng.randint(0, MSS - 1)
        sim.schedule(burst * 2 * NS_PER_SEC, a.write, size)
        total += size
    return sim, a, b, total


@pytest.mark.parametrize("flavor", FLAVORS)
@pytest.mark.parametrize("seed", [1, 2])
def test_all_bytes_delivered_under_random_loss(flavor, seed):
    sim, a, b, total = lossy_transfer(flavor, seed)
    sim.run_until(600 * NS_PER_SEC)
    assert b.rcv_nxt == total
    assert a.snd_una == total
    assert a.app_bytes == total


@pytest.mark.parametrize("flavor", FLAVORS)
def test_endpoint_invariants_hold_after_every_event_under_random_loss(flavor):
    for seed in range(1, 21):
        sim, a, b, total = lossy_transfer(flavor, seed)
        while sim._heap:                     # step to each next event time
            sim.run_until(sim._heap[0][0])
            broken = (a.broken_invariant(), b.broken_invariant())
            assert broken == (None, None), (seed, sim.now, broken)
        assert b.rcv_nxt == a.snd_una == total


def test_unknown_flavor_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        TcpEndpoint(sim, "cubic", MSS, 1000, 1000, lambda s: None)
