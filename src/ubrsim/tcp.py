"""TCP endpoints with four loss-recovery flavors over a frame transport.

Each endpoint is both a sender and a receiver for its side of one duplex
connection.  Receivers ACK every arriving data segment immediately (no
delayed ACKs, no piggybacking: ACKs are separate zero-payload segments) and
advertise a fixed window, since the consuming application is infinitely
fast.  Senders emit segments of up to MSS as soon as min(cwnd, rcv_wnd)
permits, including sub-MSS tails; segmentation is fixed at first emission
and retransmissions reuse the original boundaries.

Flavors:
  vanilla  slow start + congestion avoidance; losses recovered by RTO only
  reno     + fast retransmit / fast recovery at the 3rd duplicate ACK,
           halving once per recovery episode even for multi-loss windows
  newreno  + partial-ACK retransmission: stays in recovery until the
           cumulative ACK reaches the `recover` mark, one hole per RTT
  sack     + scoreboard of SACKed ranges, conservative pipe: transmits
           (retransmissions first) only while pipe < cwnd

The sender's scoreboard holds one record per unacknowledged segment, from
snd_una to snd_nxt; the ACK that covers a record drops it.
"""

from __future__ import annotations

from .aal5 import Segment
from .kernel import NS_PER_MS, NS_PER_SEC, Simulator, Timer

VANILLA = "vanilla"
RENO = "reno"
NEWRENO = "newreno"
SACK = "sack"
FLAVORS = (VANILLA, RENO, NEWRENO, SACK)

DUP_THRESH = 3

# retransmission timer: a coarse 100 ms tick, a 2-tick floor, a 3 s initial
# value and a 64 s cap on the backed-off timeout
GRANULARITY_NS = 100 * NS_PER_MS
MIN_GRANULES = 2
MAX_RTO_NS = 64 * NS_PER_SEC
INIT_RTO_NS = 3 * NS_PER_SEC


def initial_ssthresh(rtt_s: float, bottleneck_bps: float) -> int:
    """Slow-start threshold preset to the path's RTT-bandwidth product (bytes)."""
    return round(rtt_s * bottleneck_bps / 8)


class SegRecord:
    __slots__ = ("start", "end", "sacked", "rtx")

    def __init__(self, start: int, end: int):
        self.start = start
        self.end = end
        self.sacked = False
        self.rtx = False    # retransmitted in the current recovery episode


class TcpEndpoint:
    """One side of a pre-established duplex TCP connection."""

    def __init__(self, sim: Simulator, flavor: str, mss: int, rcv_wnd: int,
                 init_ssthresh: int, transmit):
        if flavor not in FLAVORS:
            raise ValueError(f"unknown flavor {flavor!r}")
        self.sim = sim
        self.flavor = flavor
        self.mss = mss
        self.rcv_wnd = rcv_wnd
        self.transmit = transmit      # transmit(Segment)
        self.app_recv = None          # app_recv(newly delivered in-order bytes)

        # --- sender ---
        self.snd_una = 0
        self.snd_nxt = 0              # high-water mark, never rewinds
        self.app_bytes = 0            # total bytes the application wrote
        self.cwnd = float(mss)
        self.ssthresh = float(init_ssthresh)
        self._recs: list[SegRecord] = []  # the unacknowledged segments
        self._cursor_i = 0            # next record to (re)transmit
        self.dupacks = 0
        self.in_recovery = False
        self.recover = 0
        # RTO state
        self.srtt = None
        self.rttvar = 0.0
        self.rto_ns = INIT_RTO_NS
        self.backoff = 0
        self.timer = Timer(sim, self._on_timer)
        self._timed_end = None        # seq end of the segment being timed
        self._timed_at = 0
        # --- receiver ---
        self.rcv_nxt = 0
        self._ooo: list[list] = []    # [start, end, recency] above rcv_nxt
        self._stamp = 0
        # --- counters ---
        self.rexmit_segs = 0
        self.timeouts = 0
        self.fast_recoveries = 0
        self.protocol_errors = 0
        self.window_drops = 0

    # ------------------------------------------------------------- sending

    def write(self, nbytes: int) -> None:
        """Application hands nbytes (> 0) to the send buffer."""
        self.app_bytes += nbytes
        self._try_send()

    def _emit(self, rec: SegRecord, retransmission: bool) -> None:
        if retransmission:
            self.rexmit_segs += 1
            if self._timed_end is not None and rec.start < self._timed_end:
                self._timed_end = None  # Karn: sample spoiled by retransmission
        elif self._timed_end is None:
            self._timed_end = rec.end
            self._timed_at = self.sim.now
        # tuple.__new__ builds the same Segment without namedtuple's
        # Python-level __new__, on the path of every segment sent
        self.transmit(tuple.__new__(Segment, (rec.start, rec.end - rec.start,
                                              None, ())))
        if not self.timer.armed:
            self._restart_timer()

    def _try_send(self) -> None:
        """Window-gated transmission from the cursor; whole segments only."""
        if self.in_recovery and self.flavor == SACK:
            self._sack_send()
            return
        win = min(int(self.cwnd), self.rcv_wnd)
        while True:
            if self._cursor_i < len(self._recs):
                rec = self._recs[self._cursor_i]
                if self.flavor == SACK and rec.sacked:
                    self._cursor_i += 1          # already delivered, skip
                    continue
                if rec.end - self.snd_una > win:
                    return
                self._cursor_i += 1
                self._emit(rec, True)
            elif not self._send_new(win):
                return

    def _send_new(self, win: int) -> int:
        """Emit the next new segment if it fits `win` bytes above snd_una.

        Returns its size, or 0 when there is nothing to send or no room.
        """
        size = min(self.mss, self.app_bytes - self.snd_nxt)
        if size <= 0 or self.snd_nxt + size - self.snd_una > win:
            return 0
        rec = SegRecord(self.snd_nxt, self.snd_nxt + size)
        self._recs.append(rec)
        self.snd_nxt = rec.end
        self._cursor_i = len(self._recs)
        self._emit(rec, False)
        return size

    # --------------------------------------------------------- ACK handling

    def _on_ack(self, seg: Segment) -> None:
        ack = seg.ack
        if ack > self.snd_nxt:
            self.protocol_errors += 1
            return
        if self.flavor == SACK and seg.sacks:
            self._apply_sacks(seg.sacks)
        if ack > self.snd_una:
            self._on_new_ack(ack)
        elif ack == self.snd_una and self.snd_nxt > self.snd_una:
            self._on_dupack()
        # acks below snd_una are stale; ignore

    def _on_new_ack(self, ack: int) -> None:
        acked = ack - self.snd_una
        self.snd_una = ack
        recs = self._recs
        b = 0
        while b < len(recs) and recs[b].end <= ack:
            b += 1
        del recs[:b]
        self._cursor_i = max(self._cursor_i - b, 0)
        self.backoff = 0
        if self._timed_end is not None and ack >= self._timed_end:
            self._rtt_sample(self.sim.now - self._timed_at)
            self._timed_end = None
        if self.in_recovery:
            if self.flavor == RENO or ack >= self.recover:
                self.cwnd = self.ssthresh          # deflate, episode over
                self.in_recovery = False
            elif self.flavor == NEWRENO:
                # partial ACK: next hole starts at the new snd_una
                self._emit(recs[0], True)
                self.cwnd = max(self.cwnd - acked + self.mss, float(self.mss))
        else:
            if self.cwnd < self.ssthresh:
                self.cwnd += self.mss              # slow start
            else:
                self.cwnd += self.mss * self.mss / self.cwnd
        self.dupacks = 0
        if self.snd_una < self.snd_nxt:
            self._restart_timer()
        else:
            self.timer.cancel()
        self._try_send()

    def _on_dupack(self) -> None:
        self.dupacks += 1
        flavor = self.flavor
        if flavor == VANILLA:
            return
        if self.in_recovery:
            if flavor != SACK:
                self.cwnd += self.mss              # inflation
            self._try_send()
            return
        if self.dupacks != DUP_THRESH:
            return
        if flavor != RENO and self.snd_una < self.recover:
            return  # newreno/sack: no second fast retransmit for the same window
        # enter fast retransmit / fast recovery
        self._on_loss()
        self.in_recovery = True
        self.fast_recoveries += 1
        if flavor == SACK:
            self.cwnd = self.ssthresh
        else:
            self._emit(self._recs[0], True)
            self.cwnd = self.ssthresh + DUP_THRESH * self.mss
        self._try_send()
        self._restart_timer()

    def _on_loss(self) -> None:
        """Loss response shared by fast retransmit and timeout.

        Halves ssthresh to the flight, sets the recovery point at snd_nxt and
        starts a new episode of SACK retransmissions.
        """
        flight = self.snd_nxt - self.snd_una
        self.ssthresh = float(max(flight // 2, 2 * self.mss))
        self.recover = self.snd_nxt
        for r in self._recs:
            r.rtx = False

    # ------------------------------------------------------------ SACK path

    def _apply_sacks(self, sacks) -> None:
        # the records tile snd_una..snd_nxt, so a block outside marks none
        recs = self._recs
        n = len(recs)
        for lo, hi in sacks:
            i = 0
            while i < n and recs[i].end <= lo:
                i += 1
            while i < n and recs[i].start < hi:
                recs[i].sacked = True
                i += 1

    def _sack_send(self) -> None:
        """Scoreboard pass: find losses, compute pipe, send while pipe < cwnd."""
        thresh = DUP_THRESH * self.mss
        suffix = 0
        pipe = 0
        candidates = []                # lost, not yet retransmitted this episode
        for r in reversed(self._recs):
            size = r.end - r.start
            if r.sacked:
                suffix += size
            elif suffix >= thresh and not r.rtx:
                candidates.append(r)
            else:
                pipe += size
        cwnd_i = int(self.cwnd)
        for rec in reversed(candidates):
            if pipe >= cwnd_i:
                return
            rec.rtx = True
            self._emit(rec, True)
            pipe += rec.end - rec.start
        while pipe < cwnd_i:
            size = self._send_new(self.rcv_wnd)
            if not size:
                return
            pipe += size

    # ------------------------------------------------------------- timeout

    def _rtt_sample(self, sample_ns: int) -> None:
        r = float(sample_ns)
        if self.srtt is None:
            self.srtt = r
            self.rttvar = r / 2.0
        else:
            self.rttvar = 0.75 * self.rttvar + 0.25 * abs(self.srtt - r)
            self.srtt = 0.875 * self.srtt + 0.125 * r
        g = GRANULARITY_NS
        raw = self.srtt + max(g, 4.0 * self.rttvar)
        quantized = -(-int(raw) // g) * g        # round up to the granule
        self.rto_ns = min(max(quantized, MIN_GRANULES * g), MAX_RTO_NS)

    def _restart_timer(self) -> None:
        self.timer.set(self.sim.now + min(self.rto_ns << self.backoff, MAX_RTO_NS))

    def _on_timer(self) -> None:
        """The retransmission timer expired."""
        self.timeouts += 1
        self._on_loss()
        self.cwnd = float(self.mss)
        if self.backoff < 12:
            self.backoff += 1
        self.in_recovery = False
        self.dupacks = 0
        self._timed_end = None                   # Karn
        self._cursor_i = 0                       # go-back-N from the hole
        self._restart_timer()
        self._try_send()

    # ------------------------------------------------------------ receiving

    def on_frame(self, seg: Segment) -> None:
        """Entry point for every intact frame addressed to this endpoint."""
        if seg.length > 0:
            self._on_data(seg)
        else:
            self._on_ack(seg)

    def _on_data(self, seg: Segment) -> None:
        start, end = seg.seq, seg.seq + seg.length
        if end > self.rcv_nxt + self.rcv_wnd:
            self.window_drops += 1
            self._send_ack()
            return
        if end <= self.rcv_nxt:
            self._send_ack()                     # pure duplicate
            return
        if start <= self.rcv_nxt:
            self.rcv_nxt = end
            ooo = self._ooo
            while ooo and ooo[0][0] <= self.rcv_nxt:
                if ooo[0][1] > self.rcv_nxt:
                    self.rcv_nxt = ooo[0][1]
                ooo.pop(0)
            delivered = self.rcv_nxt - start
            if self.app_recv is not None:
                self.app_recv(delivered)
            self._send_ack()
        else:
            self._insert_ooo(start, end)
            self._send_ack()

    def _insert_ooo(self, start: int, end: int) -> None:
        self._stamp += 1
        ooo = self._ooo
        i = 0
        while i < len(ooo) and ooo[i][1] < start:
            i += 1
        # merge every range overlapping or adjacent to [start, end)
        j = i
        while j < len(ooo) and ooo[j][0] <= end:
            start = min(start, ooo[j][0])
            end = max(end, ooo[j][1])
            j += 1
        ooo[i:j] = [[start, end, self._stamp]]

    def _sack_blocks(self) -> tuple:
        if self.flavor != SACK or not self._ooo:
            return ()
        # most recent first: _insert_ooo restamps the range holding the
        # segment just received, so it leads, as RFC 2018 requires
        ranges = sorted(self._ooo, key=lambda r: -r[2])
        return tuple((r[0], r[1]) for r in ranges[:3])

    def _send_ack(self) -> None:
        self.transmit(tuple.__new__(
            Segment, (0, 0, self.rcv_nxt, self._sack_blocks())))

    # ---------------------------------------------------------- invariants

    def broken_invariant(self) -> str | None:
        """Name of the first invariant of this endpoint that fails, or None.

        Each holds after every event; a topology checks them at its run's end.
        """
        recs = self._recs
        edges = [self.snd_una] + [r.end for r in recs]
        checks = (
            ("protocol_errors == 0", self.protocol_errors == 0),
            ("window_drops == 0", self.window_drops == 0),
            # the records tile snd_una..snd_nxt, each non-empty
            ("scoreboard spans snd_una..snd_nxt",
             edges[-1] == self.snd_nxt
             and all(r.start == lo < r.end for r, lo in zip(recs, edges))),
            ("timer armed iff snd_una < snd_nxt",
             self.timer.armed == (self.snd_una < self.snd_nxt)))
        return next((name for name, ok in checks if not ok), None)

    def state(self) -> str:
        """The sequence numbers and error counters, for an error message."""
        return (f"rcv_nxt={self.rcv_nxt} snd_una={self.snd_una} "
                f"snd_nxt={self.snd_nxt} app_bytes={self.app_bytes} "
                f"protocol_errors={self.protocol_errors} "
                f"window_drops={self.window_drops}")
