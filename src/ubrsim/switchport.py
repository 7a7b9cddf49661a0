"""UBR+ bottleneck port (EPD / Selective Drop) and access-link conveyors.

Every cell arrival at an inter-switch output port counts as one event, and
the drop policy is evaluated at frame boundaries against the live buffer
state.  A frame is one `aal5.Frame(vc, n, seg)` of n cells whose eom cell n
carries seg.  Its ingress link schedules one kernel event for the frame, at
its eom cell's time, and registers the cells with the port under that
event's sequence number, so cells that tie in time come in offer order.
When it fires, the port takes every registered cell up to that eom in
(time, seq) order, in runs of consecutive cells of one frame, and judges
each run in one call: the policy at the frame's first cell, one block of
the cells that find room, and the cell that meets a full buffer, if any,
found in closed form.  Only an eom cell can schedule an event, so taking
body cells late changes nothing the rest of the simulation sees.
The ports and the lossless access links are all exact closed-form FIFO rate
servers: a cell departs at max(arrival, previous departure) + 424/rate, with
no per-cell transmission event.  A port retires the cells that have left
before it judges an arrival; a departure at t retires before an arrival at
t.  A port's occupancy is the cell times left before its last cell departs.
The closed forms for a run hold while the access links are at least as
fast as the bottleneck, which the scenario's rates guarantee and a test pins.
"""

from __future__ import annotations

import math
from collections import deque
from heapq import heappop, heappush, heapreplace

from .aal5 import CELL_BYTES, Frame, Reassembler
from .kernel import Simulator

EPD = "epd"
SD = "sd"

DROP_FRAME_START = "drop_frame_start"
DROP_TAIL_OVERFLOW = "drop_tail_overflow"

R = 0.8  # EPD threshold as a fraction of the buffer size K
Z = 0.8  # Selective Drop factor on a VC's fair share


def cell_time_ns(rate_bps: float) -> int:
    return round(CELL_BYTES * 8 * 1_000_000_000 / rate_bps)


def sd_over_fair_share(x_i: int, x_total: int, n_active: int, z: float) -> bool:
    """Selective Drop fair-share test: X_i > Z * X / N_a.

    The port, the event-driven test oracle and the unit tests call this
    function; the acceptance gate's drop audit re-checks logged drops
    independently, by integer cross-multiplication.
    """
    return x_i > z * x_total / n_active


class PolicyPort:
    """FIFO output port with a K-cell buffer and a frame-aware drop policy.

    EPD discards an arriving frame entirely when occupancy exceeds R*K.
    Selective Drop additionally requires the frame's VC to hold more than
    Z*X/N_a cells, i.e. more than its share among the N_a VCs currently
    buffered (`n_active`, derived from `x_per_vc`).  Any other arrival that
    meets a full buffer is tail-dropped, and the rest of its frame, eom
    included, is discarded with it.

    Cells arrive in runs of consecutive cells of one frame, `step` ns apart,
    and step never exceeds the port's cell time.  The cells a run admits
    therefore depart back to back, so the buffer is a deque of blocks
    [first_departure_ns, count, vc], and a run's admitted cells go to its
    VC's egress link in one call.  A non-empty buffer is one busy period,
    its cells leaving back to back, the last at `_free_at`: `occupancy` at t
    is ceil((_free_at - t)/tx), which the blocks must hold, and the same
    closed form finds a run's first cell to meet a full buffer.
    `_complete(now)` retires departed cells; every decision calls it first.
    A run carries its frame's boundaries: its first cell is i == 0, its eom
    run ends at j == n.

    `arrivals` is a heap of the frames whose cells have not all arrived,
    each as [next cell's time, seq, its index, frame, step], seq the number
    of the frame's kernel event, so tied cells come in offer order.  A run
    ends before the next cell of another frame.
    `catch_up(end)` takes the cells that arrive by `end` and retires those
    gone by then, so the port's state is its state at `end`.
    """

    def __init__(self, sim: Simulator, name: str, rate_bps: float, capacity: int,
                 policy: str, num_vcs: int, log_drops: bool = False):
        if policy not in (EPD, SD):
            raise ValueError(f"unknown policy {policy!r}")
        self.sim = sim
        self.name = name
        self.capacity = capacity  # K >= 1, by build_scenario's buffers rule
        self.policy = policy
        self.threshold = math.floor(R * capacity + 1e-9)  # R*K in whole cells
        self.tx_ns = cell_time_ns(rate_bps)
        self.queue: deque = deque()
        self.arrivals: list = []  # registered by the ingress links
        self._free_at = 0  # departure time of the last admitted cell
        self.x_per_vc = [0] * num_vcs
        self._dropping: list = [None] * num_vcs  # the frame each VC discards
        self.tail_drops = [0] * num_vcs  # DROP_TAIL_OVERFLOW verdicts per VC
        self.egress = [None] * num_vcs  # set by the topology builder
        self.cells_in = 0
        self.cells_out = 0
        self.cells_dropped = 0
        self.drop_log: list | None = [] if log_drops else None

    def on_cell(self, frame: Frame) -> None:
        """The eom cell of `frame` arrives now: take it and every registered
        cell before it.  The kernel counted the eom cell's event."""
        self.sim.events_processed += self._take(frame, self.sim.now) - 1

    def catch_up(self, end: int) -> None:
        """Take every registered cell that arrives by `end`, then retire the
        cells that have left by then."""
        self.sim.events_processed += self._take(None, end)
        self._complete(end)

    def _take(self, frame: Frame | None, end: int) -> int:
        """Take registered cells in (time, seq) order while they arrive by
        `end`, through the eom cell of `frame`; return how many."""
        arrivals = self.arrivals
        taken = 0
        while arrivals:
            rec = arrivals[0]
            t, seq, i, f, step = rec
            if t > end:
                break
            n = f.n
            j = i + 1 + (end - t) // step  # past the cells that arrive by end
            if j > n:
                j = n
            if len(arrivals) > 1:
                # the cells before the next cell of another frame: cell i+d
                # is the last one not after its time, and comes first if it
                # is earlier or its frame was offered first
                nxt = arrivals[1]
                if len(arrivals) > 2 and arrivals[2] < nxt:
                    nxt = arrivals[2]
                d, r = divmod(nxt[0] - t, step)
                below = i + d + (r > 0 or seq < nxt[1])
                if below < j:
                    if below <= i:  # only a broken merge or heap order
                        raise RuntimeError(f"port {self.name}: a run of no "
                                           f"cells at t={t} ns, seq {seq}")
                    j = below
            self._arrive(f, i, j, step, t)
            taken += j - i
            if j == n:
                heappop(arrivals)
                if f is frame:
                    break
            else:
                rec[0] = t + (j - i) * step
                rec[2] = j
                heapreplace(arrivals, rec)
        return taken

    def _arrive(self, frame: Frame, i: int, j: int, step: int, t: int) -> None:
        """Arrival of cells i..j-1 of `frame`, step ns apart from t: the
        policy at the frame's first cell, then one block of the cells that
        find room, and a tail drop at the first cell that finds none."""
        m = j - i
        q = self.queue
        if q and q[0][0] <= t:
            self._complete(t)
        vc = frame.vc
        self.cells_in += m
        if self._dropping[vc] is frame:
            self.cells_dropped += m
            return
        tx = self.tx_ns
        free = self._free_at
        g = free - t if free > t else 0
        x = -(-g // tx)  # cells buffered at t
        # first cell of a frame: the only place the policy may refuse it
        if i == 0 and x > self.threshold and (
                self.policy == EPD
                or sd_over_fair_share(self.x_per_vc[vc], x, self.n_active, Z)):
            self._drop_frame(frame, DROP_FRAME_START, t, x, m)
            return
        # cell k of the run, its earlier cells admitted, finds
        # ceil((g + k*(tx - step)) / tx) cells buffered, which is K or more
        # once k*(tx - step) > room; the run admits its cells before the
        # first such cell a, or all m when its last cell finds room
        room = (self.capacity - 1) * tx - g
        if room < 0:
            a = 0
        elif (m - 1) * (tx - step) <= room:
            a = m
        else:
            a = room // (tx - step) + 1
        if a:
            dep = t + g + tx
            last = self._free_at = dep + (a - 1) * tx
            q.append([dep, a, vc])
            self.x_per_vc[vc] += a
            self.egress[vc].offer(
                frame if a == m and j == frame.n else None, a, last)
        if a < m:
            t += a * step
            self._complete(t)
            self.tail_drops[vc] += 1
            self._drop_frame(frame, DROP_TAIL_OVERFLOW, t,
                             -(-(self._free_at - t) // tx), m - a)

    def _drop_frame(self, frame: Frame, verdict: str, t: int, x: int,
                    n: int) -> None:
        # the frame loses its cells from the one arriving at t onwards, n of
        # them in this run
        vc = frame.vc
        self.cells_dropped += n
        if self.drop_log is not None:
            self.drop_log.append(
                (t, vc, verdict, x, self.x_per_vc[vc], self.n_active))
        self._dropping[vc] = frame

    def _complete(self, now: int) -> None:
        """Retire every buffered cell whose transmission ends by `now`."""
        q = self.queue
        x_per_vc = self.x_per_vc
        tx = self.tx_ns
        out = 0
        while q and q[0][0] <= now:
            block = q[0]
            first, count, vc = block
            k = (now - first) // tx + 1  # the block's cells gone by now
            if k < count:
                block[0] = first + k * tx
                block[1] = count - k
            else:
                k = count
                q.popleft()
            x_per_vc[vc] -= k
            out += k
        self.cells_out += out

    @property
    def n_active(self) -> int:
        """N_a: the VCs with a cell buffered."""
        return len(self.x_per_vc) - self.x_per_vc.count(0)

    @property
    def occupancy(self) -> int:
        """Cells buffered now: the busy period's cell times left."""
        return max(0, -(-(self._free_at - self.sim.now) // self.tx_ns))

    def conservation_ok(self) -> bool:
        return self.cells_in == self.cells_out + self.cells_dropped + self.occupancy

    def broken_invariant(self) -> str | None:
        """Name of the first run-end invariant that fails, or None."""
        x, held = self.x_per_vc, self.occupancy
        checks = (
            # occupancy is the busy period left, and the blocks must hold it
            ("occupancy == cells in buffer blocks",
             sum(block[1] for block in self.queue) == held),
            ("cell conservation", self.conservation_ok()),
            ("sum(x_per_vc) == occupancy", sum(x) == held),
            ("egress cells_in == cells_out + occupancy",
             sum(e.cells_in for e in self.egress) == self.cells_out + held),
            # a tail drop cuts a frame's eom off, and the cells it admitted
            # corrupt at most the next frame its VC's reassembler closes
            ("frames_corrupt <= tail drops on each VC",
             all(e.reasm.frames_corrupt <= d
                 for e, d in zip(self.egress, self.tail_drops))))
        return next((name for name, ok in checks if not ok), None)


class IngressLink:
    """Host NIC onto its access link, feeding one policy port.

    Exact FIFO rate server: cells offered at time t depart at
    max(t, previous departure) + tx and reach the switch one propagation
    delay later, where each is a port arrival event.  A frame's cells are
    evenly spaced, so they go to the port as one arrival record under the
    sequence number of the frame's one kernel event, the eom cell's.
    """

    __slots__ = ("sim", "port", "tx_ns", "prop_ns", "_free_at")

    def __init__(self, sim: Simulator, port: PolicyPort, rate_bps: float, prop_ns: int):
        self.sim = sim
        self.port = port
        self.tx_ns = cell_time_ns(rate_bps)
        self.prop_ns = prop_ns
        self._free_at = 0

    def offer_frame(self, frame: Frame) -> None:
        now = self.sim.now
        start = now if now > self._free_at else self._free_at
        tx = self.tx_ns
        n = frame.n
        first = start + tx + self.prop_ns
        port = self.port
        seq = self.sim.schedule(first + (n - 1) * tx, port.on_cell, frame)
        heappush(port.arrivals, [first, seq, 0, frame, tx])
        self._free_at = start + tx * n


class EgressLink:
    """Far-side path of one VC: bottleneck propagation, then its access link.

    Receives the cells a port run admits in one call, with the time the port
    finishes sending the last of them.  They leave the port back to back, and
    the access link is at least as fast as the bottleneck, so it never holds
    a cell back: the last one leaves it tx after it arrives, exactly as if
    each cell had been offered on its own.  Body cells are tallied into its
    reassembler `reasm` at once (their delivery order within the frame is
    immaterial); the frame verdict is computed at the eom cell, even one the
    port still holds, and, when the frame is intact, delivery of the segment
    to the endpoint is scheduled for the eom cell's arrival time.
    """

    __slots__ = ("sim", "reasm", "deliver", "delay_ns", "cells_in")

    def __init__(self, sim: Simulator, rate_bps: float, bottleneck_prop_ns: int,
                 access_prop_ns: int, deliver):
        self.sim = sim
        self.reasm = Reassembler()
        self.deliver = deliver  # deliver(segment) at the endpoint
        # port departure to arrival at the endpoint
        self.delay_ns = bottleneck_prop_ns + cell_time_ns(rate_bps) + access_prop_ns
        self.cells_in = 0

    def offer(self, frame: Frame | None, n: int, last_port_departure_ns: int) -> None:
        """n cells of one frame; `frame` is that frame when the last of them
        is its eom cell, else None."""
        self.cells_in += n
        if frame is None:
            self.reasm.body(n)
        else:
            self.reasm.body(n - 1)
            if self.reasm.eom(frame.n):
                self.sim.schedule(last_port_departure_ns + self.delay_ns,
                                  self.deliver, frame.seg)
