"""UBR+ bottleneck port (EPD / Selective Drop) and access-link conveyors.

Every cell arrival at an inter-switch output port counts as one event, and
the drop policy is evaluated at frame boundaries against the live buffer
state.  The cells of one frame reach the port as one kernel train, and the
port takes each run of due cells in one call: it judges the policy at the
frame's first cell, admits a run that cannot fill the buffer as one block,
and goes cell by cell only when the buffer limit is within the run's reach.
The ports and the lossless access links are all exact closed-form FIFO rate
servers: a cell departs at max(arrival, previous departure) + 424/rate, with
no per-cell transmission event.  A port retires the cells that have left
before it judges an arrival; a departure at t retires before an arrival at
t.  The closed forms for a run hold while the access links are at least as
fast as the bottleneck, which the topology checks.
"""

from __future__ import annotations

import math
from collections import deque

from .aal5 import CELL_BYTES, Cell
from .kernel import Simulator

EPD = "epd"
SD = "sd"

DROP_FRAME_START = "drop_frame_start"
DROP_TAIL_OVERFLOW = "drop_tail_overflow"

R = 0.8  # EPD threshold as a fraction of the buffer size K
Z = 0.8  # Selective Drop factor on a VC's fair share

# per-VC frame-walk states
_IDLE = 0        # next cell starts a new frame
_ADMITTING = 1
_DISCARDING = 2


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
    buffered.  Mid-frame arrivals that meet a full buffer are tail-dropped
    and the rest of the frame, eom included, is discarded with them.

    Cells arrive in runs of consecutive cells of one frame, `step` ns apart,
    and step never exceeds the port's cell time.  The cells a run admits
    therefore depart back to back, so the buffer is a deque of blocks
    [first_departure_ns, count, vc] holding `occupancy` cells, and a run's
    admitted cells go to its VC's egress link in one call.  `_complete(now)`
    retires departed cells from the counters; every decision calls it first.
    """

    def __init__(self, sim: Simulator, name: str, rate_bps: float, capacity: int,
                 policy: str, num_vcs: int, log_drops: bool = False):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        if policy not in (EPD, SD):
            raise ValueError(f"unknown policy {policy!r}")
        self.sim = sim
        self.name = name
        self.capacity = capacity
        self.policy = policy
        self.threshold = math.floor(R * capacity + 1e-9)  # R*K in whole cells
        self.tx_ns = cell_time_ns(rate_bps)
        self.queue: deque = deque()
        self.occupancy = 0  # cells in the buffer's blocks
        self._free_at = 0  # departure time of the last admitted cell
        self.x_per_vc = [0] * num_vcs
        self.n_active = 0
        self._state = [_IDLE] * num_vcs
        self.tail_drops = [0] * num_vcs  # DROP_TAIL_OVERFLOW verdicts per VC
        self.egress = [None] * num_vcs  # set by the topology builder
        self.cells_in = 0
        self.cells_out = 0
        self.cells_dropped = 0
        self.frames_discarded = 0
        self.drop_log: list | None = [] if log_drops else None

    def on_cell(self, items: list[Cell], i: int, j: int, step: int) -> None:
        """Arrival of the run items[i:j], its last cell at now: the policy
        at a frame's first cell, then admission, as one block when the run
        cannot fill the buffer."""
        m = j - i
        t = self.sim.now - (m - 1) * step  # arrival of items[i]
        q = self.queue
        if q and q[0][0] <= t:
            self._complete(t)
        vc = items[i].vc
        eom = items[j - 1]
        if not eom.eom:
            eom = None
        self.cells_in += m
        state = self._state[vc]
        if state == _DISCARDING:
            self.cells_dropped += m
            if eom:
                self._state[vc] = _IDLE
            return
        x = self.occupancy
        # first cell of a frame: the only place the policy may refuse it
        if state == _IDLE and x > self.threshold and (
                self.policy == EPD
                or sd_over_fair_share(self.x_per_vc[vc], x, self.n_active, Z)):
            self._drop_frame(vc, DROP_FRAME_START, t, x, m, eom)
            return
        if x + m > self.capacity:
            self._admit_until_full(vc, t, m, step, eom)
            return
        tx = self.tx_ns
        dep = (t if t > self._free_at else self._free_at) + tx
        last = self._free_at = dep + (m - 1) * tx
        q.append([dep, m, vc])
        self.occupancy = x + m
        xi = self.x_per_vc[vc]
        if xi == 0:
            self.n_active += 1
        self.x_per_vc[vc] = xi + m
        self._state[vc] = _IDLE if eom else _ADMITTING
        self.egress[vc].offer(eom, m, last)

    def _admit_until_full(self, vc: int, t: int, m: int, step: int, eom) -> None:
        # cell by cell, so that a tail drop hits the exact cell that finds
        # the buffer full; the rest of the run goes with it
        q = self.queue
        tx = self.tx_ns
        x_per_vc = self.x_per_vc
        last = self._free_at
        for n in range(m):
            tn = t + n * step
            if q and q[0][0] <= tn:
                self._complete(tn)
            x = self.occupancy
            if x >= self.capacity:
                self.tail_drops[vc] += 1
                self._drop_frame(vc, DROP_TAIL_OVERFLOW, tn, x, m - n, eom)
                eom = None
                break
            last = self._free_at = (tn if tn > last else last) + tx
            q.append([last, 1, vc])
            self.occupancy = x + 1
            if x_per_vc[vc] == 0:
                self.n_active += 1
            x_per_vc[vc] += 1
        else:
            n = m
            self._state[vc] = _IDLE if eom else _ADMITTING
        if n:
            self.egress[vc].offer(eom, n, last)

    def _drop_frame(self, vc: int, verdict: str, t: int, x: int, n: int,
                    eom) -> None:
        # the frame loses its cells from the one arriving at t onwards, n of
        # them in this run
        self.cells_dropped += n
        self.frames_discarded += 1
        if self.drop_log is not None:
            self.drop_log.append(
                (t, vc, verdict, x, self.x_per_vc[vc], self.n_active))
        self._state[vc] = _IDLE if eom else _DISCARDING

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
            xi = x_per_vc[vc] - k
            x_per_vc[vc] = xi
            if xi == 0:
                self.n_active -= 1
            out += k
        self.occupancy -= out
        self.cells_out += out

    def conservation_ok(self) -> bool:
        return self.cells_in == self.cells_out + self.cells_dropped + self.occupancy

    def broken_invariant(self) -> str | None:
        """Name of the first run-end invariant that fails, or None."""
        x, held = self.x_per_vc, self.occupancy
        checks = (
            ("cell conservation", self.conservation_ok()),
            ("occupancy == cells in buffer blocks",
             sum(block[1] for block in self.queue) == held),
            ("sum(x_per_vc) == occupancy", sum(x) == held),
            ("n_active == nonzero x_per_vc", self.n_active == len(x) - x.count(0)),
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
    evenly spaced, so they go to the kernel as one train, which hands them
    to the port in runs.
    """

    __slots__ = ("sim", "port", "tx_ns", "prop_ns", "_free_at", "cells_in")

    def __init__(self, sim: Simulator, port: PolicyPort, rate_bps: float, prop_ns: int):
        self.sim = sim
        self.port = port
        self.tx_ns = cell_time_ns(rate_bps)
        self.prop_ns = prop_ns
        self._free_at = 0
        self.cells_in = 0

    def offer_frame(self, cells: list[Cell]) -> None:
        sim = self.sim
        now = sim.now
        start = now if now > self._free_at else self._free_at
        tx = self.tx_ns
        sim.schedule_train(start + tx + self.prop_ns, tx, self.port.on_cell, cells)
        self._free_at = start + tx * len(cells)
        self.cells_in += len(cells)


class EgressLink:
    """Far-side path of one VC: bottleneck propagation, then its access link.

    Receives the cells a port run admits in one call, with the time the port
    finishes sending the last of them.  They leave the port back to back, and
    the access link is at least as fast as the bottleneck, so it never holds
    a cell back: the last one leaves it tx after it arrives, exactly as if
    each cell had been offered on its own.  Body cells are tallied into the
    reassembler immediately (their delivery order within the frame is
    immaterial); the frame verdict is computed at the eom cell, even one the
    port still holds, and, when the frame is intact, delivery of the segment
    to the endpoint is scheduled for the eom cell's arrival time.
    """

    __slots__ = ("sim", "reasm", "deliver", "delay_ns", "cells_in")

    def __init__(self, sim: Simulator, rate_bps: float, bottleneck_prop_ns: int,
                 access_prop_ns: int, reassembler, deliver):
        self.sim = sim
        self.reasm = reassembler
        self.deliver = deliver  # deliver(segment) at the endpoint
        # port departure to arrival at the endpoint
        self.delay_ns = bottleneck_prop_ns + cell_time_ns(rate_bps) + access_prop_ns
        self.cells_in = 0

    def offer(self, eom: Cell | None, n: int, last_port_departure_ns: int) -> None:
        """n cells of one frame; `eom` is its eom cell when it is the last."""
        self.cells_in += n
        if eom is None:
            self.reasm.body(n)
        else:
            self.reasm.body(n - 1)
            if self.reasm.eom(eom.seg):
                self.sim.schedule(last_port_departure_ns + self.delay_ns,
                                  self.deliver, eom.seg)
