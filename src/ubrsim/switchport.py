"""UBR+ bottleneck port (EPD / Selective Drop) and access-link conveyors.

Every cell arrival at an inter-switch output port is an event, and the drop
policy is evaluated at frame boundaries against the live buffer state.  The
cells of one frame arrive as one kernel train: they share one heap entry and
still count one event each.  The ports and the lossless access links are
all exact closed-form FIFO rate servers: a cell departs at
max(arrival, previous departure) + 424/rate, with no per-cell transmission
event.  A port retires the cells that have left
before it judges an arrival; a departure at t retires before an arrival at t.
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

    The buffer holds (departure_ns, vc) per cell.  An admitted cell goes to
    its VC's egress link at once, with its departure time.  `_complete(now)`
    retires departed cells from the counters; every arrival calls it first.
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
        self._free_at = 0  # departure time of the last admitted cell
        self.x_per_vc = [0] * num_vcs
        self.n_active = 0
        self._state = [_IDLE] * num_vcs
        self.egress = [None] * num_vcs  # set by the topology builder
        self.cells_in = 0
        self.cells_out = 0
        self.cells_dropped = 0
        self.frames_discarded = 0
        self.drop_log: list | None = [] if log_drops else None

    @property
    def occupancy(self) -> int:
        return len(self.queue)

    def on_cell(self, cell: Cell) -> None:
        """Arrival event: policy decision at frame starts, then enqueue/drop."""
        now = self.sim.now
        q = self.queue
        if q and q[0][0] <= now:
            self._complete(now)
        vc = cell.vc
        state = self._state[vc]
        self.cells_in += 1
        if state == _DISCARDING:
            self.cells_dropped += 1
            if cell.eom:
                self._state[vc] = _IDLE
            return
        x = len(q)
        # first cell of a frame: the only place the policy may refuse it
        if state == _IDLE and x > self.threshold and (
                self.policy == EPD
                or sd_over_fair_share(self.x_per_vc[vc], x, self.n_active, Z)):
            self._drop_frame(cell, DROP_FRAME_START, x)
            return
        if x >= self.capacity:
            self._drop_frame(cell, DROP_TAIL_OVERFLOW, x)
            return
        self._state[vc] = _IDLE if cell.eom else _ADMITTING
        dep = (now if now > self._free_at else self._free_at) + self.tx_ns
        self._free_at = dep
        q.append((dep, vc))
        xi = self.x_per_vc[vc]
        if xi == 0:
            self.n_active += 1
        self.x_per_vc[vc] = xi + 1
        self.egress[vc].offer(cell, dep)

    def _drop_frame(self, cell: Cell, verdict: str, x: int) -> None:
        vc = cell.vc
        self.cells_dropped += 1
        self.frames_discarded += 1
        if self.drop_log is not None:
            self.drop_log.append(
                (self.sim.now, vc, verdict, x, self.x_per_vc[vc], self.n_active))
        self._state[vc] = _IDLE if cell.eom else _DISCARDING

    def _complete(self, now: int) -> None:
        """Retire every buffered cell whose transmission ends by `now`."""
        q = self.queue
        x_per_vc = self.x_per_vc
        n = len(q)
        while q and q[0][0] <= now:
            vc = q.popleft()[1]
            xi = x_per_vc[vc] - 1
            x_per_vc[vc] = xi
            if xi == 0:
                self.n_active -= 1
        self.cells_out += n - len(q)

    def conservation_ok(self) -> bool:
        return self.cells_in == self.cells_out + self.cells_dropped + self.occupancy

    def broken_invariant(self) -> str | None:
        """Name of the first run-end invariant that fails, or None."""
        x, held = self.x_per_vc, len(self.queue)
        checks = (
            ("cell conservation", self.conservation_ok()),
            ("sum(x_per_vc) == occupancy", sum(x) == held),
            ("n_active == nonzero x_per_vc", self.n_active == len(x) - x.count(0)),
            ("egress cells_in == cells_out + occupancy",
             sum(e.cells_in for e in self.egress) == self.cells_out + held))
        return next((name for name, ok in checks if not ok), None)


class IngressLink:
    """Host NIC onto its access link, feeding one policy port.

    Exact FIFO rate server: cells offered at time t depart at
    max(t, previous departure) + tx and reach the switch one propagation
    delay later, where each becomes a port arrival event.  A frame's cells
    are evenly spaced, so they go to the kernel as one train.
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

    Receives each cell when the policy port admits it, with the time the
    port finishes sending it.  Body cells are tallied into the reassembler
    immediately (their delivery order within the frame is immaterial); the
    frame verdict is computed at the eom cell, even one the port still holds,
    and, when the frame is intact, delivery of the segment to the endpoint
    is scheduled for the eom cell's arrival time.
    """

    __slots__ = ("sim", "reasm", "deliver", "tx_ns", "lead_ns", "_free_at",
                 "cells_in", "_access_prop_ns")

    def __init__(self, sim: Simulator, rate_bps: float, bottleneck_prop_ns: int,
                 access_prop_ns: int, reassembler, deliver):
        self.sim = sim
        self.reasm = reassembler
        self.deliver = deliver  # deliver(segment) at the endpoint
        self.tx_ns = cell_time_ns(rate_bps)
        self.lead_ns = bottleneck_prop_ns
        self._access_prop_ns = access_prop_ns
        self._free_at = 0
        self.cells_in = 0

    def offer(self, cell: Cell, port_departure_ns: int) -> None:
        self.cells_in += 1
        dep = port_departure_ns + self.lead_ns
        if dep < self._free_at:
            dep = self._free_at
        dep += self.tx_ns
        self._free_at = dep
        if not cell.eom:
            self.reasm.body()
            return
        if self.reasm.eom(cell.seg):
            self.sim.schedule(dep + self._access_prop_ns, self.deliver, cell.seg)
