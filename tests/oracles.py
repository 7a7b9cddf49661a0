"""Slow, independent reference implementations used to check fast ones."""

import math
from fractions import Fraction

from ubrsim.switchport import (DROP_FRAME_START, DROP_TAIL_OVERFLOW, EPD,
                               cell_time_ns, sd_over_fair_share)


def water_fill_oracle(demands, capacity):
    """Max-min fair shares by exact one-at-a-time progressive filling.

    Walk demands in ascending order; at each step the smallest remaining
    demand either fits inside an equal split of what is left (take it fully)
    or nobody's does (everyone left gets the equal split).  All arithmetic is
    rational, so results are exact.
    """
    order = sorted((i for i in range(len(demands)) if demands[i] > 0),
                   key=lambda i: demands[i])
    alloc = [Fraction(0)] * len(demands)
    remaining = Fraction(capacity)
    while order:
        share = remaining / len(order)
        i = order[0]
        d = Fraction(demands[i])
        if d <= share:
            alloc[i] = d
            remaining -= d
            order.pop(0)
        else:
            for j in order:
                alloc[j] = share
            break
    return alloc


class EventDrivenPort:
    """Bottleneck port with one kernel event per cell transmission.

    The reference for `ubrsim.switchport.PolicyPort`: the same buffer, drop
    policy and drop log, but arrivals come one cell at a time, the buffer is
    drained by a completion event per cell, and each cell is handed to
    egress as a run of one when its completion fires, with that time as its
    departure.  Tests follow the fast port's tie rule by
    running the kernel up to an arrival's time before delivering it, so that
    completions at time t fire before an arrival at t.
    """

    def __init__(self, sim, rate_bps, capacity, policy, num_vcs, r=0.8, z=0.8):
        self.sim = sim
        self.capacity = capacity
        self.policy = policy
        self.z = z
        self.threshold = math.floor(r * capacity + 1e-9)
        self.tx_ns = cell_time_ns(rate_bps)
        self.queue = []  # deque semantics via head index
        self._head = 0
        self.x_per_vc = [0] * num_vcs
        self.n_active = 0
        self._state = ["idle"] * num_vcs
        self._busy = False
        self.egress = [None] * num_vcs
        self.cells_in = 0
        self.cells_out = 0
        self.cells_dropped = 0
        self.frames_discarded = 0
        self.drop_log = []

    @property
    def occupancy(self):
        return len(self.queue) - self._head

    def on_cell(self, cell):
        vc = cell.vc
        state = self._state[vc]
        self.cells_in += 1
        if state == "discarding":
            self.cells_dropped += 1
            if cell.eom:
                self._state[vc] = "idle"
            return
        x = self.occupancy
        if state == "idle":
            if x > self.threshold and (
                    self.policy == EPD
                    or sd_over_fair_share(self.x_per_vc[vc], x, self.n_active, self.z)):
                self._drop_frame(cell, DROP_FRAME_START, x)
                return
            if x >= self.capacity:
                self._drop_frame(cell, DROP_TAIL_OVERFLOW, x)
                return
            if not cell.eom:
                self._state[vc] = "admitting"
        else:
            if x >= self.capacity:
                self._drop_frame(cell, DROP_TAIL_OVERFLOW, x)
                return
            if cell.eom:
                self._state[vc] = "idle"
        self.queue.append(cell)
        if self.x_per_vc[vc] == 0:
            self.n_active += 1
        self.x_per_vc[vc] += 1
        if not self._busy:
            self._busy = True
            self.sim.schedule(self.sim.now + self.tx_ns, self._complete)

    def _drop_frame(self, cell, verdict, x):
        vc = cell.vc
        self.cells_dropped += 1
        self.frames_discarded += 1
        self.drop_log.append(
            (self.sim.now, vc, verdict, x, self.x_per_vc[vc], self.n_active))
        self._state[vc] = "idle" if cell.eom else "discarding"

    def _complete(self, _=None):
        cell = self.queue[self._head]
        self._head += 1
        vc = cell.vc
        self.x_per_vc[vc] -= 1
        if self.x_per_vc[vc] == 0:
            self.n_active -= 1
        self.cells_out += 1
        self.egress[vc].offer(cell if cell.eom else None, 1, self.sim.now)
        if self.occupancy:
            self.sim.schedule(self.sim.now + self.tx_ns, self._complete)
        else:
            self._busy = False
