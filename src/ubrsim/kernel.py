"""Deterministic discrete-event core: virtual clock, event queue, named RNG streams.

Time is an integer count of simulated nanoseconds so that event ordering is
exact and runs are bit-reproducible across platforms.

Ordering contract: `schedule(at, fn, arg, n)` takes n >= 1 consecutive
sequence numbers, one by default, and returns the first; its event has key
(at, last of them), and events fire in strictly increasing key order.  So
events at one time fire in schedule order, and an event of n numbers fires
exactly where the last of n separate calls would.  The other n - 1 numbers
are the caller's, for work it keys and does itself at or before `at`: a
bottleneck port numbers a frame's cells with them and takes the cells when
the frame's event fires.  `events_processed` counts the events that fire; a
handler that does such work adds what it did.

A `Timer(sim, fn)` is a deadline that is reset far more often than it
expires.  Each `set(at)` takes a sequence number as `schedule` does, and fn()
runs at the key of the last `set` before it expires, so handlers fire in the
order of one `schedule` per `set` with every superseded one ignored.  The
timer keeps one heap entry, not one per `set`: only an entry that is due, or
one that a later `set` moved to an earlier deadline, pops before its key.
"""

from __future__ import annotations

import hashlib
import math
import random
from heapq import heappop, heappush

NS_PER_SEC = 1_000_000_000
NS_PER_MS = 1_000_000
NS_PER_US = 1_000


def seconds(t: float | int) -> int:
    """Convert seconds to integer simulation time (ns)."""
    return round(t * NS_PER_SEC)


class SchedulingError(Exception):
    """Raised when `schedule` or `Timer.set` asks for a time before the
    current virtual time; the refused call takes no sequence number."""


def derive_seed(master_seed: int, *labels) -> int:
    """Stable 64-bit seed from a master seed and any labels (ints or strings)."""
    text = ":".join([str(master_seed)] + [str(x) for x in labels])
    digest = hashlib.sha256(text.encode("ascii")).digest()
    return int.from_bytes(digest[:8], "big")


class RngStream:
    """One named pseudo-random stream.

    Streams are independent per (seed, stream_id); a given (seed, stream_id,
    draw index) yields the same value on any platform.  Backed by the stdlib
    Mersenne Twister, whose random() output is stable across Python versions.
    """

    def __init__(self, seed: int, stream_id: str):
        self._rng = random.Random(derive_seed(seed, stream_id))

    def random(self) -> float:
        """Uniform float in [0, 1)."""
        return self._rng.random()

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi], derived from one random() draw."""
        v = lo + int(self._rng.random() * (hi - lo + 1))
        return v if v <= hi else hi

    def uniform(self, lo: float, hi: float) -> float:
        """Uniform float in [lo, hi), for lo < hi."""
        v = lo + (hi - lo) * self._rng.random()
        if v >= hi:  # guard the closed end against float rounding
            v = math.nextafter(hi, lo)
        return v


class Simulator:
    """Virtual clock plus a (fire_at, sequence)-ordered event queue."""

    def __init__(self, seed: int = 0):
        self.seed = seed
        self.now = 0  # read-only outside the kernel
        self._seq = 0
        self._heap: list = []
        self._streams: dict[str, RngStream] = {}
        self.events_processed = 0

    def stream(self, stream_id: str) -> RngStream:
        """Named RNG stream derived from this simulator's seed."""
        s = self._streams.get(stream_id)
        if s is None:
            s = RngStream(self.seed, stream_id)
            self._streams[stream_id] = s
        return s

    def schedule(self, at: int, fn, arg=None, n: int = 1) -> int:
        """Schedule fn(arg) at virtual time `at` (ns) under the last of n
        new sequence numbers; return the first.  Past times are fatal."""
        if at < self.now:
            raise SchedulingError(f"schedule at t={at} ns before now={self.now} ns")
        seq = self._seq
        self._seq = seq + n
        heappush(self._heap, (at, seq + n - 1, fn, arg))
        return seq

    def clear(self) -> None:
        """Drop every pending event."""
        self._heap.clear()

    def run_until(self, end: int) -> None:
        """Process every event with fire_at <= end; clock finishes at `end`."""
        heap = self._heap
        n = 0
        while heap:
            t, _, fn, arg = heap[0]
            if t > end:
                break
            heappop(heap)
            self.now = t
            fn(arg)
            n += 1
        self.events_processed += n
        if end > self.now:
            self.now = end


class Timer:
    """A restartable deadline with at most one heap entry between resets.

    `set(at)` takes the next sequence number, so the live key (at, seq) is
    exactly the one `schedule` would give.  It pushes an entry only when none
    is pending or the live key is earlier than the pending one; an entry that
    pops before the live key pushes the timer again at it, unless an entry
    of its own still pending comes first.  Entries of a cancelled timer are
    dropped as they pop.
    """

    __slots__ = ("_sim", "_fn", "_at", "_seq", "armed", "_pending")

    def __init__(self, sim: Simulator, fn):
        self._sim = sim
        self._fn = fn
        self._at = self._seq = 0  # the live key, while armed
        self.armed = False
        self._pending: list = []  # keys of this timer's heap entries, earliest last

    def set(self, at: int) -> None:
        """Call fn() at `at` (ns), superseding any earlier setting."""
        sim = self._sim
        if at < sim.now:
            raise SchedulingError(f"timer set at t={at} ns before now={sim.now} ns")
        self._seq = seq = sim._seq
        sim._seq = seq + 1
        self._at = at
        self.armed = True
        pending = self._pending
        # a later sequence number: the new key is earlier only by its time
        if not pending or at < pending[-1][0]:
            self._push(at, seq)

    def cancel(self) -> None:
        """Disarm: fn() does not run until the timer is set again."""
        self.armed = False

    def _push(self, at: int, seq: int) -> None:
        self._pending.append((at, seq))
        heappush(self._sim._heap, (at, seq, self._fire, None))

    def _fire(self, _) -> None:
        # the earliest of this timer's entries pops
        pending = self._pending
        key = pending.pop()
        if not self.armed:
            return
        live = (self._at, self._seq)
        if key == live:
            self.armed = False
            self._fn()
        elif not pending or pending[-1] > live:
            self._push(*live)
