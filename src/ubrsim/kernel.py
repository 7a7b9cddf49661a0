"""Deterministic discrete-event core: virtual clock, event queue, named RNG streams.

Time is an integer count of simulated nanoseconds so that event ordering is
exact and runs are bit-reproducible across platforms.

Ordering contract: every event has a key (fire_at, sequence), where sequence
is the schedule order, and events fire in strictly increasing key order.  A
train from `schedule_train(at, step, fn, items)` takes len(items) consecutive
sequence numbers at once; member i has key (at + i*step, base + i).  The
train occupies one heap entry, keyed by its next member.  When that entry
fires, the members i..j-1 that are due, i.e. whose keys are below every other
pending key and whose times are not past the run's end, fire as one run: one
call fn(items, i, j, step) with `now` at member j-1's time.  Each member
counts as one event, so the firing order and `events_processed` are exactly
those of len(items) separate `schedule` calls, provided that only the last
member of a run schedules anything.  Since `now` is the run's last time,
`schedule` refuses any event an earlier member would put inside the run.
"""

from __future__ import annotations

import hashlib
import math
import random
from bisect import bisect_right
from functools import cache
from heapq import heappop, heappush
from itertools import accumulate

NS_PER_SEC = 1_000_000_000
NS_PER_MS = 1_000_000
NS_PER_US = 1_000


def seconds(t: float | int) -> int:
    """Convert seconds to integer simulation time (ns)."""
    return round(t * NS_PER_SEC)


class SchedulingError(Exception):
    """Raised when an event is scheduled before the current virtual time."""


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
        if lo > hi:
            raise ValueError(f"randint needs lo <= hi, got {lo}, {hi}")
        v = lo + int(self._rng.random() * (hi - lo + 1))
        return v if v <= hi else hi

    def uniform(self, lo: float, hi: float) -> float:
        """Uniform float in [lo, hi)."""
        if not lo < hi:
            raise ValueError(f"uniform needs lo < hi, got [{lo}, {hi})")
        v = lo + (hi - lo) * self._rng.random()
        if v >= hi:  # guard the closed end against float rounding
            v = math.nextafter(hi, lo)
        return v

    def truncated_poisson(self, mean: float, lo: int, hi: int) -> int:
        """Poisson-shaped integer on [lo, hi] whose truncated mean equals `mean`.

        The underlying rate is calibrated so that the distribution restricted
        to [lo, hi] has expectation exactly `mean` (plain conditioning at
        rate=mean would bias the mean low whenever the upper tail is cut).
        Sampling is by inversion over the truncated support: one uniform per
        draw, identical in law to rejection resampling of out-of-range values.
        """
        if not lo <= mean <= hi:
            raise ValueError(f"need lo <= mean <= hi, got {lo}, {mean}, {hi}")
        if lo == hi:
            return lo
        if mean == lo:
            return lo
        if mean == hi:
            return hi
        cdf = _truncated_poisson_cdf(mean, lo, hi)
        return lo + bisect_right(cdf, self._rng.random() * cdf[-1])


def _poisson_weights(lam: float, lo: int, hi: int) -> list[float]:
    # unnormalized lam^k / k!, built iteratively to dodge overflow
    w = 1.0
    for k in range(1, lo + 1):
        w *= lam / k
    out = [w]
    for k in range(lo + 1, hi + 1):
        w *= lam / k
        out.append(w)
    return out


def truncated_poisson_mean(lam: float, lo: int, hi: int) -> float:
    """Expectation of Poisson(lam) conditioned on lo <= k <= hi."""
    w = _poisson_weights(lam, lo, hi)
    total = sum(w)
    return sum(k * wk for k, wk in zip(range(lo, hi + 1), w)) / total


def _calibrate_rate(mean: float, lo: int, hi: int) -> float:
    # conditional mean is monotone in the rate; bisect to the target
    a, b = 1e-12, 4.0 * hi + 64.0
    for _ in range(200):
        m = 0.5 * (a + b)
        if truncated_poisson_mean(m, lo, hi) < mean:
            a = m
        else:
            b = m
    return 0.5 * (a + b)


@cache
def _truncated_poisson_cdf(mean: float, lo: int, hi: int) -> tuple:
    # unnormalized CDF over [lo, hi] at the calibrated rate; calibrated once
    # per process for each (mean, lo, hi)
    return tuple(accumulate(_poisson_weights(_calibrate_rate(mean, lo, hi), lo, hi)))


class Simulator:
    """Virtual clock plus a (fire_at, sequence)-ordered event queue."""

    def __init__(self, seed: int = 0):
        self.seed = seed
        self.now = 0  # read-only outside the kernel
        self._seq = 0
        self._heap: list = []
        self._streams: dict[str, RngStream] = {}
        self._end = 0  # end of the current run_until
        self.events_processed = 0

    def stream(self, stream_id: str) -> RngStream:
        """Named RNG stream derived from this simulator's seed."""
        s = self._streams.get(stream_id)
        if s is None:
            s = RngStream(self.seed, stream_id)
            self._streams[stream_id] = s
        return s

    def schedule(self, at: int, fn, arg=None) -> None:
        """Schedule fn(arg) at virtual time `at` (ns).  Past times are fatal."""
        if at < self.now:
            raise SchedulingError(f"schedule at t={at} ns before now={self.now} ns")
        heappush(self._heap, (at, self._seq, fn, arg))
        self._seq += 1

    def schedule_train(self, at: int, step: int, fn, items) -> None:
        """Schedule members items[i] at `at` + i*`step` as one heap entry.

        Due members fire in runs, as fn(items, i, j, step) for items[i:j];
        same order and event count as scheduling each member on its own.
        """
        if at < self.now:
            raise SchedulingError(f"schedule at t={at} ns before now={self.now} ns")
        if step < 0:
            raise SchedulingError(f"train step {step} ns is negative")
        if items:
            heappush(self._heap, (at, self._seq, self._fire_train,
                                  (fn, items, 0, step, self._seq)))
            self._seq += len(items)

    def _fire_train(self, train) -> None:
        # member i is due (now is its time); members i..j-1 are due while
        # their key is below the heap top's and their time is not past end.
        # No other key falls between two members' sequence numbers, so with
        # a zero step every member is due.
        fn, items, i, step, seq = train
        heap = self._heap
        t = self.now
        n = len(items)
        j = n
        if step:
            j = i + 1 + (self._end - t) // step
            if heap:
                # member i+d is the last one not after the top's time; it is
                # due if it is before it or ties it with a lower sequence
                d, r = divmod(heap[0][0] - t, step)
                below = i + d + (r > 0 or seq + d < heap[0][1])
                if below < j:
                    j = below
            if j > n:
                j = n
        last = t + (j - 1 - i) * step
        self.now = last
        fn(items, i, j, step)
        self.events_processed += j - i - 1
        if j < n:
            seq += j - i
            heappush(heap, (last + step, seq, self._fire_train,
                            (fn, items, j, step, seq)))

    def clear(self) -> None:
        """Drop every pending event."""
        self._heap.clear()

    def run_until(self, end: int) -> None:
        """Process every event with fire_at <= end; clock finishes at `end`."""
        heap = self._heap
        self._end = end
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
