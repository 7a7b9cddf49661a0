"""WWW request/response workload riding on the TCP endpoints.

Each client issues batches of HTTP-like transactions: every `batch_period_s`
it draws a batch size from a fixed truncated Poisson table (1..9 requests,
mean 5) and spaces the requests uniformly within [gap_min_s, gap_max_s).  A
request is a fixed 128-byte upload; the server answers each complete request
with one response whose size is drawn from a two-stage distribution: a
document class (100 B .. 1 MB base, heavily skewed toward small documents)
times a uniform multiplier 1..9.  The resulting mean response is 117.5 KB.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate

from .kernel import RngStream, seconds
from .tcp import TcpEndpoint

CLASS_BASES = (100, 1_000, 10_000, 100_000, 1_000_000)
CLASS_FREQS = (0.20, 0.28, 0.40, 0.112, 0.008)

BATCH_MIN = 1
BATCH_MAX = 9
BATCH_MEAN = 5.0
# unnormalized CDF over BATCH_MIN..BATCH_MAX of the Poisson law whose mean,
# truncated to that range, is BATCH_MEAN (rate 5.2001...).  Written with
# repr so every float is exact; tests/oracles.py derives it again
BATCH_CDF = (5.2001486412069475, 18.72092158653018, 42.157597939760265,
             72.62614811292437, 104.31434606942938, 131.7782359937321,
             152.1805659754635, 165.44245954195807, 173.10510596525117)


@dataclass(frozen=True)
class TrafficParams:
    request_bytes: int = 128
    batch_period_s: float = 10.0
    gap_min_s: float = 0.1
    gap_max_s: float = 0.5
    class_bases: tuple = CLASS_BASES
    class_freqs: tuple = CLASS_FREQS

    def __post_init__(self):
        # every message names the fields it judges; a config file reports
        # the error at the latest line that set one of them.  nan and inf
        # pass one-sided range tests, so every number must be finite first
        for key, value in vars(self).items():
            values = value if isinstance(value, (tuple, list)) else (value,)
            if not all(map(math.isfinite, values)):
                raise ValueError(f"{key} must be finite, got {value}")
        # `type`, not `isinstance`: a bool is an int, and True a 1-byte size
        if type(self.request_bytes) is not int:
            raise ValueError(f"request_bytes must be an integer, "
                             f"got {self.request_bytes}")
        if not all(type(b) is int for b in self.class_bases):
            raise ValueError(f"class_bases must be integers, got {self.class_bases}")
        if not self.request_bytes >= 1:
            raise ValueError(f"request_bytes must be at least 1, "
                             f"got {self.request_bytes}")
        if not self.batch_period_s > 0:
            raise ValueError(f"batch_period_s must be positive, "
                             f"got {self.batch_period_s}")
        if not 0 <= self.gap_min_s < self.gap_max_s:
            raise ValueError(f"gap_max_s must exceed gap_min_s and gap_min_s "
                             f"must be nonnegative, got [{self.gap_min_s}, "
                             f"{self.gap_max_s})")
        if len(self.class_bases) != len(self.class_freqs):
            raise ValueError("class_bases and class_freqs must have the same "
                             "length")
        if not all(b > 0 for b in self.class_bases):
            raise ValueError(f"class_bases must be positive, got {self.class_bases}")
        if not all(f >= 0 for f in self.class_freqs):
            raise ValueError(f"class_freqs must be nonnegative, got {self.class_freqs}")
        if abs(sum(self.class_freqs) - 1.0) > 1e-9:
            raise ValueError("class frequencies (class_freqs) must sum to 1")

    @property
    def class_cum(self) -> tuple:
        return tuple(accumulate(self.class_freqs))


def classify(u: float, class_cum) -> int:
    """Map a uniform [0,1) draw to a document class index."""
    return min(bisect_right(class_cum, u), len(class_cum) - 1)


def draw_response_bytes(size_rng: RngStream, params: TrafficParams) -> int:
    """One response size: class base (by frequency) times a uniform 1..9 index."""
    cls = classify(size_rng.random(), params.class_cum)
    index = size_rng.randint(1, 9)
    return params.class_bases[cls] * index


def draw_batch_size(count_rng: RngStream) -> int:
    """One batch's request count, by inversion of BATCH_CDF: one uniform."""
    return BATCH_MIN + bisect_right(BATCH_CDF, count_rng.random() * BATCH_CDF[-1])


class ClientApp:
    """Issues request batches and tallies the bytes received in responses."""

    def __init__(self, tcp: TcpEndpoint, params: TrafficParams, c: int,
                 duration_ns: int):
        self.sim = sim = tcp.sim
        self.tcp = tcp
        self.params = params
        self.count_rng = sim.stream(f"request-count:{c}")
        self.gap_rng = sim.stream(f"inter-request-gap:{c}")
        self.duration_ns = duration_ns
        self.bytes_received = 0
        tcp.app_recv = self._on_bytes
        sim.schedule(0, self._batch, None)

    def _batch(self, _):
        p = self.params
        n = draw_batch_size(self.count_rng)
        base = self.sim.now
        for _ in range(n):
            gap = self.gap_rng.uniform(p.gap_min_s, p.gap_max_s)
            at = base + seconds(gap)
            if at < self.duration_ns:
                self.sim.schedule(at, self._send_request, None)
        nxt = base + seconds(p.batch_period_s)
        if nxt < self.duration_ns:
            self.sim.schedule(nxt, self._batch, None)

    def _send_request(self, _):
        self.tcp.write(self.params.request_bytes)

    def _on_bytes(self, n: int):
        self.bytes_received += n


class ServerApp:
    """Answers each complete 128-byte request with one drawn response."""

    def __init__(self, tcp: TcpEndpoint, params: TrafficParams, c: int):
        self.tcp = tcp
        self.params = params
        self.size_rng = tcp.sim.stream(f"file-size:{c}")
        self._pending = 0
        tcp.app_recv = self._on_bytes

    def _on_bytes(self, n: int):
        self._pending += n
        req = self.params.request_bytes
        while self._pending >= req:
            self._pending -= req
            self.tcp.write(draw_response_bytes(self.size_rng, self.params))

