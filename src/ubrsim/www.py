"""WWW request/response workload riding on the TCP endpoints.

The traffic law is fixed, not configurable: it is the one web workload the
reference matrices describe.  Each client issues batches of HTTP-like
transactions: every BATCH_PERIOD_S it draws a batch size from a fixed
truncated Poisson table (1..9 requests, mean 5) and spaces the requests
uniformly within [GAP_MIN_S, GAP_MAX_S).  A request is a fixed 128-byte
upload; the server answers each complete request with one response whose
size is drawn from a two-stage distribution: a document class (100 B .. 1 MB
base, heavily skewed toward small documents) times a uniform multiplier
1..9.  The resulting mean response is 117.5 KB.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import accumulate

from .kernel import RngStream, seconds
from .tcp import TcpEndpoint

REQUEST_BYTES = 128
BATCH_PERIOD_S = 10.0
GAP_MIN_S = 0.1
GAP_MAX_S = 0.5
CLASS_BASES = (100, 1_000, 10_000, 100_000, 1_000_000)
CLASS_FREQS = (0.20, 0.28, 0.40, 0.112, 0.008)
CLASS_CUM = tuple(accumulate(CLASS_FREQS))

BATCH_MIN = 1
BATCH_MAX = 9
BATCH_MEAN = 5.0
# unnormalized CDF over BATCH_MIN..BATCH_MAX of the Poisson law whose mean,
# truncated to that range, is BATCH_MEAN (rate 5.2001...).  Written with
# repr so every float is exact; tests/oracles.py derives it again
BATCH_CDF = (5.2001486412069475, 18.72092158653018, 42.157597939760265,
             72.62614811292437, 104.31434606942938, 131.7782359937321,
             152.1805659754635, 165.44245954195807, 173.10510596525117)


def classify(u: float) -> int:
    """Map a uniform [0,1) draw to a document class index."""
    return min(bisect_right(CLASS_CUM, u), len(CLASS_CUM) - 1)


def draw_response_bytes(size_rng: RngStream) -> int:
    """One response size: class base (by frequency) times a uniform 1..9 index."""
    cls = classify(size_rng.random())
    index = size_rng.randint(1, 9)
    return CLASS_BASES[cls] * index


def draw_batch_size(count_rng: RngStream) -> int:
    """One batch's request count, by inversion of BATCH_CDF: one uniform."""
    return BATCH_MIN + bisect_right(BATCH_CDF, count_rng.random() * BATCH_CDF[-1])


class ClientApp:
    """Issues request batches and tallies the bytes received in responses."""

    def __init__(self, tcp: TcpEndpoint, c: int, duration_ns: int):
        self.sim = sim = tcp.sim
        self.tcp = tcp
        self.count_rng = sim.stream(f"request-count:{c}")
        self.gap_rng = sim.stream(f"inter-request-gap:{c}")
        self.duration_ns = duration_ns
        self.bytes_received = 0
        tcp.app_recv = self._on_bytes
        sim.schedule(0, self._batch, None)

    def _batch(self, _):
        n = draw_batch_size(self.count_rng)
        base = self.sim.now
        for _ in range(n):
            gap = self.gap_rng.uniform(GAP_MIN_S, GAP_MAX_S)
            at = base + seconds(gap)
            if at < self.duration_ns:
                self.sim.schedule(at, self._send_request, None)
        nxt = base + seconds(BATCH_PERIOD_S)
        if nxt < self.duration_ns:
            self.sim.schedule(nxt, self._batch, None)

    def _send_request(self, _):
        self.tcp.write(REQUEST_BYTES)

    def _on_bytes(self, n: int):
        self.bytes_received += n


class ServerApp:
    """Answers each complete 128-byte request with one drawn response."""

    def __init__(self, tcp: TcpEndpoint, c: int):
        self.tcp = tcp
        self.size_rng = tcp.sim.stream(f"file-size:{c}")
        self._pending = 0
        tcp.app_recv = self._on_bytes

    def _on_bytes(self, n: int):
        self._pending += n
        while self._pending >= REQUEST_BYTES:
            self._pending -= REQUEST_BYTES
            self.tcp.write(draw_response_bytes(self.size_rng))

