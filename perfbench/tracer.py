"""Per-layer self time for ubrsim, measured from outside the package.

`LayerTracer.installed()` replaces each layer's entry points (the calls the
kernel and the neighbouring layers make into it, event handlers included)
with timing wrappers and puts the originals back on exit.  Time is charged
to whichever layer is on top of a call stack, so a layer's self time is its
span minus the spans of the layers it calls.  Time outside every layer
(benchmark glue, the grid and cell runners) lands in `UNATTRIBUTED`, so the
self times sum to the traced wall time.

Handlers that the topology captures as bound methods while it is built
(`TcpEndpoint.on_frame`, the apps' `_on_bytes`, `ClientApp._batch`) are
wrapped because the tracer is installed before any `Topology` exists.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager

from ubrsim import aal5, experiment, factorial, kernel, netsim, switchport, tcp, www

UNATTRIBUTED = "unattributed"

# (layer, owner, attribute); module-level functions are patched where their
# caller looks them up, e.g. segment_to_cells and the metrics in netsim.
ENTRY_POINTS = (
    ("kernel", kernel.Simulator, "schedule"),
    ("kernel", kernel.Simulator, "run_until"),
    ("switchport", switchport.PolicyPort, "on_cell"),
    ("switchport", switchport.PolicyPort, "_complete"),
    ("switchport", switchport.IngressLink, "offer_frame"),
    ("switchport", switchport.EgressLink, "offer"),
    ("aal5", netsim, "segment_to_cells"),
    ("aal5", aal5.Reassembler, "body"),
    ("aal5", aal5.Reassembler, "eom"),
    ("tcp", tcp.TcpEndpoint, "write"),
    ("tcp", tcp.TcpEndpoint, "on_frame"),
    ("tcp", tcp.TcpEndpoint, "_on_timer"),
    ("www", www.ClientApp, "_batch"),
    ("www", www.ClientApp, "_send_request"),
    ("www", www.ClientApp, "_on_bytes"),
    ("www", www.ServerApp, "_on_bytes"),
    ("netsim", netsim.Topology, "__init__"),
    ("metrics", netsim, "efficiency"),
    ("metrics", netsim, "fairness"),
    ("experiment", experiment, "write_results"),
    ("factorial", factorial, "read_matrix"),
    ("factorial", factorial, "analyze"),
)

LAYERS = tuple(dict.fromkeys(layer for layer, _, _ in ENTRY_POINTS))

# Entry points whose callers pass keyword arguments; every other wrapper is
# positional-only, which costs about 40% less per call on the per-cell paths.
KEYWORD_ENTRIES = frozenset({"Topology.__init__"})


def entry_key(owner, name: str) -> str:
    """Stable label of an entry point, e.g. 'PolicyPort.on_cell'."""
    return f"{owner.__name__.rpartition('.')[2]}.{name}"


class LayerTracer:
    """Self-time and call-count accounting across ENTRY_POINTS."""

    def __init__(self):
        self._clock = time.perf_counter_ns
        self.self_ns = dict.fromkeys(LAYERS + (UNATTRIBUTED,), 0)
        self.calls = {entry_key(o, n): 0 for _, o, n in ENTRY_POINTS}
        self.wall_ns = 0
        self._stack = [UNATTRIBUTED]
        self._mark = [0]  # clock reading at the last layer switch

    @property
    def unattributed_ns(self) -> int:
        return self.self_ns[UNATTRIBUTED]

    def layer_calls(self, layer: str) -> int:
        return sum(self.calls[entry_key(o, n)]
                   for lay, o, n in ENTRY_POINTS if lay == layer)

    def _wrap(self, layer: str, key: str, fn, counters: dict):
        clock = self._clock
        acc = self.self_ns
        stack = self._stack
        mark = self._mark
        push = stack.append
        pop = stack.pop
        count = counters[key] = [0]

        if key in KEYWORD_ENTRIES:
            def traced(*args, **kwargs):
                t = clock()
                acc[stack[-1]] += t - mark[0]
                push(layer)
                mark[0] = t
                count[0] += 1
                try:
                    return fn(*args, **kwargs)
                finally:
                    t = clock()
                    acc[pop()] += t - mark[0]
                    mark[0] = t
        else:
            def traced(*args):
                t = clock()
                acc[stack[-1]] += t - mark[0]
                push(layer)
                mark[0] = t
                count[0] += 1
                try:
                    return fn(*args)
                finally:
                    t = clock()
                    acc[pop()] += t - mark[0]
                    mark[0] = t

        return functools.wraps(fn)(traced)

    @contextmanager
    def installed(self):
        """Wrap every entry point for the duration of the block."""
        counters: dict = {}
        saved = []
        try:
            for layer, owner, name in ENTRY_POINTS:
                original = vars(owner)[name]
                key = entry_key(owner, name)
                setattr(owner, name, self._wrap(layer, key, original, counters))
                saved.append((owner, name, original))
            start = self._mark[0] = self._clock()
            try:
                yield self
            finally:
                end = self._clock()
                self.self_ns[self._stack[-1]] += end - self._mark[0]
                self.wall_ns += end - start
        finally:
            for owner, name, original in reversed(saved):
                setattr(owner, name, original)
            for key, count in counters.items():
                self.calls[key] += count[0]
