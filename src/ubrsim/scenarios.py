"""Experiment scenarios: orbit delay classes, link rates, windows, buffers.

A scenario is the six inputs of one 24-cell experiment grid: delay class,
scale, seed, connections, duration and three buffer sizes (by default 0.5, 1
and 2 round-trip-times worth of cells).  The MSS, both link rates and the TCP
window and slow-start presets derive from the delay class and scale.  A
`scale` below 1 shrinks connection count and link rates together: the
offered-load-to-capacity ratio holds, and buffers in cells shrink with the
rate.  Frames keep their cell count, so a scaled buffer holds fewer frames.
That changes results: a scale-1 wan grid (20 s) averages 0.744 efficiency
with the scale-0.1 buffers and 0.962 with its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .aal5 import CELL_BYTES, cells_for_segment
from .kernel import NS_PER_MS, NS_PER_US
from .switchport import EPD, SD
from .tcp import FLAVORS, initial_ssthresh

BOTTLENECK_BPS = 45_000_000.0
ACCESS_BPS = 149_760_000.0
DEFAULT_CONNECTIONS = 100
DEFAULT_DURATION_S = 100.0
BASE_WINDOW = 65_535          # largest window without scaling

POLICIES = (EPD, SD)
BUFFER_LEVELS = ("0.5", "1", "2")


@dataclass(frozen=True)
class DelayClass:
    one_way_ms: int           # bottleneck propagation, one direction
    mss: int
    buffer_granule: int       # cells; half-RTT buffer is rounded up to this

    @property
    def rtt_s(self) -> float:
        return 2 * self.one_way_ms / 1000.0


DELAY_CLASSES = {
    "wan": DelayClass(5, 1024, 1),
    "meo": DelayClass(100, 9180, 5),
    "geo": DelayClass(275, 9180, 5),
}


def _ceil_to(x: float, granule: int) -> int:
    return math.ceil(x / granule - 1e-9) * granule


def buffer_table(delay_class: str, scale: float = 1.0,
                 connections: int | None = None) -> dict:
    """Buffer sizes in cells for the 0.5, 1 and 2 RTT levels.

    The half-RTT buffer holds half an RTT of bottleneck cells, rounded up to
    the class granule; 1 RTT doubles it.  The 2 RTT level is widened when
    needed so every connection can hold one full segment's cells (which only
    binds for the small-MSS terrestrial class).
    """
    dc = DELAY_CLASSES[delay_class]
    bw = BOTTLENECK_BPS * scale
    conns = connections if connections is not None else _default_connections(scale)
    half_cells = _ceil_to(dc.rtt_s / 2 * bw / 8 / CELL_BYTES, dc.buffer_granule)
    two_rtt = max(4 * half_cells, conns * cells_for_segment(dc.mss))
    return {"0.5": half_cells, "1": 2 * half_cells, "2": two_rtt}


def _default_connections(scale: float) -> int:
    return max(1, round(DEFAULT_CONNECTIONS * scale))


@dataclass(frozen=True)
class Scenario:
    delay_class: str
    scale: float
    seed: int
    connections: int
    duration_s: float
    buffers: tuple            # cells, aligned with BUFFER_LEVELS

    # a constant, not a field: every access link's delay, in any class and scale
    access_prop_ns = 5 * NS_PER_US

    @property
    def mss(self) -> int:
        return DELAY_CLASSES[self.delay_class].mss

    @property
    def bottleneck_bps(self) -> float:
        return BOTTLENECK_BPS * self.scale

    @property
    def access_bps(self) -> float:
        return ACCESS_BPS * self.scale

    @property
    def bottleneck_prop_ns(self) -> int:
        return DELAY_CLASSES[self.delay_class].one_way_ms * NS_PER_MS

    @property
    def init_ssthresh(self) -> int:
        return initial_ssthresh(DELAY_CLASSES[self.delay_class].rtt_s,
                                self.bottleneck_bps)

    @property
    def rcv_wnd(self) -> int:
        """The smallest scaled window that covers one RTT of data."""
        target = DELAY_CLASSES[self.delay_class].rtt_s * self.bottleneck_bps / 8
        wscale = 0
        while (BASE_WINDOW << wscale) < target:
            wscale += 1
        return BASE_WINDOW << wscale


def build_scenario(delay_class: str, seed: int = 1, scale: float = 1.0,
                   connections: int | None = None,
                   duration_s: float | None = None,
                   buffers: tuple | None = None) -> Scenario:
    if delay_class not in DELAY_CLASSES:
        raise ValueError(f"unknown delay class {delay_class!r}; "
                         f"choose from {', '.join(DELAY_CLASSES)}")
    duration = DEFAULT_DURATION_S if duration_s is None else duration_s
    # each message starts with its key, through the API and `ubrsim run` alike.
    # A bool is an int to isinstance, but True would reach the row and the
    # seed's text, from which the random streams derive
    for key, value, kinds, phrase in (
            ("seed", seed, (int,), "an integer"),
            ("scale", scale, (int, float), "a number"),
            ("duration_s", duration, (int, float), "a number")):
        if type(value) not in kinds:
            raise ValueError(f"{key} must be {phrase}, got {value!r}")
    if not 0 < scale <= 1:
        raise ValueError(f"scale must be in (0, 1], got {scale}")
    conns = connections if connections is not None else _default_connections(scale)
    if type(conns) is not int:
        raise ValueError(f"connections must be an integer, got {conns!r}")
    # nan and inf pass the one-sided range test below
    if not math.isfinite(duration):
        raise ValueError(f"duration_s must be finite, got {duration}")
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    if conns < 1:
        raise ValueError(f"connections must be at least 1, got {conns}")
    if duration <= 0:
        raise ValueError(f"duration_s must be positive, got {duration}")
    # one rule for given and derived sizes: a tiny scale rounds the half-RTT
    # buffer down to 0 cells, and the message then names the scale
    if buffers is None:
        table = buffer_table(delay_class, scale, conns)
        buffers = tuple(table[level] for level in BUFFER_LEVELS)
        source = f"scale {scale} derives"
    else:
        # `run --buffers` gives a list; a lone size fails the rule below
        buffers = tuple(buffers) if isinstance(buffers, list) else buffers
        source = "got"
    if (type(buffers) is not tuple or len(buffers) != len(BUFFER_LEVELS)
            or not all(type(b) is int and b > 0 for b in buffers)):
        raise ValueError(f"buffers must be {len(BUFFER_LEVELS)} positive "
                         f"buffer sizes in cells, {source} {buffers}")
    return Scenario(delay_class=delay_class, scale=scale, seed=seed,
                    connections=conns, duration_s=duration, buffers=buffers)


@dataclass(frozen=True)
class RunSpec:
    """One cell of the experiment grid."""
    scenario: Scenario
    drop_policy: str
    tcp_flavor: str
    buffer_rtt: str

    @property
    def buffer_cells(self) -> int:
        return self.scenario.buffers[BUFFER_LEVELS.index(self.buffer_rtt)]


def grid(scenario: Scenario) -> list:
    """The 24 grid cells in canonical order: policy, then flavor, then buffer."""
    return [RunSpec(scenario, policy, flavor, level)
            for policy in POLICIES
            for flavor in FLAVORS
            for level in BUFFER_LEVELS]
