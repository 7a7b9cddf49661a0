"""Experiment scenarios: orbit delay classes, link rates, windows, buffers.

A scenario fixes everything shared by one 24-cell experiment grid: the
bottleneck and access links, the number of connections, TCP window and
slow-start presets sized to the path, and the three buffer sizes (0.5, 1 and
2 round-trip-times worth of cells).  A `scale` below 1 shrinks connection
count and link rates together: the offered-load-to-capacity ratio holds,
and buffers in cells shrink with the rate.  Frames keep their cell count,
so a scaled buffer holds fewer frames.  That changes results: a scale-1 wan
grid (20 s) averages 0.744 efficiency with the scale-0.1 buffers and 0.962
with its own.
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
ACCESS_PROP_NS = 5 * NS_PER_US
DEFAULT_CONNECTIONS = 100
DEFAULT_DURATION_S = 100.0
BASE_WINDOW = 65_535          # largest window without scaling

POLICIES = (EPD, SD)
BUFFER_LEVELS = ("0.5", "1", "2")


@dataclass(frozen=True)
class DelayClass:
    name: str
    one_way_ms: int           # bottleneck propagation, one direction
    mss: int
    buffer_granule: int       # cells; half-RTT buffer is rounded up to this


DELAY_CLASSES = {
    "wan": DelayClass("wan", 5, 1024, 1),
    "meo": DelayClass("meo", 100, 9180, 5),
    "geo": DelayClass("geo", 275, 9180, 5),
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
    rtt_s = 2 * dc.one_way_ms / 1000.0
    half_cells = _ceil_to(rtt_s / 2 * bw / 8 / CELL_BYTES, dc.buffer_granule)
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
    mss: int
    bottleneck_bps: float
    access_bps: float
    bottleneck_prop_ns: int
    access_prop_ns: int
    init_ssthresh: int
    rcv_wnd: int
    buffers: tuple            # cells, aligned with BUFFER_LEVELS

    def buffer_cells(self, level: str) -> int:
        return self.buffers[BUFFER_LEVELS.index(level)]


def build_scenario(delay_class: str, seed: int = 1, scale: float = 1.0,
                   connections: int | None = None,
                   duration_s: float | None = None,
                   buffers: tuple | None = None) -> Scenario:
    if delay_class not in DELAY_CLASSES:
        raise ValueError(f"unknown delay class {delay_class!r}; "
                         f"choose from {', '.join(DELAY_CLASSES)}")
    # each message starts with its key: config files report that key's line
    if not 0 < scale <= 1:
        raise ValueError(f"scale must be in (0, 1], got {scale}")
    dc = DELAY_CLASSES[delay_class]
    bw = BOTTLENECK_BPS * scale
    conns = connections if connections is not None else _default_connections(scale)
    duration = DEFAULT_DURATION_S if duration_s is None else duration_s
    # nan and inf pass the one-sided range tests below
    for key, value in (("seed", seed), ("connections", conns),
                       ("duration_s", duration)):
        if not math.isfinite(value):
            raise ValueError(f"{key} must be finite, got {value}")
    # bool is an int subclass, but True would reach the row and the seed's
    # text, from which the random streams derive
    for key, value in (("seed", seed), ("connections", conns)):
        if type(value) is not int:
            raise ValueError(f"{key} must be an integer, got {value}")
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    if conns < 1:
        raise ValueError(f"connections must be at least 1, got {conns}")
    if duration <= 0:
        raise ValueError(f"duration_s must be positive, got {duration}")
    rtt_s = 2 * dc.one_way_ms / 1000.0
    ssthresh = initial_ssthresh(rtt_s, bw)
    target = rtt_s * bw / 8
    wscale = 0
    while (BASE_WINDOW << wscale) < target:
        wscale += 1
    if buffers is None:
        table = buffer_table(delay_class, scale, conns)
        buffers = tuple(table[level] for level in BUFFER_LEVELS)
    else:
        buffers = tuple(buffers)
        if len(buffers) != len(BUFFER_LEVELS) or not all(
                type(b) is int and b > 0 for b in buffers):
            raise ValueError(f"buffers must be {len(BUFFER_LEVELS)} positive "
                             f"buffer sizes in cells, got {buffers}")
    return Scenario(
        delay_class=delay_class,
        scale=scale,
        seed=seed,
        connections=conns,
        duration_s=duration,
        mss=dc.mss,
        bottleneck_bps=bw,
        access_bps=ACCESS_BPS * scale,
        bottleneck_prop_ns=dc.one_way_ms * NS_PER_MS,
        access_prop_ns=ACCESS_PROP_NS,
        init_ssthresh=ssthresh,
        rcv_wnd=BASE_WINDOW << wscale,
        buffers=buffers,
    )


@dataclass(frozen=True)
class RunSpec:
    """One cell of the experiment grid."""
    scenario: Scenario
    drop_policy: str
    tcp_flavor: str
    buffer_rtt: str

    @property
    def buffer_cells(self) -> int:
        return self.scenario.buffer_cells(self.buffer_rtt)


def grid(scenario: Scenario) -> list:
    """The 24 grid cells in canonical order: policy, then flavor, then buffer."""
    return [RunSpec(scenario, policy, flavor, level)
            for policy in POLICIES
            for flavor in FLAVORS
            for level in BUFFER_LEVELS]
