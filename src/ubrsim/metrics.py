"""Throughput, efficiency, and fairness metrics for one simulation run.

Efficiency divides the summed per-connection goodput by the best TCP
throughput the bottleneck can carry once ATM framing overhead is paid.
Fairness is Jain's index over the ratio of each connection's goodput to its
max-min fair allocation, where allocations are driven by per-connection
demand (the load each source actually scheduled)."""

from __future__ import annotations

from .aal5 import max_tcp_throughput


class MetricError(ValueError):
    """Raised when a metric is evaluated on inconsistent inputs."""


def max_min_allocation(demands, capacity: float) -> list[float]:
    """Max-min fair shares for `demands` under a shared `capacity`.

    Progressive filling: any source demanding no more than an equal split of
    the remaining capacity gets its full demand; the rest split what is left
    equally, repeated until every source is capped by demand or by share.
    """
    if capacity < 0:
        raise MetricError(f"capacity must be nonnegative, got {capacity}")
    alloc = [0.0] * len(demands)
    active = [i for i, d in enumerate(demands) if d > 0]
    for i, d in enumerate(demands):
        if d < 0:
            raise MetricError(f"demand {i} is negative: {d}")
    remaining = capacity
    while active:
        share = remaining / len(active)
        satisfied = [i for i in active if demands[i] <= share]
        if not satisfied:
            for i in active:
                alloc[i] = share
            break
        for i in satisfied:
            alloc[i] = demands[i]
            remaining -= demands[i]
        active = [i for i in active if demands[i] > share]
    return alloc


def efficiency(throughputs, mss: int, bottleneck_bps: float) -> float:
    """Sum of goodputs over the best possible TCP goodput on the link."""
    cap = max_tcp_throughput(mss, bottleneck_bps)
    total = sum(throughputs)
    return total / cap


def jain_index(ratios) -> float:
    """Jain's fairness index of the given ratios; 1.0 for an empty set."""
    vals = list(ratios)
    if not vals:
        return 1.0
    s = sum(vals)
    sq = sum(v * v for v in vals)
    if sq == 0.0:
        return 1.0
    return (s * s) / (len(vals) * sq)


def fairness(throughputs, demands, mss: int, bottleneck_bps: float) -> float:
    """Jain's index over throughput/fair-share ratios.

    Connections with zero fair share are excluded when they also moved no
    data; a connection with goodput but no allocated share means the demand
    accounting is broken, which is reported rather than masked.  A run in
    which no connection has a share, or none received data, measured
    nothing, and is refused too.
    """
    if len(throughputs) != len(demands):
        raise MetricError("throughputs and demands lengths differ")
    cap = max_tcp_throughput(mss, bottleneck_bps)
    alloc = max_min_allocation(demands, cap)
    ratios = []
    for i, (x, e) in enumerate(zip(throughputs, alloc)):
        if e == 0.0:
            if x > 0.0:
                raise MetricError(
                    f"connection {i} moved {x} bps against a zero fair share")
            continue
        ratios.append(x / e)
    if not ratios:
        raise MetricError("no connection offered any load")
    if not any(ratios):
        raise MetricError("no connection received any data")
    return jain_index(ratios)
