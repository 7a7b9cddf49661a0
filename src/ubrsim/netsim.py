"""Topology wiring and execution of one experiment cell.

Each of N connections is a WWW client behind one switch and a server behind
the other.  Server responses cross the server access link, the forward
bottleneck port, and the client access link; requests and ACKs take the
mirrored reverse path through their own bottleneck port.  Both bottleneck
ports run the cell rate, buffer size, and drop policy under test; access
links are overprovisioned and lossless.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

from .aal5 import Reassembler, Segment, segment_to_cells
from .kernel import Simulator, seconds
from .metrics import efficiency, fairness
from .scenarios import RunSpec
from .switchport import EgressLink, IngressLink, PolicyPort
from .tcp import TcpEndpoint
from .www import ClientApp, ServerApp


@dataclass
class RunResult:
    delay_class: str
    drop_policy: str
    tcp_flavor: str
    buffer_rtt: str
    buffer_cells: int
    seed: int
    scale: float
    connections: int
    duration_s: float
    efficiency: float
    fairness: float
    goodput_bps: float
    offered_bps: float
    cells_in: int
    cells_out: int
    cells_dropped: int
    rev_cells_dropped: int
    frames_corrupt: int
    timeouts: int
    fast_recoveries: int
    rexmit_segs: int
    events: int
    status: str = "ok"
    drop_logs: dict | None = field(default=None, repr=False)
    traceback: str = field(default="", repr=False)  # of a crashed cell


# a results row holds every field that repr shows, in field order
CSV_COLUMNS = tuple(f.name for f in fields(RunResult) if f.repr)


def _make_transmit(vc: int, ingress: IngressLink):
    def transmit(seg: Segment):
        ingress.offer_frame(segment_to_cells(vc, seg))

    return transmit


class Topology:
    """All simulation objects for one cell, kept alive together."""

    def __init__(self, spec: RunSpec, log_drops: bool = False):
        sc = spec.scenario
        self.spec = spec
        self.sim = Simulator(seed=sc.seed)
        n = sc.connections
        self.forward, self.reverse = (
            PolicyPort(self.sim, name, sc.bottleneck_bps, spec.buffer_cells,
                       spec.drop_policy, n, log_drops=log_drops)
            for name in ("forward", "reverse"))
        duration_ns = seconds(sc.duration_s)
        presets = (sc.mss, sc.rcv_wnd, sc.init_ssthresh)
        self.servers: list[TcpEndpoint] = []
        self.clients: list[TcpEndpoint] = []
        self.client_apps: list[ClientApp] = []
        for c in range(n):
            server, client = (TcpEndpoint(self.sim, spec.tcp_flavor, *presets, None)
                              for _ in range(2))
            # the server sends via the forward port, the client via the reverse
            for port, sender, receiver in ((self.forward, server, client),
                                           (self.reverse, client, server)):
                ingress = IngressLink(self.sim, port, sc.access_bps,
                                      sc.access_prop_ns)
                sender.transmit = _make_transmit(c, ingress)
                port.egress[c] = EgressLink(
                    self.sim, sc.access_bps, sc.bottleneck_prop_ns,
                    sc.access_prop_ns, Reassembler(), receiver.on_frame)
            self.client_apps.append(ClientApp(client, c, duration_ns))
            ServerApp(server, c)  # lives on as server.app_recv
            self.servers.append(server)
            self.clients.append(client)

    def run(self) -> RunResult:
        sc = self.spec.scenario
        end = seconds(sc.duration_s)
        self.sim.run_until(end)
        for port in (self.forward, self.reverse):
            port.catch_up(end)
            broken = port.broken_invariant()
            if broken:
                raise RuntimeError(
                    f"invariant {broken} violated on {port.name} port: "
                    f"in={port.cells_in} out={port.cells_out} "
                    f"dropped={port.cells_dropped} queued={port.occupancy}")
        for c, (cl, sv, app) in enumerate(
                zip(self.clients, self.servers, self.client_apps)):
            broken = broken_connection_invariant(cl, sv, app)
            if broken:
                raise RuntimeError(
                    f"invariant {broken} violated on connection {c}: "
                    f"client {cl.state()}, server {sv.state()}, "
                    f"bytes_received={app.bytes_received}")
        goodputs = [cl.rcv_nxt * 8.0 / sc.duration_s for cl in self.clients]
        demands = [sv.app_bytes * 8.0 / sc.duration_s for sv in self.servers]
        eff = efficiency(goodputs, sc.mss, sc.bottleneck_bps)
        fair = fairness(goodputs, demands, sc.mss, sc.bottleneck_bps)
        ends = self.servers + self.clients
        drop_logs = None
        if self.forward.drop_log is not None:
            drop_logs = {"forward": self.forward.drop_log,
                         "reverse": self.reverse.drop_log}
        return RunResult(
            **row_identity(self.spec),
            efficiency=eff,
            fairness=fair,
            goodput_bps=sum(goodputs),
            offered_bps=sum(demands),
            cells_in=self.forward.cells_in,
            cells_out=self.forward.cells_out,
            cells_dropped=self.forward.cells_dropped,
            rev_cells_dropped=self.reverse.cells_dropped,
            frames_corrupt=sum(e.reasm.frames_corrupt for e in self.forward.egress),
            timeouts=sum(e.timeouts for e in ends),
            fast_recoveries=sum(e.fast_recoveries for e in ends),
            rexmit_segs=sum(e.rexmit_segs for e in ends),
            events=self.sim.events_processed,
            drop_logs=drop_logs,
        )

    def close(self) -> None:
        """Break the cell's reference cycles so that refcounting frees it."""
        self.sim.clear()
        self.forward.egress = self.reverse.egress = None
        for ep in self.servers + self.clients:
            ep.app_recv = ep.timer = None


def broken_connection_invariant(client: TcpEndpoint, server: TcpEndpoint,
                                client_app: ClientApp) -> str | None:
    """Name of the first TCP run-end invariant of a connection that fails:
    the checks across its endpoints, then each endpoint's own."""
    checks = (
        ("client rcv_nxt <= server snd_nxt <= server app_bytes",
         client.rcv_nxt <= server.snd_nxt <= server.app_bytes),
        ("server rcv_nxt <= client snd_nxt <= client app_bytes",
         server.rcv_nxt <= client.snd_nxt <= client.app_bytes),
        ("bytes_received == client rcv_nxt",
         client_app.bytes_received == client.rcv_nxt))
    broken = next((name for name, ok in checks if not ok), None)
    return broken or client.broken_invariant() or server.broken_invariant()


def row_identity(spec: RunSpec) -> dict:
    """The columns that name a cell's row, delay_class through duration_s."""
    sc = spec.scenario
    return dict(delay_class=sc.delay_class, drop_policy=spec.drop_policy,
                tcp_flavor=spec.tcp_flavor, buffer_rtt=spec.buffer_rtt,
                buffer_cells=spec.buffer_cells, seed=sc.seed, scale=sc.scale,
                connections=sc.connections, duration_s=sc.duration_s)


def run_cell(spec: RunSpec, log_drops: bool = False) -> RunResult:
    """Build and run one grid cell to completion."""
    topo = Topology(spec, log_drops=log_drops)
    try:
        return topo.run()
    finally:
        topo.close()
