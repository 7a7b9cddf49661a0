"""WWW workload: class mix, response sizes, batch timing, offered load."""

import math

import pytest

from oracles import (offered_load_bps, truncated_poisson_cdf,
                     truncated_poisson_mean)
from ubrsim.kernel import RngStream, Simulator, seconds
from ubrsim.www import (BATCH_CDF, BATCH_MAX, BATCH_MEAN, BATCH_MIN,
                        CLASS_BASES, CLASS_CUM, CLASS_FREQS, ClientApp,
                        ServerApp, classify, draw_batch_size,
                        draw_response_bytes)


class FakeTcp:
    """Stands in for a TcpEndpoint: the apps open their streams from its
    `sim` and hand it their writes, which it records with their time."""

    def __init__(self, sim):
        self.sim = sim
        self.app_recv = None
        self.writes = []

    def write(self, n):
        self.writes.append((self.sim.now, n))


def test_class_table_shape():
    assert CLASS_BASES == (100, 1_000, 10_000, 100_000, 1_000_000)
    assert sum(CLASS_FREQS) == pytest.approx(1.0)
    assert CLASS_CUM == pytest.approx((0.20, 0.48, 0.88, 0.992, 1.0))


def test_classify_maps_uniform_draws_to_classes():
    assert classify(0.10) == 0
    assert classify(0.30) == 1
    assert classify(0.50) == 2
    assert classify(0.90) == 3
    assert classify(0.995) == 4
    assert classify(0.9999999) == 4     # clamped to the last class


def test_response_sizes_are_base_times_index():
    # a class-1 draw with index 2 gives 2000 B; class-2 with 9 gives 90 KB
    assert 1_000 * 2 == 2_000
    assert 10_000 * 9 == 90_000
    sizes = {b * i for b in CLASS_BASES for i in range(1, 10)}
    rng = RngStream(9, "file-size:0")
    for _ in range(5_000):
        assert draw_response_bytes(rng) in sizes


def test_mean_response_size_is_117_5_kb():
    # the index 1..9 has mean 5, so the mean is 5 times the class mean
    assert 5 * sum(b * f for b, f in zip(CLASS_BASES, CLASS_FREQS)) \
        == pytest.approx(117_500.0)
    rng = RngStream(4, "file-size:0")
    n = 200_000
    total = sum(draw_response_bytes(rng) for _ in range(n))
    assert total / n == pytest.approx(117_500, abs=2_000)


def test_class_frequencies_match_the_mix():
    rng = RngStream(8, "file-size:0")
    n = 200_000
    counts = [0] * 5
    for _ in range(n):
        size = draw_response_bytes(rng)
        # the size determines its class uniquely: indexes stop at 9, bases
        # are a factor 10 apart, so the largest dividing base is the class
        base = next(b for b in reversed(CLASS_BASES)
                    if size % b == 0 and size // b <= 9)
        counts[CLASS_BASES.index(base)] += 1
    for got, want in zip(counts, CLASS_FREQS):
        assert got / n == pytest.approx(want, abs=0.005)


def test_batch_table_is_the_calibrated_truncated_poisson():
    # bit for bit: repr wrote each float of the table exactly
    oracle = truncated_poisson_cdf(BATCH_MEAN, BATCH_MIN, BATCH_MAX)
    assert [x.hex() for x in BATCH_CDF] == [x.hex() for x in oracle]


def test_truncated_poisson_mean_oracle():
    # conditioning Poisson(5) on [1, 9] pulls the mean below 5
    assert truncated_poisson_mean(5.0, 1, 9) == pytest.approx(4.8464, abs=5e-4)
    # the table's rate is calibrated so the conditional mean is the target
    rng = RngStream(11, "batch")
    n = 200_000
    total = 0
    counts = [0] * 10
    for _ in range(n):
        v = draw_batch_size(rng)
        assert 1 <= v <= 9
        total += v
        counts[v] += 1
    assert total / n == pytest.approx(5.0, abs=0.02)
    # distribution shape must match the calibrated truncated pmf
    lam = 5.200148641
    w = [lam ** k / math.factorial(k) for k in range(1, 10)]
    z = sum(w)
    for k in range(1, 10):
        assert counts[k] / n == pytest.approx(w[k - 1] / z, abs=0.01)


def test_client_batches_follow_the_schedule():
    sim = Simulator(seed=3)
    tcp = FakeTcp(sim)
    ClientApp(tcp, 0, seconds(30.5))
    sim.run_until(seconds(40))
    assert tcp.writes, "no requests issued"
    assert all(n == 128 for _, n in tcp.writes)
    batch_starts = {0, seconds(10), seconds(20), seconds(30)}
    for t, _ in tcp.writes:
        base = (t // seconds(10)) * seconds(10)
        assert base in batch_starts
        gap = t - base
        assert seconds(0.1) <= gap < seconds(0.5)
    # per-batch request counts stay in the truncated range
    for base in batch_starts:
        cnt = sum(1 for t, _ in tcp.writes if base <= t < base + seconds(10))
        assert BATCH_MIN <= cnt <= BATCH_MAX * 1  # one batch per period


def test_no_requests_scheduled_past_duration():
    sim = Simulator(seed=5)
    tcp = FakeTcp(sim)
    ClientApp(tcp, 0, seconds(10))
    sim.run_until(seconds(60))
    assert all(t < seconds(10) for t, _ in tcp.writes)


def test_server_answers_each_complete_request():
    sim = Simulator(seed=2)
    tcp = FakeTcp(sim)
    ServerApp(tcp, 0)
    tcp.app_recv(64)
    assert tcp.writes == []                 # half a request: no response yet
    tcp.app_recv(64)
    assert len(tcp.writes) == 1
    tcp.app_recv(128 * 3)
    assert len(tcp.writes) == 4


def test_client_counts_received_bytes():
    sim = Simulator(seed=6)
    tcp = FakeTcp(sim)
    app = ClientApp(tcp, 0, seconds(1))
    tcp.app_recv(5000)
    tcp.app_recv(1234)
    assert app.bytes_received == 6234


def test_offered_load_hits_the_target_band():
    # 100 clients for 100 s: batches of ~5 responses of ~117.5 KB every 10 s
    for seed in (1, 2, 3):
        bps = offered_load_bps(seed, clients=100, duration_s=100.0)
        assert bps == pytest.approx(48e6, rel=0.10)


def test_offered_load_replays_the_simulators_streams():
    # each request reaches its server at once; at 50.5 s every batch's
    # requests (the last batch starts at 50 s) are answered before the end.
    # At 20.2 s and 50.3 s the end cuts a batch, and a request it cuts off
    # is never sent, so the estimate must not count its response
    for duration_s in (50.5, 20.2, 50.3):
        sim = Simulator(seed=7)
        servers = []
        for c in range(3):
            client, server = FakeTcp(sim), FakeTcp(sim)
            ClientApp(client, c, seconds(duration_s))
            ServerApp(server, c)
            client.write = server.app_recv
            servers.append(server)
        sim.run_until(seconds(duration_s))
        total = sum(n for server in servers for _, n in server.writes)
        assert total * 8.0 / duration_s == offered_load_bps(
            7, clients=3, duration_s=duration_s)
