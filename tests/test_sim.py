import math
import random
from importlib import resources

import pytest

from flexrsa import heuristic, sim
from flexrsa.heuristic import PolicyParams, Request, serve
from flexrsa.sim import (
    Metrics,
    ProbeMetrics,
    TrafficConfig,
    distribution_csv,
    interval,
    metrics_csv,
    probe_csv,
    probe_run,
    run,
)
from flexrsa.spectrum import SpectrumState
from flexrsa.topology import load_topology

from util import make_net

US_TEXT = resources.files("flexrsa").joinpath("data/us_backbone.txt").read_text()
US16 = load_topology(US_TEXT, slots_per_link=16)


def one_link_net(slots=8):
    return make_net([("A", "B", 100)], slots=slots)


def erlang_b(servers: int, load: float) -> float:
    b = 1.0
    for m in range(1, servers + 1):
        b = load * b / (m + load * b)
    return b


class TestRun:
    def test_single_feasible_request_never_blocks(self):
        net = one_link_net()
        traffic = TrafficConfig(
            mean_holding=1.0, requests=1, seed=0, demand=4,
            warmup_frac=0.0, sd_pairs=(("A", "B"),),
        )
        m = run(net, traffic, PolicyParams(mode="st", k=1))
        assert m.offered == 1 and m.blocked == 0

    def test_erlang_b_limit(self):
        # one direction at rho = 1: loss B(1,1) = 1/2
        net = one_link_net(slots=8)
        policy = PolicyParams(mode="st", k=1, gb=0)
        probs = []
        for seed in range(3):
            traffic = TrafficConfig(
                mean_holding=1.0, requests=6000, seed=seed, demand=8,
                warmup_frac=0.1, sd_pairs=(("A", "B"),),
            )
            probs.append(run(net, traffic, policy).blocking_prob)
        mean = sum(probs) / len(probs)
        assert abs(mean - erlang_b(1, 1.0)) < 0.03

    def test_seed_determinism(self):
        traffic = TrafficConfig(mean_holding=30.0, requests=800, seed=5, demand=(1, 4))
        policy = PolicyParams(mode="pt", k=6, gb=1)
        a = run(US16, traffic, policy)
        b = run(US16, traffic, policy)
        assert (a.offered, a.blocked, a.served) == (b.offered, b.blocked, b.served)
        assert a.path_histogram == b.path_histogram

    def test_conservation_and_histogram(self):
        traffic = TrafficConfig(mean_holding=40.0, requests=1200, seed=2, demand=(2, 6))
        m = run(US16, traffic, PolicyParams(mode="pt", k=8))
        assert m.offered == m.served + m.blocked
        assert sum(m.path_histogram.values()) == m.served
        assert 0.0 <= m.blocking_prob <= 1.0
        agg = m.aggregation_ratio
        assert agg == pytest.approx(
            sum(v for k_, v in m.path_histogram.items() if k_ >= 2) / m.served
        )

    def test_audit_mode(self):
        traffic = TrafficConfig(mean_holding=25.0, requests=300, seed=3, demand=(1, 4))
        m = run(US16, traffic, PolicyParams(mode="pt", k=5, gb=1), audit=True)
        assert m.offered > 0

    def test_different_seeds_differ(self):
        t1 = TrafficConfig(mean_holding=40.0, requests=1500, seed=1, demand=(1, 6))
        t2 = TrafficConfig(mean_holding=40.0, requests=1500, seed=2, demand=(1, 6))
        policy = PolicyParams(mode="pt", k=6)
        assert run(US16, t1, policy).blocked != run(US16, t2, policy).blocked

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrafficConfig(mean_holding=0.0, requests=10, seed=0)
        with pytest.raises(ValueError):
            TrafficConfig(mean_holding=1.0, requests=0, seed=0)
        with pytest.raises(ValueError):
            TrafficConfig(mean_holding=1.0, requests=10, seed=0, warmup_frac=1.0)


class TestGuardBandMonotonicity:
    def test_placement_feasible_at_gb3_feasible_at_gb0(self):
        rng = random.Random(13)
        state = SpectrumState(US16)
        for trial in range(150):
            src, dst = rng.sample(US16.nodes, 2)
            req = Request(src, dst, rng.randint(1, 5))
            sol3 = serve(state.copy(), US16, req, PolicyParams(mode="pt", k=6, gb=3))
            if sol3 is not None:
                # the same placement must be allocatable under gb=0
                clone = state.copy()
                for band in sol3.paths:
                    clone.allocate(band.arcs, band.range, 0)
                sol0 = serve(state.copy(), US16, req, PolicyParams(mode="pt", k=6, gb=0))
                assert sol0 is not None
            serve(state, US16, req, PolicyParams(mode="pt", k=6, gb=3))


class TestReplicate:
    """Seed replication: the 95% t interval over per-seed values."""

    def test_identical_runs_zero_width(self):
        traffic = TrafficConfig(mean_holding=30.0, requests=500, seed=9, demand=(1, 4))
        policy = PolicyParams(mode="pt", k=5)
        runs = [run(US16, traffic, policy) for _ in range(5)]
        assert interval([m.blocking_prob for m in runs])[1] == 0.0
        assert interval([m.aggregation_ratio for m in runs])[1] == 0.0

    def test_erlang_interval_contains_half(self):
        net = one_link_net(slots=4)
        policy = PolicyParams(mode="st", k=1)

        def one(seed: int) -> Metrics:
            traffic = TrafficConfig(
                mean_holding=1.0, requests=4000, seed=seed, demand=4,
                warmup_frac=0.1, sd_pairs=(("A", "B"),),
            )
            return run(net, traffic, policy)

        mean, half = interval([one(seed).blocking_prob for seed in range(5)])
        assert mean - half <= 0.5 <= mean + half

    def test_needs_two_seeds(self):
        with pytest.raises(ValueError):
            interval([0.25])

    def test_two_seeds_use_one_degree_of_freedom(self):
        runs = [
            Metrics(offered=10, blocked=1, served=9, path_histogram={1: 9}),
            Metrics(offered=10, blocked=3, served=7, path_histogram={1: 4, 2: 3}),
        ]
        t975 = math.tan(0.475 * math.pi)  # Cauchy = Student-t with one degree of freedom
        # two values v0, v1 give sqrt(var / n) = |v1 - v0| / 2
        mean, half = interval([m.blocking_prob for m in runs])
        assert mean == pytest.approx(0.2)
        assert half == pytest.approx(t975 * 0.1, rel=1e-12)
        mean, half = interval([m.aggregation_ratio for m in runs])
        assert mean == pytest.approx(3 / 14)
        assert half == pytest.approx(t975 * 3 / 14, rel=1e-12)


class TestTQuantile:
    def test_matches_scipy(self):
        from scipy import stats

        dfs = [*range(1, 1001), 10**4, 10**5]
        for df, ref in zip(dfs, stats.t.ppf(0.975, dfs)):
            assert sim._t_quantile(0.975, df) == pytest.approx(ref, rel=1e-10, abs=0), df

    def test_closed_forms(self):
        assert sim._t_quantile(0.975, 1) == pytest.approx(math.tan(0.475 * math.pi), rel=1e-12)
        q = 2 * 0.975 - 1
        assert sim._t_quantile(0.975, 2) == pytest.approx(q * math.sqrt(2 / (1 - q * q)), rel=1e-12)


class TestProbe:
    def test_probe_deterministic_and_bounded(self):
        traffic = TrafficConfig(mean_holding=30.0, requests=1500, seed=4, demand=(1, 4), warmup_frac=0.2)
        policy = PolicyParams(mode="pt", k=8, gb=1)
        pm1 = probe_run(US16, traffic, policy, probe_demand=(4, 6), probes=40, spacing=20)
        pm2 = probe_run(US16, traffic, policy, probe_demand=(4, 6), probes=40, spacing=20)
        assert pm1 == pm2
        assert pm1.probes == 40
        assert 0 <= pm1.blocked <= pm1.probes

    def test_probes_do_not_mutate_outcome(self, monkeypatch):
        # probes are planned, never allocated: the background admits exactly
        # what a plain run admits, decision by decision
        traffic = TrafficConfig(mean_holding=30.0, requests=1000, seed=6, demand=(1, 4), warmup_frac=0.0)
        policy = PolicyParams(mode="pt", k=6)

        def recording(log):
            def recorded(*args, **kwargs):
                solution = serve(*args, **kwargs)
                log.append(None if solution is None else tuple(
                    (tuple(a.id for a in band.arcs), band.range) for band in solution.paths
                ))
                return solution
            return recorded

        plain, probed = [], []
        monkeypatch.setattr(sim, "serve", recording(plain))
        run(US16, traffic, policy)
        monkeypatch.setattr(sim, "serve", recording(probed))
        with_probes = probe_run(US16, traffic, policy, probe_demand=(4, 6), probes=30, spacing=10)
        assert len(plain) == traffic.requests
        assert probed == plain
        assert with_probes.probes == 30

    def test_probes_honour_sd_pairs(self):
        # A-B is the only offered pair; probes to unreachable pairs would block
        net = make_net([("A", "B", 100), ("C", "D", 100)], slots=8)
        traffic = TrafficConfig(mean_holding=0.5, requests=200, seed=0, demand=1, sd_pairs=(("A", "B"),))
        pm = probe_run(net, traffic, PolicyParams(mode="pt", k=2), probe_demand=(1, 1), probes=20, spacing=5)
        assert pm == ProbeMetrics(20, 0)

    def test_run_after_probe_run_reuses_routes(self, monkeypatch):
        # routes live on the network: a second run on it enumerates nothing
        net = load_topology(US_TEXT, slots_per_link=16)
        traffic = TrafficConfig(mean_holding=20.0, requests=600, seed=2, demand=(1, 4))
        policy = PolicyParams(mode="pt", k=6, gb=1)
        probe_run(net, traffic, policy, probe_demand=(2, 4), probes=20, spacing=10)
        calls = []
        enumerate_paths = heuristic.compute_fiber_paths

        def counted(*args, **kwargs):
            calls.append(args[1:4])
            return enumerate_paths(*args, **kwargs)

        monkeypatch.setattr(heuristic, "compute_fiber_paths", counted)
        metrics = run(net, traffic, policy)
        assert metrics.offered > 0
        assert calls == []

    def test_probe_arguments_validated(self):
        traffic = TrafficConfig(mean_holding=1.0, requests=10, seed=0)
        policy = PolicyParams(mode="pt", k=2)
        with pytest.raises(ValueError, match="spacing"):
            probe_run(US16, traffic, policy, probe_demand=(1, 1), probes=5, spacing=0)
        with pytest.raises(ValueError, match="probe count"):
            probe_run(US16, traffic, policy, probe_demand=(1, 1), probes=-5)


class TestCsv:
    def entries(self):
        traffic = TrafficConfig(mean_holding=30.0, requests=400, seed=1, demand=(1, 4))
        policy = PolicyParams(mode="pt", k=5)
        m = run(US16, traffic, policy)
        params = {"load": 30.0, "policy": "pt1", "m_us": 128000.0, "k": 5, "gb": 0,
                  "tr": "1-4", "seed": 1}
        return [(params, m)]

    def test_metrics_csv_shape(self):
        text = metrics_csv(self.entries())
        lines = text.strip().splitlines()
        header = lines[0].split(",")
        assert header[:7] == ["load", "policy", "m_us", "k", "gb", "tr", "seed"]
        assert "blocking_prob" in header and "hist_1" in header
        assert len(lines) == 2

    def test_distribution_csv_totals(self):
        entries = self.entries()
        text = distribution_csv(entries)
        lines = text.strip().splitlines()[1:]
        total = sum(int(line.split(",")[-1]) for line in lines)
        assert total == entries[0][1].served

    def test_probe_csv_header(self):
        params = {"load": 30.0, "policy": "pt1", "m_us": 128000.0, "k": 10, "gb": 1,
                  "bg_tr": "1-4", "probe_tr": "4-6", "seed": 0}
        text = probe_csv([(params, ProbeMetrics(50, 7))])
        lines = text.strip().splitlines()
        assert lines[0].split(",")[-1] == "probe_blocking"
        assert lines[1].endswith("0.140000")

    def test_csv_byte_determinism(self):
        assert metrics_csv(self.entries()) == metrics_csv(self.entries())
