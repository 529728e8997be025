import gc
import math
import random
import weakref
from importlib import resources
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

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

from util import make_net, reference_probe_run

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

    @pytest.mark.parametrize("demand", [0, -2, (3, 1), (0, 2), (1,), (1, 2, 3), (1.0, 2), "1-4"])
    def test_bad_demand_rejected(self, demand):
        with pytest.raises(ValueError, match="demand must be"):
            TrafficConfig(mean_holding=1.0, requests=10, seed=0, demand=demand)

    def test_bad_sd_pairs_rejected(self):
        with pytest.raises(ValueError, match="at least one pair"):
            TrafficConfig(mean_holding=1.0, requests=10, seed=0, sd_pairs=())
        with pytest.raises(ValueError, match="self-pair at 'A'"):
            TrafficConfig(mean_holding=1.0, requests=10, seed=0, sd_pairs=(("A", "B"), ("A", "A")))

    def test_sd_pairs_node_outside_network_named(self):
        traffic = TrafficConfig(mean_holding=1.0, requests=10, seed=0, sd_pairs=(("A", "Z"),))
        with pytest.raises(ValueError, match="sd_pairs node 'Z' is not in the network"):
            run(one_link_net(), traffic, PolicyParams(mode="st", k=1))
        with pytest.raises(ValueError, match="sd_pairs node 'Z' is not in the network"):
            probe_run(one_link_net(), traffic, PolicyParams(mode="st", k=1),
                      probe_demand=(1, 1), probes=1)

    def test_sd_pairs_kept_as_tuples(self):
        # the config keys the draw memo, so it must hash whatever sequence it was given
        traffic = TrafficConfig(mean_holding=1.0, requests=10, seed=0, sd_pairs=[["A", "B"]])
        assert traffic.sd_pairs == (("A", "B"),)
        assert hash(traffic) == hash(
            TrafficConfig(mean_holding=1.0, requests=10, seed=0, sd_pairs=(("A", "B"),))
        )


class TestDraw:
    @pytest.mark.parametrize("demand", [3, (1, 4)])
    def test_prefix_of_full_draw(self, demand):
        # each stream is read in request order, so a shorter draw is a prefix
        traffic = TrafficConfig(mean_holding=30.0, requests=300, seed=7, demand=demand)
        full = sim._draw(US16, traffic)
        assert len(full) == 300
        for n in (0, 1, 57, 299, 300):
            assert sim._draw(US16, traffic, n) == full[:n]

    def test_memo_keeps_one_draw(self):
        net = load_topology(US_TEXT, slots_per_link=16)
        a = TrafficConfig(mean_holding=30.0, requests=100, seed=1, demand=(1, 4))
        b = TrafficConfig(mean_holding=30.0, requests=100, seed=2, demand=(1, 4))
        first = sim._draw_requests(net, a, 100)
        assert sim._draw_requests(net, a, 100) is first
        assert sim._draw_requests(net, a, 60) == first[:60]
        assert sim._draw_requests(net, b, 100) == sim._draw(net, b)
        assert list(net.draw_memo) == [(b, 100)]


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
        # what a plain run admits, decision by decision, up to the arrival the
        # last probe follows (0 + 29 * 10), where the probe run stops
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
        assert len(probed) == 291
        assert probed == plain[:291]
        assert with_probes.probes == 30

    def test_probes_honour_sd_pairs(self):
        # A-B is the only offered pair; probes to unreachable pairs would block
        net = make_net([("A", "B", 100), ("C", "D", 100)], slots=8)
        traffic = TrafficConfig(mean_holding=0.5, requests=200, seed=0, demand=1, sd_pairs=(("A", "B"),))
        pm = probe_run(net, traffic, PolicyParams(mode="pt", k=2), probe_demand=(1, 1), probes=20, spacing=5)
        assert pm == ProbeMetrics(20, 0)

    def test_probe_pairs_come_from_sd_pairs_only(self, monkeypatch):
        # probes draw their pairs from the same table as the background
        pairs = (("Seattle", "Miami"), ("Boston", "Denver"), ("Dallas", "Chicago"))
        traffic = TrafficConfig(mean_holding=10.0, requests=400, seed=3, demand=(1, 4), sd_pairs=pairs)
        probed = []
        plan = sim.assign_spectrum

        def recording(state, routes, req, policy, **kwargs):
            probed.append((req.source, req.destination))
            return plan(state, routes, req, policy, **kwargs)

        monkeypatch.setattr(sim, "assign_spectrum", recording)
        pm = probe_run(US16, traffic, PolicyParams(mode="pt", k=4), probe_demand=(1, 3), probes=30, spacing=5)
        assert pm.probes == len(probed) == 30
        assert set(probed) == set(pairs)

    def test_runs_leave_no_cycles(self):
        # nothing a run keeps on the network refers back to it or forms a
        # cycle, so the network and its memos go with its last reference,
        # without the cycle collector
        net = load_topology(US_TEXT, slots_per_link=16)
        ref = weakref.ref(net)
        traffic = TrafficConfig(mean_holding=20.0, requests=600, seed=2, demand=(1, 4))
        gc.collect()
        gc.disable()
        try:
            run(net, traffic, PolicyParams(mode="pt", k=6, gb=1))
            probe_run(net, traffic, PolicyParams(mode="pt", k=8), probe_demand=(2, 4), probes=20, spacing=10)
            assert net.route_memo and net.bound_memo and net.draw_memo
            del net
            assert ref() is None
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_run_after_probe_run_reuses_routes(self, monkeypatch):
        # routes live on the network: a later run on it enumerates no pair the
        # probe run met, and no pair twice
        net = load_topology(US_TEXT, slots_per_link=16)
        traffic = TrafficConfig(mean_holding=20.0, requests=600, seed=2, demand=(1, 4))
        policy = PolicyParams(mode="pt", k=6, gb=1)
        probe_run(net, traffic, policy, probe_demand=(2, 4), probes=20, spacing=10)
        known = set(net.route_memo)
        calls = []
        start = heuristic._start_search

        def counted(net, source, destination, k):
            calls.append((source, destination))
            return start(net, source, destination, k)

        monkeypatch.setattr(heuristic, "_start_search", counted)
        metrics = run(net, traffic, policy)
        assert metrics.offered > 0
        assert known and not known & set(calls)
        assert len(calls) == len(set(calls))

    def test_probe_arguments_validated(self):
        traffic = TrafficConfig(mean_holding=1.0, requests=10, seed=0)
        policy = PolicyParams(mode="pt", k=2)
        with pytest.raises(ValueError, match="spacing"):
            probe_run(US16, traffic, policy, probe_demand=(1, 1), probes=5, spacing=0)
        with pytest.raises(ValueError, match="probe count"):
            probe_run(US16, traffic, policy, probe_demand=(1, 1), probes=-5)
        for probes in (0, 5):  # checked before a run without probes returns
            with pytest.raises(ValueError, match="probe_demand"):
                probe_run(US16, traffic, policy, probe_demand=(3, 1), probes=probes)
        with pytest.raises(ValueError, match="probe_demand"):
            probe_run(US16, traffic, policy, probe_demand=(0, 2), probes=5)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        requests=st.integers(1, 150),
        spacing=st.integers(1, 25),
        probes=st.integers(0, 20),  # from none to more than the background holds
        warmup_frac=st.floats(0.0, 0.5),
        sd_pairs=st.sampled_from([None, (("Seattle", "Miami"), ("Boston", "Denver"))]),
    )
    def test_stops_at_last_probe(self, seed, requests, spacing, probes, warmup_frac, sd_pairs):
        # the probe run serves the background up to the arrival its last probe
        # follows, and returns what a run of the whole background returns
        traffic = TrafficConfig(
            mean_holding=40.0, requests=requests, seed=seed, demand=(1, 4),
            warmup_frac=warmup_frac, sd_pairs=sd_pairs,
        )
        policy = PolicyParams(mode="pt", k=6, gb=1)
        kwargs = dict(probe_demand=(4, 6), probes=probes, spacing=spacing)
        warmup = int(requests * warmup_frac)
        stop = min(requests, warmup + (probes - 1) * spacing + 1) if probes else 0
        with mock.patch.object(sim, "serve", wraps=sim.serve) as served:
            pm = probe_run(US16, traffic, policy, **kwargs)
        assert served.call_count == stop
        assert pm == reference_probe_run(US16, traffic, policy, **kwargs)


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
