"""The four benchmark workloads.

Each workload is built from the benchmark seed alone.  Its constructor is
the set-up (everything before the first timed call except imports);
``unit`` performs one fixed, deterministic unit of work and returns its
operation count, per-operation latencies and a fingerprint of its outputs;
``legality`` runs untimed invariant checks.  Every unit of one run does the
same work, so every unit must return the same fingerprint.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import heapq
import io
import os
import random
import time
from dataclasses import dataclass, field
from importlib import resources
from itertools import permutations

from flexrsa import cli, crossval, heuristic, ilp, sim
from flexrsa.heuristic import PolicyParams, Request, release_solution
from flexrsa.physics import FiberParams
from flexrsa.spectrum import SpectrumError, SpectrumState
from flexrsa.topology import load_topology

M_128MS_PS = 128_000_000_000


@dataclass
class UnitResult:
    ops: int
    latencies_s: list[float]
    fingerprint: dict
    failures: list[str] = field(default_factory=list)
    rates: dict[str, float] = field(default_factory=dict)  # named per-unit rates, 1/s


class Workload:
    name = ""
    op = ""  # what one operation is
    alias: dict[str, str] = {}  # end-to-end metric -> the workload's own name for it, printed
    unit_alias: str | None = None  # name for the wall time of one unit, if it has one
    ops_per_unit = 0

    def time_ops(self):
        """Start timing each operation; only untraced runs call this."""

    def prepare(self):
        """Untimed work between set-up and the first timed unit."""

    def legality(self, fingerprint: dict) -> tuple[int, list[str]]:
        """Untimed invariant checks: (checks made, failures)."""
        return 0, []


def _us_text() -> str:
    return resources.files("flexrsa").joinpath("data/us_backbone.txt").read_text()


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run_cli(argv: list[str]) -> int:
    """``cli.main`` in-process, its summary table kept off our output."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def _time_calls(module, attr: str, sink):
    """Rebind ``module.attr`` to a wrapper that passes each call's duration to ``sink``."""
    fn = getattr(module, attr)
    perf = time.perf_counter

    def timed(*args, **kwargs):
        t0 = perf()
        try:
            return fn(*args, **kwargs)
        finally:
            sink(perf() - t0)

    setattr(module, attr, timed)


class SimUS128(Workload):
    """``flexrsa simulate`` through ``cli.main``: the paper's blocking-vs-load cell."""

    name = "sim_us128"
    op = "offered request, served by the event loop of sim.run"
    alias = {"ops_per_s": "sim_req_per_s"}
    requests = 8_000
    policies = "st,pt1"
    audit_requests = 300  # legality prefix per policy; ledger audit after every admission

    def __init__(self, seed: int, out_dir: str):
        self.seed = seed
        self.out_dir = out_dir
        self.ops_per_unit = 2 * self.requests
        self.argv = [
            "simulate", "--topology", "us", "--slots", "128", "--mode", self.policies,
            "--k", "30", "--gb", "0", "--tr", "10", "--load", "120",
            "--seeds", f"{seed}..{seed}", "--requests", str(self.requests),
            "--jobs", "1", "--out", out_dir,
        ]
        self._lat: list[float] = []

    def time_ops(self):
        """Time every ``serve`` call that the event loop makes."""
        _time_calls(sim, "serve", self._lat.append)

    def unit(self) -> UnitResult:
        self._lat.clear()
        rc = _run_cli(self.argv)
        lat = list(self._lat)
        if rc != 0:
            return UnitResult(self.ops_per_unit, lat, {}, [f"cli.main returned {rc}"])
        with open(os.path.join(self.out_dir, "metrics.csv"), "rb") as fh:
            metrics = fh.read()
        with open(os.path.join(self.out_dir, "path_dist.csv"), "rb") as fh:
            dist = fh.read()
        rows = list(csv.DictReader(io.StringIO(metrics.decode())))
        fp = {
            "metrics_csv_sha256": _sha(metrics),
            "path_dist_csv_sha256": _sha(dist),
            "blocked": {r["policy"]: int(r["blocked"]) for r in rows},
            "served": {r["policy"]: int(r["offered"]) - int(r["blocked"]) for r in rows},
            "bands": {
                r["policy"]: [int(v) for k, v in r.items() if k.startswith("hist_")] for r in rows
            },
        }
        return UnitResult(self.ops_per_unit, lat, fp)

    def legality(self, fingerprint: dict) -> tuple[int, list[str]]:
        """A short audited prefix of the same cell: ledger audit on every admission."""
        net = load_topology(_us_text(), slots_per_link=128)
        traffic = sim.TrafficConfig(
            mean_holding=120.0, requests=self.audit_requests, seed=self.seed, demand=10
        )
        failures = []
        for mode in ("st", "pt"):
            policy = PolicyParams(mode=mode, k=30, gb=0, max_dd_ps=M_128MS_PS)
            try:
                sim.run(net, traffic, policy, FiberParams(), audit=True)
            except (sim.SimError, SpectrumError) as exc:
                failures.append(f"audited {mode} prefix: {exc}")
        return 2, failures


class ProbeUS16(Workload):
    """``flexrsa probe`` through ``cli.main`` with the cells of acceptance test 08."""

    name = "probe_us16"
    op = "probe-grid cell: background simulation with its probes planned against the live ledger"
    unit_alias = "probe_grid_s"
    probes = 60
    seeds_per_unit = 2

    def __init__(self, seed: int, out_dir: str):
        self.out_dir = out_dir
        self.ops_per_unit = 2 * self.seeds_per_unit  # K in {10, 40}
        first = seed * self.seeds_per_unit
        self.argv = [
            "probe", "--topology", "us", "--slots", "16", "--mode", "pt", "--k", "10,40",
            "--gb", "1", "--load", "40", "--bg-tr", "1-4", "--probe-tr", "4-6",
            "--warmup", "0.3", "--probes", str(self.probes), "--spacing", "20",
            "--seeds", f"{first}..{first + self.seeds_per_unit - 1}",
            "--requests", "4000", "--jobs", "1", "--out", out_dir,
        ]
        self._lat: list[float] = []

    def time_ops(self):
        """Time each grid cell: one ``probe_run`` as ``cli`` calls it."""
        _time_calls(sim, "probe_run", self._lat.append)

    def unit(self) -> UnitResult:
        self._lat.clear()
        rc = _run_cli(self.argv)
        lat = list(self._lat)
        if rc != 0:
            return UnitResult(self.ops_per_unit, lat, {}, [f"cli.main returned {rc}"])
        with open(os.path.join(self.out_dir, "probe.csv"), "rb") as fh:
            probe = fh.read()
        rows = list(csv.DictReader(io.StringIO(probe.decode())))
        fp = {
            "probe_csv_sha256": _sha(probe),
            "probe_blocked": [f"k{r['k']}/s{r['seed']}:{r['probe_blocked']}" for r in rows],
        }
        failures = []
        if len(rows) != self.ops_per_unit or any(int(r["probes"]) != self.probes for r in rows):
            failures.append(f"probe.csv has other cells or probe counts than {self.argv}")
        return UnitResult(self.ops_per_unit, lat, fp, failures)


class OnlineUS128(Workload):
    """Controller mode: one caller, one ledger, ``serve`` per arriving request.

    Set-up pre-fills the route cache for all ordered pairs and draws the
    request stream.  A warm-up from the empty ledger brings it to steady
    state; that ledger is the snapshot every unit starts from, so each unit
    replays the same decisions.
    """

    name = "online_us128"
    op = "serve decision (route lookup, spectrum plan, allocation)"
    alias = {"ops_per_s": "online_req_per_s", "op_us_p50": "serve_us_p50", "op_us_p99": "serve_us_p99"}
    load = 150.0
    warmup = 1_500
    decisions = 6_000
    audit_every = 500

    def __init__(self, seed: int, out_dir: str):
        self.ops_per_unit = self.decisions
        self.net = load_topology(_us_text(), slots_per_link=128)
        self.policy = PolicyParams(mode="pt", k=30, gb=1, max_dd_ps=M_128MS_PS)
        self.fiber = FiberParams()
        pairs = list(permutations(self.net.nodes, 2))
        self.path_cache = {
            (src, dst, self.policy.k): heuristic.compute_fiber_paths(self.net, src, dst, self.policy.k)
            for src, dst in pairs
        }
        rng = random.Random(f"{seed}/online")
        t = 0.0
        self.requests = []
        for _ in range(self.warmup + self.decisions):
            t += rng.expovariate(1.0)
            src, dst = pairs[rng.randrange(len(pairs))]
            self.requests.append(
                Request(src, dst, rng.randint(1, 16), arrival=t, holding=rng.expovariate(1.0 / self.load))
            )
        self._snapshot: tuple = ()

    def prepare(self):
        state = SpectrumState(self.net)
        departures: list = []
        self._replay(state, departures, self.requests[: self.warmup], 0, None)
        self._snapshot = (state, departures)

    def _replay(self, state, departures, requests, first_index, lat, audit=None):
        perf = time.perf_counter
        net, policy, fiber, cache = self.net, self.policy, self.fiber, self.path_cache
        serve = heuristic.serve
        out = []
        for i, req in enumerate(requests, start=first_index):
            while departures and departures[0][0] <= req.arrival:
                release_solution(state, heapq.heappop(departures)[2])
            t0 = perf()
            solution = serve(state, net, req, policy, fiber_params=fiber, path_cache=cache)
            if lat is not None:
                lat.append(perf() - t0)
            out.append(solution)
            if solution is not None:
                heapq.heappush(departures, (req.arrival + req.holding, i, solution))
            if audit is not None:
                audit(i, solution, state)
        return out

    def _start(self):
        state, departures = self._snapshot
        return state.copy(), list(departures)

    def unit(self) -> UnitResult:
        state, departures = self._start()
        lat: list[float] = []
        solutions = self._replay(state, departures, self.requests[self.warmup :], self.warmup, lat)
        return UnitResult(self.ops_per_unit, lat, self._fingerprint(solutions))

    @staticmethod
    def _fingerprint(solutions) -> dict:
        bands: dict[int, int] = {}
        digest = hashlib.sha256()
        for sol in solutions:
            if sol is None:
                digest.update(b"-;")
                continue
            bands[len(sol.paths)] = bands.get(len(sol.paths), 0) + 1
            digest.update(
                ";".join(
                    f"{'-'.join(str(a.id) for a in p.arcs)}/{p.range.start}+{p.range.length}" for p in sol.paths
                ).encode()
            )
            digest.update(b";")
        served = sum(bands.values())
        return {
            "served": served,
            "blocked": len(solutions) - served,
            "bands": {str(k): bands[k] for k in sorted(bands)},
            "decisions_sha256": digest.hexdigest(),
        }

    def legality(self, fingerprint: dict) -> tuple[int, list[str]]:
        """Replay one unit with a ledger audit every Nth decision and the
        delay bound checked on every multi-band admission."""
        failures: list[str] = []
        checks = 0

        def audit(i, solution, state):
            nonlocal checks
            if solution is not None and len(solution.paths) > 1:
                checks += 1
                if solution.delay_spread_ps > self.policy.max_dd_ps:
                    failures.append(f"decision {i}: delay spread {solution.delay_spread_ps} ps over M")
            if (i - self.warmup) % self.audit_every == 0:
                checks += 1
                try:
                    state.audit(self.policy.gb)
                except SpectrumError as exc:
                    failures.append(f"decision {i}: ledger audit: {exc}")

        state, departures = self._start()
        solutions = self._replay(state, departures, self.requests[self.warmup :], self.warmup, None, audit)
        checks += 1
        if self._fingerprint(solutions) != fingerprint:
            failures.append("audited replay made other decisions than the timed units")
        return checks, failures


class ModelCheck(Workload):
    """ILP model round trip and the oracle/heuristic/checker cross-validation.

    Items are US-backbone ILP models (|F|=16, |P|=4) and toy cross-validation
    instances.  Their shapes are fixed: the same four US pairs and the same
    toy instances for every seed, because item size varies several-fold and
    would otherwise set the spread between seeds.  The seed draws the live
    background the models are built on and each model's demand.
    """

    name = "model_check"
    op = "model-check item: one US ILP model round trip, or one cross-validation instance"
    slots = 16
    paths = 4
    models = 4
    instances = 24
    background = 12

    def __init__(self, seed: int, out_dir: str):
        self.ops_per_unit = self.models + self.instances
        self.net = load_topology(_us_text(), slots_per_link=self.slots)
        self.fiber = FiberParams()
        pairs = list(permutations(self.net.nodes, 2))
        fixed = random.Random("model-check/shapes")
        chosen = fixed.sample(pairs, self.models)
        self.cv_seeds = [fixed.randrange(2**31) for _ in range(self.instances)]
        rng = random.Random(f"{seed}/model-check")
        self.state = SpectrumState(self.net)
        bg_policy = PolicyParams(mode="pt", k=self.paths, gb=1, max_dd_ps=M_128MS_PS)
        for _ in range(self.background):
            src, dst = pairs[rng.randrange(len(pairs))]
            heuristic.serve(self.state, self.net, Request(src, dst, rng.randint(1, 4)), bg_policy)
        self.occupied = self.state.occupied_by_arc()
        self.cases = [
            (src, dst, rng.randint(1, 3), heuristic.compute_fiber_paths(self.net, src, dst, self.paths))
            for src, dst in chosen
        ]
        self.plan_policy = PolicyParams(mode="st", k=self.paths, gb=1, max_dd_ps=M_128MS_PS)

    def _model_item(self, src, dst, demand, routes) -> tuple[bytes, dict, list[str]]:
        model = ilp.build_model(
            self.net, src, dst, demand, routes, slots=self.slots, gb=1,
            max_dd_ps=M_128MS_PS, fiber_params=self.fiber, occupied=self.occupied,
        )
        text = ilp.export_lp(model)
        failures = []
        if ilp.parse_lp(text) != model:
            failures.append(f"LP round trip changed the model for {src}->{dst}")
        plan = heuristic.assign_spectrum(self.state, routes, Request(src, dst, demand), self.plan_policy)
        summary = {"vars": len(model.variables), "rows": len(model.constraints), "plan": None}
        if plan is not None:
            band = plan.paths[0]
            bands = [None] * len(routes)
            bands[next(i for i, r in enumerate(routes) if r.arcs == band.arcs)] = band.range
            violations = ilp.check_assignment(model, ilp.assignment_from_bands(model, bands))
            if violations:
                failures.append(f"heuristic plan for {src}->{dst} violates {violations[:3]}")
            summary["plan"] = [band.range.start, band.range.length]
        return text.encode(), summary, failures

    def unit(self) -> UnitResult:
        perf = time.perf_counter
        ilp_s: list[float] = []
        cv_s: list[float] = []
        digest = hashlib.sha256()
        models = []
        failures: list[str] = []
        for case in self.cases:
            t0 = perf()
            text, summary, bad = self._model_item(*case)
            ilp_s.append(perf() - t0)
            digest.update(text)
            models.append(summary)
            failures.extend(bad)
        cv_failures = 0
        for cv_seed in self.cv_seeds:
            t0 = perf()
            bad = crossval.cross_validate(cv_seed, 1)
            cv_s.append(perf() - t0)
            cv_failures += len(bad)
            failures.extend(f"crossval seed {cv_seed}: {msg}" for msg in bad)
        fp = {"lp_sha256": digest.hexdigest(), "models": models, "crossval_failures": cv_failures}
        rates = {
            "ilp_models_per_s": len(ilp_s) / sum(ilp_s),
            "crossval_inst_per_s": len(cv_s) / sum(cv_s),
        }
        return UnitResult(self.ops_per_unit, ilp_s + cv_s, fp, failures, rates)


WORKLOADS = {w.name: w for w in (SimUS128, OnlineUS128, ProbeUS16, ModelCheck)}
