"""Dynamic-traffic evaluation: Poisson arrivals, exponential holding.

Reproducibility contract: one stdlib Mersenne-Twister stream per random
purpose (arrivals, holding, pairs, demand, probe-pairs, probe-demand), each
seeded with "<seed>/<purpose>" so a run is a pure function of its inputs.
All per-request draws happen up front, in request order, for the arrivals a
run simulates, which keeps the offered traffic identical across policies
under the same seed.  Each stream is read in request order, so the first n
draws do not depend on how many are drawn: a probe run stops after the
arrival its last probe follows, and reads the same background as a run of
all ``requests``.  The network keeps the last draw (``Network.draw_memo``),
so grid cells that share a traffic draw it once.

Arrivals come at rate 1 per time unit, so a mean holding time of h offers
h Erlang.  A rate u would only rescale time: a Poisson/exponential loss
system depends on the offered load u*h alone.

Grid outputs share one key per cell: ``SIM_KEY`` for ``run`` cells and
``PROBE_KEY`` for ``probe_run`` cells.  The CSV writers print the key and the
seed on every row; ``summary`` groups cells by the key, so it pools seeds and
nothing else, and reports each measure's mean with the 95% Student-t
half-width from ``interval``.
"""

from __future__ import annotations

import heapq
import math
import random
from dataclasses import dataclass, field
from itertools import permutations
from typing import Callable, Sequence

from .heuristic import PolicyParams, Request, assign_spectrum, pair_routes, serve
from .physics import FiberParams
from .spectrum import SpectrumState
from .topology import Network


class SimError(Exception):
    """Simulation invariant breach (conservation, dirty final state, ...)."""


@dataclass(frozen=True)
class TrafficConfig:
    """Offered traffic: unit-rate arrivals, so ``mean_holding`` is the load in Erlang."""

    mean_holding: float
    requests: int
    seed: int
    demand: int | tuple[int, int] = 1
    warmup_frac: float = 0.1
    sd_pairs: tuple[tuple[str, str], ...] | None = None

    def __post_init__(self):
        if self.mean_holding <= 0:
            raise ValueError("mean_holding must be positive")
        if self.requests < 1:
            raise ValueError("requests must be >= 1")
        if not (0 <= self.warmup_frac < 1):
            raise ValueError("warmup_frac must be in [0, 1)")
        demand = self.demand
        if demand < 1 if isinstance(demand, int) else _bad_range(demand):
            raise ValueError(f"demand must be an int >= 1 or (lo, hi) with 1 <= lo <= hi, got {demand!r}")
        if self.sd_pairs is not None:
            pairs = tuple((src, dst) for src, dst in self.sd_pairs)
            if not pairs:
                raise ValueError("sd_pairs must name at least one pair")
            for src, dst in pairs:
                if src == dst:
                    raise ValueError(f"sd_pairs has a self-pair at {src!r}")
            object.__setattr__(self, "sd_pairs", pairs)  # a tuple, so the config hashes


@dataclass
class Metrics:
    offered: int = 0
    blocked: int = 0
    served: int = 0
    path_histogram: dict[int, int] = field(default_factory=dict)  # served count per band count

    @property
    def blocking_prob(self) -> float:
        return self.blocked / self.offered if self.offered else 0.0

    @property
    def aggregation_ratio(self) -> float:
        """Fraction of served connections using two or more spectrum paths."""
        if not self.served:
            return 0.0
        return 1.0 - self.path_histogram.get(1, 0) / self.served


@dataclass(frozen=True)
class ProbeMetrics:
    probes: int
    blocked: int

    @property
    def probe_blocking(self) -> float:
        return self.blocked / self.probes if self.probes else 0.0


def _bad_range(demand) -> bool:
    """True unless ``demand`` is a tuple ``(lo, hi)`` of ints with ``1 <= lo <= hi``."""
    return not (
        isinstance(demand, tuple)
        and len(demand) == 2
        and all(isinstance(v, int) for v in demand)
        and 1 <= demand[0] <= demand[1]
    )


def _stream(seed: int, purpose: str) -> random.Random:
    return random.Random(f"{seed}/{purpose}")


def _pair_table(net: Network, traffic: TrafficConfig) -> list[tuple[str, str]]:
    if traffic.sd_pairs is None:
        return list(permutations(net.nodes, 2))
    for pair in traffic.sd_pairs:
        for node in pair:
            if not net.has_node(node):
                raise ValueError(f"sd_pairs node {node!r} is not in the network")
    return list(traffic.sd_pairs)


def _draw(net: Network, traffic: TrafficConfig, count: int | None = None) -> tuple[Request, ...]:
    """The first ``count`` requests of the traffic (all ``requests`` by default)."""
    arrivals = _stream(traffic.seed, "arrivals")
    holding = _stream(traffic.seed, "holding")
    pairs_rng = _stream(traffic.seed, "pairs")
    demand_rng = _stream(traffic.seed, "demand")
    pairs = _pair_table(net, traffic)
    fixed = isinstance(traffic.demand, int)

    out: list[Request] = []
    t = 0.0
    for _ in range(traffic.requests if count is None else count):
        t += arrivals.expovariate(1.0)
        src, dst = pairs[pairs_rng.randrange(len(pairs))]
        if fixed:
            tr = traffic.demand
        else:
            lo, hi = traffic.demand
            tr = demand_rng.randint(lo, hi)
        hold = holding.expovariate(1.0 / traffic.mean_holding)
        out.append(Request(src, dst, tr, arrival=t, holding=hold))
    return tuple(out)


def _draw_requests(net: Network, traffic: TrafficConfig, count: int) -> tuple[Request, ...]:
    """:func:`_draw`, kept in ``net.draw_memo`` until another draw replaces it."""
    key = (traffic, count)
    memo = net.draw_memo
    requests = memo.get(key)
    if requests is None:
        memo.clear()
        requests = memo[key] = _draw(net, traffic, count)
    return requests


def _simulate(
    net: Network,
    traffic: TrafficConfig,
    policy: PolicyParams,
    fiber_params: FiberParams | None,
    stop: int,
    *,
    audit: bool = False,
    after_arrival: Callable[[int, SpectrumState], None] | None = None,
) -> Metrics:
    """The event loop behind :func:`run` and :func:`probe_run`, over the first ``stop`` arrivals.

    Departures due at an arrival instant release first.  ``after_arrival``
    sees each arrival's index counted from the first measured one (negative
    during warm-up) and the live ledger after ``serve``.  The warm-up is a
    fraction of all ``requests``, whatever ``stop`` is.  Routes come from
    the memo on ``net``: runs on one network share their route enumerations.
    """
    state = SpectrumState(net)
    requests = _draw_requests(net, traffic, stop)
    warmup = int(traffic.requests * traffic.warmup_frac)
    metrics = Metrics()
    departures: list[tuple[float, int, tuple[int, ...]]] = []

    for i, req in enumerate(requests):
        while departures and departures[0][0] <= req.arrival:
            _, _, ids = heapq.heappop(departures)
            for aid in ids:
                state.release(aid)
        solution = serve(state, net, req, policy, fiber_params=fiber_params)
        measured = i >= warmup
        if measured:
            metrics.offered += 1
        if solution is None:
            if measured:
                metrics.blocked += 1
        else:
            if audit:
                if solution.delay_spread_ps > policy.max_dd_ps and len(solution.paths) > 1:
                    raise SimError("admitted solution violates the delay bound")
                state.audit(policy.gb)
            ids = tuple(p.allocation_id for p in solution.paths)
            heapq.heappush(departures, (req.arrival + req.holding, i, ids))
            if measured:
                metrics.served += 1
                n = len(solution.paths)
                metrics.path_histogram[n] = metrics.path_histogram.get(n, 0) + 1
        if after_arrival is not None:
            after_arrival(i - warmup, state)

    while departures:
        _, _, ids = heapq.heappop(departures)
        for aid in ids:
            state.release(aid)
    if not state.is_all_free():
        raise SimError("spectrum not empty after draining all departures")
    if metrics.offered != metrics.served + metrics.blocked:
        raise SimError("offered != served + blocked")
    return metrics


def run(
    net: Network,
    traffic: TrafficConfig,
    policy: PolicyParams,
    fiber_params: FiberParams | None = None,
    *,
    audit: bool = False,
) -> Metrics:
    """One seeded simulation.

    The first warmup fraction of requests is excluded from the metrics; all
    departures are drained at the end and the spectrum must come back empty.
    With ``audit`` every admission is checked against the delay bound and
    the ledger invariants.
    """
    return _simulate(net, traffic, policy, fiber_params, traffic.requests, audit=audit)


def probe_run(
    net: Network,
    traffic: TrafficConfig,
    policy: PolicyParams,
    fiber_params: FiberParams | None = None,
    *,
    probe_demand: tuple[int, int],
    probes: int,
    spacing: int = 25,
) -> ProbeMetrics:
    """Admissibility probes against a live background, without mutating state.

    Background traffic runs as in :func:`run`; once past warm-up, every
    ``spacing``-th arrival is followed by one probe (pair drawn like the
    background's, demand drawn from ``probe_demand``) that is planned but
    never allocated.  No output reads the background after the last probe,
    so the run stops at the arrival that probe follows.
    """
    if spacing < 1:
        raise ValueError(f"probe spacing must be >= 1, got {spacing}")
    if probes < 0:
        raise ValueError(f"probe count must be >= 0, got {probes}")
    if _bad_range(probe_demand):
        raise ValueError(f"probe_demand must be (lo, hi) with 1 <= lo <= hi, got {probe_demand!r}")
    if probes == 0:
        return ProbeMetrics(0, 0)
    warmup = int(traffic.requests * traffic.warmup_frac)
    stop = min(traffic.requests, warmup + (probes - 1) * spacing + 1)
    probe_pairs = _stream(traffic.seed, "probe-pairs")
    probe_demand_rng = _stream(traffic.seed, "probe-demand")
    pairs = _pair_table(net, traffic)
    done = 0
    blocked = 0

    def probe(pos: int, state: SpectrumState) -> None:
        nonlocal done, blocked
        if pos < 0 or done >= probes or pos % spacing:
            return
        src, dst = pairs[probe_pairs.randrange(len(pairs))]
        req = Request(src, dst, probe_demand_rng.randint(*probe_demand))
        routes = pair_routes(net, src, dst, policy.k)
        done += 1
        if assign_spectrum(state, routes, req, policy) is None:
            blocked += 1

    _simulate(net, traffic, policy, fiber_params, stop, after_arrival=probe)
    return ProbeMetrics(done, blocked)


def _beta_cf(a: float, b: float, x: float, y: float) -> float:
    """I_x(a, b) by Lentz's continued fraction; ``y`` is ``1 - x``, passed exactly."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 1_000):
        for num in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                    -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + num / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-15:
            break
    front = (math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
             + a * math.log(x) + b * math.log(y))
    return math.exp(front) * h / a


def _t_tail(t: float, df: int) -> float:
    """P(T > t) for Student's t with ``df`` degrees of freedom and ``t >= 0``."""
    a, b = df / 2.0, 0.5
    x, y = df / (df + t * t), t * t / (df + t * t)  # I_x(df/2, 1/2) = 2 P(T > t)
    if y == 0.0:
        return 0.5
    if x < (a + 1.0) / (a + b + 2.0):
        return 0.5 * _beta_cf(a, b, x, y)
    return 0.5 * (1.0 - _beta_cf(b, a, y, x))


def _t_quantile(p: float, df: int) -> float:
    """The ``p`` quantile (``0.5 <= p < 1``) of Student's t, by bisection on the upper tail."""
    tail = 1.0 - p
    lo, hi = 0.0, 1.0
    while _t_tail(hi, df) > tail:
        lo, hi = hi, 2.0 * hi
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return mid
        if _t_tail(mid, df) > tail:
            lo = mid
        else:
            hi = mid


def interval(values: Sequence[float]) -> tuple[float, float]:
    """Mean and 95% Student-t half-width of independent per-seed values.

    The t quantile is computed here, without scipy: the regularized incomplete
    beta function by Lentz's continued fraction (Press et al., *Numerical
    Recipes*, section 6.4), inverted by bisection on the upper tail.
    """
    n = len(values)
    if n < 2:
        raise ValueError("an interval needs at least 2 seeds")
    mean = sum(values) / n
    var = sum((v - mean) ** 2 for v in values) / (n - 1)
    if var <= 0:
        return mean, 0.0
    return mean, _t_quantile(0.975, n - 1) * math.sqrt(var / n)


# ---------------------------------------------------------------------------
# Grid outputs (consumed by external plotting, the CSV schema is the contract)

SIM_KEY = ("load", "policy", "m_us", "k", "gb", "tr")
PROBE_KEY = ("load", "policy", "m_us", "k", "gb", "bg_tr", "probe_tr")


def label(value) -> str:
    """A key value as printed: a float by ``%g``, a demand range as ``lo-hi``."""
    if isinstance(value, float):
        return f"{value:g}"
    if isinstance(value, tuple):
        return f"{value[0]}-{value[1]}"
    return str(value)


def _labels(params: dict, columns: Sequence[str]) -> list[str]:
    return [label(params[c]) for c in columns]


def _table(header: list[str], rows: list[list[str]], align: bool = False) -> str:
    """Comma-separated lines, or space-separated right-aligned columns."""
    lines = [header, *rows]
    if align:
        widths = [max(map(len, column)) for column in zip(*lines)]
        lines = [[cell.rjust(w) for cell, w in zip(line, widths)] for line in lines]
    sep = " " if align else ","
    return "".join(sep.join(line) + "\n" for line in lines)


def metrics_csv(entries: Sequence[tuple[dict, Metrics]]) -> str:
    """One row per grid cell: key, seed, counters, ratios and band-count histogram."""
    top = max((max(m.path_histogram) for _, m in entries if m.path_histogram), default=1)
    bands = range(1, top + 1)
    header = [*SIM_KEY, "seed", "offered", "blocked", "blocking_prob", "agg_ratio"]
    return _table(
        header + [f"hist_{i}" for i in bands],
        [
            _labels(params, (*SIM_KEY, "seed"))
            + [str(m.offered), str(m.blocked)]
            + [f"{m.blocking_prob:.6f}", f"{m.aggregation_ratio:.6f}"]
            + [str(m.path_histogram.get(i, 0)) for i in bands]
            for params, m in entries
        ],
    )


def distribution_csv(entries: Sequence[tuple[dict, Metrics]]) -> str:
    """Long-form band-count distribution for multipath usage plots."""
    return _table(
        [*SIM_KEY, "seed", "n_paths", "count"],
        [
            _labels(params, (*SIM_KEY, "seed")) + [str(n), str(m.path_histogram[n])]
            for params, m in entries
            for n in sorted(m.path_histogram)
        ],
    )


def probe_csv(entries: Sequence[tuple[dict, ProbeMetrics]]) -> str:
    return _table(
        [*PROBE_KEY, "seed", "probes", "probe_blocked", "probe_blocking"],
        [
            _labels(params, (*PROBE_KEY, "seed"))
            + [str(pm.probes), str(pm.blocked), f"{pm.probe_blocking:.6f}"]
            for params, pm in entries
        ],
    )


def summary(entries: Sequence[tuple[dict, object]], key: Sequence[str],
            measures: Sequence[str]) -> str:
    """One aligned row per key: the seed count, then each measure's mean and 95% half-width.

    Cells are grouped by every key column, so only seeds are pooled.  A key
    with one seed prints ``-`` for the half-width.
    """
    groups: dict[tuple, list] = {}
    for params, result in entries:
        groups.setdefault(tuple(_labels(params, key)), []).append(result)
    rows = []
    for labels, results in groups.items():
        row = [*labels, str(len(results))]
        for name in measures:
            values = [getattr(r, name) for r in results]
            mean, half = interval(values) if len(values) > 1 else (values[0], None)
            row += [f"{mean:.6f}", "-" if half is None else f"{half:.6f}"]
        rows.append(row)
    header = [*key, "seeds"] + [h for name in measures for h in (name, "+/-95%")]
    return _table(header, rows, align=True)
