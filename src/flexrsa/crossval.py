"""Randomized cross-validation: oracle vs heuristic vs constraint checker.

Three independent encodings of the same feasibility rules keep each other
honest on tiny instances:

  * the oracle never reports Infeasible on an instance the heuristic serves;
  * the oracle optimum never costs more than a heuristic solution;
  * every oracle/heuristic band set passes the constraint-system checker;
  * the checker and the oracle's direct feasibility test agree on randomly
    sampled band combinations, feasible or not.

No encoding here gets a ``FiberParams``, so every dispersion skew is 0 and
all three test the delay spread alone.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from . import ilp, oracle
from .heuristic import PolicyParams, Request, serve
from .physics import propagation_ps
from .spectrum import SlotRange, SpectrumState
from .topology import DEFAULT_PROPAGATION_KM_S, Link, Network


@dataclass(frozen=True)
class Instance:
    net: Network
    state: SpectrumState
    source: str
    destination: str
    demand: int
    gb: int
    max_dd_ps: int
    k: int


def random_instance(
    rng: random.Random,
    *,
    max_nodes: int = 5,
    slots: int = 8,
    max_demand: int = 4,
    max_gb: int = 1,
    k: int = 4,
) -> Instance:
    """Connected random multigraph with some pre-existing allocations."""
    n = rng.randint(3, max_nodes)
    names = [f"n{i}" for i in range(n)]
    links: list[Link] = []

    def add_edge(a: str, b: str):
        length = float(rng.randint(100, 1500))
        delay = propagation_ps(length, DEFAULT_PROPAGATION_KM_S)
        links.append(Link(len(links), a, b, length, delay))
        links.append(Link(len(links), b, a, length, delay))

    for i in range(1, n):
        add_edge(names[i], names[rng.randrange(i)])
    for _ in range(rng.randint(0, n)):
        a, b = rng.sample(names, 2)
        add_edge(a, b)

    net = Network(tuple(names), tuple(links), slots_per_link=slots)
    state = SpectrumState(net)
    gb = rng.randint(0, max_gb)
    for _ in range(rng.randint(0, 2 * n)):
        arc = links[rng.randrange(len(links))]
        start = rng.randrange(slots)
        length = rng.randint(1, max(1, slots // 3))
        if start + length > slots:
            continue
        try:
            state.allocate((arc,), SlotRange(start, length), gb)
        except Exception:
            continue

    src, dst = rng.sample(names, 2)
    demand = rng.randint(1, max_demand)
    max_dd_ps = rng.choice([250_000_000, 128_000_000_000])  # 250 us or 128 ms
    return Instance(net, state, src, dst, demand, gb, max_dd_ps, k)


def _band_cost(solution) -> int:
    return sum(p.range.length * len(p.arcs) for p in solution.paths)


def _model(inst: Instance, routes) -> ilp.ConstraintSystem:
    """The instance's constraint system over ``routes``, one path slot per route."""
    return ilp.build_model(
        inst.net,
        inst.source,
        inst.destination,
        inst.demand,
        routes,
        slots=inst.net.slots_per_link,
        gb=inst.gb,
        max_dd_ps=inst.max_dd_ps,
        occupied=inst.state.occupied_by_arc(),
    )


def _check_via_ilp(inst: Instance, routes, bands) -> list[tuple[str, int]]:
    model = _model(inst, routes)
    assignment = ilp.assignment_from_bands(model, bands)
    return ilp.check_assignment(model, assignment)


def validate_instance(inst: Instance, rng: random.Random) -> list[str]:
    """Run every cross-check on one instance; returns failure descriptions."""
    failures: list[str] = []
    limits = oracle.OracleLimits(max_bands=max(inst.demand, 1))
    result = oracle.exact_solve(
        inst.net,
        inst.state,
        inst.source,
        inst.destination,
        inst.demand,
        gb=inst.gb,
        max_dd_ps=inst.max_dd_ps,
        k=inst.k,
        limits=limits,
    )

    policy = PolicyParams(mode="pt", k=inst.k, gb=inst.gb, max_dd_ps=inst.max_dd_ps)
    req = Request(inst.source, inst.destination, inst.demand)
    heur = serve(inst.state.copy(), inst.net, req, policy)

    if result is None and heur is not None:
        failures.append("oracle infeasible but heuristic served")
    if heur is not None and result is not None and result.cost > _band_cost(heur):
        failures.append(
            f"oracle cost {result.cost} exceeds heuristic cost {_band_cost(heur)}"
        )

    if result is not None:
        routes = [band.route for band in result.bands]
        bands = [band.range for band in result.bands]
        bad = _check_via_ilp(inst, routes, bands)
        if bad:
            failures.append(f"oracle solution fails checker: {bad[:3]}")

    if heur is not None:
        routes = [p.arcs for p in heur.paths]
        bands = [p.range for p in heur.paths]
        bad = _check_via_ilp(inst, routes, bands)
        if bad:
            failures.append(f"heuristic solution fails checker: {bad[:3]}")

    failures.extend(_checker_oracle_agreement(inst, rng))
    return failures


def _checker_oracle_agreement(inst: Instance, rng: random.Random, samples: int = 12) -> list[str]:
    """Random band combos: ilp.check_assignment must mirror oracle.check_bands."""
    routes = oracle.enumerate_routes(inst.net, inst.source, inst.destination, min(inst.k, 3))
    if not routes:
        return []
    slots = inst.net.slots_per_link
    occupied = inst.state.occupied_by_arc()
    model = _model(inst, routes)
    failures = []
    for _ in range(samples):
        bands: list[SlotRange | None] = []
        for _route in routes:
            if rng.random() < 0.45:
                bands.append(None)
                continue
            length = rng.randint(1, max(1, inst.demand))
            start = rng.randrange(max(1, slots - length + 1))
            bands.append(SlotRange(start, length))
        direct = oracle.check_bands(
            routes,
            occupied,
            bands,
            slots=slots,
            gb=inst.gb,
            max_dd_ps=inst.max_dd_ps,
            demand=inst.demand,
        )
        via_model = not ilp.check_assignment(model, ilp.assignment_from_bands(model, bands))
        if direct != via_model:
            failures.append(
                f"checker/oracle disagree on bands={bands}: direct={direct} model={via_model}"
            )
    return failures


def cross_validate(seed: int, instances: int, **instance_kwargs) -> list[str]:
    """Validate ``instances`` random instances; empty list means all passed."""
    rng = random.Random(f"{seed}/crossval")
    failures: list[str] = []
    for i in range(instances):
        inst = random_instance(rng, **instance_kwargs)
        for msg in validate_instance(inst, rng):
            failures.append(f"instance {i}: {msg}")
    return failures
