"""Shared test helpers: tiny network builders and independent oracles."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp

from flexrsa import sim
from flexrsa.heuristic import MODE_PARALLEL, Request, Solution, assign_spectrum, compute_fiber_paths
from flexrsa.physics import gvd_differential_delay_ps
from flexrsa.spectrum import SlotRange, SpectrumPath, SpectrumState, ranges_clear
from flexrsa.topology import Network, load_topology


def make_net(edges, slots, speed_km_s=2.0e5) -> Network:
    """Build a network from (src, dst, length_km) undirected edges."""
    nodes = []
    for s, d, _ in edges:
        for v in (s, d):
            if v not in nodes:
                nodes.append(v)
    text = "\n".join([f"node {v}" for v in nodes] + [f"link {s} {d} {l}" for s, d, l in edges])
    return load_topology(text, slots_per_link=slots, propagation_speed_km_s=speed_km_s)


def circulant_15_text() -> str:
    """15 nodes, each linked to +1 and +2 around a ring: >= 4 paths per pair."""
    lines = [f"node v{i:02d}" for i in range(15)]
    for i in range(15):
        lines.append(f"link v{i:02d} v{(i + 1) % 15:02d} 300")
        lines.append(f"link v{i:02d} v{(i + 2) % 15:02d} 500")
    return "\n".join(lines) + "\n"


def paint(state: SpectrumState, link, bits: str):
    """Force an occupancy pattern on one arc by allocating each '1' run."""
    start = None
    for i, ch in enumerate(bits + "0"):
        if ch == "1" and start is None:
            start = i
        elif ch != "1" and start is not None:
            state.allocate((link,), SlotRange(start, i - start), 0)
            start = None


def oracle_blocks(occupied_rows: list[str], gb: int) -> list[tuple[int, int]]:
    """Brute-force reference for free_blocks: maximal runs of slots where a
    band could sit, i.e. free on every arc and more than gb slots away from
    any occupied slot."""
    slots = len(occupied_rows[0])
    taken = {
        i for row in occupied_rows for i, ch in enumerate(row) if ch == "1"
    }
    usable = [
        f not in taken and all(abs(f - q) > gb for q in taken) for f in range(slots)
    ]
    blocks = []
    start = None
    for i in range(slots + 1):
        ok = i < slots and usable[i]
        if ok and start is None:
            start = i
        elif not ok and start is not None:
            blocks.append((start, i - start))
            start = None
    return blocks


def reference_assign_spectrum(state, routes, req, policy, stats=None):
    """The block-list planner that ``heuristic.assign_spectrum`` replaced.

    It reads each route's free blocks with ``free_blocks`` and compares arc-id
    sets for shared arcs; the mask planner must return the same plan and
    count the same slot inspections.
    """

    def largest(blocks):
        return max(blocks, key=lambda b: (b.length, -b.start))

    def record(inspections):
        if stats is not None:
            stats["phase2_slot_inspections"] = (
                stats.get("phase2_slot_inspections", 0) + inspections
            )

    gb = policy.gb
    demand = req.demand_slots
    inspections = 0
    block_lists = []
    for route in routes:
        blocks = state.free_blocks(route.arcs, gb)
        inspections += len(route.arcs) * state.slots
        block_lists.append(blocks)
        if blocks:
            best = largest(blocks)
            if best.length >= demand:
                record(inspections)
                band = SpectrumPath(route.arcs, SlotRange(best.start, demand), route.delay_ps)
                return Solution((band,))
    record(inspections)
    if policy.mode != MODE_PARALLEL:
        return None

    candidates = sorted(
        (
            (route.delay_ps, block.start, rank, route, block)
            for rank, (route, blocks) in enumerate(zip(routes, block_lists))
            for block in blocks
        ),
        key=lambda c: c[:3],
    )
    if not candidates:
        return None
    anchor_delay = candidates[0][0]
    accepted = []
    total = 0
    for delay, _start, _rank, route, block in candidates:
        if delay - anchor_delay > policy.max_dd_ps:
            break
        take = min(block.length, demand - total)
        band_range = SlotRange(block.start, take)
        route_ids = {a.id for a in route.arcs}
        conflict = any(
            route_ids & {a.id for a in acc.arcs}
            and not ranges_clear(acc.range, band_range, gb)
            for acc in accepted
        )
        if conflict:
            continue
        accepted.append(SpectrumPath(route.arcs, band_range, route.delay_ps))
        total += take
        if total == demand:
            return Solution(tuple(accepted))
    return None


def occupancy_rows(state: SpectrumState, arcs) -> list[str]:
    dump = state.occupancy_dump().splitlines()
    return [dump[a.id] for a in arcs]


def milp_solve(model):
    """Solve a ConstraintSystem with scipy's HiGHS MIP; (cost, x) or None."""
    names = list(model.variables)
    index = {n: i for i, n in enumerate(names)}
    n = len(names)
    c = np.zeros(n)
    for name, coef in model.objective:
        c[index[name]] += float(coef)
    rows, lbs, ubs = [], [], []
    for con in model.constraints:
        row = np.zeros(n)
        for name, coef in con.coeffs:
            row[index[name]] += float(coef)
        rows.append(row)
        rhs = float(con.rhs)
        if con.relation == "<=":
            lbs.append(-np.inf)
            ubs.append(rhs)
        elif con.relation == ">=":
            lbs.append(rhs)
            ubs.append(np.inf)
        else:
            lbs.append(rhs)
            ubs.append(rhs)
    lb = np.array([model.variables[m].lb for m in names], dtype=float)
    ub = np.array([model.variables[m].ub for m in names], dtype=float)
    res = milp(
        c=c,
        constraints=LinearConstraint(np.array(rows), np.array(lbs), np.array(ubs)),
        integrality=np.ones(n),
        bounds=Bounds(lb, ub),
    )
    if not res.success:
        return None
    values = {name: int(round(res.x[index[name]])) for name in names}
    return int(round(res.fun)), values


def reference_check_assignment(model, assignment) -> list[tuple[str, int]]:
    """The evaluator that ``ilp.check_assignment`` replaced.

    Each row sums exact ``Fraction`` products and is numbered by a running
    counter of its family; the lean checker must return the same list.
    """
    violations = []
    for idx, decl in enumerate(model.variables.values()):
        v = assignment[decl.name]
        if v != int(v) or not decl.lb <= v <= decl.ub:
            violations.append(("bounds", idx))
    seen: dict[str, int] = {}
    for con in model.constraints:
        idx = seen.get(con.family, 0)
        seen[con.family] = idx + 1
        lhs = sum((Fraction(c) * Fraction(assignment[n]) for n, c in con.coeffs), Fraction(0))
        rhs = Fraction(con.rhs)
        holds = {"<=": lhs <= rhs, ">=": lhs >= rhs, "=": lhs == rhs}[con.relation]
        if not holds:
            violations.append((con.family, idx))
    return violations


def reference_assignment_from_bands(model, routes, bands) -> dict[str, int]:
    """The translation that ``ilp.assignment_from_bands`` replaced.

    It formats every variable name anew and derives the model's arcs, each
    route's delay and length and the shared arcs from ``routes``, the
    candidate paths the model was built over; the translation that fills in
    the model's own names must return an equal dict.
    """
    meta = model.meta
    arcs_of = [tuple(getattr(route, "arcs", route)) for route in routes]
    paths = [tuple(a.id for a in arcs) for arcs in arcs_of]
    arc_by_id = {a.id: a for arcs in arcs_of for a in arcs}
    npaths = len(paths)
    e_used = sorted(arc_by_id)
    a: dict[str, int] = {}
    used = [band is not None for band in bands]
    route_sets = [set(ids) for ids in paths]

    for p, band in enumerate(bands):
        a[f"x_p{p + 1}"] = int(used[p])
        slots_of = set(range(band.start, band.start + band.length)) if band else set()
        for i in range(meta.slots):
            a[f"y_p{p + 1}_f{i}"] = int(i in slots_of)
        for e in e_used:
            on = used[p] and e in route_sets[p]
            a[f"xe_p{p + 1}_e{e}"] = int(on)
            for i in range(meta.slots):
                a[f"xei_p{p + 1}_e{e}_f{i}"] = int(on and i in slots_of)
        t = band.length if band else 0
        a[f"T_p{p + 1}"] = t
        a[f"pd_p{p + 1}"] = sum(arc_by_id[e].delay_ps for e in paths[p]) if used[p] else 0
        if t and meta.fiber is not None:
            length = sum(arc_by_id[e].length_km for e in paths[p])
            a[f"gvd_p{p + 1}"] = gvd_differential_delay_ps(meta.fiber, t, length)
        else:
            a[f"gvd_p{p + 1}"] = 0
        for e in paths[p]:
            a[f"z_p{p + 1}_e{e}"] = t if used[p] else 0

    for p in range(npaths):
        for q in range(p + 1, npaths):
            both = used[p] and used[q]
            shares = route_sets[p] & route_sets[q]
            a[f"o_p{p + 1}_p{q + 1}"] = int(both and bool(shares))
            for e in sorted(shares):
                a[f"g_p{p + 1}_p{q + 1}_e{e}"] = int(both)
    return a


def reference_probe_run(net, traffic, policy, fiber_params=None, *, probe_demand, probes, spacing=25):
    """The probe run that ``sim.probe_run`` replaced.

    It simulates all ``requests`` background arrivals, though nothing it
    returns reads those after the last probe; the probe run that stops there
    must return the same metrics.
    """
    probe_pairs = sim._stream(traffic.seed, "probe-pairs")
    probe_demand_rng = sim._stream(traffic.seed, "probe-demand")
    pairs = sim._pair_table(net, traffic)
    done = 0
    blocked = 0

    def probe(pos, state):
        nonlocal done, blocked
        if pos < 0 or done >= probes or pos % spacing:
            return
        src, dst = pairs[probe_pairs.randrange(len(pairs))]
        req = Request(src, dst, probe_demand_rng.randint(*probe_demand))
        routes = compute_fiber_paths(net, src, dst, policy.k)
        done += 1
        if assign_spectrum(state, routes, req, policy) is None:
            blocked += 1

    sim._simulate(net, traffic, policy, fiber_params, traffic.requests, after_arrival=probe)
    return sim.ProbeMetrics(done, blocked)
