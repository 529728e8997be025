"""Exhaustive RSA for tiny instances: the ground-truth reference.

Feasibility is re-implemented here directly from first principles (occupied
slots, nearest-slot gaps, pairwise delay spread, exact demand total), on
purpose sharing no logic with the constraint-system encoding it is used to
cross-validate.  Only usable on toy instances; anything larger raises
BudgetExceeded rather than answering partially.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from .heuristic import Route
from .physics import FiberParams, gvd_differential_delay_ps
from .spectrum import SlotRange, SpectrumState
from .topology import Network


class BudgetExceeded(Exception):
    """The instance left the configured enumeration budget."""


@dataclass(frozen=True)
class OracleLimits:
    max_nodes: int = 6
    max_slots: int = 16
    max_paths: int = 8
    max_bands: int = 4
    max_steps: int = 5_000_000


@dataclass(frozen=True)
class OracleBand:
    route: Route
    range: SlotRange


@dataclass(frozen=True)
class OracleResult:
    cost: int
    bands: tuple[OracleBand, ...]


class _Budget:
    def __init__(self, cap: int):
        self.cap = cap
        self.used = 0

    def spend(self, n: int = 1):
        self.used += n
        if self.used > self.cap:
            raise BudgetExceeded(f"enumeration budget exceeded ({self.cap})")


def enumerate_routes(net: Network, source: str, destination: str, k: int) -> list[Route]:
    """All loop-free routes, sorted by (delay, node sequence), first ``k``."""
    routes: list[Route] = []

    def walk(node, nodes, arcs, delay):
        if node == destination:
            routes.append(Route(tuple(arcs), tuple(nodes), delay))
            return
        for link in net.outgoing(node):
            if link.dst in nodes:
                continue
            nodes.append(link.dst)
            arcs.append(link)
            walk(link.dst, nodes, arcs, delay + link.delay_ps)
            nodes.pop()
            arcs.pop()

    walk(source, [source], [], 0)
    routes.sort(key=lambda r: (r.delay_ps, r.nodes))
    return routes[:k]


def _merged_occupied(occupied: Mapping[int, tuple[int, ...]], route: Route) -> set[int]:
    taken: set[int] = set()
    for arc in route.arcs:
        taken.update(occupied.get(arc.id, ()))
    return taken


def _blocks(taken: set[int], slots: int) -> list[tuple[int, int]]:
    """Maximal free runs (start, end inclusive) against the merged occupancy."""
    blocks = []
    start = None
    for i in range(slots + 1):
        free = i < slots and i not in taken
        if free and start is None:
            start = i
        elif not free and start is not None:
            blocks.append((start, i - 1))
            start = None
    return blocks


def _gap_ok(a: SlotRange, b: SlotRange, gb: int) -> bool:
    if a.start > b.start:
        a, b = b, a
    return b.start - (a.start + a.length - 1) > gb


def _band_clears_state(band: SlotRange, taken: set[int], gb: int) -> bool:
    lo = band.start - gb
    hi = band.start + band.length - 1 + gb
    return not any(lo <= q <= hi for q in taken)


def check_bands(
    paths: Sequence[Route],
    occupied: Mapping[int, tuple[int, ...]],
    bands_by_path: Sequence[SlotRange | None],
    *,
    slots: int,
    gb: int,
    max_dd_ps: int,
    demand: int,
    fiber_params: FiberParams | None = None,
) -> bool:
    """Direct feasibility test for at most one band per candidate path.

    Checks, in prose terms: bands lie inside the spectrum and on free slots,
    keep more than gb slots of distance from existing occupancy and from each
    other on shared arcs, their path delays plus both dispersion skews spread
    within the bound pairwise, and their sizes sum to the demand exactly.
    Without ``fiber_params`` every skew is 0.
    """
    chosen = [(i, b) for i, b in enumerate(bands_by_path) if b is not None]
    if sum(b.length for _, b in chosen) != demand:
        return False
    for i, band in chosen:
        if band.length < 1 or band.start < 0 or band.start + band.length > slots:
            return False
        taken = _merged_occupied(occupied, paths[i])
        if not _band_clears_state(band, taken, gb):
            return False
    for ai in range(len(chosen)):
        for bi in range(ai + 1, len(chosen)):
            (pa, ba), (pb, bb) = chosen[ai], chosen[bi]
            if paths[pa].arc_mask & paths[pb].arc_mask and not _gap_ok(ba, bb, gb):
                return False
            skew = 0
            if fiber_params is not None:
                skew = gvd_differential_delay_ps(
                    fiber_params, ba.length, paths[pa].length_km
                ) + gvd_differential_delay_ps(fiber_params, bb.length, paths[pb].length_km)
            if abs(paths[pa].delay_ps - paths[pb].delay_ps) + skew > max_dd_ps:
                return False
    return True


def exact_solve(
    net: Network,
    state: SpectrumState,
    source: str,
    destination: str,
    demand: int,
    *,
    gb: int = 0,
    max_dd_ps: int = 128_000_000_000,
    k: int = 8,
    fiber_params: FiberParams | None = None,
    limits: OracleLimits = OracleLimits(),
    max_bands_per_path: int | None = None,
) -> OracleResult | None:
    """Minimum slot-arc usage over every band combination, or None if none.

    Bands on the same route must come from distinct free blocks (a spectrum
    path carries one band per link); ``max_bands_per_path`` tightens that
    further when aligning with a one-band-per-path model.  Each pair of
    bands keeps its delay spread plus both dispersion skews within
    ``max_dd_ps``; without ``fiber_params`` every skew is 0.  Cost ties
    resolve to the fewest bands, then the lexicographically smallest band
    list.
    """
    if len(net.nodes) > limits.max_nodes:
        raise BudgetExceeded(f"{len(net.nodes)} nodes exceed limit {limits.max_nodes}")
    if state.slots > limits.max_slots:
        raise BudgetExceeded(f"{state.slots} slots exceed limit {limits.max_slots}")
    budget = _Budget(limits.max_steps)

    routes = enumerate_routes(net, source, destination, min(k, limits.max_paths))
    occupied = state.occupied_by_arc()
    slots = state.slots

    # Candidate bands: every sub-range of every free block that clears the
    # existing occupancy by more than gb.  Keyed so combos can enforce the
    # one-band-per-block rule.
    candidates: list[tuple[int, int, SlotRange, int]] = []  # path, block, range, gvd
    for pi, route in enumerate(routes):
        taken = _merged_occupied(occupied, route)
        for bi, (bs, be) in enumerate(_blocks(taken, slots)):
            for start in range(bs, be + 1):
                for last in range(start, be + 1):
                    budget.spend()
                    rng = SlotRange(start, last - start + 1)
                    if rng.length > demand:
                        break
                    if not _band_clears_state(rng, taken, gb):
                        continue
                    skew = (
                        gvd_differential_delay_ps(fiber_params, rng.length, route.length_km)
                        if fiber_params is not None
                        else 0
                    )
                    candidates.append((pi, bi, rng, skew))

    best: tuple[int, tuple, tuple[OracleBand, ...]] | None = None
    max_bands = min(limits.max_bands, demand)

    def compatible(chosen: list[tuple[int, int, SlotRange, int]], cand) -> bool:
        pi, bi, rng, skew = cand
        per_path = 0
        for cpi, cbi, crng, cskew in chosen:
            if cpi == pi:
                per_path += 1
                if cbi == bi:
                    return False
            if max_bands_per_path is not None and cpi == pi and per_path >= max_bands_per_path:
                return False
            if routes[cpi].arc_mask & routes[pi].arc_mask and not _gap_ok(crng, rng, gb):
                return False
            dd = abs(routes[cpi].delay_ps - routes[pi].delay_ps) + cskew + skew
            if dd > max_dd_ps:
                return False
        return True

    def search(start_idx: int, chosen: list, total: int):
        nonlocal best
        if total == demand:
            cost = sum(rng.length * len(routes[pi].arcs) for pi, _, rng, _ in chosen)
            key = (
                len(chosen),
                tuple(sorted((pi, rng.start, rng.length) for pi, _, rng, _ in chosen)),
            )
            bands = tuple(
                OracleBand(routes[pi], rng)
                for pi, _, rng, _ in sorted(chosen, key=lambda c: (c[0], c[2].start))
            )
            if best is None or (cost, key) < (best[0], best[1]):
                best = (cost, key, bands)
            return
        if len(chosen) >= max_bands:
            return
        for idx in range(start_idx, len(candidates)):
            budget.spend()
            cand = candidates[idx]
            if cand[2].length > demand - total:
                continue
            if not compatible(chosen, cand):
                continue
            chosen.append(cand)
            search(idx + 1, chosen, total + cand[2].length)
            chosen.pop()

    search(0, [], 0)
    if best is None:
        return None
    return OracleResult(best[0], best[2])
