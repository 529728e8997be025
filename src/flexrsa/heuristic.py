"""Two-phase RSA: min-delay multipath enumeration, then spectrum assignment.

Phase 1 enumerates loop-free paths in nondecreasing delay order (ties broken
by the node sequence, then arc ids).  The search is goal-directed best-first
(A*): one reverse Dijkstra gives every node's exact min delay to the
destination, a prefix is ranked by its delay plus that bound, and prefixes
that cannot reach the destination are never grown.  The bound is consistent
and 0 at the destination, and every prefix of a path ranks strictly before
the path itself, so complete paths pop in exactly the (delay, nodes, arc ids)
order of a plain best-first search; only prefixes ranked before the last
path popped are grown.  The bound depends on the destination alone, so each
destination's reverse Dijkstra runs once per ``Network``; its ``bound_memo``
keeps the result as a table of the arcs onward from every node that reaches
the destination, each with its ranking delay.

Routes depend on the network alone, so they are kept in the ``Network``'s
``route_memo``, one table per (source, destination), and found on demand:
each fiber pair has one resumable search, and a table grows only when a
reader passes its end.  :func:`pair_routes` is the memo's one reader: it
gives ``serve``, the probes of ``sim.probe_run`` and ``export-ilp`` a view
that grows the table, in batches that double up to K, only as far as the
scan of :func:`assign_spectrum` (or a whole read) goes; a scan that hits at
the first route searches for one path.  Complete paths pop in one total
order, so every read sees a prefix of the K-path enumeration, whatever was
read before.  One stopping rule: a search stops only at the end of a run of
equal delays, once the frontier can give no path as fast as its last, so the
paths tied with the last one asked for are found too.  A search is dropped
once it is settled at the largest K asked: a smaller K reads a prefix, a
larger K searches the pair again, and a pair with fewer paths than asked is
never searched again.

Every ``Network`` is fiber pairs (arc 2k+1 is arc 2k reversed, with the same
delay).  So the nodes that reach a destination are the nodes it reaches, and
both directions of a fiber pair share one search.  Twin rule: the paths
d -> s are the paths s -> d reversed onto the twin arcs (``id ^ 1``), with
the same delays, so only runs of equal delay change order, and each is
re-sorted by (nodes, arc ids).  Every run a search finds is complete, so the
reversed order is exact.

Phase 2 tries a single band on each path in delay order first; in multipath
mode it then aggregates free fragments across paths, keeping every candidate
whose path delay exceeds the earliest candidate's by at most the
differential-delay bound M.  Dispersion skew is deliberately ignored in that
check; only path diversity counts here.  Both steps read the ledger through
one ``SpectrumState.scan`` call per request: step 1 stops at the first route
whose guard-shrunk free mask holds the demand and turns only that mask into
blocks.  Step 2 walks the non-empty masks the scan read (empty ones are
skipped) in (delay, rank) order, one equal-delay group at a time: it extracts
the group's fragments, sorts them by (start, rank) and feeds them to the
greedy, and stops as soon as the demand is met or the delay passes the
anchor (the earliest non-empty route) plus M.  That is the candidate order of
one global (delay, start, rank) sort, so the plan is the same, but routes past
the stop are never read into blocks.  Two bands share an arc when their
routes' ``arc_mask`` bits meet, and on a shared arc a fragment is too close
to an accepted band when its slot bits meet that band grown by the guard band.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from itertools import chain, groupby
from operator import attrgetter, itemgetter
from typing import Sequence

from .physics import FiberParams, gvd_differential_delay_ps
from .spectrum import SlotRange, SpectrumPath, SpectrumState, runs
from .topology import Link, Network

MODE_SINGLE = "st"
MODE_PARALLEL = "pt"


@dataclass(frozen=True)
class Request:
    """Demand for ``demand_slots`` sub-carriers from source to destination."""

    source: str
    destination: str
    demand_slots: int
    arrival: float = 0.0
    holding: float = 0.0

    def __post_init__(self):
        if self.source == self.destination:
            raise ValueError(f"source equals destination: {self.source!r}")
        if self.demand_slots < 1:
            raise ValueError(f"demand_slots must be >= 1, got {self.demand_slots}")


@dataclass(frozen=True)
class PolicyParams:
    """Provisioning policy: st = one band only, pt = fragment aggregation."""

    mode: str = MODE_PARALLEL
    k: int = 30
    gb: int = 0
    max_dd_ps: int = 128_000_000_000  # 128 ms

    def __post_init__(self):
        if self.mode not in (MODE_SINGLE, MODE_PARALLEL):
            raise ValueError(f"mode must be 'st' or 'pt', got {self.mode!r}")
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if self.gb < 0 or self.max_dd_ps < 0:
            raise ValueError("gb and max_dd_ps must be non-negative")


@dataclass(frozen=True, slots=True)
class Route:
    """A fiber-level path with its delay; ``arc_mask`` has bit ``a.id`` set per arc."""

    arcs: tuple[Link, ...]
    nodes: tuple[str, ...]
    delay_ps: int
    arc_mask: int = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        mask = 0
        for a in self.arcs:
            mask |= 1 << a.id
        object.__setattr__(self, "arc_mask", mask)

    @property
    def length_km(self) -> float:
        return sum(a.length_km for a in self.arcs)


@dataclass(frozen=True)
class Solution:
    """The spectrum paths serving one request; lengths sum to the demand."""

    paths: tuple[SpectrumPath, ...]

    @property
    def delay_spread_ps(self) -> int:
        delays = [p.delay_ps for p in self.paths]
        return max(delays) - min(delays)


def _delays_to(net: Network, destination: str) -> dict[str, int]:
    """Exact min delay to ``destination`` from every node that can reach it.

    Each arc out of ``v`` is the twin of an arc into ``v`` with the same
    delay, so the search walks outgoing arcs.
    """
    dist = {destination: 0}
    heap = [(0, destination)]
    while heap:
        d, v = heapq.heappop(heap)
        if d > dist[v]:
            continue
        for link in net.outgoing(v):
            reached = d + link.delay_ps
            if link.dst not in dist or reached < dist[link.dst]:
                dist[link.dst] = reached
                heapq.heappush(heap, (reached, link.dst))
    return dist


def _search_table(net: Network, destination: str) -> tuple[dict[str, int], dict[str, tuple]]:
    """The bound of every node that reaches ``destination``, and its arcs onward.

    Each onward arc is (head, delay, delay + bound at head, arc id), in
    outgoing order.  Every head reaches the destination too, back along the
    twin arc, so every arc out of such a node is listed.
    """
    bound = _delays_to(net, destination)
    onward = {
        v: tuple(
            (link.dst, link.delay_ps, link.delay_ps + bound[link.dst], link.id)
            for link in net.outgoing(v)
        )
        for v in bound
    }
    return bound, onward


class _Search:
    """One resumable search from ``source`` to ``destination``.

    ``found`` holds the complete paths popped so far, in their final order;
    ``frontier`` the prefixes not yet grown: ``[]`` once every path is found,
    ``None`` once the search is dropped (see :class:`_RouteTable`).  ``k`` is
    the largest K asked of the pair.  Holds the arcs and the destination's
    bound table, never the network.
    """

    __slots__ = ("destination", "onward", "links", "k", "frontier", "found")

    def __init__(self, net: Network, source: str, destination: str, k: int):
        table = net.bound_memo.get(destination)
        if table is None:  # the first search towards this destination
            table = net.bound_memo[destination] = _search_table(net, destination)
        bound, self.onward = table
        self.destination = destination
        self.links = net.links
        self.k = k
        # heap key: (delay + bound at head, node sequence, arc-id sequence);
        # payload: delay so far.  Keys are unique, so payloads never compare.
        self.frontier: list | None = [(bound[source], (source,), (), 0)] if source in bound else []
        self.found: list[Route] = []

    def run(self, want: int, stats: dict | None) -> None:
        """Pop paths until ``want`` are found, with every path tied with the ``want``-th.

        The search stops only at the end of a run of equal delays: it goes on
        while the frontier can still give a path as slow as the ``want``-th,
        or until none is left.  So ``found`` always ends on a complete run,
        and a later ``want`` it already holds pops nothing.
        """
        frontier, found = self.frontier, self.found
        if frontier is None or len(found) >= want:
            return
        destination, onward = self.destination, self.onward
        arc = self.links.__getitem__
        push, pop = heapq.heappush, heapq.heappop
        expansions = 0
        last = math.inf  # the want-th path's delay, once found: nothing slower is popped
        while frontier and frontier[0][0] <= last:
            _key, nodes, arc_ids, delay = pop(frontier)
            expansions += 1
            head = nodes[-1]
            if head == destination:
                found.append(Route(tuple(map(arc, arc_ids)), nodes, delay))
                if len(found) == want:
                    last = delay
                continue
            for nxt, step, ranked, arc_id in onward[head]:
                if nxt not in nodes:
                    push(frontier, (delay + ranked, nodes + (nxt,), arc_ids + (arc_id,), delay + step))
        if stats is not None:
            stats["phase1_expansions"] = stats.get("phase1_expansions", 0) + expansions


def compute_fiber_paths(
    net: Network,
    source: str,
    destination: str,
    k: int,
    stats: dict | None = None,
) -> list[Route]:
    """Up to ``k`` routes in delay order, as a list: a whole read of :func:`pair_routes`.

    A search that the read causes counts in ``stats``.  In the package, only
    the ``path_cache`` of :func:`serve` calls it.
    """
    routes = pair_routes(net, source, destination, k)
    return list(routes.read(stats) if type(routes) is _RouteView else routes)


def _route_order(route: Route) -> tuple:
    return route.nodes, tuple(a.id for a in route.arcs)


class _RouteTable:
    """One direction's routes, grown from its fiber pair's search as far as they are read.

    The searched direction's ``routes`` is the search's ``found``.  The twin
    direction takes every route found, since each search ends on a complete
    equal-delay run: the routes are reversed onto the twin arcs (id ^ 1) and
    each run is re-sorted by node sequence, then arc ids.  Once a growth
    reaches the search's K, the search is dropped: both directions then hold
    all K routes, and only a larger K searches the pair again.
    """

    __slots__ = ("search", "routes", "prefixes")

    def __init__(self, search: _Search, twin: bool):
        self.search = search
        self.routes: list[Route] = [] if twin else search.found
        self.prefixes: dict[int, tuple[Route, ...]] = {}

    def covers(self, k: int) -> bool:
        search = self.search
        return k <= len(self.routes) or (search.frontier == [] and len(self.routes) == len(search.found))

    def grow(self, n: int, stats: dict | None) -> None:
        """Hold at least ``n`` routes, or every route the pair has."""
        search, routes = self.search, self.routes
        found = search.found
        search.run(n, stats)
        if n >= search.k and search.frontier:
            search.frontier = None  # settled: past the K-th path's tied run
        if routes is not found:  # the twin direction
            arc = search.links
            flipped = [
                Route(tuple([arc[a.id ^ 1] for a in reversed(r.arcs)]), r.nodes[::-1], r.delay_ps)
                for r in found[len(routes):]
            ]
            for _delay, run in groupby(flipped, attrgetter("delay_ps")):
                run = list(run)
                if len(run) > 1:
                    run.sort(key=_route_order)
                routes += run


class _RouteView:
    """The first ``k`` routes of a table that does not hold them yet.

    Reading grows the table in batches that double, up to ``k``, only when
    the reader passes its end; a read to the end leaves the plain prefix in
    the table for later callers.  An index or a bounded slice reads the
    routes read so far.
    """

    __slots__ = ("table", "k")

    def __init__(self, table: _RouteTable, k: int):
        self.table = table
        self.k = k

    def read(self, stats: dict | None = None):
        routes = self.table.routes
        have = min(len(routes), self.k)
        return chain(routes[:have], chain.from_iterable(self._batches(have, stats)))

    __iter__ = read

    def _batches(self, have: int, stats: dict | None):
        """The routes past the first ``have``, a grown batch at a time."""
        table, k = self.table, self.k
        routes = table.routes
        while have < k:
            table.grow(min(2 * have or 1, k), stats)
            n = min(len(routes), k)
            if n == have:  # the pair has no more routes
                break
            yield routes[have:n]
            have = n
        table.prefixes[k] = tuple(routes[:k])

    def __getitem__(self, index):
        return self.table.routes[index]


def _route_table(net: Network, source: str, destination: str, k: int) -> _RouteTable:
    """The pair's table in ``net.route_memo``, able to grow to ``k`` routes."""
    table = net.route_memo.get((source, destination))
    if table is not None:
        search = table.search
        if search.frontier:
            if k > search.k:
                search.k = k
            return table
        if k <= len(search.found) or search.frontier == []:
            return table
    return _start_search(net, source, destination, k)


def _start_search(net: Network, source: str, destination: str, k: int) -> _RouteTable:
    """A new search of the pair at ``k``; its two tables, one per direction, replace the pair's."""
    search = _Search(net, source, destination, k)
    memo = net.route_memo
    memo[destination, source] = _RouteTable(search, True)
    table = memo[source, destination] = _RouteTable(search, False)
    return table


def pair_routes(net: Network, source: str, destination: str, k: int) -> Sequence[Route]:
    """The pair's first ``k`` routes from ``net.route_memo``, searched only as far as read.

    A tuple when the pair's table holds them; otherwise a view that grows
    the table as a reader iterates it (see :func:`assign_spectrum`).  Every
    route the package reads comes from here.
    """
    table = net.route_memo.get((source, destination))
    if table is not None:
        routes = table.prefixes.get(k)
        if routes is not None:  # only checked pairs and K reach the memo
            return routes
    if not net.has_node(source):
        raise ValueError(f"unknown source {source!r}")
    if not net.has_node(destination):
        raise ValueError(f"unknown destination {destination!r}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    table = _route_table(net, source, destination, k)
    if table.covers(k):  # sliced once and kept for later callers
        routes = table.prefixes[k] = tuple(table.routes[:k])
        return routes
    return _RouteView(table, k)  # never kept in the table, which it refers to


def assign_spectrum(
    state: SpectrumState,
    routes: Sequence[Route],
    req: Request,
    policy: PolicyParams,
    stats: dict | None = None,
) -> Solution | None:
    """Plan bands for the request; no allocation happens here.

    Step 1 places the whole demand first-fit inside the largest free block of
    the first path (in delay order) that can hold it.  Step 2 (pt only)
    aggregates fragments across paths under the differential-delay bound,
    trimming the last band so the total matches the demand exactly.  Returns
    None when blocked.  A :func:`pair_routes` view is searched only as far
    as the scan reads it, and its expansions count in ``stats``.
    """
    gb = policy.gb
    demand = req.demand_slots
    reading = routes.read(stats) if type(routes) is _RouteView else routes
    hit, masks = state.scan((route.arcs for route in reading), gb, demand)
    if stats is not None:
        read = routes if hit is None else routes[: hit + 1]
        stats["phase2_slot_inspections"] = stats.get("phase2_slot_inspections", 0) + (
            state.slots * sum(len(route.arcs) for route in read)
        )
    if hit is not None:
        route = routes[hit]
        # the largest run, the lowest start among equals (runs come by start)
        best_start = best = 0
        for start, length in runs(masks[-1][1]):  # the hit's mask comes last
            if length > best:
                best_start, best = start, length
        return Solution((SpectrumPath(route.arcs, SlotRange(best_start, demand), route.delay_ps),))
    if policy.mode != MODE_PARALLEL or not masks:
        return None

    # (delay, rank) is unique, so the masks are never compared
    order = sorted((routes[rank].delay_ps, rank, free) for rank, free in masks)
    limit = order[0][0] + policy.max_dd_ps  # anchor: the earliest non-empty route
    # an accepted band as (route arc_mask, fence): the fence is the band's
    # slot bits grown by gb (clipped at slot 0), so a fragment sharing an arc
    # is too close exactly when its slot bits meet the fence
    fences: list[tuple[int, int]] = []
    bands: list[SpectrumPath] = []
    total = 0
    for delay, group in groupby(order, itemgetter(0)):
        if delay > limit:
            break
        # within one delay, start then rank (no two fragments share both)
        candidates = sorted(
            (start, rank, length) for _delay, rank, free in group for start, length in runs(free)
        )
        for start, rank, length in candidates:
            route = routes[rank]
            arc_mask = route.arc_mask
            take = demand - total
            if length < take:
                take = length
            band = ((1 << take) - 1) << start
            if any(arc_mask & acc_mask and fence & band for acc_mask, fence in fences):
                continue
            low = start - gb if start > gb else 0
            fences.append((arc_mask, ((1 << (start + take + gb - low)) - 1) << low))
            bands.append(SpectrumPath(route.arcs, SlotRange(start, take), delay))
            total += take
            if total == demand:
                return Solution(tuple(bands))
    return None


def serve(
    state: SpectrumState,
    net: Network,
    req: Request,
    policy: PolicyParams,
    *,
    fiber_params: FiberParams | None = None,
    path_cache: dict | None = None,
    stats: dict | None = None,
) -> Solution | None:
    """Route, assign and atomically allocate one request; None when blocked."""
    if path_cache is None:
        routes = pair_routes(net, req.source, req.destination, policy.k)
    else:  # the caller's own memo, keyed by (source, destination, k)
        key = (req.source, req.destination, policy.k)
        if key not in path_cache:
            path_cache[key] = tuple(compute_fiber_paths(net, *key, stats=stats))
        routes = path_cache[key]
    plan = assign_spectrum(state, routes, req, policy, stats=stats)
    if plan is None:
        return None

    allocated: list[int] = []
    final: list[SpectrumPath] = []
    try:
        for arcs, rng, delay, _gvd, _aid in plan.paths:
            aid = state.allocate(arcs, rng, policy.gb)
            allocated.append(aid)
            gvd = 0
            if fiber_params is not None:
                length = sum(a.length_km for a in arcs)
                gvd = gvd_differential_delay_ps(fiber_params, rng.length, length)
            final.append(SpectrumPath(arcs, rng, delay, gvd, aid))
    except Exception:
        for aid in allocated:
            state.release(aid)
        raise
    return Solution(tuple(final))


def release_solution(state: SpectrumState, solution: Solution) -> None:
    """Free every band of a served solution."""
    for band in solution.paths:
        if band.allocation_id is None:
            raise ValueError("solution was never allocated")
        state.release(band.allocation_id)
