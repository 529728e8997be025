import hashlib
import pickle
import random
from itertools import islice
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from flexrsa import heuristic
from flexrsa.heuristic import (
    PolicyParams,
    Request,
    Route,
    Solution,
    assign_spectrum,
    compute_fiber_paths,
    release_solution,
    serve,
)
from flexrsa.oracle import enumerate_routes
from flexrsa.spectrum import ConflictError, SlotRange, SpectrumPath, SpectrumState
from flexrsa.topology import load_topology

from util import make_net, paint, reference_assign_spectrum

US_TEXT = resources.files("flexrsa").joinpath("data/us_backbone.txt").read_text()
US_NET = load_topology(US_TEXT, slots_per_link=16)


def memo_routes(net, source, destination, k):
    """A whole read of the pair's first ``k`` routes through the route memo."""
    return tuple(heuristic.pair_routes(net, source, destination, k))


def triangle():
    # A-B and B-C are 1 ms (200 km at 2e5 km/s), A-C is 3 ms (600 km)
    return make_net([("A", "B", 200), ("B", "C", 200), ("A", "C", 600)], slots=16)


def tied_at_two():
    # S-D is the fastest; S-A-Y-D and S-B-X-D tie for second
    return make_net(
        [("S", "D", 100), ("S", "A", 100), ("A", "Y", 100), ("Y", "D", 100),
         ("S", "B", 100), ("B", "X", 100), ("X", "D", 100)],
        slots=4,
    )


def fragmented_diamond(pattern="0011001100011111", lengths=(100, 100, 100, 100)):
    """Two disjoint 2-arc paths S->A->D and S->B->D with a fixed occupancy."""
    l1, l2, l3, l4 = lengths
    net = make_net([("S", "A", l1), ("A", "D", l2), ("S", "B", l3), ("B", "D", l4)], slots=16)
    arcs = {}
    for v in net.nodes:
        for link in net.outgoing(v):
            arcs[(link.src, link.dst)] = link
    state = SpectrumState(net)
    for pair in [("S", "A"), ("A", "D"), ("S", "B"), ("B", "D")]:
        paint(state, arcs[pair], pattern)
    return net, state


class TestPhase1:
    def test_triangle_two_paths(self):
        net = triangle()
        routes = compute_fiber_paths(net, "A", "C", 2)
        assert [r.nodes for r in routes] == [("A", "B", "C"), ("A", "C")]
        assert [r.delay_ps for r in routes] == [2_000_000_000, 3_000_000_000]

    def test_k1_is_min_delay(self):
        net = triangle()
        routes = compute_fiber_paths(net, "A", "C", 1)
        assert len(routes) == 1
        assert routes[0].nodes == ("A", "B", "C")

    def test_unreachable(self):
        net = load_topology("node a\nnode b\nnode c\nlink a b 100\n", slots_per_link=8)
        assert compute_fiber_paths(net, "a", "c", 3) == []

    def test_equal_delay_ties_break_lexicographically(self):
        net = make_net(
            [("A", "B", 100), ("B", "D", 100), ("A", "C", 100), ("C", "D", 100)], slots=8
        )
        routes = compute_fiber_paths(net, "A", "D", 2)
        assert [r.nodes for r in routes] == [("A", "B", "D"), ("A", "C", "D")]

    def test_sorted_and_loop_free_on_us(self):
        for src, dst in [("Seattle", "Miami"), ("Boston", "SanDiego"), ("Denver", "NewYork")]:
            routes = compute_fiber_paths(US_NET, src, dst, 12)
            delays = [r.delay_ps for r in routes]
            assert delays == sorted(delays)
            for r in routes:
                assert len(set(r.nodes)) == len(r.nodes)
                assert r.nodes[0] == src and r.nodes[-1] == dst

    def test_prefix_stability_k40_vs_k10(self):
        big = compute_fiber_paths(US_NET, "Seattle", "Atlanta", 40)
        small = compute_fiber_paths(US_NET, "Seattle", "Atlanta", 10)
        assert [r.nodes for r in big[:10]] == [r.nodes for r in small]

    def test_expansion_ceiling(self):
        # All 552 US pairs at K=30: the goal-directed search pops 68,413
        # prefixes; the plain best-first search it replaced popped 403,368.
        stats = {}
        for src in US_NET.nodes:
            for dst in US_NET.nodes:
                if src != dst:
                    compute_fiber_paths(US_NET, src, dst, 30, stats=stats)
        assert stats["phase1_expansions"] <= 80_000

    def test_us_routes_pinned_k40(self):
        # sha256 over (nodes, arc ids, delay) of every route, all 552 pairs
        # at K=40, recorded from the plain best-first enumerator (delay, node
        # sequence, arc ids as heap key) that the goal-directed search replaced.
        digest = hashlib.sha256()
        for src in US_NET.nodes:
            for dst in US_NET.nodes:
                if src == dst:
                    continue
                for r in compute_fiber_paths(US_NET, src, dst, 40):
                    row = (r.nodes, tuple(a.id for a in r.arcs), r.delay_ps)
                    digest.update(repr(row).encode() + b"\n")
        assert digest.hexdigest() == (
            "0408f80b105a05d6cc49999d174d9e65706fee6fa4f7be5c8e96e3389cdfcff3"
        )

    def test_unreachable_on_large_component_is_immediate(self):
        text = US_TEXT + "node Island\n"
        net = load_topology(text, slots_per_link=8)
        stats = {}
        assert compute_fiber_paths(net, "Seattle", "Island", 40, stats=stats) == []
        assert compute_fiber_paths(net, "Island", "Miami", 40, stats=stats) == []
        assert stats["phase1_expansions"] <= 1

    @pytest.mark.parametrize("seed", range(40))
    def test_matches_oracle_on_random_graphs(self, seed):
        rng = random.Random(seed)
        n = rng.randint(4, 7)
        nodes = [f"n{i}" for i in range(n)]
        # no link crosses the cut, so pairs across it are unreachable; few
        # distinct lengths make equal-delay ties common
        cut = rng.randint(n - 2, n)
        lines = [f"node {v}" for v in nodes]
        for _ in range(rng.randint(n, 2 * n)):
            side = nodes[:cut] if rng.random() < 0.8 or cut > n - 2 else nodes[cut:]
            a, b = rng.sample(side, 2)
            lines.append(f"link {a} {b} {rng.choice((100, 200, 300))}")
        a, b = rng.sample(nodes[:cut], 2)
        lines += [f"link {a} {b} 100"] * 2  # parallel arcs with equal delay
        a, b = rng.sample(nodes[:cut], 2)
        lines.append(f"link {a} {b} 1e-9")  # rounds to a zero-delay arc
        net = load_topology("\n".join(lines) + "\n", slots_per_link=8)
        assert any(link.delay_ps == 0 for link in net.links)

        def rows(routes):
            return [(r.nodes, tuple(a.id for a in r.arcs), r.delay_ps) for r in routes]

        unreachable = 0
        for src in nodes:
            for dst in nodes:
                if src == dst:
                    continue
                expected = rows(enumerate_routes(net, src, dst, 10**9))
                unreachable += not expected
                for k in (1, 3, len(expected) + 1):
                    assert rows(compute_fiber_paths(net, src, dst, k)) == expected[:k]
        if cut < n:
            assert unreachable > 0

    def test_unknown_nodes_rejected(self):
        with pytest.raises(ValueError):
            compute_fiber_paths(US_NET, "Nowhere", "Miami", 2)
        with pytest.raises(ValueError, match="unknown destination 'Nowhere'"):
            compute_fiber_paths(US_NET, "Miami", "Nowhere", 2)
        with pytest.raises(ValueError, match="k must be >= 1, got 0"):
            compute_fiber_paths(US_NET, "Seattle", "Miami", 0)


class TestRouteTable:
    """``pair_routes`` keeps one route table per pair on the network."""

    @pytest.fixture
    def enumerations(self, monkeypatch):
        # every search a route table starts, as (source, destination, k)
        calls = []
        start = heuristic._start_search

        def counted(net, source, destination, k):
            calls.append((source, destination, k))
            return start(net, source, destination, k)

        monkeypatch.setattr(heuristic, "_start_search", counted)
        return calls

    def test_smaller_k_is_a_prefix_and_enumerates_nothing(self, enumerations):
        net = load_topology(US_TEXT, slots_per_link=16)
        big = memo_routes(net, "Seattle", "Atlanta", 40)
        small = memo_routes(net, "Seattle", "Atlanta", 10)
        assert enumerations == [("Seattle", "Atlanta", 40)]
        assert len(big) == 40 and small == big[:10]
        assert list(small) == compute_fiber_paths(US_NET, "Seattle", "Atlanta", 10)
        # the prefix is sliced once and shared by later callers; the first
        # read of K=40 went through a view, which keeps its prefix at the end
        assert memo_routes(net, "Seattle", "Atlanta", 10) is small
        again = memo_routes(net, "Seattle", "Atlanta", 40)
        assert again == big and memo_routes(net, "Seattle", "Atlanta", 40) is again

    def test_larger_k_re_enumerates_and_replaces_the_table(self, enumerations):
        # a search writes both directions' tables, which share it; a larger K
        # starts a new search, whose two tables replace both
        net = load_topology(US_TEXT, slots_per_link=16)
        memo = net.route_memo
        both = {("Seattle", "Atlanta"), ("Atlanta", "Seattle")}
        small = memo_routes(net, "Seattle", "Atlanta", 10)
        first = memo["Seattle", "Atlanta"].search
        assert set(memo) == both and memo["Atlanta", "Seattle"].search is first
        big = memo_routes(net, "Seattle", "Atlanta", 40)
        again = memo_routes(net, "Seattle", "Atlanta", 20)
        assert enumerations == [("Seattle", "Atlanta", 10), ("Seattle", "Atlanta", 40)]
        assert big[:10] == small and again == big[:20]
        search = memo["Seattle", "Atlanta"].search
        assert set(memo) == both and search is not first and memo["Atlanta", "Seattle"].search is search

    def test_exhausted_pair_is_never_re_enumerated(self, enumerations):
        net = triangle()  # A to C has two loop-free paths
        assert len(memo_routes(net, "A", "C", 5)) == 2
        for k in (1, 2, 9, 50):
            routes = memo_routes(net, "A", "C", k)
            assert routes == tuple(compute_fiber_paths(triangle(), "A", "C", k))
        assert enumerations == [("A", "C", 5)]

    def test_each_fiber_pair_is_searched_once(self, enumerations):
        # every ordered pair, in random order: the second direction of a
        # fiber pair is derived from the first, never searched
        net = load_topology(US_TEXT, slots_per_link=16)
        pairs = [(s, d) for s in net.nodes for d in net.nodes if s != d]
        random.Random(5).shuffle(pairs)
        for s, d in pairs:
            routes = memo_routes(net, s, d, 30)
            want = compute_fiber_paths(US_NET, s, d, 30)
            assert list(routes) == want
            assert [r.arc_mask for r in routes] == [r.arc_mask for r in want]
        assert len(enumerations) == 276
        assert len({frozenset((s, d)) for s, d, _k in enumerations}) == 276

    def test_a_twin_table_that_covers_k_replaces_a_shorter_one(self, enumerations):
        net = load_topology(US_TEXT, slots_per_link=16)
        memo_routes(net, "Seattle", "Atlanta", 10)
        memo_routes(net, "Atlanta", "Seattle", 40)
        routes = memo_routes(net, "Seattle", "Atlanta", 40)
        assert routes == tuple(compute_fiber_paths(US_NET, "Seattle", "Atlanta", 40))
        assert enumerations == [("Seattle", "Atlanta", 10), ("Atlanta", "Seattle", 40)]

    def test_the_reverse_of_a_tie_at_k_picks_from_every_tied_path(self, enumerations):
        # at K=2 the forward search keeps both tied routes, since the reverse
        # order picks D-X-B-S, the twin of the route a search stopped at the
        # K-th path would have dropped
        net = tied_at_two()
        forward = memo_routes(net, "S", "D", 2)
        backward = memo_routes(net, "D", "S", 2)
        assert [r.nodes for r in forward] == [("S", "D"), ("S", "A", "Y", "D")]
        assert [r.nodes for r in backward] == [("D", "S"), ("D", "X", "B", "S")]
        assert list(backward) == compute_fiber_paths(net, "D", "S", 2)
        assert len(net.route_memo["S", "D"].routes) == 3
        assert enumerations == [("S", "D", 2)]

    def test_a_twin_read_takes_only_complete_runs(self, enumerations):
        # a forward read of two routes ends its search on the complete tied
        # run, so it finds S-B-X-D too; a reverse read of one route then takes
        # all three, the tied run re-sorted
        net = tied_at_two()
        forward = heuristic.pair_routes(net, "S", "D", 3)
        assert [r.nodes for r in islice(forward, 2)] == [("S", "D"), ("S", "A", "Y", "D")]
        tied = [("S", "D"), ("S", "A", "Y", "D"), ("S", "B", "X", "D")]
        assert [r.nodes for r in net.route_memo["S", "D"].routes] == tied
        backward = heuristic.pair_routes(net, "D", "S", 3)
        assert [r.nodes for r in islice(backward, 1)] == [("D", "S")]
        reversed_tied = [("D", "S"), ("D", "X", "B", "S"), ("D", "Y", "A", "S")]
        assert [r.nodes for r in net.route_memo["D", "S"].routes] == reversed_tied
        assert [r.nodes for r in backward] == reversed_tied
        assert list(backward) == compute_fiber_paths(net, "D", "S", 3)
        assert enumerations == [("S", "D", 3)]

    def test_a_run_tied_past_k_is_found_but_never_returned(self):
        # routes 2 and 3 tie: the search finds both, and every reader still
        # gets exactly K
        net = tied_at_two()
        assert len(compute_fiber_paths(net, "S", "D", 2)) == 2
        assert memo_routes(net, "S", "D", 2) == tuple(compute_fiber_paths(net, "S", "D", 2))
        assert len(net.route_memo["S", "D"].search.found) == 3
        assert memo_routes(net, "D", "S", 2) == tuple(compute_fiber_paths(net, "D", "S", 2))

    def test_a_settled_search_holds_no_frontier(self):
        net = load_topology(US_TEXT, slots_per_link=16)
        memo_routes(net, "Seattle", "Atlanta", 10)
        assert net.route_memo["Seattle", "Atlanta"].search.frontier is None
        # a scan that stops early keeps the search; a read to K settles it
        routes = heuristic.pair_routes(net, "Miami", "Boston", 30)
        assert next(iter(routes)) == compute_fiber_paths(US_NET, "Miami", "Boston", 1)[0]
        search = net.route_memo["Miami", "Boston"].search
        assert search.frontier
        assert list(routes) == compute_fiber_paths(US_NET, "Miami", "Boston", 30)
        assert search.frontier is None
        # the read left the plain prefix for later callers
        assert heuristic.pair_routes(net, "Miami", "Boston", 30) == tuple(routes)
        back = heuristic.pair_routes(net, "Boston", "Miami", 30)
        assert list(back) == compute_fiber_paths(US_NET, "Boston", "Miami", 30)
        assert net.route_memo["Boston", "Miami"].search is search

    def test_reverse_dijkstra_runs_once_per_destination(self, monkeypatch):
        runs = []
        delays_to = heuristic._delays_to

        def counted(net, destination):
            runs.append(destination)
            return delays_to(net, destination)

        monkeypatch.setattr(heuristic, "_delays_to", counted)
        net = load_topology(US_TEXT, slots_per_link=16)
        for k in (10, 40):
            for src in net.nodes:
                for dst in net.nodes:
                    if src != dst:
                        compute_fiber_paths(net, src, dst, k)
        assert sorted(runs) == sorted(net.nodes)


@st.composite
def _fiber_pair_multigraph(draw):
    """A loaded topology on 2-6 nodes with parallel links whose lengths tie often."""
    n = draw(st.integers(2, 6))
    ends = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1])
    edges = draw(st.lists(st.tuples(ends, st.sampled_from([100, 200, 300])), max_size=12))
    lines = [f"node v{i}" for i in range(n)]
    lines += [f"link v{a} v{b} {km}" for (a, b), km in edges]
    return load_topology("\n".join(lines), slots_per_link=4)


@settings(max_examples=150, deadline=None)
@given(net=_fiber_pair_multigraph(), data=st.data())
def test_route_memo_matches_a_search_of_every_ordered_pair(net, data):
    # pairs come in random order at random K, so a pair may be derived from a
    # twin table made at a smaller, equal or larger K; ties at the K-th path
    # are common, since lengths come from three values
    pairs = [(s, d) for s in net.nodes for d in net.nodes if s != d]
    asks = data.draw(st.permutations(pairs + pairs))
    for s, d in asks:
        k = data.draw(st.integers(1, 6))
        routes = memo_routes(net, s, d, k)
        want = compute_fiber_paths(net, s, d, k)
        assert list(routes) == want
        assert [r.arc_mask for r in routes] == [r.arc_mask for r in want]


def _assert_prefix(seen, want):
    assert seen == want
    assert [r.arc_mask for r in seen] == [r.arc_mask for r in want]


@settings(max_examples=150, deadline=None)
@given(net=_fiber_pair_multigraph(), data=st.data())
def test_partial_reads_see_the_search_prefix(net, data):
    # reads of one or two fiber pairs, in either direction, at random K, each
    # stopping at a random depth as a scan that hits early does; a whole read
    # settles the pair's search at its K, and a larger K may follow
    pairs = [(s, d) for s in net.nodes for d in net.nodes if s != d]
    chosen = data.draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=2))
    for _ in range(data.draw(st.integers(1, 20))):
        s, d = data.draw(st.sampled_from(chosen))
        if data.draw(st.booleans()):
            s, d = d, s
        k = data.draw(st.integers(1, 8))
        want = compute_fiber_paths(net, s, d, k)
        if data.draw(st.booleans()):
            _assert_prefix(list(memo_routes(net, s, d, k)), want)
            continue
        routes = heuristic.pair_routes(net, s, d, k)
        depth = data.draw(st.integers(0, k))
        seen = list(islice(routes, depth))
        _assert_prefix(seen, want[:depth])
        assert [routes[i] for i in range(len(seen))] == seen
    # a larger K after a settled table
    s, d = data.draw(st.sampled_from(pairs))
    k = data.draw(st.integers(1, 4))
    memo_routes(net, s, d, k)
    s, d = data.draw(st.sampled_from([(s, d), (d, s)]))
    k += data.draw(st.integers(1, 4))
    _assert_prefix(list(heuristic.pair_routes(net, s, d, k)), compute_fiber_paths(net, s, d, k))


class TestAssignSpectrum:
    def test_first_fit_on_empty_network(self):
        net = load_topology(
            resources.files("flexrsa").joinpath("data/us_backbone.txt").read_text(),
            slots_per_link=128,
        )
        state = SpectrumState(net)
        routes = compute_fiber_paths(net, "Seattle", "Miami", 5)
        sol = assign_spectrum(state, routes, Request("Seattle", "Miami", 5), PolicyParams())
        assert len(sol.paths) == 1
        assert sol.paths[0].range == SlotRange(0, 5)
        assert sol.paths[0].arcs == routes[0].arcs

    def test_largest_block_lowest_start(self):
        net = make_net([("A", "B", 100)], slots=16)
        state = SpectrumState(net)
        paint(state, net.outgoing("A")[0], "1110000101111000")  # blocks (3,4) (8,0?)...
        routes = compute_fiber_paths(net, "A", "B", 1)
        sol = assign_spectrum(state, routes, Request("A", "B", 3), PolicyParams(mode="st"))
        # blocks are (3,4), (8,1)? pattern: 111 0000 1 0 1111 000 -> free (3,4),(8,1),(13,3)
        assert sol.paths[0].range == SlotRange(3, 3)

    def test_fig2_single_blocked_multipath_serves(self):
        net, state = fragmented_diamond()
        routes = compute_fiber_paths(net, "S", "D", 4)
        req = Request("S", "D", 4)
        assert assign_spectrum(state, routes, req, PolicyParams(mode="st", k=4)) is None
        sol = assign_spectrum(state, routes, req, PolicyParams(mode="pt", k=4))
        assert sol is not None
        assert sorted(p.range for p in sol.paths) == [(0, 2), (0, 2)]
        assert {p.arcs[0].dst for p in sol.paths} == {"A", "B"}

    def test_trim_last_band(self):
        net, state = fragmented_diamond(pattern="0011001100011111")
        routes = compute_fiber_paths(net, "S", "D", 4)
        sol = assign_spectrum(state, routes, Request("S", "D", 5), PolicyParams(mode="pt"))
        # candidates at equal delay sort by start then rank:
        # (0,2)@p1, (0,2)@p2, then (4,2)@p1 trimmed to one slot
        assert [p.range for p in sol.paths] == [(0, 2), (0, 2), (4, 1)]

    def test_pt_m0_blocks_unequal_delay_paths(self):
        # min-delay path offers 2+2+3=7 slots; the 8th would need the longer
        # path, which M=0 rules out
        net, state = fragmented_diamond(lengths=(100, 100, 100, 150))
        routes = compute_fiber_paths(net, "S", "D", 4)
        req = Request("S", "D", 8)
        policy = PolicyParams(mode="pt", max_dd_ps=0)
        assert assign_spectrum(state, routes, req, policy) is None

    def test_pt_m0_serves_equal_delay_paths(self):
        net, state = fragmented_diamond(lengths=(100, 100, 100, 100))
        routes = compute_fiber_paths(net, "S", "D", 4)
        sol = assign_spectrum(state, routes, Request("S", "D", 8), PolicyParams(mode="pt", max_dd_ps=0))
        assert sol is not None and len(sol.paths) >= 2

    def test_joint_guard_feasibility_across_shared_arcs(self):
        # two routes share the first arc; accepted bands must clear each other
        net = make_net([("S", "A", 100), ("A", "D", 100), ("A", "E", 100), ("E", "D", 100)], slots=16)
        arcs = {(l.src, l.dst): l for v in net.nodes for l in net.outgoing(v)}
        state = SpectrumState(net)
        # shared S->A wide open; branch A->D has blocks (0,2),(8,2); A->E->D free
        paint(state, arcs[("A", "D")], "0011111100111111")
        routes = compute_fiber_paths(net, "S", "D", 4)
        sol = assign_spectrum(state, routes, Request("S", "D", 4), PolicyParams(mode="pt", gb=1))
        assert sol is not None
        # all bands pairwise clear on the shared arc
        for i, a in enumerate(sol.paths):
            for b in sol.paths[i + 1 :]:
                shared = {x.id for x in a.arcs} & {x.id for x in b.arcs}
                if shared:
                    lo, hi = sorted((a.range, b.range))
                    assert hi.start - (lo.start + lo.length - 1) > 1


class TestServe:
    def test_serve_release_round_trip(self):
        state = SpectrumState(US_NET)
        sol = serve(state, US_NET, Request("Seattle", "Miami", 4), PolicyParams())
        assert sol is not None and not state.is_all_free()
        release_solution(state, sol)
        assert state.is_all_free()

    def test_release_of_an_unallocated_plan_rejected(self):
        state = SpectrumState(US_NET)
        routes = compute_fiber_paths(US_NET, "Seattle", "Miami", 2)
        plan = assign_spectrum(state, routes, Request("Seattle", "Miami", 4), PolicyParams())
        assert plan is not None
        with pytest.raises(ValueError, match="solution was never allocated"):
            release_solution(state, plan)
        assert state.is_all_free()

    def test_negative_guard_band_rejected(self):
        with pytest.raises(ValueError, match="gb and max_dd_ps must be non-negative"):
            PolicyParams(gb=-1)

    def test_st_single_band_always(self):
        rng = random.Random(3)
        state = SpectrumState(US_NET)
        policy = PolicyParams(mode="st", k=8)
        for _ in range(120):
            src, dst = rng.sample(US_NET.nodes, 2)
            sol = serve(state, US_NET, Request(src, dst, rng.randint(1, 6)), policy)
            if sol is not None:
                assert len(sol.paths) == 1

    def test_st_implies_pt_per_decision(self):
        rng = random.Random(9)
        state = SpectrumState(US_NET)
        for _ in range(150):
            src, dst = rng.sample(US_NET.nodes, 2)
            req = Request(src, dst, rng.randint(1, 8))
            st_sol = serve(state.copy(), US_NET, req, PolicyParams(mode="st", k=6))
            pt_sol = serve(state.copy(), US_NET, req, PolicyParams(mode="pt", k=6))
            if st_sol is not None:
                assert pt_sol is not None
            # evolve the shared state with pt decisions
            serve(state, US_NET, req, PolicyParams(mode="pt", k=6))

    def test_k40_supersets_k10_per_decision(self):
        rng = random.Random(17)
        state = SpectrumState(US_NET)
        served_k10 = served_k40 = 0
        for _ in range(200):
            src, dst = rng.sample(US_NET.nodes, 2)
            req = Request(src, dst, rng.randint(2, 10))
            small = serve(state.copy(), US_NET, req, PolicyParams(mode="pt", k=10))
            big = serve(state.copy(), US_NET, req, PolicyParams(mode="pt", k=40))
            if small is not None:
                assert big is not None
                served_k10 += 1
            if big is not None:
                served_k40 += 1
            serve(state, US_NET, req, PolicyParams(mode="pt", k=10))
        assert served_k40 >= served_k10

    def test_solution_invariants(self):
        rng = random.Random(23)
        state = SpectrumState(US_NET)
        policy = PolicyParams(mode="pt", k=10, gb=1, max_dd_ps=10_000_000_000)
        for _ in range(150):
            src, dst = rng.sample(US_NET.nodes, 2)
            tr = rng.randint(1, 8)
            sol = serve(state, US_NET, Request(src, dst, tr), policy)
            if sol is None:
                continue
            assert sum(band.range.length for band in sol.paths) == tr
            assert sol.delay_spread_ps <= policy.max_dd_ps
            state.audit(policy.gb)

    def test_prefilled_path_cache_is_used(self, monkeypatch):
        # a caller's path_cache replaces the network's memo: its routes are
        # served as given and nothing is enumerated
        net = load_topology(US_TEXT, slots_per_link=16)
        policy = PolicyParams(mode="st", k=3)
        second = compute_fiber_paths(net, "Seattle", "Miami", 3)[1]
        cache = {("Seattle", "Miami", 3): [second]}

        def refuse(*args, **kwargs):
            raise AssertionError("routes were enumerated despite a filled path_cache")

        monkeypatch.setattr(heuristic, "compute_fiber_paths", refuse)
        state = SpectrumState(net)
        sol = serve(state, net, Request("Seattle", "Miami", 4), policy, path_cache=cache)
        assert sol is not None and sol.paths[0].arcs == second.arcs
        assert cache == {("Seattle", "Miami", 3): [second]}

    def test_empty_path_cache_is_filled_with_the_pairs_routes(self):
        # a key missing from a caller's path_cache is filled by the eager search
        net = load_topology(US_TEXT, slots_per_link=16)
        cache = {}
        sol = serve(SpectrumState(net), net, Request("Seattle", "Miami", 4),
                    PolicyParams(mode="st", k=3), path_cache=cache)
        expected = tuple(compute_fiber_paths(net, "Seattle", "Miami", 3))
        assert cache == {("Seattle", "Miami", 3): expected}
        assert sol is not None and sol.paths[0].arcs == expected[0].arcs

    def test_phase2_inspection_ceiling(self):
        stats = {}
        state = SpectrumState(US_NET)
        policy = PolicyParams(mode="pt", k=30)
        serve(state, US_NET, Request("Seattle", "Miami", 6), policy, stats=stats)
        bound = 2 * 30 * US_NET.slots_per_link * US_NET.num_arcs
        assert stats["phase2_slot_inspections"] <= bound

    def test_failed_band_rolls_back_the_bands_before_it(self, monkeypatch):
        # the plan holds two bands; the second allocate fails, so serve
        # releases the first and re-raises, and the ledger is as it was
        net, state = fragmented_diamond()
        req, policy = Request("S", "D", 4), PolicyParams(mode="pt", k=4)
        plan = assign_spectrum(state, compute_fiber_paths(net, "S", "D", 4), req, policy)
        assert len(plan.paths) == 2
        before = (state.occupancy_dump(), state.active_allocations)
        allocate = state.allocate
        calls = []

        def second_conflicts(arcs, rng, gb):
            calls.append(rng)
            if len(calls) == 2:
                raise ConflictError("the second band conflicts")
            return allocate(arcs, rng, gb)

        monkeypatch.setattr(state, "allocate", second_conflicts)
        with pytest.raises(ConflictError, match="the second band"):
            serve(state, net, req, policy)
        assert len(calls) == 2
        assert (state.occupancy_dump(), state.active_allocations) == before
        state.audit(0)

    def test_gvd_recorded_when_fiber_given(self):
        from flexrsa.physics import FiberParams

        state = SpectrumState(US_NET)
        sol = serve(
            state, US_NET, Request("Seattle", "Miami", 4), PolicyParams(), fiber_params=FiberParams()
        )
        assert sol.paths[0].gvd_ps > 0


def served_ledger(net, rng, k, requests=600):
    """A ledger filled by ``requests`` pt requests of 1-16 slots, then half
    released at random so that it is fragmented."""
    state = SpectrumState(net)
    fill = PolicyParams(mode="pt", k=k, gb=rng.randint(0, 2))
    served = []
    for _ in range(requests):
        src, dst = rng.sample(net.nodes, 2)
        sol = serve(state, net, Request(src, dst, rng.randint(1, 16)), fill)
        if sol is not None:
            served.append(sol)
    for sol in rng.sample(served, len(served) // 2):
        release_solution(state, sol)
    return state


def same_plans(state, routes, req, k):
    """Assert both planners agree on plan and slot inspections for every mode,
    guard band and delay bound; returns the plans."""
    plans = []
    for mode in ("st", "pt"):
        for gb in (0, 1, 2):
            for max_dd_ps in (0, 250_000_000, 128_000_000_000):
                policy = PolicyParams(mode=mode, k=k, gb=gb, max_dd_ps=max_dd_ps)
                got_stats, want_stats = {}, {}
                got = assign_spectrum(state, routes, req, policy, stats=got_stats)
                want = reference_assign_spectrum(state, routes, req, policy, want_stats)
                assert got == want, (req, policy)
                assert got_stats == want_stats, (req, policy)
                plans.append(got)
    return plans


def shapes(plans):
    return {None if plan is None else min(len(plan.paths), 2) for plan in plans}


class TestMaskPlanner:
    """The mask planner against the block-list planner it replaced."""

    @pytest.mark.parametrize("ledger_seed", [0, 1, 2])
    def test_same_plans_on_served_us_ledgers(self, ledger_seed):
        net = load_topology(US_TEXT, slots_per_link=128)
        rng = random.Random(f"mask-planner/{ledger_seed}")
        state = served_ledger(net, rng, k=10)
        plans = []
        for _ in range(40):
            src, dst = rng.sample(net.nodes, 2)
            req = Request(src, dst, rng.randint(1, 40))
            routes = memo_routes(net, src, dst, 10)
            plans += same_plans(state, routes, req, k=10)
        # blocked, one-band and aggregated plans all occur
        assert shapes(plans) == {None, 1, 2}

    @pytest.mark.parametrize("ledger_seed", [0, 1])
    def test_same_plans_on_online_shape(self, ledger_seed):
        # the controller workload's shape: US |F|=128, K=30 over a tr 1-16 background
        net = load_topology(US_TEXT, slots_per_link=128)
        rng = random.Random(f"mask-planner/online/{ledger_seed}")
        state = served_ledger(net, rng, k=30, requests=900)
        plans = []
        for _ in range(30):
            src, dst = rng.sample(net.nodes, 2)
            req = Request(src, dst, rng.randint(1, 40))
            plans += same_plans(state, memo_routes(net, src, dst, 30), req, k=30)
        assert shapes(plans) == {None, 1, 2}

    def test_same_plans_with_routes_out_of_delay_order(self):
        net = load_topology(US_TEXT, slots_per_link=128)
        rng = random.Random("mask-planner/shuffled")
        state = served_ledger(net, rng, k=10)
        plans = []
        for _ in range(30):
            src, dst = rng.sample(net.nodes, 2)
            routes = list(memo_routes(net, src, dst, 10))
            rng.shuffle(routes)
            req = Request(src, dst, rng.randint(1, 40))
            plans += same_plans(state, routes, req, k=10)
        assert shapes(plans) == {None, 1, 2}

    def test_same_plans_with_equal_delays(self):
        # a 4x4 torus with equal link lengths: many routes share a delay, so
        # fragment start and route rank order the candidates
        names = [f"n{r}{c}" for r in range(4) for c in range(4)]
        edges = [(f"n{r}{c}", f"n{r}{(c + 1) % 4}", 100) for r in range(4) for c in range(4)]
        edges += [(f"n{r}{c}", f"n{(r + 1) % 4}{c}", 100) for r in range(4) for c in range(4)]
        net = make_net(edges, slots=16)
        rng = random.Random("mask-planner/ties")
        state = SpectrumState(net)
        for v in names:
            for link in net.outgoing(v):
                paint(state, link, "".join("1" if rng.random() < 0.3 else "0" for _ in range(16)))
        plans = []
        for _ in range(60):
            src, dst = rng.sample(names, 2)
            req = Request(src, dst, rng.randint(1, 12))
            plans += same_plans(state, compute_fiber_paths(net, src, dst, 10), req, k=10)
        assert shapes(plans) == {None, 1, 2}
        # some aggregation took two bands from different routes of one delay
        assert any(
            len({(band.delay_ps, band.arcs) for band in plan.paths})
            > len({band.delay_ps for band in plan.paths})
            for plan in plans
            if plan is not None
        )


class TestLazyAggregation:
    """Step 2 turns masks into runs only until the demand is met or M is passed."""

    @staticmethod
    def ladder():
        # six disjoint 2-arc routes S->Xi->D, route i 50 us slower than route
        # i-1; every route offers 2+2 free slots (0-1 and 4-5)
        net = make_net(
            [("S", f"X{i}", 100 + 10 * i) for i in range(6)]
            + [(f"X{i}", "D", 100) for i in range(6)],
            slots=16,
        )
        state = SpectrumState(net)
        for link in net.outgoing("S"):
            paint(state, link, "0011001111111111")
        routes = compute_fiber_paths(net, "S", "D", 6)
        assert len(routes) == 6 and len({r.delay_ps for r in routes}) == 6
        return state, routes

    @staticmethod
    def counting_runs(monkeypatch):
        extract = heuristic.runs
        read = []

        def counted(free):
            read.append(free)
            return extract(free)

        monkeypatch.setattr(heuristic, "runs", counted)
        return read

    def test_stops_at_the_route_that_completes_the_demand(self, monkeypatch):
        state, routes = self.ladder()
        read = self.counting_runs(monkeypatch)
        sol = assign_spectrum(state, routes, Request("S", "D", 6), PolicyParams(mode="pt"))
        # 4 slots from the fastest route, 2 from the next
        assert [p.delay_ps for p in sol.paths] == [routes[0].delay_ps] * 2 + [routes[1].delay_ps]
        assert len(read) == 2

    def test_stops_past_anchor_plus_m(self, monkeypatch):
        state, routes = self.ladder()
        read = self.counting_runs(monkeypatch)
        policy = PolicyParams(mode="pt", max_dd_ps=60_000_000)  # 60 us: routes 0 and 1
        assert assign_spectrum(state, routes, Request("S", "D", 10), policy) is None
        assert len(read) == 2

    def test_step_one_reads_only_the_hit(self, monkeypatch):
        state, routes = self.ladder()
        read = self.counting_runs(monkeypatch)
        sol = assign_spectrum(state, routes, Request("S", "D", 2), PolicyParams(mode="pt"))
        assert sol.paths[0].range == SlotRange(0, 2) and len(read) == 1


class TestSpectrumPath:
    def band(self, **fields):
        arcs = tuple(US_NET.outgoing("Seattle")[:1])
        return SpectrumPath(arcs=arcs, range=SlotRange(2, 3), delay_ps=1_000, **fields)

    def test_keywords_and_defaults(self):
        band = self.band()
        assert (band.gvd_ps, band.allocation_id) == (0, None)
        assert band.range.length == 3 and band.delay_ps == 1_000
        assert self.band(gvd_ps=7, allocation_id=4)[3:] == (7, 4)

    def test_pickle_round_trip(self):
        band = self.band(gvd_ps=7, allocation_id=4)
        again = pickle.loads(pickle.dumps(band))
        assert again == band and type(again) is SpectrumPath

    def test_solutions_compare_and_hash_by_their_bands(self):
        one, other = Solution((self.band(),)), Solution((self.band(),))
        assert one == other and hash(one) == hash(other)
        assert one != Solution((self.band(allocation_id=1),))
        assert len({one, other, Solution((self.band(gvd_ps=1),))}) == 2


class TestRoute:
    def route(self):
        return compute_fiber_paths(US_NET, "Seattle", "Miami", 1)[0]

    def test_slotted(self):
        route = self.route()
        assert not hasattr(route, "__dict__")

    def test_arc_mask_has_one_bit_per_arc(self):
        route = self.route()
        assert route.arc_mask == sum(1 << a.id for a in route.arcs)
        # routes travel pickled inside the network's memo under --jobs N
        assert pickle.loads(pickle.dumps(route)).arc_mask == route.arc_mask

    def test_arc_mask_left_out_of_equality_hash_and_repr(self):
        route = self.route()
        twin = Route(route.arcs, route.nodes, route.delay_ps)
        object.__setattr__(twin, "arc_mask", 0)
        assert twin == route and hash(twin) == hash(route)
        assert repr(twin) == repr(route) and "arc_mask" not in repr(route)

    def test_frozenset_property_gone_from_code_and_tests(self):
        root = Path(__file__).resolve().parent.parent
        name = "arc_id" + "_set"
        users = [
            str(path.relative_to(root))
            for folder in ("src", "tests")
            for path in (root / folder).rglob("*.py")
            if name in path.read_text()
        ]
        assert users == []


def test_request_validation():
    with pytest.raises(ValueError):
        Request("A", "A", 3)
    with pytest.raises(ValueError):
        Request("A", "B", 0)
    with pytest.raises(ValueError):
        PolicyParams(mode="xx")
    with pytest.raises(ValueError):
        PolicyParams(k=0)
