import random

import pytest

from flexrsa import oracle
from flexrsa.heuristic import PolicyParams, Request, serve
from flexrsa.physics import FiberParams
from flexrsa.spectrum import SlotRange, SpectrumState

from util import make_net, paint


def band_cost(solution) -> int:
    return sum(p.range.length * len(p.arcs) for p in solution.paths)


class TestExactSolve:
    def test_single_free_arc(self):
        net = make_net([("S", "D", 100)], slots=4)
        state = SpectrumState(net)
        res = oracle.exact_solve(net, state, "S", "D", 2)
        assert res.cost == 2
        assert len(res.bands) == 1
        assert res.bands[0].range == SlotRange(0, 2)

    def test_fragmented_state_forces_two_two_slot_bands(self):
        # with gb=2 the guard ring shrinks every free run to exactly two
        # usable slots, so a 4-slot demand must split 2+2
        net = make_net(
            [("S", "A", 100), ("A", "D", 100), ("S", "B", 100), ("B", "D", 100)], slots=16
        )
        state = SpectrumState(net)
        arcs = {(l.src, l.dst): l for v in net.nodes for l in net.outgoing(v)}
        for pair in [("S", "A"), ("A", "D"), ("S", "B"), ("B", "D")]:
            paint(state, arcs[pair], "1100000011110000")
        for path in (("S", "A"), ("S", "B")):
            blocks = state.free_blocks(
                (arcs[path], arcs[(path[1], "D")]), 2
            )
            assert blocks == [(4, 2), (14, 2)]
        res = oracle.exact_solve(net, state, "S", "D", 4, gb=2, k=4)
        assert res is not None
        assert sorted(b.range.length for b in res.bands) == [2, 2]
        assert res.cost == 8

    def test_infeasible_returns_none(self):
        net = make_net([("S", "D", 100)], slots=4)
        state = SpectrumState(net)
        paint(state, net.outgoing("S")[0], "1111")
        assert oracle.exact_solve(net, state, "S", "D", 1) is None

    def test_demand_larger_than_spectrum(self):
        net = make_net([("S", "D", 100)], slots=4)
        state = SpectrumState(net)
        assert oracle.exact_solve(net, state, "S", "D", 5) is None

    def test_budget_guard_on_instance_size(self):
        net = make_net([(f"n{i}", f"n{i+1}", 100) for i in range(8)], slots=4)
        state = SpectrumState(net)
        with pytest.raises(oracle.BudgetExceeded):
            oracle.exact_solve(net, state, "n0", "n8", 1)
        wide = make_net([("S", "D", 100)], slots=oracle.OracleLimits().max_slots + 1)
        with pytest.raises(oracle.BudgetExceeded, match="17 slots exceed limit 16"):
            oracle.exact_solve(wide, SpectrumState(wide), "S", "D", 1)

    def test_same_path_bands_use_distinct_blocks(self):
        net = make_net([("S", "D", 100)], slots=8)
        state = SpectrumState(net)
        paint(state, net.outgoing("S")[0], "00110000")  # blocks (0,2) and (4,4)
        res = oracle.exact_solve(net, state, "S", "D", 4, k=1)
        # one 4-slot band in the big block beats any split
        assert res.cost == 4
        assert len(res.bands) == 1
        res6 = oracle.exact_solve(net, state, "S", "D", 6, k=1)
        assert res6 is not None and len(res6.bands) == 2

    def test_guard_band_respected_against_state(self):
        net = make_net([("S", "D", 100)], slots=8)
        state = SpectrumState(net)
        paint(state, net.outgoing("S")[0], "00010000")
        res = oracle.exact_solve(net, state, "S", "D", 2, gb=1, k=1)
        # slots 2,3,4 unavailable; candidates (0,2) or (5..7)
        assert res.bands[0].range == SlotRange(0, 2)
        res3 = oracle.exact_solve(net, state, "S", "D", 3, gb=1, k=1)
        assert res3.bands[0].range == SlotRange(5, 3)

    def test_include_gvd_tightens_delay(self):
        net = make_net([("S", "A", 1000), ("A", "D", 1000), ("S", "B", 1000), ("B", "D", 1000)], slots=8)
        state = SpectrumState(net)
        arcs = {(l.src, l.dst): l for v in net.nodes for l in net.outgoing(v)}
        for pair in [("S", "A"), ("A", "D"), ("S", "B"), ("B", "D")]:
            paint(state, arcs[pair], "00110011")
        relaxed = oracle.exact_solve(net, state, "S", "D", 4, max_dd_ps=0, k=2)
        assert relaxed is not None  # equal-delay paths, no skew term
        strict = oracle.exact_solve(
            net, state, "S", "D", 4, max_dd_ps=0, fiber_params=FiberParams(), k=2,
        )
        assert strict is None  # dispersion skew alone exceeds M=0


class TestCheckerAgreement:
    def test_gvd_solution_passes_checker_with_real_dispersion(self):
        from flexrsa import ilp

        net = make_net(
            [("S", "A", 900), ("A", "D", 800), ("S", "B", 850), ("B", "D", 850)], slots=8
        )
        state = SpectrumState(net)
        arcs = {(l.src, l.dst): l for v in net.nodes for l in net.outgoing(v)}
        for pair in [("S", "A"), ("A", "D"), ("S", "B"), ("B", "D")]:
            paint(state, arcs[pair], "00110011")
        fiber = FiberParams()
        res = oracle.exact_solve(
            net, state, "S", "D", 4, max_dd_ps=10**9, fiber_params=fiber, k=2,
        )
        assert res is not None and len(res.bands) >= 2
        model = ilp.build_model(
            net, "S", "D", 4, [b.route for b in res.bands],
            slots=8, gb=0, max_dd_ps=10**9, fiber_params=fiber,
            occupied=state.occupied_by_arc(),
        )
        a = ilp.assignment_from_bands(model, [b.range for b in res.bands])
        assert ilp.check_assignment(model, a) == []


class TestDispersionSwitch:
    """``fiber_params`` alone switches the skew: None means 0, FiberParams the physics."""

    def test_none_accepts_and_fiber_params_rejects_equal_delay_pair(self):
        from flexrsa import ilp

        # two disjoint 2000 km routes of equal delay, free blocks (0,2) and (4,2)
        net = make_net([("S", "A", 1000), ("A", "D", 1000), ("S", "B", 1000), ("B", "D", 1000)], slots=8)
        state = SpectrumState(net)
        arcs = {(l.src, l.dst): l for v in net.nodes for l in net.outgoing(v)}
        for pair in [("S", "A"), ("A", "D"), ("S", "B"), ("B", "D")]:
            paint(state, arcs[pair], "00110011")
        routes = oracle.enumerate_routes(net, "S", "D", 2)
        assert routes[0].delay_ps == routes[1].delay_ps
        occupied = state.occupied_by_arc()
        bands = [SlotRange(0, 2), SlotRange(0, 2)]
        policy = PolicyParams(mode="pt", k=2, max_dd_ps=0)
        for fiber, legal in ((None, True), (FiberParams(), False)):
            model = ilp.build_model(
                net, "S", "D", 4, routes, slots=8, max_dd_ps=0, fiber_params=fiber,
                occupied=occupied,
            )
            a = ilp.assignment_from_bands(model, bands)
            assert (a["gvd_p1"] == a["gvd_p2"] == 0) is legal
            assert (ilp.check_assignment(model, a) == []) is legal
            assert oracle.check_bands(
                routes, occupied, bands, slots=8, gb=0, max_dd_ps=0, demand=4,
                fiber_params=fiber,
            ) is legal
            res = oracle.exact_solve(net, state, "S", "D", 4, max_dd_ps=0, k=2, fiber_params=fiber)
            assert (res is not None) is legal
            sol = serve(state.copy(), net, Request("S", "D", 4), policy, fiber_params=fiber)
            assert len(sol.paths) == 2
            assert all(p.gvd_ps == 0 for p in sol.paths) is legal


class TestAgainstHeuristic:
    def test_cost_never_worse_and_equality_on_clean_single_path(self):
        rng = random.Random(77)
        equalities = 0
        for _ in range(10):
            n = rng.randint(4, 5)
            names = [f"n{i}" for i in range(n)]
            edges = []
            for i in range(1, n):
                edges.append((names[i], names[rng.randrange(i)], 300))
            for _ in range(rng.randint(1, 3)):
                a, b = rng.sample(names, 2)
                if not any({a, b} == {x, y} for x, y, _ in edges):
                    edges.append((a, b, 300))
            net = make_net(edges, slots=8)
            state = SpectrumState(net)
            for v in names:
                for link in net.outgoing(v):
                    bits = "".join("1" if rng.random() < 0.3 else "0" for _ in range(8))
                    paint(state, link, bits)
            src, dst = rng.sample(names, 2)
            demand = rng.randint(1, 4)
            policy = PolicyParams(mode="pt", k=4, gb=0)
            heur = serve(state.copy(), net, Request(src, dst, demand), policy)
            res = oracle.exact_solve(
                net, state, src, dst, demand, gb=0, k=4,
                limits=oracle.OracleLimits(max_bands=demand),
            )
            if res is None:
                assert heur is None
                continue
            if heur is not None:
                assert res.cost <= band_cost(heur)
                # uniform lengths: a single band on the min-delay path is optimal
                first = oracle.enumerate_routes(net, src, dst, 1)[0]
                if len(heur.paths) == 1 and heur.paths[0].arcs == first.arcs:
                    assert res.cost == band_cost(heur)
                    equalities += 1
        assert equalities >= 3  # the clean case must actually occur


def test_enumerate_routes_ordering():
    net = make_net([("A", "B", 200), ("B", "C", 200), ("A", "C", 600)], slots=4)
    routes = oracle.enumerate_routes(net, "A", "C", 5)
    assert [r.nodes for r in routes] == [("A", "B", "C"), ("A", "C")]
