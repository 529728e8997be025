import hashlib
import random
from fractions import Fraction
from importlib import resources
from itertools import permutations

import pytest

from flexrsa import crossval, heuristic, ilp, oracle
from flexrsa.heuristic import PolicyParams, Request, assign_spectrum, compute_fiber_paths
from flexrsa.physics import FiberParams
from flexrsa.spectrum import SlotRange, SpectrumState
from flexrsa.topology import load_topology

from util import (
    circulant_15_text,
    make_net,
    milp_solve,
    paint,
    reference_assignment_from_bands,
    reference_check_assignment,
)

def shared_path_model(npaths=2, slots=8, gb=0, occupied=None, demand=2, fiber=None):
    """npaths candidate slots over one and the same 3-arc route."""
    net = make_net([("S", "A", 100), ("A", "B", 100), ("B", "D", 100)], slots=slots)
    route = compute_fiber_paths(net, "S", "D", 1)[0]
    model = ilp.build_model(
        net, "S", "D", demand, [route] * npaths,
        slots=slots, gb=gb, max_dd_ps=10**12, fiber_params=fiber, occupied=occupied,
    )
    return net, route, model


def diamond_model(demand=4, slots=16, gb=0, occupied=None, fiber=None):
    net = make_net(
        [("S", "A", 100), ("A", "D", 100), ("S", "B", 100), ("B", "D", 100)], slots=slots
    )
    routes = compute_fiber_paths(net, "S", "D", 2)
    model = ilp.build_model(
        net, "S", "D", demand, routes,
        slots=slots, gb=gb, max_dd_ps=10**12, fiber_params=fiber, occupied=occupied,
    )
    return net, routes, model


class TestModelShape:
    def test_variable_count_formulas(self):
        _, routes, model = diamond_model()
        counts = model.variable_counts()
        npaths, slots, e_used = 2, 16, 4
        assert counts["y"] == npaths * slots
        assert counts["xei"] == npaths * e_used * slots
        assert counts["o"] == npaths * (npaths - 1) // 2
        assert counts["x"] == npaths
        assert counts["pd"] == counts["T"] == counts["gvd"] == npaths

    def test_y_count_p4_f16(self):
        net = make_net(
            [("S", "A", 100), ("A", "D", 100), ("S", "B", 100), ("B", "D", 100),
             ("S", "C", 100), ("C", "D", 100), ("S", "D", 250)],
            slots=16,
        )
        routes = compute_fiber_paths(net, "S", "D", 4)
        assert len(routes) == 4
        model = ilp.build_model(net, "S", "D", 4, routes, slots=16)
        assert model.variable_counts()["y"] == 64

    def test_gamma_vars_per_pair_equal_shared_arcs(self):
        _, _, model = shared_path_model(npaths=2)
        assert model.variable_counts()["g"] == 3  # 3 shared arcs, one pair

    def test_single_path_has_no_pair_machinery(self):
        _, _, model = shared_path_model(npaths=1)
        counts = model.variable_counts()
        assert "o" not in counts and "g" not in counts
        assert model.constraints_by_family("diff-delay") == []
        assert model.constraints_by_family("lin-gamma") == []
        assert not [c for c in model.constraints_by_family("guard-band")]

    def test_empty_candidates_rejected(self):
        net = make_net([("S", "D", 100)], slots=4)
        with pytest.raises(ilp.ModelError):
            ilp.build_model(net, "S", "D", 1, [], slots=4)
        with pytest.raises(ilp.ModelError):
            ilp.build_model(net, "S", "D", 1, compute_fiber_paths(net, "S", "D", 1), slots=0)
        with pytest.raises(ilp.ModelError, match="candidate path with no arcs"):
            ilp.build_model(net, "S", "D", 1, [()], slots=4)

    @pytest.mark.parametrize(
        "demand, gb, max_dd_ps, name",
        [(0, 0, 0, "demand"), (-2, 0, 0, "demand"), (1, -1, 0, "gb"), (1, 0, -1, "max_dd_ps")],
    )
    def test_out_of_range_request_rejected(self, demand, gb, max_dd_ps, name):
        net = make_net([("S", "D", 100)], slots=4)
        with pytest.raises(ilp.ModelError, match=name):
            ilp.build_model(
                net, "S", "D", demand, compute_fiber_paths(net, "S", "D", 1),
                slots=4, gb=gb, max_dd_ps=max_dd_ps,
            )

    def test_demand_above_path_capacity_rejected(self):
        net = make_net([("S", "A", 100), ("A", "D", 100), ("S", "D", 300)], slots=4)
        routes = compute_fiber_paths(net, "S", "D", 2)
        assert len(routes) == 2
        with pytest.raises(ilp.ModelError, match=r"demand 9 exceeds the capacity \|P\|\*\|F\| = 2\*4 = 8"):
            ilp.build_model(net, "S", "D", 9, routes, slots=4)
        model = ilp.build_model(net, "S", "D", 8, routes, slots=4)
        assert [c.rhs for c in model.constraints_by_family("bandwidth")] == [8]

    def test_only_linear_families_present(self):
        _, _, model = diamond_model(gb=2)
        assert {c.family for c in model.constraints} <= set(ilp.FAMILIES)


class TestLinearizations:
    def test_gamma_forced_to_product(self):
        _, _, model = shared_path_model(npaths=2)
        cons = [
            c
            for c in model.constraints_by_family("lin-gamma")
            if any(n.startswith("g_p1_p2_e0") for n, _ in c.coeffs)
            and not any(n.startswith("o_") for n, _ in c.coeffs)
        ]
        assert len(cons) == 3
        for xp in (0, 1):
            for xq in (0, 1):
                feasible = set()
                for gval in (0, 1):
                    env = {"g_p1_p2_e0": gval, "xe_p1_e0": xp, "xe_p2_e0": xq}
                    if all(self._holds(c, env) for c in cons):
                        feasible.add(gval)
                assert feasible == {xp * xq}

    def test_z_forced_to_product(self):
        slots = 8
        _, _, model = shared_path_model(npaths=1, slots=slots)
        cons = [
            c
            for c in model.constraints_by_family("lin-z")
            if any(n == "z_p1_e0" for n, _ in c.coeffs)
        ]
        assert len(cons) == 3
        for xe in (0, 1):
            for t in range(slots + 1):
                feasible = {
                    z
                    for z in range(slots + 1)
                    if all(
                        self._holds(c, {"z_p1_e0": z, "xe_p1_e0": xe, "T_p1": t})
                        for c in cons
                    )
                }
                assert feasible == {t * xe}, (xe, t)

    @staticmethod
    def _holds(con, env):
        lhs = sum(Fraction(env[n]) * c for n, c in con.coeffs)
        if con.relation == "<=":
            return lhs <= con.rhs
        if con.relation == ">=":
            return lhs >= con.rhs
        return lhs == con.rhs


class TestCheckAssignment:
    def test_all_zero_violates_bandwidth(self):
        _, routes, model = diamond_model(demand=4)
        a = ilp.assignment_from_bands(model, [None, None])
        bad = ilp.check_assignment(model, a)
        assert bad and all(fam == "bandwidth" for fam, _ in bad)

    def test_same_slots_on_shared_arc_violates_non_overlap(self):
        _, _, model = shared_path_model(npaths=2, demand=4)
        a = ilp.assignment_from_bands(model, [SlotRange(0, 2), SlotRange(0, 2)])
        bad = ilp.check_assignment(model, a)
        assert ("non-overlap", 0) in [(f, i) for f, i in bad][:50] or any(
            f == "non-overlap" for f, _ in bad
        )

    def test_fig2_two_band_solution_feasible(self):
        net, routes, model = diamond_model(demand=4)
        a = ilp.assignment_from_bands(model, [SlotRange(0, 2), SlotRange(0, 2)])
        assert ilp.check_assignment(model, a) == []

    def test_occupied_slots_excluded_by_guard_family(self):
        net = make_net([("S", "A", 100), ("A", "D", 100)], slots=8)
        route = compute_fiber_paths(net, "S", "D", 1)[0]
        occupied = {route.arcs[0].id: (3,)}
        model = ilp.build_model(
            net, "S", "D", 2, [route], slots=8, gb=1, max_dd_ps=10**12,
            occupied=occupied,
        )
        # slots 2,3,4 are forbidden (within gb=1 of slot 3)
        ok = ilp.assignment_from_bands(model, [SlotRange(5, 2)])
        assert ilp.check_assignment(model, ok) == []
        bad = ilp.assignment_from_bands(model, [SlotRange(4, 2)])
        assert any(f == "guard-band" for f, _ in ilp.check_assignment(model, bad))

    def test_diff_delay_binds_only_used_pairs(self):
        net = make_net(
            [("S", "A", 100), ("A", "D", 100), ("S", "B", 4000), ("B", "D", 4000)], slots=8
        )
        routes = compute_fiber_paths(net, "S", "D", 2)
        model = ilp.build_model(
            net, "S", "D", 2, routes, slots=8, gb=0,
            max_dd_ps=1_000_000,
        )
        # only the short path used: the unused long path must not violate M
        a = ilp.assignment_from_bands(model, [SlotRange(0, 2), None])
        assert ilp.check_assignment(model, a) == []
        both = ilp.assignment_from_bands(model, [SlotRange(0, 1), SlotRange(0, 1)])
        assert any(f == "diff-delay" for f, _ in ilp.check_assignment(model, both))

    def test_missing_variable_raises(self):
        _, _, model = diamond_model()
        with pytest.raises(ilp.ModelError):
            ilp.check_assignment(model, {})

    def test_bands_need_the_models_metadata_and_one_entry_per_path(self):
        _, _, model = diamond_model()
        with pytest.raises(ilp.ModelError, match="model has no instance metadata"):
            ilp.assignment_from_bands(ilp.parse_lp(ilp.export_lp(model)), [None, None])
        with pytest.raises(ilp.ModelError, match="expected 2 band entries, got 1"):
            ilp.assignment_from_bands(model, [None])

    def test_bounds_reported(self):
        _, _, model = diamond_model()
        a = ilp.assignment_from_bands(model, [SlotRange(0, 2), SlotRange(2, 2)])
        a["T_p1"] = 99
        assert any(f == "bounds" for f, _ in ilp.check_assignment(model, a))


def objective_value(model, assignment):
    """The model's own objective (total slot-arc usage) at ``assignment``."""
    return sum(c * assignment[n] for n, c in model.objective)


class TestCost:
    def test_two_slot_band_three_arcs(self):
        _, _, model = shared_path_model(npaths=1, demand=2)
        a = ilp.assignment_from_bands(model, [SlotRange(0, 2)])
        assert objective_value(model, a) == 6

    def test_two_one_slot_bands_arcs_2_and_3(self):
        net = make_net(
            [("S", "A", 100), ("A", "D", 100), ("S", "B", 100), ("B", "C", 100), ("C", "D", 100)],
            slots=8,
        )
        routes = compute_fiber_paths(net, "S", "D", 2)
        assert [len(r.arcs) for r in routes] == [2, 3]
        model = ilp.build_model(net, "S", "D", 2, routes, slots=8)
        a = ilp.assignment_from_bands(model, [SlotRange(0, 1), SlotRange(1, 1)])
        assert objective_value(model, a) == 5

    def test_fig2_style_cost_eight(self):
        _, _, model = diamond_model(demand=4)
        a = ilp.assignment_from_bands(model, [SlotRange(0, 2), SlotRange(0, 2)])
        assert objective_value(model, a) == 8


class TestExport:
    def test_round_trip_toy(self):
        net = make_net([("S", "D", 100)], slots=2)
        route = compute_fiber_paths(net, "S", "D", 1)[0]
        model = ilp.build_model(net, "S", "D", 1, [route], slots=2)
        again = ilp.parse_lp(ilp.export_lp(model))
        assert again == model

    def test_round_trip_with_guard_and_occupancy(self):
        _, _, model = diamond_model(gb=2, occupied={0: (1, 2)}, fiber=FiberParams())
        text = ilp.export_lp(model)
        assert ilp.parse_lp(text) == model
        assert "gb_" in text and "dd_" in text

    def test_export_bit_stable(self):
        _, _, m1 = diamond_model(gb=1, fiber=FiberParams())
        _, _, m2 = diamond_model(gb=1, fiber=FiberParams())
        assert ilp.export_lp(m1) == ilp.export_lp(m2)

    def test_objective_lists_all_xei_with_unit_coefficient(self):
        _, _, model = diamond_model()
        names = {n for n, c in model.objective}
        assert names == {n for n in model.variables if n.startswith("xei_")}
        assert all(c == 1 for _, c in model.objective)
        first_line = ilp.export_lp(model).splitlines()[1]
        assert first_line.lstrip().startswith("obj:")


class TestSolverCrossValidation:
    def test_milp_matches_oracle_on_tiny_instances(self):
        rng = random.Random(20)
        checked = 0
        for trial in range(40):
            if checked >= 20:
                break
            slots = rng.choice([4, 6])
            demand = rng.randint(1, 3)
            gb = rng.randint(0, 1)
            net = make_net(
                [
                    ("S", "A", rng.randint(100, 400)),
                    ("A", "D", rng.randint(100, 400)),
                    ("S", "B", rng.randint(100, 400)),
                    ("B", "D", rng.randint(100, 400)),
                ],
                slots=slots,
            )
            state = SpectrumState(net)
            for v in ("S", "A", "B"):
                for link in net.outgoing(v):
                    bits = "".join("1" if rng.random() < 0.3 else "0" for _ in range(slots))
                    paint(state, link, bits)
            routes = oracle.enumerate_routes(net, "S", "D", 2)
            best = oracle.exact_solve(
                net, state, "S", "D", demand,
                gb=gb, max_dd_ps=10**12, k=2,
                limits=oracle.OracleLimits(max_bands=len(routes)),
                max_bands_per_path=1,
            )
            model = ilp.build_model(
                net, "S", "D", demand, routes,
                slots=slots, gb=gb, max_dd_ps=10**12,
                occupied=state.occupied_by_arc(),
            )
            solved = milp_solve(ilp.parse_lp(ilp.export_lp(model)))
            if best is None:
                assert solved is None
            else:
                assert solved is not None
                assert solved[0] == best.cost
            checked += 1
        assert checked >= 20


class TestHeuristicSolutionsPassChecker:
    def test_translated_solutions_feasible(self):
        rng = random.Random(31)
        net = make_net(
            [("S", "A", 100), ("A", "D", 150), ("S", "B", 120), ("B", "D", 130),
             ("A", "B", 80)],
            slots=12,
        )
        for _ in range(40):
            state = SpectrumState(net)
            for v in net.nodes:
                for link in net.outgoing(v):
                    bits = "".join("1" if rng.random() < 0.35 else "0" for _ in range(12))
                    paint(state, link, bits)
            policy = PolicyParams(mode="pt", k=4, gb=rng.randint(0, 1))
            req = Request("S", "D", rng.randint(1, 5))
            routes = compute_fiber_paths(net, "S", "D", policy.k)
            plan = assign_spectrum(state, routes, req, policy)
            if plan is None:
                continue
            model = ilp.build_model(
                net, "S", "D", req.demand_slots,
                [p.arcs for p in plan.paths],
                slots=12, gb=policy.gb, max_dd_ps=policy.max_dd_ps,
                occupied=state.occupied_by_arc(),
            )
            a = ilp.assignment_from_bands(model, [p.range for p in plan.paths])
            assert ilp.check_assignment(model, a) == []

    def test_gvd_terms_with_real_dispersion(self):
        # with real dispersion the checker passes once M absorbs the skew
        net = make_net([("S", "A", 800), ("A", "D", 900), ("S", "D", 2000)], slots=8)
        state = SpectrumState(net)
        paint(state, net.outgoing("S")[0], "11100000")  # S->A: 5 free slots
        paint(state, net.outgoing("S")[1], "00001110")  # S->D: blocks of 4 and 1
        routes = compute_fiber_paths(net, "S", "D", 2)
        policy = PolicyParams(mode="pt", k=2, gb=0, max_dd_ps=10**10)
        req = Request("S", "D", 6)
        plan = assign_spectrum(state, routes, req, policy)
        assert plan is not None and len(plan.paths) >= 2
        fiber = FiberParams()
        from flexrsa.physics import gvd_differential_delay_ps

        skews = [
            gvd_differential_delay_ps(fiber, p.range.length, sum(a.length_km for a in p.arcs))
            for p in plan.paths
        ]
        model = ilp.build_model(
            net, "S", "D", req.demand_slots, [p.arcs for p in plan.paths],
            slots=8, gb=0, max_dd_ps=policy.max_dd_ps + 2 * max(skews),
            fiber_params=fiber, occupied=state.occupied_by_arc(),
        )
        a = ilp.assignment_from_bands(model, [p.range for p in plan.paths])
        assert ilp.check_assignment(model, a) == []


M_250US_PS = 250_000_000


@pytest.fixture(scope="module")
def golden_cases():
    """(model, routes): two 15-node-ring pairs and 20 US requests over a served background.

    |F|=12, |P|=3, GB=1 and M=250 us, with real dispersion: every row family
    appears, the gvd rows carry non-integer coefficients, and the guard-band
    family has both occupancy and pairwise rows.
    """
    slots, paths = 12, 3
    fiber = FiberParams()
    ring = load_topology(circulant_15_text(), slots_per_link=slots)
    cases = []
    for dst in ("v03", "v07"):
        routes = compute_fiber_paths(ring, "v00", dst, paths)
        model = ilp.build_model(
            ring, "v00", dst, 4, routes,
            slots=slots, gb=1, max_dd_ps=M_250US_PS, fiber_params=fiber,
        )
        cases.append((model, routes))
    us = load_topology(
        resources.files("flexrsa").joinpath("data/us_backbone.txt").read_text(),
        slots_per_link=slots,
    )
    rng = random.Random(2013)
    pairs = list(permutations(us.nodes, 2))
    state = SpectrumState(us)
    background = PolicyParams(mode="pt", k=paths, gb=1)
    for _ in range(12):
        src, dst = rng.choice(pairs)
        heuristic.serve(state, us, Request(src, dst, rng.randint(1, 4)), background)
    occupied = state.occupied_by_arc()
    for src, dst in rng.sample(pairs, 20):
        routes = compute_fiber_paths(us, src, dst, paths)
        model = ilp.build_model(
            us, src, dst, rng.randint(1, 4), routes,
            slots=slots, gb=1, max_dd_ps=M_250US_PS, fiber_params=fiber,
            occupied=occupied,
        )
        cases.append((model, routes))
    return cases


@pytest.fixture(scope="module")
def golden_models(golden_cases):
    return [model for model, _ in golden_cases]


class TestGoldenExport:
    # sha256 of export_lp over golden_models, in order; pins the LP bytes
    LP_SHA256 = "913bf52f915d19a4ffa013ede0b45413fd93ce961fc73027c7529b1fb93f62ff"

    def test_model_set_exercises_gvd_fractions_and_guard_bands(self, golden_models):
        rows = [c for m in golden_models for c in m.constraints]
        assert {c.family for c in rows} == set(ilp.FAMILIES)
        assert any(c.denominator != 1 for r in rows if r.family == "gvd" for _, c in r.coeffs)
        occupancy_rows = [r for r in rows if r.family == "guard-band" and len(r.coeffs) == 1]
        assert occupancy_rows and len(occupancy_rows) < sum(r.family == "guard-band" for r in rows)

    def test_export_bytes_pinned_and_round_trip(self, golden_models):
        digest = hashlib.sha256()
        for model in golden_models:
            text = ilp.export_lp(model)
            assert ilp.parse_lp(text) == model
            digest.update(text.encode())
        assert digest.hexdigest() == self.LP_SHA256


class TestRepresentation:
    def test_integers_outside_gvd_rows(self, golden_models):
        for model in golden_models[::4]:
            for system in (model, ilp.parse_lp(ilp.export_lp(model))):
                assert all(type(c) is int for _, c in system.objective)
                for con in system.constraints:
                    if con.family == "gvd":
                        assert con.rhs == Fraction(1, 2)
                        continue
                    assert type(con.rhs) is int, con.name
                    assert all(type(c) is int for _, c in con.coeffs), con.name

    def test_gvd_one_unit_off_physics_is_a_violation(self):
        _, _, model = diamond_model(demand=4, fiber=FiberParams())
        legal = ilp.assignment_from_bands(model, [SlotRange(0, 2), SlotRange(0, 2)])
        assert legal["gvd_p1"] > 1
        assert ilp.check_assignment(model, legal) == []
        for delta in (-1, 1):
            moved = {**legal, "gvd_p1": legal["gvd_p1"] + delta}
            bad = ilp.check_assignment(model, moved)
            assert bad and {family for family, _ in bad} == {"gvd"}, (delta, bad)


class TestRecords:
    def test_fields_and_defaults(self):
        assert ilp.VarDecl._fields == ("name", "kind", "lb", "ub")
        assert ilp.VarDecl("y_p1_f0", "binary") == ilp.VarDecl("y_p1_f0", "binary", 0, 1)
        decl = ilp.VarDecl("T_p1", "integer", ub=16)
        assert (decl.name, decl.kind, decl.lb, decl.ub) == ("T_p1", "integer", 0, 16)
        assert ilp.Constraint._fields == ("name", "family", "coeffs", "relation", "rhs")
        con = ilp.Constraint("bw_0", "bandwidth", (("y_p1_f0", 1),), "=", 2)
        assert (con.name, con.family, con.coeffs, con.relation, con.rhs) == (
            "bw_0", "bandwidth", (("y_p1_f0", 1),), "=", 2,
        )

    def test_span_row_at_i_equals_j_has_two_terms(self):
        slots = 8
        _, _, model = shared_path_model(npaths=1, slots=slots)
        span = [c for c in model.constraints_by_family("consecutive") if c.relation == "<="]
        # per route arc: one i == j row, then the rows j = i+1 .. F-1, for each slot i
        assert len(span) == 3 * slots * (slots + 1) // 2
        first = span[0]
        assert first.coeffs == (("xei_p1_e0_f0", 2 * slots), ("T_p1", -1))
        assert first.rhs == 2 * slots - 1
        second = (("xei_p1_e0_f1", slots + 1), ("xei_p1_e0_f0", slots), ("T_p1", -1))
        assert span[1].coeffs == second
        diagonal = [c for c in span if len(c.coeffs) == 2]
        assert len(diagonal) == 3 * slots
        assert all(c.coeffs[0][1] == 2 * slots for c in diagonal)


class TestRoundTripOrder:
    def test_parse_keeps_variable_order_and_text(self, golden_models):
        for model in golden_models:
            text = ilp.export_lp(model)
            parsed = ilp.parse_lp(text)
            assert list(parsed.variables) == list(model.variables)
            assert list(parsed.variables.values()) == list(model.variables.values())
            assert ilp.export_lp(parsed) == text

    def test_same_violations_on_model_and_parse(self, golden_models):
        for model in golden_models[::5]:
            parsed = ilp.parse_lp(ilp.export_lp(model))
            bands = [SlotRange(0, 2)] + [None] * (len(model.meta.paths) - 1)
            a = ilp.assignment_from_bands(model, bands)
            a["T_p1"] = 99
            bad = ilp.check_assignment(model, a)
            assert ("bounds", list(model.variables).index("T_p1")) in bad
            assert ilp.check_assignment(parsed, a) == bad

    def test_undeclared_row_variable_rejected(self):
        _, _, model = diamond_model()
        text = ilp.export_lp(model).replace(" T_p1 ", " T_p9 ", 1)
        with pytest.raises(ilp.ModelError, match="T_p9"):
            ilp.parse_lp(text)

    def test_greater_equal_row_rejected(self):
        # export_lp writes only "=" and "<=" rows, and the parser reads only those
        _, _, model = diamond_model()
        text = ilp.export_lp(model)
        assert " >= " not in text
        name = model.constraints[0].name
        row = next(line for line in text.splitlines() if line.startswith(f" {name}: "))
        bad = row.rsplit(" ", 2)[0] + " >= " + row.rsplit(" ", 1)[1]
        with pytest.raises(ilp.ModelError, match=f"row {name} has no relation"):
            ilp.parse_lp(text.replace(row, bad, 1))


def _random_bands(model, rng, count):
    """``count`` band lists: per path slot, a band of 1-3 slots or (40%) none."""
    slots = model.meta.slots
    for _ in range(count):
        bands = []
        for _ in model.meta.paths:
            length = rng.randint(1, 3)
            band = SlotRange(rng.randrange(slots - length + 1), length)
            bands.append(None if rng.random() < 0.4 else band)
        yield bands


def _perturbed_assignments(model, rng, count):
    """Assignments from random bands, with a few variables then moved.

    Random bands land on occupied or guard slots; a moved slot variable
    breaks the span rule, a moved skew the gvd rows, and a value one past a
    bound the bounds check.
    """
    names = list(model.variables)
    skews = [n for n in names if n.startswith("gvd_")]
    for bands in _random_bands(model, rng, count):
        a = ilp.assignment_from_bands(model, bands)
        for name in rng.sample(names, rng.randint(0, 3)):
            decl = model.variables[name]
            a[name] = rng.randint(decl.lb - 1, decl.ub + 1)
        if rng.random() < 0.5:
            a[rng.choice(skews)] += rng.choice((-1, 1))
        yield a


class TestCheckMatchesReference:
    # families that some perturbed assignment must break
    BROKEN = {"bounds", "consecutive", "guard-band", "gvd"}

    def test_golden_models(self, golden_models):
        rng = random.Random(15)
        seen = set()
        for model in golden_models[::3]:
            for a in _perturbed_assignments(model, rng, 6):
                bad = ilp.check_assignment(model, a)
                assert bad == reference_check_assignment(model, a)
                seen.update(family for family, _ in bad)
        assert self.BROKEN <= seen

    def test_crossval_models(self):
        rng = random.Random(16)
        seen = set()
        for _ in range(30):
            inst = crossval.random_instance(rng)
            routes = oracle.enumerate_routes(inst.net, inst.source, inst.destination, 3)
            if not routes:
                continue
            model = ilp.build_model(
                inst.net, inst.source, inst.destination, inst.demand, routes,
                slots=inst.net.slots_per_link, gb=inst.gb, max_dd_ps=inst.max_dd_ps,
                fiber_params=rng.choice((None, FiberParams())),
                occupied=inst.state.occupied_by_arc(),
            )
            for a in _perturbed_assignments(model, rng, 4):
                bad = ilp.check_assignment(model, a)
                assert bad == reference_check_assignment(model, a)
                seen.update(family for family, _ in bad)
        assert self.BROKEN <= seen


def _edge_bands(model):
    """No band at all, and on every path slot a band that runs past the spectrum."""
    paths = len(model.meta.paths)
    yield [None] * paths
    yield [SlotRange(model.meta.slots - 1, 2)] * paths


class TestAssignmentMatchesReference:
    """``assignment_from_bands`` fills the model's own names; the reference formats them anew."""

    def test_golden_models(self, golden_cases):
        rng = random.Random(19)
        for model, routes in golden_cases:
            for bands in [*_random_bands(model, rng, 8), *_edge_bands(model)]:
                assert ilp.assignment_from_bands(model, bands) == (
                    reference_assignment_from_bands(model, routes, bands)
                )

    @pytest.mark.parametrize("fiber", [None, FiberParams()], ids=["no-fiber", "fiber"])
    def test_crossval_models(self, fiber):
        rng = random.Random(20)
        checked = 0
        for _ in range(40):
            inst = crossval.random_instance(rng)
            routes = oracle.enumerate_routes(inst.net, inst.source, inst.destination, 3)
            if not routes:
                continue
            model = ilp.build_model(
                inst.net, inst.source, inst.destination, inst.demand, routes,
                slots=inst.net.slots_per_link, gb=inst.gb, max_dd_ps=inst.max_dd_ps,
                fiber_params=fiber, occupied=inst.state.occupied_by_arc(),
            )
            for bands in [*_random_bands(model, rng, 6), *_edge_bands(model)]:
                assert ilp.assignment_from_bands(model, bands) == (
                    reference_assignment_from_bands(model, routes, bands)
                )
                checked += 1
        assert checked > 100
