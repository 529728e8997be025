"""Acceptance suite: one test per criterion, printing a PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the whole suite takes a few minutes (criteria 8 and 9 run simulation
grids).
"""

import random
from importlib import resources
from pathlib import Path

from flexrsa import ilp, oracle
from flexrsa.crossval import cross_validate
from flexrsa.heuristic import PolicyParams, Request, assign_spectrum, compute_fiber_paths
from flexrsa.physics import FiberParams, gvd_differential_delay_ps, slot_ghz_for_width_nm
from flexrsa.sim import TrafficConfig, probe_run, run
from flexrsa.spectrum import SpectrumState
from flexrsa.topology import load_topology

from util import make_net, paint

US_TEXT = resources.files("flexrsa").joinpath("data/us_backbone.txt").read_text()


def criterion(number: int, description: str, ok: bool):
    print(f"ACCEPTANCE {number:2d} {'PASS' if ok else 'FAIL'}  {description}")
    assert ok, f"criterion {number}: {description}"


def test_01_gvd_formula():
    params = FiberParams(slot_width_ghz=slot_ghz_for_width_nm(0.4))
    value = gvd_differential_delay_ps(params, 10, 1.0e4)
    criterion(1, "dispersion skew of a 10x0.4nm band over 1e4 km is 680000 ps", value == 680_000)


def test_02_path_diversity_delay():
    net = load_topology("node a\nnode b\nlink a b 1e4\n", slots_per_link=1, propagation_speed_km_s=2.0e5)
    value = net.links[0].delay_ps
    criterion(2, "propagation delay over 1e4 km at 2e5 km/s is 5e10 ps (50 ms)", value == 5 * 10**10)


def _fragmented_diamond():
    net = make_net(
        [("S", "A", 100), ("A", "D", 100), ("S", "B", 100), ("B", "D", 100)], slots=16
    )
    arcs = {(l.src, l.dst): l for v in net.nodes for l in net.outgoing(v)}
    state = SpectrumState(net)
    for pair in [("S", "A"), ("A", "D"), ("S", "B"), ("B", "D")]:
        paint(state, arcs[pair], "0011001100011111")  # free blocks (0,2) (4,2) (8,3)
    return net, state


def test_03_fragmentation_scenario():
    net, state = _fragmented_diamond()
    routes = compute_fiber_paths(net, "S", "D", 4)
    largest = [
        max(b.length for b in state.free_blocks(r.arcs, 0)) for r in routes
    ]
    req = Request("S", "D", 4)
    st_result = assign_spectrum(state, routes, req, PolicyParams(mode="st", k=4))
    pt_result = assign_spectrum(state, routes, req, PolicyParams(mode="pt", k=4))
    ok = (
        all(x == 3 for x in largest)
        and st_result is None
        and pt_result is not None
        and sorted(p.range.length for p in pt_result.paths) == [2, 2]
    )
    criterion(3, "3-slot-fragmented state blocks a 4-slot single band, serves 2+2 bands", ok)


def test_04_ilp_variable_accounting():
    lines = [f"node v{i:02d}" for i in range(15)]
    for i in range(15):
        lines.append(f"link v{i:02d} v{(i + 1) % 15:02d} 300")
        lines.append(f"link v{i:02d} v{(i + 2) % 15:02d} 500")
    net = load_topology("\n".join(lines), slots_per_link=16)
    total_y = 0
    pairs = 0
    per_request = set()
    for src in net.nodes:
        for dst in net.nodes:
            if src == dst:
                continue
            pairs += 1
            routes = compute_fiber_paths(net, src, dst, 4)
            model = ilp.build_model(net, src, dst, 4, routes, slots=16)
            count = model.variable_counts()["y"]
            per_request.add(count)
            total_y += count
    ok = pairs == 210 and per_request == {64} and total_y == 13_440
    criterion(4, "4 paths x 16 slots: 64 y vars per request, 13440 over 210 pairs", ok)


def test_05_linearization_exhaustive():
    slots = 8
    net = make_net([("S", "A", 100), ("A", "B", 100), ("B", "D", 100)], slots=slots)
    route = compute_fiber_paths(net, "S", "D", 1)[0]
    model = ilp.build_model(net, "S", "D", 2, [route, route], slots=slots, max_dd_ps=10**12)

    def holds(con, env):
        lhs = sum(env[n] * c for n, c in con.coeffs)
        return lhs <= con.rhs if con.relation == "<=" else (
            lhs >= con.rhs if con.relation == ">=" else lhs == con.rhs
        )

    gamma_cons = [
        c for c in model.constraints_by_family("lin-gamma")
        if any(n == "g_p1_p2_e0" for n, _ in c.coeffs)
        and not any(n.startswith("o_") for n, _ in c.coeffs)
    ]
    z_cons = [
        c for c in model.constraints_by_family("lin-z")
        if any(n == "z_p1_e0" for n, _ in c.coeffs)
    ]
    counterexamples = 0
    for xp in (0, 1):
        for xq in (0, 1):
            feas = {
                g for g in (0, 1)
                if all(holds(c, {"g_p1_p2_e0": g, "xe_p1_e0": xp, "xe_p2_e0": xq}) for c in gamma_cons)
            }
            if feas != {xp * xq}:
                counterexamples += 1
    for xe in (0, 1):
        for t in range(slots + 1):
            feas = {
                z for z in range(slots + 1)
                if all(holds(c, {"z_p1_e0": z, "xe_p1_e0": xe, "T_p1": t}) for c in z_cons)
            }
            if feas != {t * xe}:
                counterexamples += 1
    criterion(5, "gamma and z linearizations force the products (|F|=8, all valuations)", counterexamples == 0)


def test_06_oracle_cross_validation():
    failures = cross_validate(7, 20, max_nodes=5, slots=8, max_demand=4, k=4)
    for f in failures:
        print("   ", f)
    criterion(6, "20 random instances: oracle/heuristic/checker agree", failures == [])


def test_07_erlang_b_degenerate():
    net = make_net([("A", "B", 100)], slots=8)
    policy = PolicyParams(mode="st", k=1, gb=0)
    probs = []
    for seed in range(5):
        traffic = TrafficConfig(
            mean_holding=1.0, requests=20_000, seed=seed, demand=8,
            warmup_frac=0.1, sd_pairs=(("A", "B"),),
        )
        probs.append(run(net, traffic, policy).blocking_prob)
    mean = sum(probs) / len(probs)
    criterion(7, f"single-link loss at rho=1 is 0.5 +/- 0.01 (measured {mean:.4f})", abs(mean - 0.5) <= 0.01)


def test_08_probe_blocking_ordering():
    net = load_topology(US_TEXT, slots_per_link=16)
    loads = [30.0, 35.0, 40.0, 45.0]
    means: dict[tuple, float] = {}
    for load in loads:
        for k in (10, 40):
            policy = PolicyParams(mode="pt", k=k, gb=1, max_dd_ps=128_000_000_000)
            vals = []
            for seed in range(10):
                traffic = TrafficConfig(
                    mean_holding=load, requests=4000, seed=seed,
                    demand=(1, 4), warmup_frac=0.3,
                )
                pm = probe_run(net, traffic, policy, probe_demand=(4, 6), probes=60, spacing=20)
                vals.append(pm.probe_blocking)
            means[(load, k)] = sum(vals) / len(vals)
    for load in loads:
        print(f"    load {load:g}: K10={means[(load, 10)]:.4f} K40={means[(load, 40)]:.4f}")
    ordered_k = all(means[(load, 40)] <= means[(load, 10)] for load in loads)
    rising = all(
        means[(loads[i + 1], k)] >= means[(loads[i], k)]
        for i in range(len(loads) - 1)
        for k in (10, 40)
    )
    criterion(8, "probe blocking: K=40 <= K=10 at every load, both rise with load", ordered_k and rising)


def test_09_policy_ordering_and_guard_gap():
    net = load_topology(US_TEXT, slots_per_link=128)
    policies = {
        "st": PolicyParams(mode="st", k=30, gb=0),
        "pt1": PolicyParams(mode="pt", k=30, gb=0, max_dd_ps=128_000_000_000),
        "pt2": PolicyParams(mode="pt", k=30, gb=0, max_dd_ps=250_000_000),
    }

    def mean_blocking(policy, load, seeds=5):
        vals = []
        for seed in range(seeds):
            traffic = TrafficConfig(mean_holding=load, requests=4000, seed=seed, demand=10)
            vals.append(run(net, traffic, policy).blocking_prob)
        return sum(vals) / len(vals)

    mid = {name: mean_blocking(p, 110.0, seeds=8) for name, p in policies.items()}
    print(f"    mid load 110: st={mid['st']:.4f} pt1={mid['pt1']:.4f} pt2={mid['pt2']:.4f}")
    ordering = mid["pt1"] <= mid["pt2"] <= mid["st"]

    gaps = {}
    for gb in (0, 3):
        st = mean_blocking(PolicyParams(mode="st", k=30, gb=gb), 150.0)
        pt = mean_blocking(PolicyParams(mode="pt", k=30, gb=gb, max_dd_ps=128_000_000_000), 150.0)
        gaps[gb] = abs(pt - st)
    print(f"    high load 150: gap(gb=0)={gaps[0]:.4f} gap(gb=3)={gaps[3]:.4f}")
    criterion(
        9,
        "mean blocking pt1 <= pt2 <= st at mid load; pt/st gap shrinks under gb=3 at high load",
        ordering and gaps[3] < gaps[0],
    )


def test_10_determinism_byte_identical_csvs(tmp_path):
    from flexrsa.cli import main

    scn = tmp_path / "grid.scn"
    scn.write_text(
        "topology = us\nslots = 32\nmode = st, pt1, pt2\nk = 8\ngb = 0\n"
        "tr = 1-6\nload = 40, 80\nseeds = 0..1\nrequests = 1500\nwarmup = 0.1\n"
    )
    out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["simulate", "--scenario", str(scn), "--out", out_a]) == 0
    assert main(["simulate", "--scenario", str(scn), "--out", out_b]) == 0
    same = all(
        (Path(out_a) / name).read_bytes() == (Path(out_b) / name).read_bytes()
        for name in ("metrics.csv", "path_dist.csv")
    )
    criterion(10, "identical scenario and seeds produce byte-identical CSVs", same)
