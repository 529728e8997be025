"""Command-line front end: simulation grids, probes, model export, self-check.

Scenario files are flat ``key = value`` text (comma-separated lists for grid
keys); explicit command-line flags override scenario values, which override
built-in defaults.  Each ``simulate``/``probe`` key is one ``GRID_KEYS`` row,
which gives its default, cast, range check and flag.  Grid runs write two CSVs (metrics + band-count
distribution) atomically, so a scenario plus a seed fully determines every
output byte, and print one summary row per cell key (mean over seeds and its
95% t half-width).

Policy tokens: ``st`` (single band), ``pt`` (multipath, bound set by
--max-dd-us), ``pt1`` (multipath, 128 ms: off-chip buffering) and ``pt2``
(multipath, 250 us: on-chip framer realignment; quoted figures for such
buffers range roughly 125-256 us, so the bound actually used is echoed in
the m_us column of every output row).
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys
from importlib import resources
from typing import Callable, NamedTuple

from . import crossval, ilp, oracle, sim
from .heuristic import PolicyParams, cached_fiber_paths
from .physics import FiberParams
from .topology import Network, TopologyError, load_topology

M_US_PT1 = 128_000.0  # 128 ms in us
M_US_PT2 = 250.0


class _Key(NamedTuple):
    """One ``simulate``/``probe`` key: its default, how it is read and checked, its flag help."""

    default: object
    cast: type | None = None  # int or float; None keeps the text
    listed: bool = False  # a comma list: each value is cast and checked
    check: tuple[Callable[[object], bool], str] | None = None  # range test, what it accepts
    help: str | None = None
    command: str | None = None  # the one command that reads the key; None for both


def _at_least(bound) -> tuple[Callable[[object], bool], str]:
    return lambda v: v >= bound, f">= {bound}"


_POSITIVE = (lambda v: v > 0, "> 0")

# Every simulate/probe key, in the order it is resolved (max_dd_us before
# mode, which reads it); each is a scenario key and a --flag.
GRID_KEYS = {
    "topology": _Key("us", help="file path, or builtin 'us' / 'abilene'"),
    "slots": _Key(128, int, check=_at_least(1), help="frequency slots per link"),
    "max_dd_us": _Key(M_US_PT1, float, check=_at_least(0),
                      help="differential-delay bound for mode 'pt', in microseconds"),
    "mode": _Key("pt1", listed=True, help="comma list of st|pt|pt1|pt2"),
    "k": _Key("30", int, True, _at_least(1), "max fiber-level paths (comma list)"),
    "gb": _Key("0", int, True, _at_least(0), "guard-band slots (comma list)"),
    "tr": _Key("10", listed=True, command="simulate",
               help="demand slots: fixed '10' or range '1-4' (comma list)"),
    "load": _Key("75", float, True, _POSITIVE, "Erlang loads (comma list)"),
    "seeds": _Key("0..4", help="'N' for 0..N-1, 'a..b', or comma list"),
    "requests": _Key(20000, int, check=_at_least(1), help="connection requests per run"),
    "warmup": _Key(0.1, float, check=(lambda v: 0 <= v < 1, "0 <= warmup < 1"),
                   help="warm-up fraction excluded from metrics"),
    "dispersion": _Key(17.0, float, check=_POSITIVE, help="fiber dispersion ps/nm/km"),
    "fc_thz": _Key(193.1, float, check=_POSITIVE, help="central frequency in THz"),
    "slot_ghz": _Key(50.0, float, check=_at_least(0), help="frequency slot width in GHz"),
    "speed_kms": _Key(2.0e5, float, check=_POSITIVE,
                      help="propagation speed in km/s, which sets every arc's delay"),
    "jobs": _Key(1, int, check=_at_least(1), help="concurrent grid cells"),
    "out": _Key(None, help="output directory (or FLEXRSA_OUT env)"),
    "bg_tr": _Key("1-4", command="probe", help="background demand, e.g. '1-4'"),
    "probe_tr": _Key("4-6", command="probe", help="probe demand, e.g. '4-6'"),
    "probes": _Key(50, int, check=(lambda v: v >= 1, "a probe count >= 1"), command="probe",
                   help="probes per run"),
    "spacing": _Key(25, int, check=_at_least(1), command="probe",
                    help="background arrivals between probes"),
}


class ConfigError(ValueError):
    pass


def _read_topology(token: str) -> str:
    if token in ("us", "us_backbone"):
        return resources.files("flexrsa").joinpath("data/us_backbone.txt").read_text()
    if token == "abilene":
        return resources.files("flexrsa").joinpath("data/abilene.txt").read_text()
    try:
        with open(token, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read topology {token!r}: {exc}") from exc


def _cast(key: str, token, cast):
    """``cast(token)``; a rejected value or a non-finite float is a ConfigError naming both."""
    try:
        value = cast(token)
    except ValueError:
        value = None
    if value is None or (cast is float and not math.isfinite(value)):
        expected = "finite float" if cast is float else cast.__name__
        raise ConfigError(f"bad {key} {token!r}: expected {expected}")
    return value


def _parse_seeds(token: str) -> list[int]:
    token = str(token).strip()
    if ".." in token:
        lo, hi = token.split("..", 1)
        return list(range(_cast("seeds", lo, int), _cast("seeds", hi, int) + 1))
    if "," in token:
        return _parse_list("seeds", token, int)
    return list(range(_cast("seeds", token, int)))


_DEMAND = re.compile(r"([0-9]+)(?:\s*-\s*([0-9]+))?")


def _parse_tr(key: str, token: str) -> int | tuple[int, int]:
    """A demand ``N`` or range ``lo-hi`` with ``1 <= lo <= hi``."""
    m = _DEMAND.fullmatch(str(token).strip())
    if m is None or int(m[1]) < 1 or (m[2] is not None and int(m[2]) < int(m[1])):
        raise ConfigError(f"bad {key} {token!r}: expected N or lo-hi with 1 <= lo <= hi")
    return int(m[1]) if m[2] is None else (int(m[1]), int(m[2]))


def _tr_max(tr: int | tuple[int, int]) -> int:
    return tr if isinstance(tr, int) else tr[1]


def _parse_list(key: str, token, cast=str) -> list:
    return [_cast(key, t.strip(), cast) for t in str(token).split(",") if t.strip()]


def _parse_modes(tokens: list[str], max_dd_us: float) -> list[tuple[str, str, float]]:
    """Each token becomes (label, engine mode, differential-delay bound in us)."""
    out = []
    for tok in tokens:
        if tok == "st":
            out.append(("st", "st", max_dd_us))
        elif tok == "pt":
            out.append(("pt", "pt", max_dd_us))
        elif tok == "pt1":
            out.append(("pt1", "pt", M_US_PT1))
        elif tok == "pt2":
            out.append(("pt2", "pt", M_US_PT2))
        else:
            raise ConfigError(f"unknown mode {tok!r} (expected st|pt|pt1|pt2)")
    return out


def load_scenario(path: str) -> dict:
    values: dict = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
                key, value = line.split("=", 1)
                values[key.strip()] = value.strip()
    except OSError as exc:
        raise ConfigError(f"cannot read scenario {path!r}: {exc}") from exc
    unknown = set(values) - set(GRID_KEYS)
    if unknown:
        raise ConfigError(f"unknown scenario keys: {sorted(unknown)}")
    return values


def _fiber(cfg: dict) -> FiberParams:
    return FiberParams(
        dispersion_ps_per_nm_km=cfg["dispersion"],
        central_frequency_thz=cfg["fc_thz"],
        slot_width_ghz=cfg["slot_ghz"],
    )


def _out_dir(cfg: dict) -> str:
    out = cfg["out"] or os.environ.get("FLEXRSA_OUT") or "out"
    os.makedirs(out, exist_ok=True)
    return out


def _write_atomic(path: str, text: str):
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _check(limits) -> None:
    """Reject the first value outside its range, naming key and value.

    Each limit is ``(key, values, ok, expected)``: every value must pass ``ok``.
    """
    for key, values, ok, expected in limits:
        for value in values:
            if not ok(value):
                raise ConfigError(f"bad {key} {value!r}: expected {expected}")


def _common_grid_config(args: argparse.Namespace) -> dict:
    """Every key the command reads: its flag, else its scenario value, else its default.

    Each value is cast and range-checked by its ``GRID_KEYS`` row; the keys
    with their own parsers (``mode``, ``seeds`` and the demands) are read
    after.  Every list in the result is a grid axis and must not be empty.
    """
    scenario = load_scenario(args.scenario) if args.scenario else {}
    cfg = {}
    for key, row in GRID_KEYS.items():
        if row.command not in (None, args.command):
            continue
        value = getattr(args, key)
        if value is None:
            value = scenario.get(key, row.default)
        if row.listed:
            value = _parse_list(key, value, row.cast or str)
        elif row.cast:
            value = _cast(key, value, row.cast)
        if row.check:
            _check([(key, value if row.listed else [value], *row.check)])
        cfg[key] = value
    cfg["mode"] = _parse_modes(cfg["mode"], cfg["max_dd_us"])
    cfg["seeds"] = _parse_seeds(cfg["seeds"])
    if args.command == "probe":
        # the grid's demand axis is the background; probes draw from probe_tr
        cfg["bg_tr"] = [_parse_tr("bg_tr", cfg["bg_tr"])]
        probe_tr = _parse_tr("probe_tr", cfg["probe_tr"])
        cfg["probe_tr"] = (probe_tr, probe_tr) if isinstance(probe_tr, int) else probe_tr
        demands = cfg["bg_tr"] + [cfg["probe_tr"]]
    else:
        cfg["tr"] = demands = [_parse_tr("tr", t) for t in cfg["tr"]]
    for key, value in cfg.items():
        if value == []:
            raise ConfigError(f"empty grid: {key} gives no values")
    for tr in demands:
        if _tr_max(tr) > cfg["slots"]:
            raise ConfigError(f"demand {sim.label(tr)} exceeds {cfg['slots']} slots per link")
    return cfg


def _grid_net(cfg: dict) -> Network:
    """The grid's network, parsed once for every cell."""
    return load_topology(
        _read_topology(cfg["topology"]),
        slots_per_link=cfg["slots"],
        propagation_speed_km_s=cfg["speed_kms"],
    )


def _grid_cells(cfg: dict, demand: str, **extra) -> list[dict]:
    """One cell per (mode, k, gb, tr, load, seed), nested in that order.

    ``demand`` names the cell's demand column, as in the command's output key,
    and its axis in ``cfg``.  A cell's ``traffic`` is the offered traffic it
    simulates at that demand.
    """
    fiber = _fiber(cfg)
    return [
        {
            "fiber": fiber,
            "mode": mode,
            "policy": label,
            "m_us": m_us,
            "k": k,
            "gb": gb,
            demand: tr,
            "load": load,
            "seed": seed,
            "traffic": sim.TrafficConfig(
                mean_holding=load,
                requests=cfg["requests"],
                seed=seed,
                demand=tr,
                warmup_frac=cfg["warmup"],
            ),
            **extra,
        }
        for label, mode, m_us in cfg["mode"]
        for k in cfg["k"]
        for gb in cfg["gb"]
        for tr in cfg[demand]
        for load in cfg["load"]
        for seed in cfg["seeds"]
    ]


def _policy(cell: dict) -> PolicyParams:
    return PolicyParams(
        mode=cell["mode"],
        k=cell["k"],
        gb=cell["gb"],
        max_dd_ps=int(round(cell["m_us"] * 1e6)),
    )


def _sim_cell(net: Network, cell: dict) -> sim.Metrics:
    return sim.run(net, cell["traffic"], _policy(cell), cell["fiber"])


def _probe_cell(net: Network, cell: dict) -> sim.ProbeMetrics:
    return sim.probe_run(
        net,
        cell["traffic"],
        _policy(cell),
        cell["fiber"],
        probe_demand=cell["probe_tr"],
        probes=cell["probes"],
        spacing=cell["spacing"],
    )


_pool_net: Network | None = None  # the grid's network, inside a --jobs worker process


def _set_pool_net(net: Network) -> None:
    global _pool_net
    _pool_net = net


def _pool_cell(task: tuple) -> object:
    worker, cell = task
    return worker(_pool_net, cell)


def _run_grid(net: Network, cells: list[dict], worker, jobs: int) -> list:
    """``worker(net, cell)`` for every cell, returned in cell order.

    Under ``jobs == 1`` cells run grouped by traffic, the groups in order of
    first appearance and each in descending K: the network's draw memo draws
    each traffic once, and since every group holds every K, the first cell
    has the grid's largest K, so each pair's routes are enumerated once, at
    that K, and every smaller K reads that table's prefix.  Under
    ``jobs > 1`` cells run in descending K, so each worker process
    enumerates a pair at the largest K it meets; each receives the network
    once, through the pool's initializer, and cells travel without it; no
    more workers start than there are cells.
    """
    if jobs == 1:
        group: dict = {}
        for cell in cells:
            group.setdefault(cell["traffic"], len(group))
        order = sorted(range(len(cells)), key=lambda i: (group[cells[i]["traffic"]], -cells[i]["k"]))
        results = [worker(net, cells[i]) for i in order]
    else:
        from concurrent.futures import ProcessPoolExecutor  # only a pool needs multiprocessing

        order = sorted(range(len(cells)), key=lambda i: -cells[i]["k"])
        with ProcessPoolExecutor(
            max_workers=min(jobs, len(cells)), initializer=_set_pool_net, initargs=(net,)
        ) as pool:
            results = list(pool.map(_pool_cell, [(worker, cells[i]) for i in order]))
    by_cell = dict(zip(order, results))
    return [by_cell[i] for i in range(len(cells))]


def cmd_simulate(args) -> int:
    cfg = _common_grid_config(args)
    net = _grid_net(cfg)
    cells = _grid_cells(cfg, "tr")
    entries = list(zip(cells, _run_grid(net, cells, _sim_cell, cfg["jobs"])))
    out = _out_dir(cfg)
    _write_atomic(os.path.join(out, "metrics.csv"), sim.metrics_csv(entries))
    _write_atomic(os.path.join(out, "path_dist.csv"), sim.distribution_csv(entries))
    print(sim.summary(entries, sim.SIM_KEY, ("blocking_prob", "aggregation_ratio")), end="")
    print(f"wrote {out}/metrics.csv and {out}/path_dist.csv")
    return 0


def cmd_probe(args) -> int:
    cfg = _common_grid_config(args)
    net = _grid_net(cfg)
    cells = _grid_cells(
        cfg,
        "bg_tr",
        probe_tr=cfg["probe_tr"],
        probes=cfg["probes"],
        spacing=cfg["spacing"],
    )
    entries = list(zip(cells, _run_grid(net, cells, _probe_cell, cfg["jobs"])))
    out = _out_dir(cfg)
    _write_atomic(os.path.join(out, "probe.csv"), sim.probe_csv(entries))
    print(sim.summary(entries, sim.PROBE_KEY, ("probe_blocking",)), end="")
    print(f"wrote {out}/probe.csv")
    return 0


def _cast_flags(args: argparse.Namespace, casts: dict) -> None:
    """Cast each named flag, read as text, in place; a bad value is a ConfigError."""
    for key, cast in casts.items():
        setattr(args, key, _cast(key, getattr(args, key), cast))


def cmd_export_ilp(args) -> int:
    _cast_flags(args, {"slots": int, "paths": int, "gb": int, "max_dd_us": float, "tr": int})
    demand, slots, max_dd_us = args.tr, args.slots, args.max_dd_us
    _check([
        ("tr", [demand], lambda v: v >= 1, ">= 1"),
        ("gb", [args.gb], lambda v: v >= 0, ">= 0"),
        ("paths", [args.paths], lambda v: v >= 1, ">= 1"),
        ("max_dd_us", [max_dd_us], lambda v: v >= 0, ">= 0"),
        ("slots", [slots], lambda v: v >= 1, ">= 1"),
    ])
    max_dd_ps = int(round(max_dd_us * 1e6))
    net = load_topology(_read_topology(args.topology), slots_per_link=slots)
    fiber = FiberParams()
    src = args.src or net.nodes[0]
    dst = args.dst or net.nodes[-1]
    if not net.has_node(src) or not net.has_node(dst):
        raise ConfigError(f"unknown node in pair ({src}, {dst})")

    def bad_tr(s, d, exc):  # every other input is checked above: tr exceeds |P|*|F|
        return ConfigError(f"bad tr {demand} for {s} -> {d}: {exc}")

    routes = cached_fiber_paths(net, src, dst, args.paths)
    if not routes:
        raise ConfigError(f"no path from {src} to {dst}")
    try:
        model = ilp.build_model(
            net, src, dst, demand, routes,
            slots=slots, gb=args.gb, max_dd_ps=max_dd_ps, fiber_params=fiber,
        )
    except ilp.ModelError as exc:
        raise bad_tr(src, dst, exc) from exc
    counts = model.variable_counts()
    y_per_request = counts.get("y", 0)
    print(f"request {src} -> {dst}: |P|={len(routes)} |F|={slots}")
    print(f"y variables per request: {y_per_request}")
    print(f"total variables: {len(model.variables)}")
    print(f"total constraints: {len(model.constraints)}")
    if args.all_pairs:
        # a pair's model has one y variable per (route, slot): count them from
        # the routes alone, read through the route memo, which searches each
        # fiber pair once
        total_y = 0
        pairs = 0
        for s in net.nodes:
            for d in net.nodes:
                if s == d:
                    continue
                pairs += 1
                pr = cached_fiber_paths(net, s, d, args.paths)
                if not pr:
                    continue
                try:
                    ilp.check_capacity(demand, len(pr), slots)
                except ilp.ModelError as exc:
                    raise bad_tr(s, d, exc) from exc
                total_y += len(pr) * slots
        print(f"aggregate y variables over {pairs} node pairs: {total_y}")
    if args.out:
        _write_atomic(args.out, ilp.export_lp(model))
        print(f"wrote {args.out}")
    return 0


def cmd_oracle_check(args) -> int:
    counts = ("seed", "instances", "max_nodes", "slots", "max_demand", "k")
    _cast_flags(args, dict.fromkeys(counts, int))
    budget = oracle.OracleLimits()  # larger instances raise BudgetExceeded in the oracle
    _check([
        ("instances", [args.instances], lambda v: v >= 1, ">= 1"),
        ("max_nodes", [args.max_nodes], lambda v: 3 <= v <= budget.max_nodes,
         f"3 <= max_nodes <= {budget.max_nodes}"),
        ("slots", [args.slots], lambda v: 1 <= v <= budget.max_slots,
         f"1 <= slots <= {budget.max_slots}"),
        ("max_demand", [args.max_demand], lambda v: v >= 1, ">= 1"),
        # a tree-shaped instance has one route, so |P|*|F| can be slots
        ("max_demand", [args.max_demand], lambda v: v <= args.slots,
         f"max_demand <= slots ({args.slots})"),
        ("k", [args.k], lambda v: v >= 1, ">= 1"),
    ])
    try:
        failures = crossval.cross_validate(
            args.seed,
            args.instances,
            max_nodes=args.max_nodes,
            slots=args.slots,
            max_demand=args.max_demand,
            k=args.k,
        )
    except oracle.BudgetExceeded as exc:  # no verdict, so not exit 1
        raise ConfigError(
            f"oracle budget exceeded at max_nodes {args.max_nodes}, slots {args.slots}, "
            f"max_demand {args.max_demand} ({exc}): lower one of them"
        ) from exc
    if failures:
        for f in failures:
            print(f"FAIL {f}")
        print(f"{len(failures)} cross-validation failure(s) over {args.instances} instances")
        return 1
    print(f"all {args.instances} instances passed oracle/heuristic/checker cross-validation")
    return 0


def cmd_topo_info(args) -> int:
    _cast_flags(args, {"slots": int})
    _check([("slots", [args.slots], lambda v: v >= 1, ">= 1")])
    net = load_topology(_read_topology(args.topology), slots_per_link=args.slots)
    degrees = [len(net.outgoing(v)) for v in net.nodes]
    print(f"nodes: {len(net.nodes)}")
    print(f"directed arcs: {net.num_arcs}")
    print(f"undirected edges: {net.num_arcs // 2}")
    print(f"slots per link: {net.slots_per_link}")
    print(f"out-degree min/mean/max: {min(degrees)}/{sum(degrees) / len(degrees):.2f}/{max(degrees)}")
    return 0


def _add_grid_flags(p: argparse.ArgumentParser, command: str):
    """``--scenario`` and one flag per ``GRID_KEYS`` row the command reads.

    Every flag is read as text and cast by ``_common_grid_config``, as a
    scenario value is, so a bad value gets the same message either way.
    """
    p.add_argument("--scenario", help="scenario file (key = value lines)")
    for key, row in GRID_KEYS.items():
        if row.command in (None, command):
            p.add_argument("--" + key.replace("_", "-"), dest=key, help=row.help)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="flexrsa", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run a simulation grid and write CSV metrics")
    _add_grid_flags(p, "simulate")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("probe", help="probe admissibility against a live background")
    _add_grid_flags(p, "probe")
    p.set_defaults(fn=cmd_probe)

    # numeric flags of the other commands are read as text too, and cast by
    # the command, so a bad value gets the message a grid flag gets
    p = sub.add_parser("export-ilp", help="build one request model and export LP text")
    p.add_argument("--topology", default=GRID_KEYS["topology"].default)
    p.add_argument("--slots", default=16)
    p.add_argument("--paths", default=4, help="candidate paths |P|")
    p.add_argument("--gb", default=0)
    p.add_argument("--max-dd-us", dest="max_dd_us", default=M_US_PT1)
    p.add_argument("--tr", default=4, help="demand slots")
    p.add_argument("--src")
    p.add_argument("--dst")
    p.add_argument("--all-pairs", action="store_true", help="aggregate counts over all pairs")
    p.add_argument("--out", help="LP output file")
    p.set_defaults(fn=cmd_export_ilp)

    p = sub.add_parser("oracle-check", help="cross-validate oracle/heuristic/checker")
    p.add_argument("--seed", default=7)
    p.add_argument("--instances", default=20)
    p.add_argument("--max-nodes", dest="max_nodes", default=5)
    p.add_argument("--slots", default=8)
    p.add_argument("--max-demand", dest="max_demand", default=4)
    p.add_argument("--k", default=4)
    p.set_defaults(fn=cmd_oracle_check)

    p = sub.add_parser("topo-info", help="show topology facts")
    p.add_argument("--topology", default=GRID_KEYS["topology"].default)
    p.add_argument("--slots", default=GRID_KEYS["slots"].default)
    p.set_defaults(fn=cmd_topo_info)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, TopologyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
