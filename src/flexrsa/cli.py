"""Command-line front end: simulation grids, probes, model export, self-check.

Every command reads its flags from its own ``KEYS`` table: one row per key,
which gives the key's default, cast, range check and help, and one --flag.
A row's cast is the only path from the key's text to its value: ``int``,
``float`` or the key's own parser (mode tokens, seeds, demands); only the
checks that join two keys come after the rows.
``simulate`` and ``probe`` also read scenario files, flat ``key = value``
text (comma-separated lists for grid keys); explicit flags override scenario
values, which override the defaults.  Grid runs write two CSVs (metrics +
band-count distribution) atomically, so a scenario plus a seed fully
determines every output byte, and print one summary row per cell key (mean
over seeds and its 95% t half-width).

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
from .heuristic import PolicyParams, pair_routes
from .physics import FiberParams
from .topology import Network, TopologyError, load_topology

M_US_PT1 = 128_000.0  # 128 ms in us
M_US_PT2 = 250.0


class ConfigError(ValueError):
    pass


def _cast(key: str, token, cast):
    """``cast(token)``; a rejected value or a non-finite float is a ConfigError naming both.

    A parser's own ConfigError passes through unchanged: it already names
    what the key expects.
    """
    try:
        value = cast(token)
    except ConfigError:
        raise
    except ValueError:
        value = None
    if value is None or (cast is float and not math.isfinite(value)):
        expected = "finite float" if cast is float else cast.__name__
        raise ConfigError(f"bad {key} {token!r}: expected {expected}")
    return value


def _parse_list(key: str, token, cast) -> list:
    return [_cast(key, t.strip(), cast) for t in str(token).split(",") if t.strip()]


def _parse_seeds(token: str) -> list[int]:
    token = str(token).strip()
    if ".." in token:
        lo, hi = token.split("..", 1)
        return list(range(_cast("seeds", lo, int), _cast("seeds", hi, int) + 1))
    if "," in token:
        return _parse_list("seeds", token, int)
    return list(range(_cast("seeds", token, int)))


_DEMAND = re.compile(r"([0-9]+)(?:\s*-\s*([0-9]+))?")


def _demand(key: str, widen: bool = False) -> Callable[[str], int | tuple[int, int]]:
    """The parser of demand key ``key``: ``N`` or range ``lo-hi`` with ``1 <= lo <= hi``.

    With ``widen`` it reads ``N`` as the range ``(N, N)``.
    """

    def parse(token: str) -> int | tuple[int, int]:
        m = _DEMAND.fullmatch(str(token).strip())
        if m is None or int(m[1]) < 1 or (m[2] is not None and int(m[2]) < int(m[1])):
            raise ConfigError(f"bad {key} {token!r}: expected N or lo-hi with 1 <= lo <= hi")
        lo, hi = int(m[1]), int(m[2] or m[1])
        return (lo, hi) if m[2] or widen else lo

    return parse


# each mode token: its engine mode and differential-delay bound (None: --max-dd-us)
_MODES = {"st": ("st", None), "pt": ("pt", None), "pt1": ("pt", M_US_PT1), "pt2": ("pt", M_US_PT2)}


def _mode(token: str) -> str:
    if token not in _MODES:
        raise ConfigError(f"unknown mode {token!r} (expected st|pt|pt1|pt2)")
    return token


class _Key(NamedTuple):
    """One command key: its default, how it is read and checked, its flag help."""

    default: object
    cast: Callable[[str], object] | None = None  # parser of the key's text; None keeps the text
    listed: bool = False  # a comma list: each value is cast and checked
    check: tuple[Callable[[object], bool], str] | None = None  # range test, what it accepts
    help: str | None = None


def _at_least(bound) -> tuple[Callable[[object], bool], str]:
    return lambda v: v >= bound, f">= {bound}"


_POSITIVE = (lambda v: v > 0, "> 0")

# the keys both grid commands read; each is a scenario key and a --flag
_GRID = {
    "topology": _Key("us", help="file path, or builtin 'us' / 'abilene'"),
    "slots": _Key(128, int, check=_at_least(1), help="frequency slots per link"),
    "max_dd_us": _Key(M_US_PT1, float, check=_at_least(0),
                      help="differential-delay bound for mode 'pt', in microseconds"),
    "mode": _Key("pt1", _mode, True, help="comma list of st|pt|pt1|pt2"),
    "k": _Key("30", int, True, _at_least(1), "max fiber-level paths (comma list)"),
    "gb": _Key("0", int, True, _at_least(0), "guard-band slots (comma list)"),
    "load": _Key("75", float, True, _POSITIVE, "Erlang loads (comma list)"),
    "seeds": _Key("0..4", _parse_seeds, help="'N' for 0..N-1, 'a..b', or comma list"),
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
}

_BUDGET = oracle.OracleLimits()  # larger instances raise BudgetExceeded in the oracle

# Every key of every command, in the order it is read.
KEYS = {
    "simulate": {
        **_GRID,
        "tr": _Key("10", _demand("tr"), True,
                   help="demand slots: fixed '10' or range '1-4' (comma list)"),
    },
    "probe": {
        **_GRID,
        "bg_tr": _Key("1-4", _demand("bg_tr"), help="background demand, e.g. '1-4'"),
        "probe_tr": _Key("4-6", _demand("probe_tr", widen=True), help="probe demand, e.g. '4-6'"),
        "probes": _Key(50, int, check=(lambda v: v >= 1, "a probe count >= 1"),
                       help="probes per run"),
        "spacing": _Key(25, int, check=_at_least(1), help="background arrivals between probes"),
    },
    "export-ilp": {
        "topology": _GRID["topology"],
        "slots": _GRID["slots"]._replace(default=16),
        "paths": _Key(4, int, check=_at_least(1), help="candidate paths |P|"),
        "gb": _Key(0, int, check=_at_least(0), help="guard-band slots"),
        "max_dd_us": _GRID["max_dd_us"]._replace(help="differential-delay bound M, in microseconds"),
        "tr": _Key(4, int, check=_at_least(1), help="demand slots"),
        "src": _Key(None, help="source node (default: the first node)"),
        "dst": _Key(None, help="destination node (default: the last node)"),
        "out": _Key(None, help="LP output file"),
    },
    "oracle-check": {
        "seed": _Key(7, int, help="cross-validation seed"),
        "instances": _Key(20, int, check=_at_least(1), help="random instances to check"),
        "max_nodes": _Key(5, int, help="nodes per instance, at most",
                          check=(lambda v: 3 <= v <= _BUDGET.max_nodes,
                                 f"3 <= max_nodes <= {_BUDGET.max_nodes}")),
        "slots": _Key(8, int, help="frequency slots per link",
                      check=(lambda v: 1 <= v <= _BUDGET.max_slots,
                             f"1 <= slots <= {_BUDGET.max_slots}")),
        "max_demand": _Key(4, int, check=_at_least(1), help="demand slots, at most (<= slots)"),
        "k": _Key(4, int, check=_at_least(1), help="max fiber-level paths"),
    },
    "topo-info": {"topology": _GRID["topology"], "slots": _GRID["slots"]},
}

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
                key, value = (part.strip() for part in line.split("=", 1))
                if key in values:
                    raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
                values[key] = value
    except OSError as exc:
        raise ConfigError(f"cannot read scenario {path!r}: {exc}") from exc
    unknown = set(values) - set(KEYS["simulate"]) - set(KEYS["probe"])
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


def _config(args: argparse.Namespace, scenario: dict | None = None) -> dict:
    """Every key of the command: its flag, else its scenario value, else its default.

    Each value is cast and range-checked by its ``KEYS`` row, so the first
    bad key in row order is the one reported.  A flag is read as text, as a
    scenario value is, so a bad value gets the same message either way.
    """
    cfg = {}
    for key, row in KEYS[args.command].items():
        value = getattr(args, key)
        if value is None:
            value = (scenario or {}).get(key, row.default)
        if row.listed:
            value = _parse_list(key, value, row.cast)
        elif row.cast:
            value = _cast(key, value, row.cast)
        if row.check:
            ok, expected = row.check
            for v in value if row.listed else [value]:
                if not ok(v):
                    raise ConfigError(f"bad {key} {v!r}: expected {expected}")
        cfg[key] = value
    return cfg


def _common_grid_config(args: argparse.Namespace) -> dict:
    """``_config`` of a grid command, which reads ``--scenario`` too, then the checks of two keys.

    Every list in the result is a grid axis and must not be empty, no demand
    may exceed ``slots``, and a probe run must hold its last probe.
    """
    cfg = _config(args, load_scenario(args.scenario) if args.scenario else None)
    for key, value in cfg.items():
        if value == []:
            raise ConfigError(f"empty grid: {key} gives no values")
    demands = [cfg["bg_tr"], cfg["probe_tr"]] if args.command == "probe" else cfg["tr"]
    for tr in demands:
        if (tr[1] if isinstance(tr, tuple) else tr) > cfg["slots"]:
            raise ConfigError(f"demand {sim.label(tr)} exceeds {cfg['slots']} slots per link")
    if args.command == "probe":
        # the last probe follows arrival warm-up + (probes - 1) * spacing,
        # which must be one of the run's requests
        room = cfg["requests"] - int(cfg["requests"] * cfg["warmup"]) - 1
        if (cfg["probes"] - 1) * cfg["spacing"] > room:
            raise ConfigError(
                f"bad probes {cfg['probes']}: expected at most {room // cfg['spacing'] + 1} "
                f"after warm-up in {cfg['requests']} requests at spacing {cfg['spacing']}"
            )
    return cfg


def _grid_net(cfg: dict) -> Network:
    """The grid's network, parsed once for every cell."""
    return load_topology(
        _read_topology(cfg["topology"]),
        slots_per_link=cfg["slots"],
        propagation_speed_km_s=cfg["speed_kms"],
    )


def _grid_cells(cfg: dict, demand: str, demands: list, **extra) -> list[dict]:
    """One cell per (mode, k, gb, tr, load, seed), nested in that order.

    ``demand`` names the cell's demand column, as in the command's output key,
    and ``demands`` is its axis.  A cell's ``traffic`` is the offered traffic
    it simulates at that demand, and its ``policy_params`` the policy that
    serves it: the mode token's engine mode and bound M from ``_MODES``,
    which for ``pt`` is ``max_dd_us``.
    """
    fiber = _fiber(cfg)
    cells = []
    for label in cfg["mode"]:
        mode, m_us = _MODES[label]
        if m_us is None:
            m_us = cfg["max_dd_us"]
        cells += [
            {
                "fiber": fiber,
                "policy": label,
                "m_us": m_us,
                "k": k,
                "gb": gb,
                demand: tr,
                "load": load,
                "seed": seed,
                "policy_params": PolicyParams(mode, k, gb, int(round(m_us * 1e6))),
                "traffic": sim.TrafficConfig(
                    mean_holding=load,
                    requests=cfg["requests"],
                    seed=seed,
                    demand=tr,
                    warmup_frac=cfg["warmup"],
                ),
                **extra,
            }
            for k in cfg["k"]
            for gb in cfg["gb"]
            for tr in demands
            for load in cfg["load"]
            for seed in cfg["seeds"]
        ]
    return cells


def _sim_cell(net: Network, cell: dict) -> sim.Metrics:
    return sim.run(net, cell["traffic"], cell["policy_params"], cell["fiber"])


def _probe_cell(net: Network, cell: dict) -> sim.ProbeMetrics:
    return sim.probe_run(
        net,
        cell["traffic"],
        cell["policy_params"],
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
    has the grid's largest K, so each fiber pair is searched at most once,
    at that K, and every smaller K reads that table's prefix.  Under
    ``jobs > 1`` cells run in descending K, so each worker process
    searches a pair at the largest K it meets; each receives the network
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
    cells = _grid_cells(cfg, "tr", cfg["tr"])
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
        [cfg["bg_tr"]],
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


def cmd_export_ilp(args) -> int:
    cfg = _config(args)
    demand, slots = cfg["tr"], cfg["slots"]
    net = load_topology(_read_topology(cfg["topology"]), slots_per_link=slots)
    src = cfg["src"] or net.nodes[0]
    dst = cfg["dst"] or net.nodes[-1]
    if not net.has_node(src) or not net.has_node(dst):
        raise ConfigError(f"unknown node in pair ({src}, {dst})")
    if src == dst:
        raise ConfigError(f"bad pair ({src}, {dst}): source and destination must differ")

    def bad_tr(s, d, exc):  # every other input is checked above: tr exceeds |P|*|F|
        return ConfigError(f"bad tr {demand} for {s} -> {d}: {exc}")

    routes = tuple(pair_routes(net, src, dst, cfg["paths"]))
    if not routes:
        raise ConfigError(f"no path from {src} to {dst}")
    try:
        model = ilp.build_model(
            net, src, dst, demand, routes, slots=slots, gb=cfg["gb"],
            max_dd_ps=int(round(cfg["max_dd_us"] * 1e6)), fiber_params=FiberParams(),
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
                pr = tuple(pair_routes(net, s, d, cfg["paths"]))
                if not pr:
                    continue
                try:
                    ilp.check_capacity(demand, len(pr), slots)
                except ilp.ModelError as exc:
                    raise bad_tr(s, d, exc) from exc
                total_y += len(pr) * slots
        print(f"aggregate y variables over {pairs} node pairs: {total_y}")
    if cfg["out"]:
        _write_atomic(cfg["out"], ilp.export_lp(model))
        print(f"wrote {cfg['out']}")
    return 0


def cmd_oracle_check(args) -> int:
    cfg = _config(args)
    sizes = {key: cfg[key] for key in ("max_nodes", "slots", "max_demand", "k")}
    # a tree-shaped instance has one route, so |P|*|F| can be slots
    if sizes["max_demand"] > sizes["slots"]:
        raise ConfigError(
            f"bad max_demand {sizes['max_demand']}: expected max_demand <= slots ({sizes['slots']})"
        )
    try:
        failures = crossval.cross_validate(cfg["seed"], cfg["instances"], **sizes)
    except oracle.BudgetExceeded as exc:  # no verdict, so not exit 1
        raise ConfigError(
            f"oracle budget exceeded at max_nodes {sizes['max_nodes']}, slots {sizes['slots']}, "
            f"max_demand {sizes['max_demand']} ({exc}): lower one of them"
        ) from exc
    if failures:
        for f in failures:
            print(f"FAIL {f}")
        print(f"{len(failures)} cross-validation failure(s) over {cfg['instances']} instances")
        return 1
    print(f"all {cfg['instances']} instances passed oracle/heuristic/checker cross-validation")
    return 0


def cmd_topo_info(args) -> int:
    cfg = _config(args)
    net = load_topology(_read_topology(cfg["topology"]), slots_per_link=cfg["slots"])
    degrees = [len(net.outgoing(v)) for v in net.nodes]
    print(f"nodes: {len(net.nodes)}")
    print(f"directed arcs: {net.num_arcs}")
    print(f"undirected edges: {net.num_arcs // 2}")
    print(f"slots per link: {net.slots_per_link}")
    print(f"out-degree min/mean/max: {min(degrees)}/{sum(degrees) / len(degrees):.2f}/{max(degrees)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="flexrsa", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, fn, summary in (
        ("simulate", cmd_simulate, "run a simulation grid and write CSV metrics"),
        ("probe", cmd_probe, "probe admissibility against a live background"),
        ("export-ilp", cmd_export_ilp, "build one request model and export LP text"),
        ("oracle-check", cmd_oracle_check, "cross-validate oracle/heuristic/checker"),
        ("topo-info", cmd_topo_info, "show topology facts"),
    ):
        p = sub.add_parser(command, help=summary)
        p.set_defaults(fn=fn)
        if fn in (cmd_simulate, cmd_probe):
            p.add_argument("--scenario", help="scenario file (key = value lines)")
        # every flag is read as text and cast by ``_config``, as a scenario value is
        for key, row in KEYS[command].items():
            p.add_argument("--" + key.replace("_", "-"), dest=key, help=row.help)
        if fn is cmd_export_ilp:
            p.add_argument("--all-pairs", action="store_true", help="aggregate counts over all pairs")
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
