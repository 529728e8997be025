import concurrent.futures
import csv
import gc
import math
import os
import re
import subprocess
import sys
import weakref
from collections import Counter
from functools import partial
from hashlib import sha256
from pathlib import Path

import pytest

from flexrsa import cli, crossval, heuristic, oracle, sim
from flexrsa.cli import main

from util import circulant_15_text

REPO_ROOT = Path(__file__).resolve().parent.parent


def _out_of_range(key: str, value: str) -> str:
    """The message that refuses a flag value outside its range.

    A flag is cast as a scenario value is: a non-finite float is refused by
    the cast and quoted as given, a finite one by its range check.
    """
    if not math.isfinite(float(value)):
        return f"bad {key} '{value}': expected finite float"
    return f"bad {key} {float(value)!r}: expected"


def circulant_15(tmp_path):
    path = tmp_path / "circulant15.txt"
    path.write_text(circulant_15_text())
    return str(path)


def test_import_leaves_the_process_pool_out():
    # only a --jobs grid imports concurrent.futures, and with it multiprocessing
    probe = subprocess.run(
        [sys.executable, "-c", "import sys, flexrsa.cli; "
         "print(sorted({'concurrent.futures', 'multiprocessing'} & set(sys.modules)))"],
        env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
        capture_output=True,
        text=True,
        check=True,
    )
    assert probe.stdout.strip() == "[]"


class TestTopoInfo:
    def test_us_counts(self, capsys):
        assert main(["topo-info", "--topology", "us"]) == 0
        out = capsys.readouterr().out
        assert "nodes: 24" in out
        assert "directed arcs: 84" in out

    def test_abilene_counts(self, capsys):
        assert main(["topo-info", "--topology", "abilene"]) == 0
        out = capsys.readouterr().out
        assert "nodes: 12" in out
        assert "directed arcs: 30" in out

    def test_unreadable_topology(self, capsys):
        assert main(["topo-info", "--topology", "/no/such/file"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_zero_slots_rejected(self, capsys):
        assert main(["topo-info", "--slots", "0"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "bad slots 0: expected >= 1" in err
        assert "Traceback" not in err

    def test_non_integer_slots_rejected(self, capsys):
        # read as text and cast by the command, as a grid flag is
        assert main(["topo-info", "--slots", "1.5"]) == 2
        assert capsys.readouterr().err == "error: bad slots '1.5': expected int\n"

    @pytest.mark.parametrize("token", ["inf", "1e400", "nan"])
    def test_non_finite_link_length_names_the_line(self, tmp_path, capsys, token):
        topo = tmp_path / "bad.txt"
        topo.write_text(f"node a\nnode b\nlink a b {token}\n")
        assert main(["topo-info", "--topology", str(topo)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: line 3: length '{token}' is not finite\n"

    def test_delay_overflow_at_a_tiny_speed_rejected(self, tmp_path, capsys):
        # exit 2, not 1: 1 is oracle-check's verdict that an instance failed
        rc = main(["simulate", "--speed-kms", "1e-300", "--out", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: propagation delay of") and "is not finite" in err
        assert not (tmp_path / "o" / "metrics.csv").exists()


class TestSimulate:
    def test_tiny_grid_writes_csvs(self, tmp_path, capsys):
        out = str(tmp_path / "out")
        rc = main(
            [
                "simulate", "--topology", "us", "--slots", "16",
                "--mode", "st,pt1", "--k", "5", "--gb", "0", "--tr", "1-4",
                "--load", "20,40", "--seeds", "0..1", "--requests", "300",
                "--out", out,
            ]
        )
        assert rc == 0
        metrics = (tmp_path / "out" / "metrics.csv").read_text().strip().splitlines()
        assert len(metrics) == 1 + 2 * 2 * 2  # header + modes*loads*seeds
        for line in metrics[1:]:
            blocking = float(line.split(",")[9])
            assert 0.0 <= blocking <= 1.0
        assert (tmp_path / "out" / "path_dist.csv").exists()
        assert "wrote" in capsys.readouterr().out

    def test_demand_exceeding_slots_rejected(self, tmp_path, capsys):
        rc = main(
            ["simulate", "--topology", "us", "--slots", "8", "--tr", "10",
             "--load", "10", "--seeds", "0..0", "--requests", "50",
             "--out", str(tmp_path / "o")]
        )
        assert rc == 2
        assert "exceeds" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, axis",
        [(["--seeds", "0..-1"], "seeds"), (["--load", ","], "load"), (["--k", ","], "k")],
    )
    def test_empty_grid_rejected(self, tmp_path, capsys, flags, axis):
        rc = main(
            ["simulate", "--topology", "us", "--slots", "16", "--tr", "2", "--load", "10",
             "--seeds", "0..0", "--requests", "50", "--out", str(tmp_path / "o")] + flags
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"empty grid: {axis} gives no values" in err
        assert not (tmp_path / "o" / "metrics.csv").exists()

    @pytest.mark.parametrize("value", ["-3", "2-x", "0", "4-1", "0-2"])
    def test_bad_demand_rejected(self, tmp_path, capsys, value):
        rc = main(
            ["simulate", "--topology", "us", "--slots", "16", "--tr", value, "--load", "10",
             "--seeds", "0..0", "--requests", "50", "--out", str(tmp_path / "o")]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"bad tr '{value}'" in err
        assert not (tmp_path / "o" / "metrics.csv").exists()

    @pytest.mark.parametrize(
        "flags, key, value",
        [
            (["--seeds", "x"], "seeds", "x"),
            (["--seeds", "0..y"], "seeds", "y"),
            (["--seeds", "1,z"], "seeds", "z"),
            (["--load", "abc"], "load", "abc"),
            (["--k", "3x"], "k", "3x"),
            (["--gb", "1.5"], "gb", "1.5"),
            (["--load", "nan"], "load", "nan"),
            (["--load", "10,inf"], "load", "inf"),
            (["--requests", "1e3"], "requests", "1e3"),
            (["--slots", "1.5"], "slots", "1.5"),
        ],
    )
    def test_bad_number_rejected(self, tmp_path, capsys, flags, key, value):
        rc = main(
            ["simulate", "--topology", "us", "--slots", "16", "--tr", "2", "--load", "10",
             "--seeds", "0..0", "--requests", "50", "--out", str(tmp_path / "o")] + flags
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"bad {key} '{value}'" in err
        assert not (tmp_path / "o" / "metrics.csv").exists()

    @pytest.mark.parametrize(
        "key, value",
        [("slots", "abc"), ("requests", "1e3"), ("warmup", "x"), ("jobs", "2.0"),
         ("load", "nan"), ("speed_kms", "inf"), ("max_dd_us", "nan")],
    )
    def test_bad_number_in_scenario_rejected(self, tmp_path, capsys, key, value):
        scn = tmp_path / "s.scn"
        # a scenario sets each key once: the bad value replaces the base line
        lines = {"topology": "us", "tr": "2", "load": "10", "seeds": "0..0", key: value}
        scn.write_text("".join(f"{k} = {v}\n" for k, v in lines.items()))
        rc = main(["simulate", "--scenario", str(scn), "--out", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"bad {key} '{value}'" in err
        assert not (tmp_path / "o" / "metrics.csv").exists()

    @pytest.mark.parametrize(
        "flags, key, value",
        [
            (["--load", "-5"], "load", "-5"),
            (["--load", "0"], "load", "0"),
            (["--load", "10,0"], "load", "0"),
            (["--speed-kms", "0"], "speed_kms", "0"),
            (["--speed-kms", "inf"], "speed_kms", "inf"),
            (["--mode", "pt", "--max-dd-us", "nan"], "max_dd_us", "nan"),
            (["--mode", "pt", "--max-dd-us", "-1"], "max_dd_us", "-1"),
            (["--warmup", "1.5"], "warmup", "1.5"),
            (["--warmup", "1"], "warmup", "1"),
            (["--warmup", "-0.1"], "warmup", "-0.1"),
            (["--dispersion", "-17"], "dispersion", "-17"),
            (["--dispersion", "0"], "dispersion", "0"),
            (["--fc-thz", "0"], "fc_thz", "0"),
            (["--slot-ghz", "-1"], "slot_ghz", "-1"),
        ],
        # explicit ids: a case keeps its id when another case is added or dropped
        ids=["flags0-load--5", "flags1-load-0", "flags2-load-0", "flags5-speed_kms-0",
             "flags6-speed_kms-inf", "flags7-max_dd_us-nan", "flags8-max_dd_us--1",
             "flags9-warmup-1.5", "flags10-warmup-1", "flags11-warmup--0.1",
             "flags12-dispersion--17", "flags13-dispersion-0", "flags14-fc_thz-0",
             "flags15-slot_ghz--1"],
    )
    def test_out_of_range_number_rejected(self, tmp_path, capsys, flags, key, value):
        rc = main(
            ["simulate", "--topology", "abilene", "--slots", "16", "--k", "2", "--tr", "2",
             "--load", "10", "--seeds", "0..0", "--requests", "50",
             "--out", str(tmp_path / "o")] + flags
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and _out_of_range(key, value) in err
        assert not (tmp_path / "o" / "metrics.csv").exists()

    @pytest.mark.parametrize(
        "key, value",
        [("load", "-5"), ("speed_kms", "0"), ("max_dd_us", "-1"),
         ("warmup", "1.5"), ("dispersion", "-17"), ("fc_thz", "0"), ("slot_ghz", "-50")],
    )
    def test_out_of_range_number_in_scenario_rejected(self, tmp_path, capsys, key, value):
        scn = tmp_path / "s.scn"
        lines = {"topology": "abilene", "slots": "16", "mode": "pt", "k": "2", "tr": "2",
                 "load": "10", "seeds": "0..0", "requests": "50", key: value}
        scn.write_text("".join(f"{k} = {v}\n" for k, v in lines.items()))
        rc = main(["simulate", "--scenario", str(scn), "--out", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"bad {key} {float(value)!r}: expected" in err
        assert not (tmp_path / "o" / "metrics.csv").exists()

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--gb", "-1"], "bad gb -1: expected >= 0"),
            (["--gb", "0,-2"], "bad gb -2: expected >= 0"),
            (["--requests", "0"], "bad requests 0: expected >= 1"),
            (["--slots", "0"], "bad slots 0: expected >= 1"),
            (["--k", "0"], "bad k 0: expected >= 1"),
            (["--k", "2,0"], "bad k 0: expected >= 1"),
        ],
    )
    def test_out_of_range_integer_rejected(self, tmp_path, capsys, flags, message):
        rc = main(
            ["simulate", "--topology", "abilene", "--slots", "16", "--k", "2", "--tr", "2",
             "--load", "10", "--seeds", "0..0", "--requests", "50",
             "--out", str(tmp_path / "o")] + flags
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "key, value", [("gb", "-1"), ("requests", "0"), ("slots", "0"), ("k", "0")]
    )
    def test_out_of_range_integer_in_scenario_rejected(self, tmp_path, capsys, key, value):
        scn = tmp_path / "s.scn"
        lines = {"topology": "abilene", "slots": "16", "k": "2", "tr": "2", "load": "10",
                 "seeds": "0..0", "requests": "50", key: value}
        scn.write_text("".join(f"{k} = {v}\n" for k, v in lines.items()))
        rc = main(["simulate", "--scenario", str(scn), "--out", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"bad {key} {value}: expected" in err
        assert not (tmp_path / "o").exists()

    def test_bad_topology_rejected(self, tmp_path, capsys):
        topo = tmp_path / "bad.txt"
        topo.write_text("node a\nnode b\nlink a c 10\n")
        rc = main(
            ["simulate", "--topology", str(topo), "--slots", "16", "--tr", "2", "--load", "10",
             "--seeds", "0..0", "--requests", "50", "--jobs", "2", "--out", str(tmp_path / "o")]
        )
        assert rc == 2
        assert "line 3" in capsys.readouterr().err
        assert not (tmp_path / "o" / "metrics.csv").exists()

    def test_grid_parses_once_and_enumerates_each_route_once(self, tmp_path, monkeypatch):
        # every cell of a --jobs 1 grid shares one parsed network and its route
        # memo, which searches each fiber pair once: one direction is derived
        # from the other's routes
        parses = []
        enumerations = Counter()
        parse, start = cli.load_topology, heuristic._start_search

        def counted_parse(*args, **kwargs):
            parses.append(args)
            return parse(*args, **kwargs)

        def counted_start(net, source, destination, k):
            enumerations[frozenset((source, destination)), k] += 1
            return start(net, source, destination, k)

        monkeypatch.setattr(cli, "load_topology", counted_parse)
        monkeypatch.setattr(heuristic, "_start_search", counted_start)
        rc = main(
            ["simulate", "--topology", "abilene", "--slots", "16", "--mode", "st,pt1",
             "--k", "4", "--tr", "1-4", "--load", "30", "--seeds", "0..1",
             "--requests", "250", "--jobs", "1", "--out", str(tmp_path / "o")]
        )
        assert rc == 0
        assert len(parses) == 1
        assert enumerations and max(enumerations.values()) == 1

    def test_grid_frees_its_network(self, tmp_path, monkeypatch):
        # the grid's network, with its route memo, goes when main returns,
        # without the cycle collector
        networks = []
        parse = cli.load_topology

        def kept(*args, **kwargs):
            net = parse(*args, **kwargs)
            networks.append(weakref.ref(net))
            return net

        monkeypatch.setattr(cli, "load_topology", kept)
        gc.disable()
        try:
            rc = main(
                ["simulate", "--topology", "us", "--slots", "16", "--mode", "st,pt1",
                 "--k", "4,8", "--tr", "1-4", "--load", "30", "--seeds", "0..1",
                 "--requests", "250", "--jobs", "1", "--out", str(tmp_path / "o")]
            )
            assert rc == 0
            assert len(networks) == 1 and networks[0]() is None
        finally:
            gc.enable()

    def test_multi_k_grid_enumerates_each_pair_once(self, tmp_path, monkeypatch):
        # cells run in descending K: every fiber pair is enumerated once, in
        # one direction, at the largest K, and the K=4 cells read that table's
        # prefix or its reverse
        enumerations = Counter()
        ks = set()
        start = heuristic._start_search

        def counted_start(net, source, destination, k):
            enumerations[frozenset((source, destination))] += 1
            ks.add(k)
            return start(net, source, destination, k)

        monkeypatch.setattr(heuristic, "_start_search", counted_start)
        rc = main(
            ["simulate", "--topology", "abilene", "--slots", "16", "--mode", "st,pt1",
             "--k", "4,8", "--tr", "1-4", "--load", "30", "--seeds", "0..1",
             "--requests", "250", "--jobs", "1", "--out", str(tmp_path / "o")]
        )
        assert rc == 0
        assert len(enumerations) > 50  # of abilene's 66 fiber pairs
        assert set(enumerations.values()) == {1}
        assert ks == {8}

    @pytest.mark.parametrize(
        "argv, draws, largest",
        [
            (["simulate", "--mode", "st,pt1", "--k", "4", "--tr", "1-4", "--seeds", "0..0"], 1, 4),
            (["probe", "--mode", "pt", "--k", "4,8", "--bg-tr", "1-4", "--probe-tr", "2-3",
              "--seeds", "0..1", "--probes", "10", "--spacing", "20"], 2, 8),
        ],
    )
    def test_serial_grid_draws_each_traffic_once(self, tmp_path, monkeypatch, argv, draws, largest):
        # at --jobs 1 the cells of one traffic run together, largest K first:
        # one draw per traffic, and each pair is still enumerated once, at that K
        drawn = []
        enumerations = Counter()
        ks = set()
        draw, start = sim._draw, heuristic._start_search

        def counted_draw(net, traffic, count=None):
            drawn.append(traffic.seed)
            return draw(net, traffic, count)

        def counted_start(net, source, destination, k):
            enumerations[frozenset((source, destination))] += 1
            ks.add(k)
            return start(net, source, destination, k)

        monkeypatch.setattr(sim, "_draw", counted_draw)
        monkeypatch.setattr(heuristic, "_start_search", counted_start)
        rc = main(argv + ["--topology", "abilene", "--slots", "16", "--load", "30",
                          "--requests", "250", "--jobs", "1", "--out", str(tmp_path / "o")])
        assert rc == 0
        assert len(drawn) == draws
        assert enumerations and set(enumerations.values()) == {1}
        assert ks == {largest}

    def test_bad_demand_in_scenario_rejected(self, tmp_path, capsys):
        scn = tmp_path / "s.scn"
        scn.write_text("topology = us\nslots = 16\ntr = -3\nload = 10\nseeds = 0..0\n")
        rc = main(["simulate", "--scenario", str(scn), "--out", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "bad tr '-3'" in err
        assert not (tmp_path / "o" / "metrics.csv").exists()

    def test_scenario_file_with_override(self, tmp_path):
        scn = tmp_path / "s.scn"
        scn.write_text(
            "topology = us\nslots = 16\nmode = st\nk = 4\ngb = 0\n"
            "tr = 2\nload = 25\nseeds = 0..0\nrequests = 200\nwarmup = 0.1\n"
        )
        out = str(tmp_path / "a")
        assert main(["simulate", "--scenario", str(scn), "--out", out]) == 0
        rows = (tmp_path / "a" / "metrics.csv").read_text().strip().splitlines()
        assert len(rows) == 2
        # flag overrides scenario: two loads now
        out2 = str(tmp_path / "b")
        assert main(["simulate", "--scenario", str(scn), "--load", "25,50", "--out", out2]) == 0
        rows2 = (tmp_path / "b" / "metrics.csv").read_text().strip().splitlines()
        assert len(rows2) == 3

    def test_out_dir_env_var(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FLEXRSA_OUT", str(tmp_path / "envout"))
        rc = main(
            ["simulate", "--topology", "abilene", "--slots", "8", "--mode", "st",
             "--k", "2", "--tr", "1", "--load", "5", "--seeds", "0..0",
             "--requests", "60"]
        )
        assert rc == 0
        assert (tmp_path / "envout" / "metrics.csv").exists()

    def test_duplicate_scenario_key_rejected(self, tmp_path, capsys):
        scn = tmp_path / "s.scn"
        scn.write_text("topology = abilene\nk = 3\n# a comment\nk = 4\n")
        rc = main(["simulate", "--scenario", str(scn), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {scn}:4: duplicate key 'k'\n"
        assert not (tmp_path / "o").exists()

    def test_unknown_scenario_key(self, tmp_path, capsys):
        scn = tmp_path / "bad.scn"
        scn.write_text("frobnicate = 1\n")
        assert main(["simulate", "--scenario", str(scn)]) == 2
        assert "unknown scenario keys" in capsys.readouterr().err

    def test_unreadable_scenario_rejected(self, tmp_path, capsys):
        scn = tmp_path / "s.scn"
        scn.write_text("topology = abilene\n\nk 3\n")
        assert main(["simulate", "--scenario", str(scn), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"error: {scn}:3: expected 'key = value'\n"
        missing = tmp_path / "missing.scn"
        assert main(["simulate", "--scenario", str(missing), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot read scenario {str(missing)!r}: ")
        assert not (tmp_path / "o").exists()

    def test_byte_identical_reruns(self, tmp_path):
        args = [
            "simulate", "--topology", "abilene", "--slots", "16", "--mode", "st,pt1",
            "--k", "4", "--tr", "1-4", "--load", "30", "--seeds", "0..1",
            "--requests", "250",
        ]
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        assert main(args + ["--out", a]) == 0
        assert main(args + ["--out", b]) == 0
        for name in ("metrics.csv", "path_dist.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_shipped_scenario_reproduces_grid_shape(self, tmp_path):
        scn = REPO_ROOT / "scenarios" / "blocking_vs_load.scn"
        out = str(tmp_path / "grid")
        # run the shipped grid at reduced scale: shape must stay loads x policies
        rc = main(
            ["simulate", "--scenario", str(scn), "--requests", "200",
             "--seeds", "0..0", "--out", out]
        )
        assert rc == 0
        rows = (tmp_path / "grid" / "metrics.csv").read_text().strip().splitlines()[1:]
        cells = {(r.split(",")[0], r.split(",")[1]) for r in rows}
        assert cells == {
            (load, policy) for load in ("60", "90", "120") for policy in ("st", "pt1", "pt2")
        }

    def test_jobs_parallel_matches_serial(self, tmp_path):
        args = [
            "simulate", "--topology", "abilene", "--slots", "16", "--mode", "pt1",
            "--k", "4", "--tr", "1-3", "--load", "20,35", "--seeds", "0..1",
            "--requests", "200",
        ]
        a, b = str(tmp_path / "ser"), str(tmp_path / "par")
        assert main(args + ["--out", a, "--jobs", "1"]) == 0
        assert main(args + ["--out", b, "--jobs", "3"]) == 0
        assert (tmp_path / "ser" / "metrics.csv").read_bytes() == (
            tmp_path / "par" / "metrics.csv"
        ).read_bytes()

    def test_jobs_capped_at_the_cell_count(self, tmp_path, monkeypatch):
        # a stand-in pool: records its size and runs the cells in this process
        sizes = []

        class Pool:
            def __init__(self, max_workers, initializer, initargs):
                sizes.append(max_workers)
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        # cli imports the pool class only when a grid needs one
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
        monkeypatch.setattr(cli, "_pool_net", None)
        rc = main(["simulate", "--topology", "abilene", "--slots", "16", "--k", "2,4",
                   "--tr", "2", "--load", "10", "--seeds", "0..0", "--requests", "50",
                   "--jobs", "64", "--out", str(tmp_path / "o")])
        assert rc == 0 and sizes == [2]

    def test_jobs_parallel_multi_k_matches_serial(self, tmp_path):
        # workers get the network once and run cells in descending K, as --jobs 1 does
        args = [
            "simulate", "--topology", "abilene", "--slots", "16", "--mode", "st,pt1",
            "--k", "2,8,4", "--tr", "1-4", "--load", "30", "--seeds", "0..1",
            "--requests", "200",
        ]
        a, b = tmp_path / "ser", tmp_path / "par"
        assert main(args + ["--out", str(a), "--jobs", "1"]) == 0
        assert main(args + ["--out", str(b), "--jobs", "2"]) == 0
        for name in ("metrics.csv", "path_dist.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()
        ks = [row["k"] for row in csv.DictReader((a / "metrics.csv").open())]
        assert ks == ["2", "2", "8", "8", "4", "4"] * 2  # cell order, whatever ran first


def printed_summary(out: str) -> list[dict]:
    """The rows of the summary table printed above the ``wrote ...`` line."""
    lines = [line.split() for line in out.splitlines() if not line.startswith("wrote ")]
    header = lines[0]
    # each measure is followed by its half-width column, all named "+/-95%"
    header = [f"{header[i - 1]}_hw" if h == "+/-95%" else h for i, h in enumerate(header)]
    return [dict(zip(header, row)) for row in lines[1:]]


def csv_rows(path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestSummary:
    """The printed table pools seeds only: one row per key, means of the CSV rows."""

    def test_simulate_one_row_per_k(self, tmp_path, capsys):
        rc = main(
            ["simulate", "--topology", "abilene", "--slots", "16", "--mode", "pt1",
             "--k", "1,8", "--tr", "4", "--load", "20", "--seeds", "0..1",
             "--requests", "1500", "--out", str(tmp_path)]
        )
        assert rc == 0
        rows = printed_summary(capsys.readouterr().out)
        assert [r["k"] for r in rows] == ["1", "8"]
        metrics = csv_rows(tmp_path / "metrics.csv")
        for row in rows:
            cells = [m for m in metrics if m["k"] == row["k"]]
            assert len(cells) == 2 and row["seeds"] == "2"
            for measure, column in (("blocking_prob", "blocking_prob"),
                                    ("aggregation_ratio", "agg_ratio")):
                mean = sum(float(m[column]) for m in cells) / len(cells)
                assert float(row[measure]) == pytest.approx(mean, abs=1e-6)
                assert row[f"{measure}_hw"] != "-"

    def test_probe_one_row_per_gb(self, tmp_path, capsys):
        rc = main(
            ["probe", "--topology", "abilene", "--slots", "16", "--mode", "pt1",
             "--k", "8", "--gb", "0,3", "--load", "20", "--seeds", "0..1",
             "--requests", "1500", "--probes", "20", "--spacing", "10", "--out", str(tmp_path)]
        )
        assert rc == 0
        rows = printed_summary(capsys.readouterr().out)
        assert [r["gb"] for r in rows] == ["0", "3"]
        probes = csv_rows(tmp_path / "probe.csv")
        for row in rows:
            cells = [p for p in probes if p["gb"] == row["gb"]]
            assert len(cells) == 2 and row["seeds"] == "2"
            assert {(p["bg_tr"], p["probe_tr"]) for p in cells} == {(row["bg_tr"], row["probe_tr"])}
            mean = sum(float(p["probe_blocking"]) for p in cells) / len(cells)
            assert float(row["probe_blocking"]) == pytest.approx(mean, abs=1e-6)

    def test_single_seed_prints_dash(self, tmp_path, capsys):
        rc = main(
            ["simulate", "--topology", "abilene", "--slots", "16", "--mode", "st,pt1",
             "--k", "2", "--tr", "1-4", "--load", "20,30", "--seeds", "0..0",
             "--requests", "300", "--out", str(tmp_path)]
        )
        assert rc == 0
        out = capsys.readouterr().out
        rows = printed_summary(out)
        assert len(rows) == 4 and out.isascii()
        metrics = {(m["load"], m["policy"]): m for m in csv_rows(tmp_path / "metrics.csv")}
        for row in rows:
            assert row["seeds"] == "1"
            assert row["blocking_prob_hw"] == row["aggregation_ratio_hw"] == "-"
            assert row["blocking_prob"] == metrics[row["load"], row["policy"]]["blocking_prob"]


class TestMultiAxisGolden:
    """Bytes and row order of grids with several K, GB and demand values."""

    def test_simulate_grid(self, tmp_path):
        rc = main(
            ["simulate", "--topology", "abilene", "--slots", "16", "--mode", "st,pt1,pt2",
             "--k", "2,8", "--gb", "0,1", "--tr", "2,1-4", "--load", "10,20",
             "--seeds", "0..1", "--requests", "300", "--out", str(tmp_path)]
        )
        assert rc == 0
        assert sha256((tmp_path / "metrics.csv").read_bytes()).hexdigest() == (
            "054bb33c719419017305cbe47a23b3f8b2e0a4e8a96ce8893a1af8fff003850b"
        )
        assert sha256((tmp_path / "path_dist.csv").read_bytes()).hexdigest() == (
            "de47d3b5102fb827ea4a77da1d764be345cd0ed4cc8b87d30b461f388bb3c4a5"
        )

    def test_probe_grid(self, tmp_path):
        rc = main(
            ["probe", "--topology", "abilene", "--slots", "16", "--mode", "st,pt1",
             "--k", "2,8", "--gb", "0,1", "--load", "10,20", "--seeds", "0..1",
             "--requests", "600", "--probes", "10", "--spacing", "20", "--out", str(tmp_path)]
        )
        assert rc == 0
        assert sha256((tmp_path / "probe.csv").read_bytes()).hexdigest() == (
            "8c60874688736d4c1a962b7528512cd0520518037f72087a3b645a67ee50f304"
        )


class TestProbeCommand:
    def test_probe_csv_written(self, tmp_path):
        out = str(tmp_path / "p")
        rc = main(
            [
                "probe", "--topology", "us", "--slots", "16", "--mode", "pt1",
                "--k", "5,10", "--gb", "1", "--bg-tr", "1-4", "--probe-tr", "4-6",
                "--load", "30", "--seeds", "0..1", "--requests", "900",
                "--warmup", "0.3", "--probes", "20", "--spacing", "20", "--out", out,
            ]
        )
        assert rc == 0
        lines = (tmp_path / "p" / "probe.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 2 * 2  # header + k-values * seeds
        for line in lines[1:]:
            assert int(line.split(",")[8]) == 20

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--spacing", "0"], "spacing"),
            (["--probes", "-5"], "probe count"),
            (["--jobs", "0"], "jobs"),
            (["--jobs", "-2"], "jobs"),
            (["--probes", "0"], "bad probes 0: expected a probe count >= 1"),
            (["--spacing", "-1"], "bad spacing -1: expected >= 1"),
            (["--gb", "-1"], "bad gb -1: expected >= 0"),
            (["--slots", "0"], "bad slots 0: expected >= 1"),
            (["--k", "0"], "bad k 0: expected >= 1"),
            # the last probe must follow one of the run's arrivals
            (["--requests", "400", "--probes", "16"],
             "bad probes 16: expected at most 15 after warm-up in 400 requests at spacing 25"),
            (["--requests", "400", "--probes", "1000"], "bad probes 1000: expected at most 15"),
        ],
    )
    def test_bad_input_rejected(self, tmp_path, capsys, flags, message):
        rc = main(
            ["probe", "--topology", "us", "--slots", "16", "--k", "5", "--load", "30",
             "--seeds", "0..0", "--requests", "100", "--out", str(tmp_path / "p")] + flags
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err
        assert not (tmp_path / "p" / "probe.csv").exists()


    @pytest.mark.parametrize(
        "flags, key, value",
        [
            (["--bg-tr", "0-2"], "bg_tr", "0-2"),
            (["--bg-tr", "2-x"], "bg_tr", "2-x"),
            (["--probe-tr", "-3"], "probe_tr", "-3"),
            (["--probe-tr", "0"], "probe_tr", "0"),
        ],
    )
    def test_bad_demand_rejected(self, tmp_path, capsys, flags, key, value):
        rc = main(
            ["probe", "--topology", "us", "--slots", "16", "--k", "5", "--load", "30",
             "--seeds", "0..0", "--requests", "100", "--out", str(tmp_path / "p")] + flags
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"bad {key} '{value}'" in err
        assert not (tmp_path / "p" / "probe.csv").exists()

    @pytest.mark.parametrize(
        "flags, key, value",
        [
            (["--load", "-5"], "load", "-5"),
            (["--speed-kms", "0"], "speed_kms", "0"),
            (["--mode", "pt", "--max-dd-us", "nan"], "max_dd_us", "nan"),
            (["--warmup", "1.5"], "warmup", "1.5"),
            (["--dispersion", "-17"], "dispersion", "-17"),
            (["--fc-thz", "0"], "fc_thz", "0"),
        ],
        # explicit ids: a case keeps its id when another case is added or dropped
        ids=["flags0-load--5", "flags3-speed_kms-0", "flags4-max_dd_us-nan", "flags5-warmup-1.5",
             "flags6-dispersion--17", "flags7-fc_thz-0"],
    )
    def test_out_of_range_number_rejected(self, tmp_path, capsys, flags, key, value):
        rc = main(
            ["probe", "--topology", "us", "--slots", "16", "--k", "5", "--load", "30",
             "--seeds", "0..0", "--requests", "100", "--out", str(tmp_path / "p")] + flags
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and _out_of_range(key, value) in err
        assert not (tmp_path / "p" / "probe.csv").exists()

    def test_zero_probes_in_scenario_rejected(self, tmp_path, capsys):
        scn = tmp_path / "p.scn"
        scn.write_text("topology = abilene\nslots = 16\nk = 2\nload = 10\nseeds = 0..0\n"
                       "requests = 100\nprobes = 0\n")
        rc = main(["probe", "--scenario", str(scn), "--out", str(tmp_path / "p")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "bad probes 0: expected" in err
        assert not (tmp_path / "p").exists()


    @pytest.mark.parametrize(
        "key, value, message",
        [("slots", "0", "bad slots 0: expected >= 1"), ("k", "0", "bad k 0: expected >= 1"),
         ("dispersion", "-17", "bad dispersion -17.0: expected > 0"),
         ("fc_thz", "0", "bad fc_thz 0.0: expected > 0")],
    )
    def test_out_of_range_in_scenario_rejected(self, tmp_path, capsys, key, value, message):
        scn = tmp_path / "p.scn"
        lines = {"topology": "abilene", "slots": "16", "k": "2", "load": "10",
                 "seeds": "0..0", "requests": "100", key: value}
        scn.write_text("".join(f"{k} = {v}\n" for k, v in lines.items()))
        rc = main(["probe", "--scenario", str(scn), "--out", str(tmp_path / "p")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err
        assert not (tmp_path / "p").exists()
    def test_bad_demand_in_scenario_rejected(self, tmp_path, capsys):
        scn = tmp_path / "p.scn"
        scn.write_text("topology = us\nslots = 16\nk = 5\nload = 30\nseeds = 0..0\nbg_tr = 3-1\n")
        rc = main(["probe", "--scenario", str(scn), "--out", str(tmp_path / "p")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "bad bg_tr '3-1'" in err
        assert not (tmp_path / "p" / "probe.csv").exists()

    def test_demands_checked_against_slots(self, tmp_path):
        # the background and probe demands fit 8 slots; simulate's default tr
        # (10) would not, and must not be checked here
        out = tmp_path / "p"
        rc = main(
            ["probe", "--topology", "abilene", "--slots", "8", "--k", "3",
             "--bg-tr", "1-2", "--probe-tr", "2-3", "--load", "5", "--seeds", "0..0",
             "--requests", "100", "--probes", "5", "--spacing", "5", "--out", str(out)]
        )
        assert rc == 0
        assert (out / "probe.csv").exists()

    @pytest.mark.parametrize(
        "flags, demand",
        [(["--bg-tr", "30-40"], "30-40"), (["--probe-tr", "4-17"], "4-17")],
    )
    def test_demand_exceeding_slots_rejected(self, tmp_path, capsys, flags, demand):
        rc = main(
            ["probe", "--topology", "us", "--slots", "16", "--k", "5", "--load", "30",
             "--seeds", "0..0", "--requests", "100", "--out", str(tmp_path / "p")] + flags
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert f"demand {demand} exceeds 16 slots per link" in err
        assert not (tmp_path / "p" / "probe.csv").exists()

    def test_probes_filling_the_run_accepted(self, tmp_path):
        # 400 requests, 40 of them warm-up: the 15th probe follows arrival
        # 40 + 14 * 25 = 390, and a 16th would follow arrival 415
        out = tmp_path / "p"
        rc = main(
            ["probe", "--topology", "abilene", "--slots", "16", "--k", "3", "--load", "10",
             "--seeds", "0..0", "--requests", "400", "--probes", "15", "--spacing", "25",
             "--out", str(out)]
        )
        assert rc == 0
        (row,) = csv.DictReader((out / "probe.csv").open())
        assert row["probes"] == "15"

    def test_empty_grid_rejected(self, tmp_path, capsys):
        rc = main(
            ["probe", "--topology", "us", "--slots", "16", "--k", "5", "--load", "30",
             "--seeds", "0..-1", "--requests", "100", "--out", str(tmp_path / "p")]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "empty grid: seeds gives no values" in err
        assert not (tmp_path / "p" / "probe.csv").exists()


class TestGridKeys:
    """Every simulate/probe key is one ``cli.KEYS`` row: its flag and its scenario line agree."""

    # a valid value other than the default, per key
    SAMPLE = {
        "topology": "abilene", "slots": "64", "max_dd_us": "300", "mode": "st,pt2",
        "k": "2,5", "gb": "1,2", "tr": "1-3,4", "load": "12.5,30", "seeds": "1..3",
        "requests": "7777", "warmup": "0.25", "dispersion": "16", "fc_thz": "194",
        "slot_ghz": "12.5", "speed_kms": "190000", "jobs": "3", "out": "elsewhere",
        "bg_tr": "2-3", "probe_tr": "3", "probes": "7", "spacing": "9",
    }

    @pytest.mark.parametrize("command", ["simulate", "probe"])
    def test_flag_and_scenario_line_give_the_same_config(self, tmp_path, command):
        assert set(self.SAMPLE) == set(cli.KEYS["simulate"]) | set(cli.KEYS["probe"])
        parser = cli.build_parser()
        default = cli._common_grid_config(parser.parse_args([command]))
        keys = list(cli.KEYS[command])
        assert set(keys) <= set(default)
        for key in keys:
            value = self.SAMPLE[key]
            flag = "--" + key.replace("_", "-")
            from_flag = cli._common_grid_config(parser.parse_args([command, flag, value]))
            scn = tmp_path / f"{key}.scn"
            scn.write_text(f"{key} = {value}\n")
            from_scenario = cli._common_grid_config(
                parser.parse_args([command, "--scenario", str(scn)])
            )
            assert from_flag == from_scenario, key
            assert from_flag[key] != default[key], key

    @pytest.mark.parametrize("command", ["simulate", "probe"])
    def test_arrival_rate_is_gone(self, tmp_path, capsys, command):
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as exc:
            main([command, "--arrival-rate", "1", "--out", str(out)])
        assert exc.value.code == 2
        assert "unrecognized arguments: --arrival-rate" in capsys.readouterr().err
        scn = tmp_path / "s.scn"
        scn.write_text("arrival_rate = 1\n")
        assert main([command, "--scenario", str(scn), "--out", str(out)]) == 2
        assert "unknown scenario keys: ['arrival_rate']" in capsys.readouterr().err
        assert not out.exists()


class TestCommandKeys:
    """Every command's flags are its ``cli.KEYS`` rows, and each reaches the config."""

    # a valid value other than the default, per key of the commands without scenarios
    SAMPLE = {
        "export-ilp": {
            "topology": "abilene", "slots": "32", "paths": "3", "gb": "1", "max_dd_us": "300",
            "tr": "5", "src": "Denver", "dst": "Houston", "out": "m.lp",
        },
        "oracle-check": {
            "seed": "3", "instances": "5", "max_nodes": "4", "slots": "12", "max_demand": "3",
            "k": "2",
        },
        "topo-info": {"topology": "abilene", "slots": "64"},
    }

    @pytest.mark.parametrize("command", sorted(SAMPLE))
    def test_flag_reaches_the_config(self, command):
        assert set(self.SAMPLE[command]) == set(cli.KEYS[command])
        parser = cli.build_parser()
        default = cli._config(parser.parse_args([command]))
        for key, row in cli.KEYS[command].items():
            value = self.SAMPLE[command][key]
            cfg = cli._config(parser.parse_args([command, "--" + key.replace("_", "-"), value]))
            assert cfg[key] == (row.cast or str)(value) != default[key], key
            assert {k: v for k, v in cfg.items() if k != key} == {
                k: v for k, v in default.items() if k != key
            }, key

    @pytest.mark.parametrize("command", ["simulate", "probe", "export-ilp", "oracle-check",
                                         "topo-info"])
    def test_help_lists_one_flag_per_row(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        flags = re.findall(r"^\s+(?:-h, )?(--[a-z-]+)", capsys.readouterr().out, re.MULTILINE)
        extra = {"simulate": ["--scenario"], "probe": ["--scenario"],
                 "export-ilp": ["--all-pairs"]}.get(command, [])
        rows = ["--" + key.replace("_", "-") for key in cli.KEYS[command]]
        assert sorted(flags) == sorted(["--help", *extra, *rows])


class TestExportIlp:
    def test_variable_accounting_on_15_node_net(self, tmp_path, capsys):
        topo = circulant_15(tmp_path)
        lp_out = str(tmp_path / "model.lp")
        rc = main(
            ["export-ilp", "--topology", topo, "--slots", "16", "--paths", "4",
             "--all-pairs", "--out", lp_out]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "y variables per request: 64" in out
        assert "aggregate y variables over 210 node pairs: 13440" in out
        text = open(lp_out).read()
        assert text.startswith("Minimize")
        assert "Binaries" in text and "End" in text

    def test_all_pairs_searches_each_fiber_pair_once(self, tmp_path, monkeypatch, capsys):
        searched = []
        start = heuristic._start_search

        def counted_start(net, source, destination, k):
            searched.append(frozenset((source, destination)))
            return start(net, source, destination, k)

        monkeypatch.setattr(heuristic, "_start_search", counted_start)
        topo = circulant_15(tmp_path)
        assert main(["export-ilp", "--topology", topo, "--slots", "16", "--paths", "4",
                     "--all-pairs"]) == 0
        assert "aggregate y variables over 210 node pairs: 13440" in capsys.readouterr().out
        assert len(searched) == len(set(searched)) == 105

    def test_export_parses_back(self, tmp_path):
        from flexrsa import ilp

        topo = circulant_15(tmp_path)
        lp_out = tmp_path / "m.lp"
        assert main(
            ["export-ilp", "--topology", topo, "--slots", "8", "--paths", "2",
             "--src", "v00", "--dst", "v03", "--out", str(lp_out)]
        ) == 0
        parsed = ilp.parse_lp(lp_out.read_text())
        assert parsed.variable_counts()["y"] == 16

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--tr", "0"], "bad tr 0: expected >= 1"),
            (["--tr", "-2"], "bad tr -2: expected >= 1"),
            (["--gb", "-1"], "bad gb -1: expected >= 0"),
            (["--paths", "0"], "bad paths 0: expected >= 1"),
            (["--max-dd-us", "-3"], "bad max_dd_us -3.0: expected >= 0"),
            (["--max-dd-us", "nan"], "bad max_dd_us 'nan': expected finite float"),
            # two routes of 8 slots hold at most 16: the model would be infeasible
            (["--tr", "100"],
             "bad tr 100 for Seattle -> NewYork: demand 100 exceeds the capacity |P|*|F| = 2*8 = 16"),
            (["--tr", "17"], "bad tr 17 for Seattle -> NewYork: demand 17 exceeds the capacity"),
            (["--slots", "0"], "bad slots 0: expected >= 1"),
            # numeric flags are read as text and cast by the command
            (["--slots", "1.5"], "bad slots '1.5': expected int"),
            (["--src", "Seattle", "--dst", "Seattle"],
             "bad pair (Seattle, Seattle): source and destination must differ"),
            # the default source is the first node
            (["--dst", "Seattle"], "bad pair (Seattle, Seattle)"),
            (["--src", "Atlantis"], "unknown node in pair (Atlantis, NewYork)"),
        ],
    )
    def test_bad_input_rejected(self, tmp_path, capsys, flags, message):
        lp_out = tmp_path / "m.lp"
        rc = main(
            ["export-ilp", "--topology", "abilene", "--slots", "8", "--paths", "2",
             "--out", str(lp_out)] + flags
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err
        assert not lp_out.exists()


    def test_all_pairs_checks_each_pairs_capacity(self, tmp_path, capsys):
        # D hangs off C: C -> D has one route, every other pair two
        topo = tmp_path / "leaf.txt"
        topo.write_text(
            "node A\nnode B\nnode C\nnode D\n"
            "link A B 100\nlink B C 100\nlink A C 300\nlink C D 100\n"
        )
        lp_out = tmp_path / "m.lp"
        flags = ["export-ilp", "--topology", str(topo), "--slots", "4", "--paths", "2",
                 "--tr", "5", "--out", str(lp_out)]
        assert main(flags) == 0
        assert "request A -> D: |P|=2 |F|=4" in capsys.readouterr().out
        lp_out.unlink()
        assert main(flags + ["--all-pairs"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "bad tr 5 for C -> D: demand 5 exceeds the capacity |P|*|F| = 1*4 = 4" in err
        assert not lp_out.exists()

    def test_pair_without_a_path_rejected(self, tmp_path, capsys):
        topo = tmp_path / "two_parts.txt"
        topo.write_text("node A\nnode B\nnode C\nnode D\nlink A B 100\nlink C D 100\n")
        lp_out = tmp_path / "m.lp"
        rc = main(["export-ilp", "--topology", str(topo), "--slots", "4", "--src", "A",
                   "--dst", "D", "--out", str(lp_out)])
        assert rc == 2
        assert capsys.readouterr().err == "error: no path from A to D\n"
        assert not lp_out.exists()

    def test_demand_at_capacity_accepted(self, tmp_path, capsys):
        lp_out = tmp_path / "m.lp"
        rc = main(
            ["export-ilp", "--topology", "abilene", "--slots", "8", "--paths", "2",
             "--tr", "16", "--out", str(lp_out)]
        )
        assert rc == 0
        assert "|P|=2 |F|=8" in capsys.readouterr().out
        assert lp_out.exists()


class TestOracleCheck:
    def test_exit_zero_on_pass(self, capsys):
        assert main(["oracle-check", "--seed", "7", "--instances", "6"]) == 0
        assert "passed" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--instances", "-1"], "bad instances -1: expected >= 1"),
            (["--instances", "0"], "bad instances 0: expected >= 1"),
            (["--max-demand", "0"], "bad max_demand 0: expected >= 1"),
            (["--max-nodes", "2"], "bad max_nodes 2: expected 3 <= max_nodes <= 6"),
            (["--max-nodes", "7"], "bad max_nodes 7: expected 3 <= max_nodes <= 6"),
            (["--k", "0"], "bad k 0: expected >= 1"),
            (["--slots", "0"], "bad slots 0: expected 1 <= slots <= 16"),
            (["--slots", "17"], "bad slots 17: expected 1 <= slots <= 16"),
            (["--max-demand", "9"], "bad max_demand 9: expected max_demand <= slots (8)"),
            (["--slots", "4", "--max-demand", "5"],
             "bad max_demand 5: expected max_demand <= slots (4)"),
            # numeric flags are read as text and cast by the command
            (["--instances", "1e3"], "bad instances '1e3': expected int"),
        ],
    )
    def test_bad_input_rejected(self, capsys, flags, message):
        rc = main(["oracle-check", "--seed", "7", "--instances", "2"] + flags)
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and message in captured.err
        assert "Traceback" not in captured.err and "passed" not in captured.out

    def test_failures_are_reported_and_exit_one(self, capsys, monkeypatch):
        monkeypatch.setattr(crossval, "cross_validate", lambda *args, **kwargs: ["instance 3: cost 5 != 4"])
        assert main(["oracle-check", "--seed", "7", "--instances", "2"]) == 1
        out = capsys.readouterr().out
        assert out == "FAIL instance 3: cost 5 != 4\n1 cross-validation failure(s) over 2 instances\n"

    def test_bounds_follow_the_oracle_budget(self, capsys):
        budget = oracle.OracleLimits()
        flags = ["--max-nodes", str(budget.max_nodes), "--slots", str(budget.max_slots)]
        assert main(["oracle-check", "--seed", "7", "--instances", "1"] + flags) == 0
        assert "all 1 instances passed" in capsys.readouterr().out

    def test_budget_exceeded_is_a_usage_error(self, capsys, monkeypatch):
        # an oracle out of budget gives no verdict: exit 2 naming the size
        # flags, not the exit 1 of a cross-validation failure
        monkeypatch.setattr(oracle, "OracleLimits", partial(oracle.OracleLimits, max_steps=1))
        rc = main(["oracle-check", "--seed", "7", "--instances", "2", "--max-nodes", "4",
                   "--slots", "6", "--max-demand", "3"])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: oracle budget exceeded")
        assert "max_nodes 4, slots 6, max_demand 3" in captured.err
        assert "Traceback" not in captured.err and "FAIL" not in captured.out


def test_unknown_mode_rejected(tmp_path, capsys):
    rc = main(["simulate", "--mode", "warp", "--load", "10", "--seeds", "0..0",
               "--requests", "50", "--out", str(tmp_path / "x")])
    assert rc == 2
    assert "unknown mode" in capsys.readouterr().err


def test_import_leaves_scipy_and_numpy_out():
    # the package has no runtime dependencies: interval's t quantile is pure Python
    src = Path(cli.__file__).resolve().parent.parent
    probe = subprocess.run(
        [sys.executable, "-c",
         "import sys, flexrsa.cli; print(sorted({'scipy', 'numpy'} & set(sys.modules)))"],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
    )
    assert probe.stdout.strip() == "[]"
