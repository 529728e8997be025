#!/usr/bin/env python3
"""Layered benchmark for flexrsa.

    python3 perfbench/run.py --workload sim_us128 --seed 0 --seconds 16 --trace 0

Run from the repository root; flexrsa is imported from ``src/``.  Each run
starts fresh worker processes.  Untraced (``--trace 0``) it reports the
end-to-end metrics: ``setup_s`` is the median over three processes of the
time from process start to the first timed call, and the timed units repeat
for ``--seconds``.  Traced (``--trace 1``) it reports per-layer calls, self
time and the heuristic's work counters.  Outputs are checked in every unit;
the last line of output is the result as JSON, and any failed check makes
the exit code 1.

``--pin`` records this run's output fingerprint for the seed in
``fingerprints.json`` instead of comparing with it.  Re-pin only with a
change that means to alter outputs, and say why.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
PINS = HERE / "fingerprints.json"
SETUP_SAMPLES = 3
RUN_LIMIT_S = 170  # a worker still running after this is killed and the run fails


class WorkerError(RuntimeError):
    pass


def start_worker(args, out_dir: Path, extra: list[str]) -> tuple[subprocess.Popen, float]:
    """Start a worker; returns it with the seconds it took to report READY."""
    cmd = [
        sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--out-dir", str(out_dir),
    ] + extra
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    proc.watchdog = threading.Timer(RUN_LIMIT_S, proc.kill)
    proc.watchdog.start()
    line = proc.stdout.readline()
    ready = time.perf_counter() - t0
    if line.strip() != "READY":
        proc.kill()
        finish(proc)
        raise WorkerError("worker ended before set-up was done")
    return proc, ready


def finish(proc: subprocess.Popen) -> list[str]:
    lines = proc.stdout.read().splitlines()
    proc.wait()
    proc.watchdog.cancel()
    if proc.returncode != 0:
        raise WorkerError(f"worker exited with {proc.returncode}")
    return lines


def environment() -> dict:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10, check=True
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = "unknown (not a git checkout)"
    versions = {}
    for pkg in ("numpy", "scipy"):
        try:
            versions[pkg] = importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            versions[pkg] = "missing"
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        **versions,
        "nproc": os.cpu_count(),
        "loadavg_before": os.getloadavg(),
    }


def run(args, out_dir: Path) -> tuple[dict, list[str]]:
    setup = []
    if not (args.trace or args.pin):
        for _ in range(SETUP_SAMPLES - 1):
            proc, ready = start_worker(args, out_dir, ["--setup-only"])
            finish(proc)
            setup.append(ready)
    proc, ready = start_worker(args, out_dir, ["--pin"] if args.pin else [])
    setup.append(ready)
    lines = finish(proc)
    if not lines or not lines[-1].startswith("RESULT "):
        raise WorkerError("worker printed no result")
    result = json.loads(lines[-1][len("RESULT "):])
    if not args.trace:
        result["metrics"]["setup_s"] = statistics.median(setup)
        lines.insert(0, f"setup samples s {[round(s, 4) for s in setup]}")
    return result, lines[:-1]


def pin(workload: str, seed: int, fingerprint: dict):
    pins = json.loads(PINS.read_text()) if PINS.is_file() else {}
    pins.setdefault(workload, {})[str(seed)] = fingerprint
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true", help="record the output fingerprint for this seed")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "flexrsa" / "__init__.py").is_file():
        print(f"error: no flexrsa sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    spec = {m["name"]: m["unit"] for m in bench["per_layer" if args.trace else "end_to_end"]}

    env = environment()
    out_dir = ROOT / ".perfbench_out" / f"{args.workload}-{os.getpid()}"
    try:
        result, lines = run(args, out_dir)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        try:
            out_dir.parent.rmdir()
        except OSError:
            pass
    env["loadavg_after"] = os.getloadavg()

    missing = set(spec) - set(result["metrics"])
    if missing:
        print(f"error: worker reported no {sorted(missing)}", file=sys.stderr)
        return 1
    print("env " + json.dumps(env))
    for line in lines:
        print(line)
    for name, unit in spec.items():
        print(f"{name} {result['metrics'][name]:.6g} {unit}")
    print(f"ops_failed_frac {result['failed'] / max(result['attempted'], 1):.6g} (failed / attempted)")
    if args.pin and result["correct"]:
        pin(args.workload, args.seed, result["fingerprint"])
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": result["metrics"][name], "unit": unit} for name, unit in spec.items()},
    }))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
