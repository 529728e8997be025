"""One benchmark process: set up a workload, then time or trace its units.

Started by ``run.py``, which times set-up from process start to the
``READY`` line.  The last line of output is ``RESULT <json>``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from flexrsa import spectrum  # noqa: E402

import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

PINS = Path(__file__).resolve().parent / "fingerprints.json"


def per_layer_metrics() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in report order."""
    out = []
    for name in tracing.LAYER_NAMES:
        out += [(f"{name}.calls", "count"), (f"{name}.self_s", "s")]
    out += [
        ("heuristic.phase1_expansions", "count"),
        ("heuristic.phase2_slot_inspections", "count"),
        ("heuristic.serve.route_cache_hits", "count"),
        ("spectrum.allocate.conflicts", "count"),
        ("heuristic.assign_spectrum.plan_ratio", "ratio"),
        ("heuristic.serve.served_ratio", "ratio"),
        ("trace.untraced_unit_s", "s"),
        ("trace.traced_unit_s", "s"),
    ]
    return out


class Checker:
    """Counts operations attempted and failed; every unit must match the first
    unit's fingerprint and, for a pinned seed, the pinned one."""

    def __init__(self, pinned: dict | None):
        self.pinned = pinned
        self.first: dict | None = None
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def unit(self, result) -> bool:
        problems = list(result.failures)
        if self.first is None:
            self.first = result.fingerprint
            if self.pinned is not None and result.fingerprint != self.pinned:
                problems.append(f"fingerprint {result.fingerprint} differs from pinned {self.pinned}")
        elif result.fingerprint != self.first:
            problems.append("a repeated unit gave another fingerprint than the first")
        return self.count(result.ops, problems)

    def count(self, ops: int, problems: list[str]) -> bool:
        self.attempted += ops
        if problems:
            self.failed += ops
            self.messages += problems
        return not problems

    def crashed(self, ops: int):
        self.count(ops, [f"exception: {traceback.format_exc(limit=3)}"])

    def checks(self, made: int, failures: list[str]):
        self.attempted += made
        self.failed += len(failures)
        self.messages += failures


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile, ``statistics.quantiles`` inclusive method."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def timed_run(wl, seconds: float, check: Checker) -> tuple[dict, list[str]]:
    wl.time_ops()
    units = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        try:
            result = wl.unit()
        except Exception:  # noqa: BLE001 - report the failure, do not hide it
            check.crashed(wl.ops_per_unit)
            break
        units.append((time.perf_counter() - t0, result))
        if not check.unit(result) or time.perf_counter() - start >= seconds:
            break
    if not units:
        return {}, []
    walls = [w for w, _ in units]
    lat_us = [[x * 1e6 for x in r.latencies_s] for _, r in units]
    metrics = {
        "ops_per_s": statistics.median(r.ops / w for w, r in units),
        "op_us_p99": statistics.median(quantile(v, 99) for v in lat_us),
    }
    # The median is printed, not gated: decision latency can be bimodal
    # (first-route fit vs. multi-route scan), and with the median near the
    # gap it jumps by 2x when the mix shifts by a few percent between seeds.
    shown = dict(metrics, op_us_p50=statistics.median(statistics.median(v) for v in lat_us))
    lines = [
        f"op: {wl.op}",
        f"units {len(units)}, unit wall s {[round(w, 4) for w in walls]}, "
        f"latency samples {sum(len(v) for v in lat_us)} ({len(lat_us[0])} per unit)",
        f"op_us_p50 {shown['op_us_p50']:.6g} us (printed only)",
    ]
    for key, alias in wl.alias.items():
        lines.append(f"{alias} {shown[key]:.6g} (= {key})")
    if wl.unit_alias:
        lines.append(f"{wl.unit_alias} {statistics.median(walls):.6g} s (median unit wall)")
    for key in units[0][1].rates:
        lines.append(f"{key} {statistics.median(r.rates[key] for _, r in units):.6g} 1/s")
    return metrics, lines


def traced_run(wl, seconds: float, check: Checker) -> tuple[dict, list[str]]:
    """Untraced and traced units in turn; exact counts per unit must repeat."""
    tracer = tracing.Tracer()
    untraced, walls, counts, self_s = [], [], None, []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        result = wl.unit()
        untraced.append(time.perf_counter() - t0)
        if not check.unit(result):
            break
        if len(untraced) == 1:
            check.checks(*wl.legality(check.first))
        tracer.install()
        tracer.reset()
        t0 = time.perf_counter()
        try:
            result = wl.unit()
        finally:
            walls.append(time.perf_counter() - t0)
            tracer.uninstall()
        unit_counts, unit_self = tracer.snapshot()
        self_s.append(unit_self)
        if counts is None:
            counts = unit_counts
        elif unit_counts != counts:
            result.failures.append("traced counts differ between identical units")
        if not check.unit(result) or time.perf_counter() - start >= seconds:
            break
    if counts is None:
        return {}, []

    n = len(self_s)
    names = {name for name, _ in per_layer_metrics()}
    metrics = {k: v for k, v in counts.items() if k in names}
    for name in tracing.LAYER_NAMES:
        metrics[f"{name}.self_s"] = sum(s[name] for s in self_s) / n

    def ratio(part, whole):
        return counts[part] / counts[whole] if counts[whole] else 0.0

    metrics["heuristic.assign_spectrum.plan_ratio"] = ratio(
        "heuristic.assign_spectrum.plans", "heuristic.assign_spectrum.calls"
    )
    metrics["heuristic.serve.served_ratio"] = ratio("heuristic.serve.served", "heuristic.serve.calls")
    metrics["trace.untraced_unit_s"] = statistics.median(untraced)
    metrics["trace.traced_unit_s"] = statistics.median(walls)

    total = sum(metrics[f"{name}.self_s"] for name in tracing.LAYER_NAMES)
    top = sorted(tracing.LAYER_NAMES, key=lambda name: -metrics[f"{name}.self_s"])[:3]
    lines = [
        f"traced units {n}; median unit wall untraced {metrics['trace.untraced_unit_s']:.4f} s, "
        f"traced {metrics['trace.traced_unit_s']:.4f} s "
        f"(tracing overhead {metrics['trace.traced_unit_s'] / metrics['trace.untraced_unit_s'] - 1:+.1%})",
        "top self time: "
        + ", ".join(f"{name} {metrics[f'{name}.self_s']:.4f} s ({metrics[f'{name}.self_s'] / total:.0%})" for name in top),
    ]
    return metrics, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--pin", action="store_true", help="do not compare with the pinned fingerprint")
    args = parser.parse_args(argv)

    os.makedirs(args.out_dir, exist_ok=True)
    wl = WORKLOADS[args.workload](args.seed, args.out_dir)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    pins = json.loads(PINS.read_text()) if PINS.is_file() else {}
    pinned = None if args.pin else pins.get(args.workload, {}).get(str(args.seed))
    check = Checker(pinned)
    lines = [
        f"kernel_impl {getattr(spectrum, 'KERNEL_IMPL', 'n/a')}",
        f"fingerprint {'pinned for this seed' if pinned else 'not pinned for this seed: checked for repeatability only'}",
    ]
    metrics: dict = {}
    try:
        wl.prepare()
        if args.trace:
            metrics, more = traced_run(wl, args.seconds, check)
        else:
            metrics, more = timed_run(wl, args.seconds, check)
            if check.first is not None:
                check.checks(*wl.legality(check.first))
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        lines += more
    except Exception:  # noqa: BLE001 - any failure must reach the result
        check.crashed(wl.ops_per_unit)
    for line in lines + [f"FAIL {m}" for m in check.messages]:
        print(line)
    result = {
        "correct": check.failed == 0 and check.attempted > 0,
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": metrics,
        "fingerprint": check.first,
    }
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
