"""Per-layer tracing from outside the package.

Each traced layer is a public flexrsa function (or ``SpectrumState`` method)
replaced by a wrapper that records calls and self time: the wrapper's
elapsed time minus the time spent in traced layers it called.  A function
is replaced in its defining module and in every flexrsa module that bound
it with ``from .x import y``, so calls through any binding are seen.

The heuristic's own work counters are collected by passing one shared
``stats`` dict into ``serve``/``compute_fiber_paths``/``assign_spectrum``
whenever the caller passed none.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# (module, attribute, class or None); the layer name is "<module>.<attribute>"
LAYERS = (
    ("topology", "load_topology", None),
    ("physics", "gvd_differential_delay_ps", None),
    ("spectrum", "free_blocks", "SpectrumState"),
    ("spectrum", "allocate", "SpectrumState"),
    ("spectrum", "release", "SpectrumState"),
    ("heuristic", "compute_fiber_paths", None),
    ("heuristic", "assign_spectrum", None),
    ("heuristic", "serve", None),
    ("sim", "run", None),
    ("sim", "probe_run", None),
    ("cli", "main", None),
    ("ilp", "build_model", None),
    ("ilp", "export_lp", None),
    ("ilp", "parse_lp", None),
    ("ilp", "check_assignment", None),
    ("oracle", "exact_solve", None),
    ("crossval", "cross_validate", None),
)
LAYER_NAMES = tuple(f"{mod}.{attr}" for mod, attr, _ in LAYERS)
_TAKES_STATS = {"heuristic.serve", "heuristic.compute_fiber_paths", "heuristic.assign_spectrum"}

# counters besides <layer>.calls; all are counts per unit of work
COUNTERS = (
    "heuristic.phase1_expansions",
    "heuristic.phase2_slot_inspections",  # computed by the heuristic: arcs x slots scanned
    "heuristic.serve.route_cache_hits",
    "heuristic.assign_spectrum.plans",
    "heuristic.serve.served",
    "spectrum.allocate.conflicts",
)


class Tracer:
    """Layer wrappers that can be installed and removed; counts accumulate until ``reset``."""

    def __init__(self):
        self.reset()
        self._stack: list[list] = []  # [layer name, child seconds]
        self._restore: list[tuple] = []  # (owner, attribute, original)

    def reset(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.stats: dict = {}

    def snapshot(self) -> tuple[dict, dict]:
        """(exact counts, self seconds) accumulated since the last reset."""
        counts = {f"{name}.calls": self.calls[name] for name in LAYER_NAMES}
        counts.update({name: self.counts[name] for name in COUNTERS})
        counts["heuristic.phase1_expansions"] = self.stats.get("phase1_expansions", 0)
        counts["heuristic.phase2_slot_inspections"] = self.stats.get("phase2_slot_inspections", 0)
        counts["heuristic.serve.route_cache_hits"] = (
            self.calls["heuristic.serve"] - self.counts["phase1_in_serve"]
        )
        return counts, {name: self.self_s[name] for name in LAYER_NAMES}

    def _wrap(self, name: str, fn):
        stack = self._stack
        perf = time.perf_counter
        takes_stats = name in _TAKES_STATS

        def traced(*args, **kwargs):
            if takes_stats and kwargs.get("stats") is None:
                kwargs["stats"] = self.stats
            if name == "heuristic.compute_fiber_paths" and stack and stack[-1][0] == "heuristic.serve":
                self.counts["phase1_in_serve"] += 1
            frame = [name, 0.0]
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if name == "spectrum.allocate" and type(exc).__name__ == "ConflictError":
                    self.counts["spectrum.allocate.conflicts"] += 1
                raise
            finally:
                elapsed = perf() - t0
                stack.pop()
                self.calls[name] += 1
                self.self_s[name] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
            if result is not None:
                if name == "heuristic.assign_spectrum":
                    self.counts["heuristic.assign_spectrum.plans"] += 1
                elif name == "heuristic.serve":
                    self.counts["heuristic.serve.served"] += 1
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Replace every traced layer in all loaded flexrsa modules."""
        package = [m for n, m in list(sys.modules.items()) if n == "flexrsa" or n.startswith("flexrsa.")]
        for mod_name, attr, cls_name in LAYERS:
            name = f"{mod_name}.{attr}"
            owner = getattr(sys.modules.get(f"flexrsa.{mod_name}"), cls_name or attr, None)
            if owner is None:
                continue  # a layer the package no longer has reports zero calls
            if cls_name is not None:
                self._patch(owner, attr, self._wrap(name, owner.__dict__[attr]))
                continue
            original = owner
            wrapper = self._wrap(name, original)
            for mod in package:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)

    def _patch(self, owner, key, wrapper):
        self._restore.append((owner, key, vars(owner)[key]))
        setattr(owner, key, wrapper)

    def uninstall(self):
        """Put back everything ``install`` replaced."""
        while self._restore:
            owner, key, original = self._restore.pop()
            setattr(owner, key, original)
