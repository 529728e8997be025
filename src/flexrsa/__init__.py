"""Routing and spectrum assignment for parallel transmission over flex-grid
optical networks: topology and fiber physics, per-arc spectrum bookkeeping,
a two-phase multipath heuristic, an exportable per-request constraint system,
an exhaustive test oracle, and a seeded dynamic-traffic simulator.
"""

from .heuristic import PolicyParams, Request, Route, Solution, assign_spectrum, compute_fiber_paths, serve
from .physics import FiberParams, gvd_differential_delay_ps, slot_width_nm
from .spectrum import SlotRange, SpectrumPath, SpectrumState
from .topology import Link, Network, TopologyError, load_topology

__all__ = [
    "FiberParams",
    "Link",
    "Network",
    "PolicyParams",
    "Request",
    "Route",
    "SlotRange",
    "Solution",
    "SpectrumPath",
    "SpectrumState",
    "TopologyError",
    "assign_spectrum",
    "compute_fiber_paths",
    "gvd_differential_delay_ps",
    "load_topology",
    "serve",
    "slot_width_nm",
]

__version__ = "0.1.0"
