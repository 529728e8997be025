"""Network graph: loading, validation and adjacency queries.

Topology files are line oriented:

    # comment
    node <id>
    link <src> <dst> <length_km>

Every ``link`` line is an undirected fiber pair and expands into two directed
arcs with identical length and delay; each direction owns its own spectrum.
Arc ids are dense integers (edge k yields arcs 2k and 2k+1), so they double
as indices into the per-arc occupancy ledger.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

from .physics import propagation_ps

DEFAULT_PROPAGATION_KM_S = 2.0e5


class TopologyError(ValueError):
    """Raised for malformed topology input."""


def _check_speed(speed_km_s: float) -> None:
    if not (math.isfinite(speed_km_s) and speed_km_s > 0):
        raise TopologyError(f"propagation_speed_km_s must be finite and > 0, got {speed_km_s}")


@dataclass(frozen=True)
class Link:
    """One directed arc. ``delay_ps`` is recomputable as round(length/v * 1e12)."""

    id: int
    src: str
    dst: str
    length_km: float
    delay_ps: int

    def __post_init__(self):
        if self.src == self.dst:
            raise TopologyError(f"self-loop at node {self.src!r}")
        if not math.isfinite(self.length_km):
            raise TopologyError(f"length on arc {self.id} is not finite: {self.length_km}")
        if self.length_km < 0:
            raise TopologyError(f"negative length on arc {self.id}")
        if self.delay_ps < 0:
            raise TopologyError(f"negative delay on arc {self.id}")


@dataclass(frozen=True)
class Network:
    """Immutable directed multigraph with per-arc physical attributes.

    Arcs come in fiber pairs: arc 2k+1 is arc 2k reversed, with the same
    length and delay, as ``load_topology`` builds them.  So the loop-free
    paths from d to s are exactly the s-to-d paths reversed onto the twin
    arcs (``id ^ 1``), with the same delays.
    """

    nodes: tuple[str, ...]
    links: tuple[Link, ...]
    slots_per_link: int
    propagation_speed_km_s: float = DEFAULT_PROPAGATION_KM_S

    def __post_init__(self):
        if self.slots_per_link < 1:
            raise TopologyError(f"slots_per_link must be >= 1, got {self.slots_per_link}")
        _check_speed(self.propagation_speed_km_s)
        if len(set(self.nodes)) != len(self.nodes):
            raise TopologyError("duplicate node id")
        known = set(self.nodes)
        for link in self.links:
            if link.src not in known or link.dst not in known:
                raise TopologyError(f"arc {link.id} references unknown node")
        for i, link in enumerate(self.links):
            if link.id != i:
                raise TopologyError(f"arc ids must be dense, found {link.id} at index {i}")
        links = self.links
        if len(links) % 2:
            raise TopologyError(f"arc {links[-1].id} has no twin: arcs come in fiber pairs")
        for fwd, back in zip(links[::2], links[1::2]):
            twin = (fwd.dst, fwd.src, fwd.length_km, fwd.delay_ps)
            if (back.src, back.dst, back.length_km, back.delay_ps) != twin:
                raise TopologyError(f"arc {back.id} is not arc {fwd.id} reversed, with the same length and delay")

    @cached_property
    def _outgoing(self) -> dict[str, tuple[Link, ...]]:
        table: dict[str, list[Link]] = {v: [] for v in self.nodes}
        for link in self.links:
            table[link.src].append(link)
        return {v: tuple(sorted(arcs, key=lambda a: (a.dst, a.id))) for v, arcs in table.items()}

    @cached_property
    def route_memo(self) -> dict:
        """Derived routes, one table per (source, destination); out of equality, hash and repr.

        ``heuristic.pair_routes`` keeps here, per pair, the routes its
        resumable search has found so far, grown only as far as a scan reads
        them, and the prefixes served.  A search writes the tables of both
        directions of its fiber pair at once, and they share it: the other
        direction takes every route found, each reversed onto the twin arcs,
        with only runs of equal delay re-sorted.  No entry refers back to the
        network.
        """
        return {}

    @cached_property
    def draw_memo(self) -> dict:
        """The last traffic drawn on this network; out of equality, hash and repr.

        ``sim`` keeps here one draw, keyed by (traffic config, request
        count), so grid cells that share a traffic draw it once.
        """
        return {}

    @cached_property
    def bound_memo(self) -> dict:
        """Phase-1 search bounds by destination; out of equality, hash and repr.

        The bound (each node's min delay to the destination) depends on the
        destination alone, so the first phase-1 search towards a destination
        computes it and keeps it here, with the arcs onward, for every later
        search, eager or resumable.  It is a Dijkstra from the destination
        along outgoing arcs: each is the twin of an arc the other way, with
        the same delay, so no reverse adjacency is kept.
        """
        return {}

    def outgoing(self, v: str) -> tuple[Link, ...]:
        """All arcs leaving ``v``, ordered by (dst id, arc id)."""
        try:
            return self._outgoing[v]
        except KeyError:
            raise TopologyError(f"unknown node {v!r}") from None

    def has_node(self, v: str) -> bool:
        return v in self._outgoing

    @property
    def num_arcs(self) -> int:
        return len(self.links)


@dataclass
class _Parser:
    nodes: list[str] = field(default_factory=list)
    seen: set[str] = field(default_factory=set)
    edges: list[tuple[str, str, float]] = field(default_factory=list)

    def feed(self, lineno: int, line: str):
        text = line.split("#", 1)[0].strip()
        if not text:
            return
        parts = text.split()
        if parts[0] == "node":
            if len(parts) != 2:
                raise TopologyError(f"line {lineno}: expected 'node <id>'")
            name = parts[1]
            if name in self.seen:
                raise TopologyError(f"line {lineno}: duplicate node id {name!r}")
            self.seen.add(name)
            self.nodes.append(name)
        elif parts[0] == "link":
            if len(parts) != 4:
                raise TopologyError(f"line {lineno}: expected 'link <src> <dst> <length_km>'")
            src, dst = parts[1], parts[2]
            try:
                length = float(parts[3])
            except ValueError:
                raise TopologyError(f"line {lineno}: bad length {parts[3]!r}") from None
            if not math.isfinite(length):
                raise TopologyError(f"line {lineno}: length {parts[3]!r} is not finite")
            if src not in self.seen:
                raise TopologyError(f"line {lineno}: link endpoint {src!r} not declared")
            if dst not in self.seen:
                raise TopologyError(f"line {lineno}: link endpoint {dst!r} not declared")
            if src == dst:
                raise TopologyError(f"line {lineno}: self-loop at {src!r}")
            if length <= 0:
                raise TopologyError(f"line {lineno}: non-positive length {length}")
            self.edges.append((src, dst, length))
        else:
            raise TopologyError(f"line {lineno}: unknown directive {parts[0]!r}")


def load_topology(
    text: str,
    *,
    slots_per_link: int,
    propagation_speed_km_s: float = DEFAULT_PROPAGATION_KM_S,
) -> Network:
    """Parse a topology file, doubling each undirected edge into two arcs."""
    _check_speed(propagation_speed_km_s)
    parser = _Parser()
    for lineno, line in enumerate(text.splitlines(), start=1):
        parser.feed(lineno, line)
    if not parser.nodes:
        raise TopologyError("no nodes declared")

    links: list[Link] = []
    for src, dst, length in parser.edges:
        delay = propagation_ps(length, propagation_speed_km_s)
        links.append(Link(len(links), src, dst, length, delay))
        links.append(Link(len(links), dst, src, length, delay))
    return Network(
        nodes=tuple(parser.nodes),
        links=tuple(links),
        slots_per_link=slots_per_link,
        propagation_speed_km_s=propagation_speed_km_s,
    )
