"""Per-arc slot occupancy: band geometry queries and atomic allocate/release.

Guard-band rule used everywhere in this package: two distinct allocations
sharing an arc must keep a nearest-slot index distance strictly greater than
GB, i.e. at least GB free slots between them.  GB=0 therefore permits
adjacency.  The spectrum edges (slot 0 and slot F-1) need no guard.

The inner scan (``free_blocks``) is the hot kernel of the whole package.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple, Sequence

import numpy as np

from .topology import Link, Network


class SpectrumError(Exception):
    """Invalid spectrum operation (bad path, unknown allocation, ...)."""


class ConflictError(SpectrumError):
    """Requested slots are occupied or would violate the guard band."""


class SlotRange(NamedTuple):
    """``length`` consecutive slots starting at 0-based ``start``."""

    start: int
    length: int

    @property
    def last(self) -> int:
        return self.start + self.length - 1


@dataclass(frozen=True)
class SpectrumPath:
    """One fiber route carrying one band with identical slots on every arc."""

    arcs: tuple[Link, ...]
    range: SlotRange
    delay_ps: int
    gvd_ps: int = 0
    allocation_id: int | None = None

    def with_allocation(self, allocation_id: int) -> "SpectrumPath":
        return replace(self, allocation_id=allocation_id)


@dataclass(frozen=True)
class _Alloc:
    arc_ids: tuple[int, ...]
    range: SlotRange


def _arc_indices(fiber_path: Sequence[Link] | np.ndarray) -> np.ndarray:
    if isinstance(fiber_path, np.ndarray):
        if fiber_path.size == 0:
            raise SpectrumError("empty path")
        return fiber_path
    if len(fiber_path) == 0:
        raise SpectrumError("empty path")
    for a, b in zip(fiber_path, fiber_path[1:]):
        if a.dst != b.src:
            raise SpectrumError(f"arcs {a.id} and {b.id} are not consecutive")
    return np.fromiter((link.id for link in fiber_path), dtype=np.int64, count=len(fiber_path))


def ranges_clear(a: SlotRange, b: SlotRange, gb: int) -> bool:
    """True when two ranges keep the required strictly-greater-than-gb gap."""
    if a.start > b.start:
        a, b = b, a
    return b.start - a.last > gb


class SpectrumState:
    """Mutable occupancy ledger for one network; single-writer."""

    def __init__(self, net: Network):
        self.net = net
        self.slots = net.slots_per_link
        self._occ = np.zeros((net.num_arcs, self.slots), dtype=np.uint8)
        self._allocs: dict[int, _Alloc] = {}
        self._next_id = 1

    # -- queries ---------------------------------------------------------

    def free_blocks(self, fiber_path: Sequence[Link] | np.ndarray, gb: int) -> list[SlotRange]:
        """Maximal ranges free on every arc after guard-band shrinking.

        A free run loses ``gb`` slots on each side that touches an occupied
        slot; spectrum edges need no guard.  Sorted by start.
        """
        if gb < 0:
            raise SpectrumError(f"negative guard band: {gb}")
        arcs = _arc_indices(fiber_path)
        slots = self.slots
        if len(arcs) == 1:
            merged = self._occ[arcs[0]] != 0
        else:
            merged = self._occ[arcs].any(axis=0)

        # Run boundaries: pad with occupied sentinels, diff flags transitions.
        padded = np.empty(slots + 2, dtype=np.int8)
        padded[0] = padded[-1] = 1
        padded[1:-1] = merged
        edges = np.flatnonzero(np.diff(padded))
        blocks: list[SlotRange] = []
        for k in range(0, len(edges), 2):
            start = int(edges[k])  # first free slot of the run
            end = int(edges[k + 1]) - 1  # last free slot of the run
            if start > 0:
                start += gb
            if end < slots - 1:
                end -= gb
            if end >= start:
                blocks.append(SlotRange(start, end - start + 1))
        return blocks

    def largest_free_block(self, fiber_path: Sequence[Link] | np.ndarray, gb: int) -> SlotRange | None:
        blocks = self.free_blocks(fiber_path, gb)
        if not blocks:
            return None
        return max(blocks, key=lambda b: (b.length, -b.start))

    def occupied_by_arc(self) -> dict[int, tuple[int, ...]]:
        """Occupied slot indices per arc id (only arcs with any occupancy)."""
        out: dict[int, tuple[int, ...]] = {}
        for arc_id in np.flatnonzero(self._occ.any(axis=1)):
            out[int(arc_id)] = tuple(int(i) for i in np.flatnonzero(self._occ[arc_id]))
        return out

    def is_all_free(self) -> bool:
        return not self._allocs and not self._occ.any()

    @property
    def active_allocations(self) -> int:
        return len(self._allocs)

    def occupancy_dump(self) -> str:
        """Per-arc occupancy as a 0/1 string, one arc per line (golden tests)."""
        return "\n".join("".join("1" if x else "0" for x in row) for row in self._occ)

    # -- mutation --------------------------------------------------------

    def allocate(self, fiber_path: Sequence[Link] | np.ndarray, rng: SlotRange, gb: int) -> int:
        """Atomically claim ``rng`` on every arc of the path; returns the id.

        Fails (without partial effects) if any slot is taken or an existing
        allocation sits within ``gb`` slots of the range on any arc.
        """
        rng = SlotRange(*rng)
        if gb < 0:
            raise SpectrumError(f"negative guard band: {gb}")
        if rng.length < 1 or rng.start < 0 or rng.start + rng.length > self.slots:
            raise SpectrumError(f"range {rng} outside [0, {self.slots})")
        arcs = _arc_indices(fiber_path)
        lo = max(0, rng.start - gb)
        hi = min(self.slots, rng.start + rng.length + gb)
        if self._occ[arcs, lo:hi].any():
            raise ConflictError(f"range {rng} conflicts on path {arcs.tolist()} (gb={gb})")
        aid = self._next_id
        self._next_id += 1
        self._occ[arcs, rng.start : rng.start + rng.length] = 1
        self._allocs[aid] = _Alloc(tuple(int(a) for a in arcs), rng)
        return aid

    def release(self, allocation_id: int) -> None:
        try:
            alloc = self._allocs.pop(allocation_id)
        except KeyError:
            raise SpectrumError(f"unknown allocation id {allocation_id}") from None
        arcs = np.fromiter(alloc.arc_ids, dtype=np.int64, count=len(alloc.arc_ids))
        self._occ[arcs, alloc.range.start : alloc.range.start + alloc.range.length] = 0

    def copy(self) -> "SpectrumState":
        clone = SpectrumState.__new__(SpectrumState)
        clone.net = self.net
        clone.slots = self.slots
        clone._occ = self._occ.copy()
        clone._allocs = dict(self._allocs)
        clone._next_id = self._next_id
        return clone

    # -- verification ----------------------------------------------------

    def audit(self, gb: int = 0) -> None:
        """Check ledger invariants; raises SpectrumError on any breach."""
        owned = np.zeros(self._occ.shape, dtype=bool)
        for alloc in self._allocs.values():
            sl = slice(alloc.range.start, alloc.range.start + alloc.range.length)
            for arc in alloc.arc_ids:
                if owned[arc, sl].any():
                    raise SpectrumError(f"slot owned twice on arc {arc}")
                owned[arc, sl] = True
        if not np.array_equal(owned, self._occ != 0):
            raise SpectrumError("occupancy bitmap out of sync with allocations")
        allocs = list(self._allocs.values())
        for i, a in enumerate(allocs):
            for b in allocs[i + 1 :]:
                if set(a.arc_ids) & set(b.arc_ids) and not ranges_clear(a.range, b.range, gb):
                    raise SpectrumError(
                        f"guard violation between {a.range} and {b.range} (gb={gb})"
                    )
