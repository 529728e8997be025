"""Per-arc slot occupancy: band geometry queries and atomic allocate/release.

Guard-band rule used everywhere in this package: two distinct allocations
sharing an arc must keep a nearest-slot index distance strictly greater than
GB, i.e. at least GB free slots between them.  GB=0 therefore permits
adjacency.  The spectrum edges (slot 0 and slot F-1) need no guard.

Each arc's occupancy is one Python ``int``: bit i set means slot i is taken.
The hot kernel of the whole package is :meth:`SpectrumState.scan`, the one
place that reads the ledger for a path.  For each path in turn it ORs the
arcs' masks and grows the taken bits by the guard band, so the set bits of
the result (the path's free mask) are exactly the slots a band may use; it
then tests that mask for a run of ``length`` such slots by erosion, in
O(log length) integer operations, and stops at the first path that holds
one.  It hands back the non-empty masks it read, so a caller turns a mask
into runs (:func:`runs`, plain ``(start, length)`` int pairs) only when it
needs them.  ``free_blocks`` is the validated boundary: it checks the path
and the guard band, then reads the runs of the path's mask from the same
kernel as ``SlotRange`` records.  :meth:`SpectrumState.allocate` checks the
guard band, the range against the slot count and that the arcs form a
path, then fences the range grown by the guard band against every arc, all
before it writes a bit, so a rejected call leaves the ledger as it was.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence

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


class SpectrumPath(NamedTuple):
    """One fiber route carrying one band with identical slots on every arc."""

    arcs: tuple[Link, ...]
    range: SlotRange
    delay_ps: int
    gvd_ps: int = 0
    allocation_id: int | None = None


class _Alloc(NamedTuple):
    arc_ids: tuple[int, ...]
    range: SlotRange


def _arc_ids(fiber_path: Sequence[Link]) -> tuple[int, ...]:
    if len(fiber_path) == 0:
        raise SpectrumError("empty path")
    for a, b in zip(fiber_path, fiber_path[1:]):
        if a.dst != b.src:
            raise SpectrumError(f"arcs {a.id} and {b.id} are not consecutive")
    return tuple(link.id for link in fiber_path)


def _mask(start: int, length: int) -> int:
    """Bits ``start .. start+length-1`` set."""
    return ((1 << length) - 1) << start


def runs(free: int) -> list[tuple[int, int]]:
    """The maximal runs of set bits in ``free`` as (start, length), sorted by start."""
    blocks: list[tuple[int, int]] = []
    while free:
        low = free & -free
        start = low.bit_length() - 1  # first slot of the lowest run
        past = free + low  # carry clears the run and sets the slot after it
        end = (past & -past).bit_length() - 1  # one past the run's last slot
        free &= past
        blocks.append((start, end - start))
    return blocks


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
        self._full = _mask(0, self.slots)
        self._occ: list[int] = [0] * net.num_arcs
        self._allocs: dict[int, _Alloc] = {}
        self._next_id = 1

    # -- queries ---------------------------------------------------------

    def scan(
        self, paths: Iterable[Sequence[Link]], gb: int, length: int
    ) -> tuple[int | None, list[tuple[int, int]]]:
        """Read paths in order until one has room for ``length`` slots.

        A path's free mask has bit i set when slot i is free on every arc
        and more than ``gb`` slots from any taken one; spectrum edges need
        no guard.  Returns the index of the first path whose mask holds a
        run of ``length`` set bits (None when no path does) and ``(index,
        mask)`` for every non-empty mask read, in path order, ending with
        the hit's.  The arcs are not checked to form a path (see
        :meth:`free_blocks`).
        """
        occ = self._occ
        full = self._full
        shifts = range(1, gb + 1)
        # erosion: bit i stays set only while bits i .. i+covered-1 are all
        # set; each step adds to ``covered``, doubling it until it would pass
        # ``length``, then closing the gap
        steps = []
        covered = 1
        while covered < length:
            step = covered if 2 * covered <= length else length - covered
            steps.append(step)
            covered += step
        seen: list[tuple[int, int]] = []
        for index, arcs in enumerate(paths):
            taken = 0
            for link in arcs:
                taken |= occ[link.id]
            grown = taken
            for shift in shifts:
                grown |= taken << shift | taken >> shift
            free = full & ~grown
            if not free:
                continue
            seen.append((index, free))
            for step in steps:
                free &= free >> step
                if not free:
                    break
            if free:
                return index, seen
        return None, seen

    def free_blocks(self, fiber_path: Sequence[Link], gb: int) -> list[SlotRange]:
        """Maximal ranges free on every arc after guard-band shrinking.

        A free run loses ``gb`` slots on each side that touches an occupied
        slot; spectrum edges need no guard.  Sorted by start.
        """
        if gb < 0:
            raise SpectrumError(f"negative guard band: {gb}")
        _arc_ids(fiber_path)  # raises unless the arcs form a path
        _, seen = self.scan((fiber_path,), gb, 1)
        return [SlotRange(start, length) for start, length in runs(seen[0][1])] if seen else []

    def occupied_by_arc(self) -> dict[int, tuple[int, ...]]:
        """Occupied slot indices per arc id (only arcs with any occupancy)."""
        return {
            arc_id: tuple(i for i in range(self.slots) if mask >> i & 1)
            for arc_id, mask in enumerate(self._occ)
            if mask
        }

    def is_all_free(self) -> bool:
        return not self._allocs and not any(self._occ)

    @property
    def active_allocations(self) -> int:
        return len(self._allocs)

    def occupancy_dump(self) -> str:
        """Per-arc occupancy as a 0/1 string, one arc per line (golden tests)."""
        return "\n".join(format(mask, f"0{self.slots}b")[::-1] for mask in self._occ)

    # -- mutation --------------------------------------------------------

    def allocate(self, fiber_path: Sequence[Link], rng: SlotRange, gb: int) -> int:
        """Atomically claim ``rng`` on every arc of the path; returns the id.

        Fails (without partial effects) if any slot is taken or an existing
        allocation sits within ``gb`` slots of the range on any arc.
        """
        start, length = rng
        if gb < 0:
            raise SpectrumError(f"negative guard band: {gb}")
        if length < 1 or start < 0 or start + length > self.slots:
            raise SpectrumError(f"range {rng} outside [0, {self.slots})")
        if not fiber_path:
            raise SpectrumError("empty path")
        occ = self._occ
        # one pass checks the arcs form a path, collects their ids and ORs
        # their masks; nothing is written until it is done
        ids: list[int] = []
        taken = 0
        node = fiber_path[0].src
        for link in fiber_path:
            if link.src != node:
                raise SpectrumError(f"arcs {ids[-1]} and {link.id} are not consecutive")
            node = link.dst
            ids.append(link.id)
            taken |= occ[link.id]
        # the range grown by gb, clipped at slot 0; bits past the last slot
        # are never set, so it needs no clip there
        lo = start - gb if start > gb else 0
        if taken & ((1 << (start + length + gb - lo)) - 1) << lo:
            raise ConflictError(f"range {rng} conflicts on path {ids} (gb={gb})")
        band = ((1 << length) - 1) << start
        for a in ids:
            occ[a] |= band
        aid = self._next_id
        self._next_id = aid + 1
        self._allocs[aid] = _Alloc(tuple(ids), rng)
        return aid

    def release(self, allocation_id: int) -> None:
        try:
            alloc = self._allocs.pop(allocation_id)
        except KeyError:
            raise SpectrumError(f"unknown allocation id {allocation_id}") from None
        keep = ~_mask(alloc.range.start, alloc.range.length)
        for a in alloc.arc_ids:
            self._occ[a] &= keep

    def copy(self) -> "SpectrumState":
        clone = SpectrumState.__new__(SpectrumState)
        clone.net = self.net
        clone.slots = self.slots
        clone._full = self._full
        clone._occ = list(self._occ)
        clone._allocs = dict(self._allocs)
        clone._next_id = self._next_id
        return clone

    # -- verification ----------------------------------------------------

    def audit(self, gb: int = 0) -> None:
        """Check ledger invariants; raises SpectrumError on any breach."""
        owned = [0] * len(self._occ)
        for alloc in self._allocs.values():
            band = _mask(alloc.range.start, alloc.range.length)
            for arc in alloc.arc_ids:
                if owned[arc] & band:
                    raise SpectrumError(f"slot owned twice on arc {arc}")
                owned[arc] |= band
        if owned != self._occ:
            raise SpectrumError("occupancy bitmap out of sync with allocations")
        allocs = list(self._allocs.values())
        for i, a in enumerate(allocs):
            for b in allocs[i + 1 :]:
                if set(a.arc_ids) & set(b.arc_ids) and not ranges_clear(a.range, b.range, gb):
                    raise SpectrumError(
                        f"guard violation between {a.range} and {b.range} (gb={gb})"
                    )
