import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import flexrsa
from flexrsa.spectrum import (
    SlotRange, SpectrumError, ConflictError, SpectrumState, _Alloc, runs,
)

from util import make_net, oracle_blocks, occupancy_rows, paint


def single_arc_state(slots=16):
    net = make_net([("A", "B", 100)], slots=slots)
    return net, SpectrumState(net), net.outgoing("A")


class TestFreeBlocks:
    def test_read_off_vector_gb0(self):
        _, state, path = single_arc_state()
        paint(state, path[0], "1111000011110000")
        assert state.free_blocks(path, 0) == [(4, 4), (12, 4)]

    def test_guard_shrink_gb2(self):
        # the 4..7 run is fenced by occupied slots on both sides, so a 2-slot
        # guard consumes it entirely; 12..15 only needs a left guard
        _, state, path = single_arc_state()
        paint(state, path[0], "1111000011110000")
        assert state.free_blocks(path, 2) == [(14, 2)]
        rows = occupancy_rows(state, path)
        assert oracle_blocks(rows, 2) == [(14, 2)]

    def test_two_arc_intersection(self):
        net = make_net([("A", "B", 100), ("B", "C", 100)], slots=16)
        a_b = net.outgoing("A")[0]
        b_c = [l for l in net.outgoing("B") if l.dst == "C"][0]
        state = SpectrumState(net)
        paint(state, a_b, "1111000011111111")  # free 4..7
        paint(state, b_c, "1111110000111111")  # free 6..9
        assert state.free_blocks((a_b, b_c), 0) == [(6, 2)]

    def test_empty_path_rejected(self):
        _, state, _ = single_arc_state()
        with pytest.raises(SpectrumError):
            state.free_blocks((), 0)

    def test_negative_guard_band_rejected(self):
        _, state, path = single_arc_state()
        with pytest.raises(SpectrumError, match="negative guard band: -1"):
            state.free_blocks(path, -1)

    def test_disconnected_path_rejected(self):
        net = make_net([("A", "B", 100), ("C", "D", 100)], slots=8)
        a_b = net.outgoing("A")[0]
        c_d = net.outgoing("C")[0]
        state = SpectrumState(net)
        with pytest.raises(SpectrumError):
            state.free_blocks((a_b, c_d), 0)

    def test_all_free_and_all_occupied(self):
        _, state, path = single_arc_state(8)
        assert state.free_blocks(path, 3) == [(0, 8)]
        paint(state, path[0], "11111111")
        assert state.free_blocks(path, 0) == []

    @pytest.mark.parametrize(
        "seed, max_slots, density", [(42, 40, 0.35), (43, 200, 0.1)], ids=["f40", "f200"]
    )
    def test_against_brute_force(self, seed, max_slots, density):
        # f200 ledgers mostly span more than one 64-bit word
        rng = random.Random(seed)
        for _ in range(300):
            arcs = rng.randint(1, 4)
            slots = rng.randint(1, max_slots)
            gb = rng.randint(0, 3)
            rows = [
                "".join("1" if rng.random() < density else "0" for _ in range(slots))
                for _ in range(arcs)
            ]
            nodes = "ABCDE"
            net = make_net([(nodes[i], nodes[i + 1], 100) for i in range(arcs)], slots=slots)
            path = tuple(
                next(l for l in net.outgoing(nodes[i]) if l.dst == nodes[i + 1])
                for i in range(arcs)
            )
            state = SpectrumState(net)
            for link, bits in zip(path, rows):
                paint(state, link, bits)
            assert state.free_blocks(path, gb) == oracle_blocks(rows, gb), (rows, gb)


WIDTHS = [1, 7, 64, 65, 128]  # 64 and 65 straddle a machine word


@st.composite
def painted_path(draw):
    """A 1-3 arc chain with random occupancy: (state, path, rows, gb)."""
    slots = draw(st.sampled_from(WIDTHS))
    arcs = draw(st.integers(1, 3))
    rows = [
        "".join(draw(st.lists(st.sampled_from("01"), min_size=slots, max_size=slots)))
        for _ in range(arcs)
    ]
    nodes = "ABCD"
    net = make_net([(nodes[i], nodes[i + 1], 100) for i in range(arcs)], slots=slots)
    path = tuple(
        next(l for l in net.outgoing(nodes[i]) if l.dst == nodes[i + 1]) for i in range(arcs)
    )
    state = SpectrumState(net)
    for link, bits in zip(path, rows):
        paint(state, link, bits)
    return state, path, rows, draw(st.integers(0, 3))


def star(masks: list[int], slots: int):
    """One 1-arc path A->Bi per mask, painted so that its gb=0 free mask is that mask."""
    net = make_net([("A", f"B{i}", 100) for i in range(len(masks))], slots=slots)
    paths = [
        (next(l for l in net.outgoing("A") if l.dst == f"B{i}"),) for i in range(len(masks))
    ]
    state = SpectrumState(net)
    for (link,), mask in zip(paths, masks):
        paint(state, link, "".join("0" if mask >> i & 1 else "1" for i in range(slots)))
    return state, paths


def path_mask(state: SpectrumState, path, gb: int) -> int:
    """The free mask that ``scan`` reads for one path (0 when it has no free slot)."""
    _, seen = state.scan((path,), gb, 1)
    return seen[0][1] if seen else 0


@st.composite
def star_masks(draw):
    slots = draw(st.sampled_from(WIDTHS))
    full = (1 << slots) - 1
    mask = st.one_of(st.just(0), st.just(full), st.integers(0, full))
    return slots, draw(st.lists(mask, min_size=1, max_size=4))


class TestFreeMask:
    """The free masks and the hit test of ``SpectrumState.scan``."""

    @settings(deadline=None)
    @given(painted_path())
    def test_runs_match_brute_force(self, case):
        state, path, rows, gb = case
        assert runs(path_mask(state, path, gb)) == oracle_blocks(rows, gb)

    @settings(deadline=None)
    @given(star_masks())
    def test_fits_matches_longest_run(self, case):
        # the hit is the first path whose mask has a run >= length; the scan
        # hands back every non-empty mask up to and including the hit's
        slots, masks = case
        state, paths = star(masks, slots)
        longest = [max((length for _, length in runs(m)), default=0) for m in masks]
        for length in range(1, slots + 2):
            hit = next((i for i, run in enumerate(longest) if run >= length), None)
            read = masks if hit is None else masks[: hit + 1]
            want = [(i, m) for i, m in enumerate(read) if m]
            assert state.scan(iter(paths), 0, length) == (hit, want), (masks, length)

    @pytest.mark.parametrize("slots", WIDTHS)
    def test_fits_on_empty_and_full_masks(self, slots):
        full = (1 << slots) - 1
        state, (empty, open_path) = star([0, full], slots)
        assert all(state.scan([empty], 0, n) == (None, []) for n in range(1, slots + 2))
        for length in range(1, slots + 1):
            assert state.scan([empty, open_path], 0, length) == (1, [(1, full)])
        assert state.scan([empty, open_path], 0, slots + 1) == (None, [(1, full)])

    def test_runs_are_int_pairs_and_free_blocks_slot_ranges(self):
        _, state, path = single_arc_state()
        paint(state, path[0], "1111000011110000")
        pairs = runs(path_mask(state, path, 0))
        assert pairs == [(4, 4), (12, 4)]
        assert all(type(pair) is tuple and all(type(v) is int for v in pair) for pair in pairs)
        blocks = state.free_blocks(path, 0)
        assert blocks == pairs and all(type(b) is SlotRange for b in blocks)

    def test_edges_need_no_guard(self):
        _, state, path = single_arc_state(8)
        assert path_mask(state, path, 3) == 0b11111111
        paint(state, path[0], "00010000")
        # slot 3 taken, gb=1: slots 2 and 4 fall, 0..1 and 5..7 stay
        assert runs(path_mask(state, path, 1)) == [(0, 2), (5, 3)]


class TestAllocate:
    def test_bookkeeping_after_alloc(self):
        _, state, path = single_arc_state()
        state.allocate(path, SlotRange(4, 4), 0)
        assert state.free_blocks(path, 0) == [(0, 4), (8, 8)]

    def test_adjacent_fails_with_gb1(self):
        _, state, path = single_arc_state()
        state.allocate(path, SlotRange(4, 2), 1)
        with pytest.raises(ConflictError):
            state.allocate(path, SlotRange(6, 2), 1)

    def test_adjacent_allowed_with_gb0(self):
        _, state, path = single_arc_state()
        state.allocate(path, SlotRange(4, 2), 0)
        state.allocate(path, SlotRange(6, 2), 0)
        assert state.active_allocations == 2

    def test_one_slot_gap_satisfies_gb1(self):
        _, state, path = single_arc_state()
        state.allocate(path, SlotRange(4, 2), 1)
        state.allocate(path, SlotRange(7, 2), 1)
        assert state.active_allocations == 2

    def test_occupied_slot_conflicts(self):
        _, state, path = single_arc_state()
        state.allocate(path, SlotRange(4, 4), 0)
        with pytest.raises(ConflictError):
            state.allocate(path, SlotRange(7, 2), 0)

    def test_no_partial_allocation_on_conflict(self):
        net = make_net([("A", "B", 100), ("B", "C", 100)], slots=8)
        a_b = net.outgoing("A")[0]
        b_c = [l for l in net.outgoing("B") if l.dst == "C"][0]
        state = SpectrumState(net)
        state.allocate((b_c,), SlotRange(0, 4), 0)
        before = state.occupancy_dump()
        with pytest.raises(ConflictError):
            state.allocate((a_b, b_c), SlotRange(2, 2), 0)
        assert state.occupancy_dump() == before

    def test_non_consecutive_third_arc_leaves_ledger_unchanged(self):
        net = make_net([("A", "B", 100), ("B", "C", 100), ("C", "D", 100), ("A", "D", 100)],
                       slots=8)
        arc = {(l.src, l.dst): l for v in net.nodes for l in net.outgoing(v)}
        state = SpectrumState(net)
        state.allocate((arc["C", "D"],), SlotRange(0, 2), 0)
        before = (state.occupancy_dump(), state.active_allocations)
        broken = (arc["A", "B"], arc["B", "C"], arc["A", "D"])
        with pytest.raises(SpectrumError, match="not consecutive"):
            state.allocate(broken, SlotRange(4, 2), 0)
        assert (state.occupancy_dump(), state.active_allocations) == before

    def test_range_validation(self):
        _, state, path = single_arc_state(8)
        with pytest.raises(SpectrumError):
            state.allocate(path, SlotRange(6, 4), 0)
        with pytest.raises(SpectrumError):
            state.allocate(path, SlotRange(-1, 2), 0)
        with pytest.raises(SpectrumError):
            state.allocate(path, SlotRange(0, 0), 0)
        with pytest.raises(SpectrumError, match="negative guard band: -1"):
            state.allocate(path, SlotRange(0, 2), -1)
        with pytest.raises(SpectrumError, match="empty path"):
            state.allocate((), SlotRange(0, 2), 0)
        assert state.is_all_free()


class TestRelease:
    def test_round_trip_restores_vector(self):
        _, state, path = single_arc_state()
        paint(state, path[0], "1100000000000011")
        before = state.occupancy_dump()
        aid = state.allocate(path, SlotRange(5, 3), 0)
        state.release(aid)
        assert state.occupancy_dump() == before

    def test_double_release_errors(self):
        _, state, path = single_arc_state()
        aid = state.allocate(path, SlotRange(0, 2), 0)
        state.release(aid)
        with pytest.raises(SpectrumError):
            state.release(aid)

    def test_interleaved(self):
        _, state, path = single_arc_state()
        a = state.allocate(path, SlotRange(0, 2), 0)
        b = state.allocate(path, SlotRange(4, 2), 0)
        state.release(a)
        assert state.free_blocks(path, 0) == [(0, 4), (6, 10)]
        state.release(b)
        assert state.is_all_free()


class TestProperties:
    def test_free_blocks_always_allocatable(self):
        rng = random.Random(11)
        net = make_net(
            [("A", "B", 100), ("B", "C", 120), ("C", "D", 90), ("A", "C", 200)], slots=24
        )
        a_b = net.outgoing("A")[0]
        b_c = [l for l in net.outgoing("B") if l.dst == "C"][0]
        c_d = [l for l in net.outgoing("C") if l.dst == "D"][0]
        path = (a_b, b_c, c_d)
        for trial in range(200):
            state = SpectrumState(net)
            gb = rng.randint(0, 3)
            for link in (a_b, b_c, c_d):
                bits = "".join("1" if rng.random() < 0.4 else "0" for _ in range(24))
                paint(state, link, bits)
            for block in state.free_blocks(path, gb):
                clone = state.copy()
                clone.allocate(path, block, gb)  # must not raise
                clone.audit(0)  # painted background used gb=0

    @pytest.mark.parametrize("slots", [16, 130], ids=["f16", "f130"])
    def test_random_ops_keep_invariants(self, slots):
        rng = random.Random(5)
        net = make_net([("A", "B", 100), ("B", "C", 100)], slots=slots)
        a_b = net.outgoing("A")[0]
        b_c = [l for l in net.outgoing("B") if l.dst == "C"][0]
        paths = [(a_b,), (b_c,), (a_b, b_c)]
        state = SpectrumState(net)
        gb = 1
        live = []
        touched = set()
        for _ in range(400):
            if live and rng.random() < 0.4:
                state.release(live.pop(rng.randrange(len(live))))
            else:
                path = paths[rng.randrange(len(paths))]
                blocks = state.free_blocks(path, gb)
                if not blocks:
                    continue
                block = blocks[rng.randrange(len(blocks))]
                length = rng.randint(1, block.length)
                live.append(state.allocate(path, SlotRange(block.start, length), gb))
                touched.update(range(block.start, block.start + length))
            state.audit(gb)
        for aid in live:
            state.release(aid)
        assert state.is_all_free()
        assert touched == set(range(slots))  # every slot, either side of bit 64, was used

    def test_audit_catches_tampered_ledger(self):
        _, state, path = single_arc_state()
        state.allocate(path, SlotRange(2, 3), 1)
        state.audit(1)

        stray = state.copy()
        stray._occ[path[0].id] |= 1 << 10  # occupied slot no allocation owns
        with pytest.raises(SpectrumError, match="out of sync"):
            stray.audit(1)

        cleared = state.copy()
        cleared._occ[path[0].id] &= ~(1 << 3)  # owned slot missing from the bitmap
        with pytest.raises(SpectrumError, match="out of sync"):
            cleared.audit(1)

        doubled = state.copy()
        doubled._allocs[98] = _Alloc((path[0].id,), SlotRange(4, 1))  # slot 4 owned twice
        with pytest.raises(SpectrumError, match="owned twice"):
            doubled.audit(1)

        crowded = state.copy()
        crowded._allocs[99] = _Alloc((path[0].id,), SlotRange(5, 2))  # adjacent under gb=1
        crowded._occ[path[0].id] |= 0b11 << 5  # slots 5 and 6
        with pytest.raises(SpectrumError, match="guard violation"):
            crowded.audit(1)

    def test_copy_is_independent(self):
        _, state, path = single_arc_state(8)
        clone = state.copy()
        state.allocate(path, SlotRange(0, 4), 0)
        assert clone.is_all_free()
        assert not state.is_all_free()


class TestFragmentationScenario:
    """Every candidate path fragmented to a 3-slot maximum: a 4-slot single
    band cannot fit anywhere, but two 2-slot bands can."""

    PATTERN = "0011001100011111"  # free blocks (0,2) (4,2) (8,3)

    def diamond(self):
        net = make_net(
            [("S", "A", 100), ("A", "D", 100), ("S", "B", 100), ("B", "D", 100)], slots=16
        )
        s_a = net.outgoing("S")[0]
        s_b = net.outgoing("S")[1]
        a_d = [l for l in net.outgoing("A") if l.dst == "D"][0]
        b_d = [l for l in net.outgoing("B") if l.dst == "D"][0]
        state = SpectrumState(net)
        for link in (s_a, a_d, s_b, b_d):
            paint(state, link, self.PATTERN)
        return net, state, (s_a, a_d), (s_b, b_d)

    def test_four_slot_band_unallocatable(self):
        _, state, p1, p2 = self.diamond()
        for path in (p1, p2):
            assert max(b.length for b in state.free_blocks(path, 0)) == 3

    def test_two_two_slot_bands_succeed(self):
        _, state, p1, p2 = self.diamond()
        state.allocate(p1, SlotRange(0, 2), 0)
        state.allocate(p2, SlotRange(0, 2), 0)
        state.audit(0)


def test_occupancy_dump_golden():
    net = make_net([("A", "B", 100)], slots=8)
    state = SpectrumState(net)
    state.allocate(net.outgoing("A"), SlotRange(2, 3), 0)
    assert state.occupancy_dump() == "00111000\n00000000"


def test_import_leaves_numpy_out():
    # the ledger is plain ints, and no module of the package imports numpy or scipy
    src = Path(flexrsa.__file__).resolve().parent.parent
    probe = subprocess.run(
        [sys.executable, "-c", "import sys, flexrsa; print('numpy' in sys.modules)"],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
    )
    assert probe.stdout.strip() == "False"
