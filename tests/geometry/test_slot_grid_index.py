"""The slot grid (`SlotGridIndex`).

Membership parity with a brute-force cell-window scan (the grid's
candidates are exactly the slots in the cells overlapping the disc's
bounding box plus the guard ring, a superset of the disc), slot
lifecycle under swap-delete renaming, and the ``cutoff`` /
bounding-box short-circuits of :meth:`candidate_slots` — which may only
ever widen the candidate superset, never shrink it.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ConfigurationError, UnknownNodeError
from repro.geometry.grid_index import SlotGridIndex


def _scatter(rng, n, span=100.0):
    return [(float(rng.uniform(0, span)), float(rng.uniform(0, span))) for _ in range(n)]


def _brute_force_window(pts, cell, x, y, r):
    """Slots whose cell lies in the disc's guarded bounding-box window."""
    lo_x, hi_x = math.floor((x - r) / cell) - 1, math.floor((x + r) / cell) + 1
    lo_y, hi_y = math.floor((y - r) / cell) - 1, math.floor((y + r) / cell) + 1
    return {
        slot
        for slot, (px, py) in enumerate(pts)
        if lo_x <= math.floor(px / cell) <= hi_x and lo_y <= math.floor(py / cell) <= hi_y
    }


def _brute_force_disc(pts, x, y, r):
    """Slots within the closed disc."""
    return {slot for slot, (px, py) in enumerate(pts) if (px - x) ** 2 + (py - y) ** 2 <= r * r}


class TestLifecycle:
    def test_insert_contains_len(self):
        g = SlotGridIndex(10.0)
        g.insert(0, 5.0, 5.0)
        g.insert(1, 55.0, 5.0)
        assert len(g) == 2 and 0 in g and 1 in g and 2 not in g

    def test_reinsert_moves(self):
        g = SlotGridIndex(10.0)
        g.insert(0, 5.0, 5.0)
        g.insert(0, 95.0, 95.0)
        assert len(g) == 1
        assert g.candidate_slots(95.0, 95.0, 1.0).tolist() == [0]

    def test_remove_and_unknown_raises(self):
        g = SlotGridIndex(10.0)
        g.insert(0, 5.0, 5.0)
        g.remove(0)
        assert len(g) == 0 and 0 not in g
        with pytest.raises(UnknownNodeError):
            g.remove(0)
        with pytest.raises(UnknownNodeError):
            g.move(0, 1.0, 1.0)

    def test_rename_follows_swap_delete(self):
        g = SlotGridIndex(10.0)
        g.insert(0, 5.0, 5.0)
        g.insert(1, 55.0, 55.0)
        g.remove(0)
        g.rename(1, 0)  # the digraph renumbers the last slot into the hole
        assert 0 in g and 1 not in g
        assert g.candidate_slots(55.0, 55.0, 1.0).tolist() == [0]

    def test_rename_onto_live_slot_rejected(self):
        g = SlotGridIndex(10.0)
        g.insert(0, 5.0, 5.0)
        g.insert(1, 55.0, 55.0)
        with pytest.raises(ConfigurationError):
            g.rename(0, 1)

    def test_negative_slot_and_bad_cell_size_rejected(self):
        with pytest.raises(ConfigurationError):
            SlotGridIndex(0.0)
        g = SlotGridIndex(10.0)
        with pytest.raises(ConfigurationError):
            g.insert(-1, 0.0, 0.0)

    def test_slot_capacity_grows_on_demand(self):
        g = SlotGridIndex(10.0)
        g.insert(500, 5.0, 5.0)  # far beyond the initial record capacity
        assert 500 in g and len(g) == 1

    def test_move_across_cells(self):
        g = SlotGridIndex(10.0)
        g.insert(0, 1.0, 1.0)
        g.move(0, 95.0, 95.0)
        assert g.candidate_slots(1.0, 1.0, 5.0).tolist() == []
        assert g.candidate_slots(95.0, 95.0, 5.0).tolist() == [0]

    def test_negative_coordinates_supported(self):
        g = SlotGridIndex(10.0)
        g.insert(0, -25.0, -3.0)
        assert g.candidate_slots(-25.0, -3.0, 0.5).tolist() == [0]

    def test_copy_is_independent(self):
        g = SlotGridIndex(10.0)
        g.insert(0, 5.0, 5.0)
        clone = g.copy()
        clone.remove(0)
        clone.insert(7, 90.0, 90.0)
        assert 0 in g and 7 not in g
        assert 0 not in clone and 7 in clone


class TestCandidateQueries:
    def test_negative_radius_rejected(self):
        g = SlotGridIndex(10.0)
        with pytest.raises(ConfigurationError):
            g.candidate_slots(0.0, 0.0, -1.0)

    def test_empty_grid_returns_empty_array(self):
        g = SlotGridIndex(10.0)
        out = g.candidate_slots(0.0, 0.0, 50.0)
        assert out.size == 0 and out.dtype == np.intp

    @pytest.mark.parametrize("cell", [3.0, 11.0, 40.0])
    def test_candidates_are_a_superset_of_the_disc(self, cell):
        rng = np.random.default_rng(1)
        pts = _scatter(rng, 120)
        g = SlotGridIndex(cell)
        for slot, (x, y) in enumerate(pts):
            g.insert(slot, x, y)
        arr = np.asarray(pts)
        for qx, qy, r in [(50.0, 50.0, 12.0), (0.0, 0.0, 30.0), (99.0, 10.0, 5.0)]:
            cand = g.candidate_slots(qx, qy, r)
            d2 = ((arr - (qx, qy)) ** 2).sum(axis=1)
            inside = set(np.flatnonzero(d2 <= r * r).tolist())
            assert inside <= set(cand.tolist())

    @pytest.mark.parametrize("cell", [3.0, 11.0])
    def test_membership_matches_brute_force_window(self, cell):
        rng = np.random.default_rng(2)
        pts = _scatter(rng, 80)
        g = SlotGridIndex(cell)
        for slot, (x, y) in enumerate(pts):
            g.insert(slot, x, y)
        for qx, qy, r in [(20.0, 80.0, 9.0), (60.0, 30.0, 25.0)]:
            cand = g.candidate_slots(qx, qy, r).tolist()
            assert len(cand) == len(set(cand))  # cells never overlap
            assert set(cand) == _brute_force_window(pts, cell, qx, qy, r)
            assert _brute_force_disc(pts, qx, qy, r) <= set(cand)

    def test_huge_query_takes_the_occupied_cell_scan(self):
        # a query box wider than the occupancy flips to iterating the
        # occupied cells; membership must not change
        pts = [(float(10 * slot), 0.0) for slot in range(8)]
        g = SlotGridIndex(1.0)
        for slot, (x, y) in enumerate(pts):
            g.insert(slot, x, y)
        assert sorted(g.candidate_slots(35.0, 0.0, 1e6).tolist()) == list(range(8))
        small = set(g.candidate_slots(35.0, 0.0, 12.0).tolist())
        assert small == _brute_force_window(pts, 1.0, 35.0, 0.0, 12.0)

    def test_result_is_never_a_bucket_view(self):
        g = SlotGridIndex(10.0)
        g.insert(0, 5.0, 5.0)
        out = g.candidate_slots(5.0, 5.0, 1.0)
        out[0] = 999  # mutating the result must not corrupt the grid
        assert g.candidate_slots(5.0, 5.0, 1.0).tolist() == [0]


class TestCutoff:
    def test_cutoff_reached_returns_none(self):
        g = SlotGridIndex(10.0)
        for slot in range(10):
            g.insert(slot, float(slot), 0.0)
        assert g.candidate_slots(5.0, 0.0, 50.0, cutoff=3) is None

    def test_cutoff_not_reached_returns_candidates(self):
        g = SlotGridIndex(10.0)
        g.insert(0, 5.0, 5.0)
        g.insert(1, 95.0, 95.0)  # far away: outside the query box
        out = g.candidate_slots(5.0, 5.0, 1.0, cutoff=2)
        assert out is not None and out.tolist() == [0]

    def test_bbox_short_circuit_only_fires_at_cutoff(self):
        # the ring covers every occupied cell, so with a reachable
        # cutoff the gather is skipped outright (None), while without a
        # cutoff the full membership comes back
        g = SlotGridIndex(10.0)
        for slot in range(6):
            g.insert(slot, 10.0 * slot, 10.0 * slot)
        assert g.candidate_slots(25.0, 25.0, 100.0, cutoff=6) is None
        full = g.candidate_slots(25.0, 25.0, 100.0)
        assert sorted(full.tolist()) == list(range(6))

    def test_bbox_stays_conservative_after_removals(self):
        # the bbox is grow-only: after clearing a far corner the
        # short-circuit may stop firing, but results stay exact
        g = SlotGridIndex(10.0)
        g.insert(0, 5.0, 5.0)
        g.insert(1, 995.0, 995.0)
        g.remove(1)
        out = g.candidate_slots(5.0, 5.0, 20.0, cutoff=1)
        assert out is None or out.tolist() == [0]

    def test_cell_count_tracks_occupancy(self):
        g = SlotGridIndex(10.0)
        assert g.cell_count == 0
        g.insert(0, 5.0, 5.0)
        g.insert(1, 6.0, 6.0)  # same cell
        g.insert(2, 55.0, 55.0)
        assert g.cell_count == 2
        g.remove(2)
        assert g.cell_count == 1


class TestBoundaryAndBailout:
    """Exact cell-edge radii, queries outside the grown bbox, and the
    3n/4 full-scan bailout the array core's candidate gathers rely on.
    """

    def test_radius_exactly_on_cell_edge_keeps_boundary_points(self):
        xs = [10.0, 20.0, 30.0]
        g = SlotGridIndex(10.0)
        for slot, x in enumerate(xs):
            g.insert(slot, x, 0.0)  # every point on a cell corner
        for r in xs:  # radius lands exactly on cell edges too
            cand = set(g.candidate_slots(0.0, 0.0, r).tolist())
            inside = {s for s, x in enumerate(xs) if x <= r}
            assert inside <= cand  # d == r members survive the window

    def test_query_bbox_entirely_outside_grown_bbox(self):
        g = SlotGridIndex(10.0)
        g.insert(0, 5.0, 5.0)
        g.insert(1, -45.0, 32.0)
        for qx, qy in [(1e6, 1e6), (-1e6, 40.0), (50.0, -1e6)]:
            assert g.candidate_slots(qx, qy, 25.0).size == 0

    def test_three_quarter_full_scan_bailout(self):
        # the digraph hands the grid cutoff = 3n/4: a gather that
        # reaches it must bail to None (callers scan every slot instead)
        n = 16
        g = SlotGridIndex(10.0)
        for slot in range(n):
            g.insert(slot, float(slot % 4), float(slot // 4))  # one dense corner
        cutoff = max(1, (3 * n) // 4)
        assert g.candidate_slots(2.0, 2.0, 50.0, cutoff=cutoff) is None
        # an unreachable cutoff gathers the identical full membership
        full = g.candidate_slots(2.0, 2.0, 50.0, cutoff=n + 1)
        assert full is not None and sorted(full.tolist()) == list(range(n))

    @pytest.mark.parametrize("seed", range(3))
    def test_candidates_equal_brute_force_on_random_placements(self, seed):
        rng = np.random.default_rng(seed)
        cell = float(rng.uniform(2.0, 15.0))
        g = SlotGridIndex(cell)
        pts = rng.uniform(-50.0, 150.0, size=(200, 2))
        for slot, (x, y) in enumerate(pts.tolist()):
            g.insert(slot, x, y)
        for _ in range(20):
            qx = float(rng.uniform(-60.0, 160.0))
            qy = float(rng.uniform(-60.0, 160.0))
            r = float(rng.choice([cell, 2.0 * cell, rng.uniform(0.0, 60.0)]))
            cand = g.candidate_slots(qx, qy, r).tolist()
            assert len(cand) == len(set(cand))  # cells never overlap
            assert set(cand) == _brute_force_window(pts.tolist(), cell, qx, qy, r)
            d2 = ((pts - (qx, qy)) ** 2).sum(axis=1)
            inside = set(np.flatnonzero(d2 <= r * r).tolist())
            assert inside <= set(cand)  # brute-force disc is covered


class TestAgainstBruteForce:
    @given(
        st.lists(
            st.tuples(st.floats(-100, 100), st.floats(-100, 100)),
            max_size=40,
        ),
        st.floats(-100, 100),
        st.floats(-100, 100),
        st.floats(0, 150),
        st.floats(0.5, 40),
    )
    def test_window_matches_brute_force(self, pts, qx, qy, radius, cell):
        g = SlotGridIndex(cell)
        for slot, (x, y) in enumerate(pts):
            g.insert(slot, x, y)
        cand = g.candidate_slots(qx, qy, radius).tolist()
        assert len(cand) == len(set(cand))
        assert set(cand) == _brute_force_window(pts, cell, qx, qy, radius)
        assert _brute_force_disc(pts, qx, qy, radius) <= set(cand)

    @given(st.integers(0, 40), st.floats(0.5, 30), st.floats(0, 80))
    def test_candidates_are_a_superset_of_the_disc(self, n, cell, radius):
        pts = _scatter(np.random.default_rng(n + 1), n)
        g = SlotGridIndex(cell)
        for slot, (x, y) in enumerate(pts):
            g.insert(slot, x, y)
        cand = set(g.candidate_slots(50.0, 50.0, radius).tolist())
        assert _brute_force_disc(pts, 50.0, 50.0, radius) <= cand

    @pytest.mark.parametrize("seed", range(3))
    def test_swap_delete_churn_keeps_membership_exact(self, seed):
        # the digraph's removal pattern: drop a slot, rename the last
        # slot into the hole; interleaved with moves and joins
        rng = np.random.default_rng(seed + 100)
        cell = float(rng.uniform(2.0, 15.0))
        g = SlotGridIndex(cell)
        pts: list[tuple[float, float]] = []
        for _ in range(300):
            op = int(rng.integers(0, 3))
            if op == 0 or not pts:
                pts.append((float(rng.uniform(0, 100)), float(rng.uniform(0, 100))))
                g.insert(len(pts) - 1, *pts[-1])
            elif op == 1:
                hole, last = int(rng.integers(0, len(pts))), len(pts) - 1
                g.remove(hole)
                if hole != last:
                    g.rename(last, hole)
                    pts[hole] = pts[last]
                pts.pop()
            else:
                slot = int(rng.integers(0, len(pts)))
                pts[slot] = (float(rng.uniform(0, 100)), float(rng.uniform(0, 100)))
                g.move(slot, *pts[slot])
            assert len(g) == len(pts)
            qx, qy = float(rng.uniform(0, 100)), float(rng.uniform(0, 100))
            r = float(rng.uniform(0, 30))
            cand = g.candidate_slots(qx, qy, r).tolist()
            assert sorted(cand) == sorted(_brute_force_window(pts, cell, qx, qy, r))
