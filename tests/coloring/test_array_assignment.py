"""ArrayCodeAssignment: the contiguous color container of the array core.

Observable equivalence with the dict-backed :class:`CodeAssignment` is
the contract — same mapping surface, same validation, cross-class
equality and diffs — plus the array-specific invariants: O(1)
``max_color`` via the incremental histogram/top tracker, id-indexed
capacity growth, and rejection of negative ids (which would alias from
the end of the array).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.coloring.assignment import ArrayCodeAssignment, CodeAssignment
from repro.errors import UncoloredNodeError


def _mirror(codes):
    """The same mapping in both containers."""
    return ArrayCodeAssignment(codes), CodeAssignment(codes)


class TestObservableEquivalence:
    @pytest.mark.parametrize(
        "codes",
        [{}, {0: 1}, {1: 2, 2: 1}, {5: 3, 9: 3, 200: 7}],
    )
    def test_mapping_surface_matches_dict_container(self, codes):
        arr, ref = _mirror(codes)
        assert len(arr) == len(ref)
        assert list(arr) == list(ref)
        assert arr.items() == ref.items()
        assert arr.nodes() == ref.nodes()
        assert arr.as_dict() == ref.as_dict()
        assert arr.max_color() == ref.max_color()
        assert arr.used_colors() == ref.used_colors()
        assert arr.color_classes() == ref.color_classes()

    def test_cross_class_equality_both_directions(self):
        arr, ref = _mirror({1: 2, 3: 4})
        assert arr == ref and ref == arr
        assert arr == {1: 2, 3: 4}
        ref.assign(3, 5)
        assert arr != ref and ref != arr

    def test_cross_class_diff(self):
        arr = ArrayCodeAssignment({1: 1, 2: 2, 3: 3})
        new = CodeAssignment({1: 1, 2: 5, 4: 1})
        assert arr.diff(new) == {2: (2, 5), 3: (3, None), 4: (None, 1)}
        assert new.diff(arr) == {2: (5, 2), 3: (None, 3), 4: (1, None)}

    @pytest.mark.parametrize("codes", [{}, {0: 1}, {5: 3, 9: 3, 200: 7}])
    def test_color_array_matches_dict_container(self, codes):
        arr, ref = _mirror(codes)
        nodes = [9, 0, 5, 3, 200, 10_000]  # 10_000 lies past the array's end
        expected = [codes.get(v, 0) for v in nodes]
        assert arr.color_array(nodes).tolist() == expected
        assert ref.color_array(nodes).tolist() == expected
        assert arr.color_array(np.asarray(nodes)).tolist() == expected
        # every id in range, every id past the end, nothing at all
        inside = [v for v in nodes if v < 64]
        assert arr.color_array(inside).tolist() == [codes.get(v, 0) for v in inside]
        past = [10_000, 64, 1 << 20]
        assert arr.color_array(past).tolist() == ref.color_array(past).tolist() == [0, 0, 0]
        for empty in ([], np.asarray([], dtype=np.int64)):
            for got in (arr.color_array(empty), ref.color_array(empty)):
                assert got.dtype == np.int64 and got.shape == (0,)

    def test_getitem_and_membership(self):
        arr = ArrayCodeAssignment({4: 9})
        assert arr[4] == 9 and 4 in arr
        assert 3 not in arr and 10_000 not in arr
        assert arr.get(3) is None and arr.get(3, 7) == 7
        with pytest.raises(UncoloredNodeError):
            arr[3]

    def test_repr_names_the_class(self):
        assert repr(ArrayCodeAssignment({1: 3})) == "ArrayCodeAssignment({1: 3})"


class TestValidationAndGrowth:
    def test_color_validation_matches_reference(self):
        arr = ArrayCodeAssignment()
        for bad in (0, -1):
            with pytest.raises(ValueError):
                arr.assign(1, bad)

    def test_negative_ids_rejected(self):
        # a negative id would silently alias from the end of the array
        with pytest.raises(ValueError, match="non-negative"):
            ArrayCodeAssignment().assign(-1, 3)

    def test_id_and_color_capacity_grow_on_demand(self):
        arr = ArrayCodeAssignment()
        arr.assign(5_000, 3)  # id far past the initial capacity
        arr.assign(1, 2_000)  # color far past the initial histogram
        assert arr[5_000] == 3 and arr.max_color() == 2_000
        assert len(arr) == 2

    def test_node_id_zero_is_a_valid_key(self):
        # color 0 is the NO_COLOR sentinel; id 0 must still work
        arr = ArrayCodeAssignment({0: 7})
        assert arr[0] == 7 and 0 in arr and arr.nodes() == [0]
        assert arr.unassign(0) == 7 and 0 not in arr


class TestIncrementalMaxColor:
    def test_top_follows_reassignments_down(self):
        arr = ArrayCodeAssignment({1: 5, 2: 3})
        assert arr.max_color() == 5
        arr.assign(1, 2)  # the sole holder of 5 drops to 2
        assert arr.max_color() == 3
        arr.assign(2, 1)
        assert arr.max_color() == 2

    def test_top_survives_when_color_still_held(self):
        arr = ArrayCodeAssignment({1: 5, 2: 5})
        arr.assign(1, 1)
        assert arr.max_color() == 5  # node 2 still holds it

    def test_unassign_settles_top(self):
        arr = ArrayCodeAssignment({1: 9, 2: 4})
        assert arr.unassign(1) == 9
        assert arr.max_color() == 4
        arr.unassign(2)
        assert arr.max_color() == 0 and len(arr) == 0

    def test_unassign_missing_raises(self):
        with pytest.raises(UncoloredNodeError):
            ArrayCodeAssignment().unassign(1)
        with pytest.raises(UncoloredNodeError):
            ArrayCodeAssignment({1: 1}).unassign(2)

    def test_randomized_parity_with_reference(self):
        import numpy as np

        rng = np.random.default_rng(7)
        arr, ref = ArrayCodeAssignment(), CodeAssignment()
        for _ in range(400):
            node = int(rng.integers(0, 40))
            if rng.random() < 0.25 and node in ref:
                assert arr.unassign(node) == ref.unassign(node)
            else:
                color = int(rng.integers(1, 12))
                arr.assign(node, color)
                ref.assign(node, color)
            assert arr.max_color() == ref.max_color()
            assert arr == ref


class TestCopy:
    def test_copy_is_class_preserving_and_independent(self):
        arr = ArrayCodeAssignment({1: 3, 2: 3})
        clone = arr.copy()
        assert isinstance(clone, ArrayCodeAssignment)
        clone.assign(1, 9)
        clone.unassign(2)
        assert arr == {1: 3, 2: 3}
        assert clone == {1: 9}
        assert arr.max_color() == 3 and clone.max_color() == 9
