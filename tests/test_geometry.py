import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from seltrack.geometry import BBox, ars, blended_alpha, iou_matrix

from oracles import iou_reference
from providers import xywh


def iou_pixel_oracle(a: BBox, b: BBox) -> float:
    """Count unit grid cells covered by each integer-coordinate box."""

    def cells(box):
        x, y, w, h = int(box.x), int(box.y), int(box.w), int(box.h)
        return {(i, j) for i in range(x, x + w) for j in range(y, y + h)}

    ca, cb = cells(a), cells(b)
    return len(ca & cb) / len(ca | cb)


finite_coord = st.floats(-1e4, 1e4, allow_nan=False, allow_infinity=False)
positive_size = st.floats(0.1, 1e4, allow_nan=False, allow_infinity=False)
boxes = st.builds(BBox, finite_coord, finite_coord, positive_size, positive_size)


class TestBBox:
    def test_rejects_zero_width(self):
        with pytest.raises(ValueError):
            BBox(0, 0, 0, 10)

    def test_rejects_negative_height(self):
        with pytest.raises(ValueError):
            BBox(0, 0, 10, -1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError):
            BBox(bad, 0, 10, 10)

    @pytest.mark.parametrize("field", ["x", "y", "w", "h"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_error_names_the_first_bad_field(self, bad, field):
        fields = dict(x=0.0, y=0.0, w=10.0, h=10.0)
        fields[field] = bad
        with pytest.raises(ValueError, match=rf"^non-finite bbox field {field}={bad!r}$"):
            BBox(**fields)
        # later fields, non-finite or non-positive, do not change the message
        for later in "xywh"["xywh".index(field) + 1:]:
            fields[later] = -1.0 if later in "wh" else math.nan
        with pytest.raises(ValueError, match=rf"^non-finite bbox field {field}={bad!r}$"):
            BBox(**fields)

    @pytest.mark.parametrize("w, h", [(0.0, 10.0), (10.0, -1.0), (-0.0, -0.0)])
    def test_non_positive_size_message(self, w, h):
        with pytest.raises(ValueError, match=rf"^non-positive bbox size w={w}, h={h}$"):
            BBox(1.0, 2.0, w, h)

    def test_derived_properties(self):
        b = BBox(0, 0, 10, 20)
        assert (b.cx, b.cy) == (5, 10)


def iou(a: BBox, b: BBox) -> float:
    """The IoU of one pair: the one cell of its `iou_matrix`."""
    return float(iou_matrix(xywh([a]), xywh([b]))[0, 0])


class TestIou:
    def test_identical_boxes(self):
        b = BBox(3, 4, 10, 12)
        assert iou(b, b) == 1.0

    def test_disjoint_boxes(self):
        assert iou(BBox(0, 0, 10, 10), BBox(100, 100, 5, 5)) == 0.0

    def test_half_shift_matches_pixel_oracle(self):
        a, b = BBox(0, 0, 10, 10), BBox(5, 0, 10, 10)
        # oracle: 50 shared cells of 150 covered
        assert iou_pixel_oracle(a, b) == pytest.approx(1 / 3)
        assert iou(a, b) == pytest.approx(1 / 3, abs=1e-12)

    def test_touching_edges_are_disjoint(self):
        assert iou(BBox(0, 0, 10, 10), BBox(10, 0, 10, 10)) == 0.0

    @given(boxes, boxes)
    def test_symmetric_and_in_range(self, a, b):
        v = iou(a, b)
        assert 0.0 <= v <= 1.0
        assert v == iou(b, a)

    @given(boxes)
    def test_self_iou_is_one(self, b):
        assert iou(b, b) == 1.0


# integer grids make shared edges, containment and identical boxes common
grid_boxes = st.builds(
    BBox, st.integers(-6, 6), st.integers(-6, 6), st.integers(1, 8), st.integers(1, 8)
)
scale = st.floats(1e-3, 1e6, allow_nan=False, allow_infinity=False)
scaled_boxes = st.builds(BBox, finite_coord, finite_coord, scale, scale)
any_boxes = st.lists(st.one_of(grid_boxes, scaled_boxes, boxes), max_size=6)
# boxes whose area overflows float64 more often than not: their IoUs take the rescale
huge_size = st.floats(1e154, 1e300, allow_nan=False, allow_infinity=False)
huge_boxes = st.builds(BBox, finite_coord, finite_coord, huge_size, huge_size)


class TestIouMatrix:
    @settings(max_examples=300, deadline=None)
    @given(any_boxes, any_boxes)
    def test_equals_scalar_reference_exactly(self, rows, cols):
        m = iou_matrix(xywh(rows), xywh(cols))
        assert m.shape == (len(rows), len(cols)) and m.dtype == np.float64
        for i, a in enumerate(rows):
            for j, b in enumerate(cols):
                assert m[i, j] == iou_reference(a, b), (a, b)

    @given(st.lists(grid_boxes, min_size=1, max_size=5))
    def test_contained_and_shared_edge_boxes(self, rows):
        cols = [BBox(b.x, b.y, b.w / 2, b.h) for b in rows] + [BBox(b.x + b.w, b.y, 1, 1) for b in rows]
        assert (iou_matrix(xywh(rows), xywh(cols)) == [[iou_reference(a, b) for b in cols] for a in rows]).all()

    @pytest.mark.parametrize("n", [0, 1, 3])
    def test_empty_sides(self, n):
        some = xywh([BBox(k, 0, 2, 2) for k in range(n)])
        assert iou_matrix(xywh([]), some).shape == (0, n)
        assert iou_matrix(some, xywh([])).shape == (n, 0)

    def test_boxes_thinner_than_their_coordinate_spacing(self):
        # x + w rounds back to x: zero corner area, so IoU is 0, not 0/0
        thin = BBox(1e16, 0.0, 1e-3, 1.0)
        assert iou_matrix(xywh([thin, thin]), xywh([thin])).tolist() == [[0.0], [0.0]]
        assert iou_reference(thin, thin) == 0.0

    def test_overflowing_areas_are_rescaled(self):
        # w * h overflows float64: the pair is recomputed at an exact power-of-two scale
        huge, half, small = BBox(0, 0, 1e250, 1e100), BBox(0, 0, 5e249, 1e100), BBox(0, 0, 10, 10)
        m = iou_matrix(xywh([huge, small]), xywh([huge, half, small]))
        np.testing.assert_allclose(m, [[1.0, 0.5, 0.0], [0.0, 0.0, 1.0]], rtol=1e-12, atol=0.0)
        assert m[0, 0] == 1.0

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(grid_boxes, scaled_boxes, boxes, huge_boxes), max_size=6),
           st.lists(st.one_of(grid_boxes, scaled_boxes, boxes, huge_boxes), max_size=8), st.data())
    def test_column_slice_equals_the_matrix_of_those_columns(self, rows, cols, data):
        picked = data.draw(st.lists(st.integers(0, len(cols) - 1), unique=True) if cols else st.just([]))
        sub = iou_matrix(xywh(rows), xywh([cols[j] for j in picked]))
        assert iou_matrix(xywh(rows), xywh(cols))[:, picked].tobytes() == sub.tobytes()
        for i, a in enumerate(rows):
            for k, j in enumerate(picked):
                if a.w * a.h < 1e300 and cols[j].w * cols[j].h < 1e300:  # the reference has no rescale
                    assert sub[i, k] == iou_reference(a, cols[j]), (a, cols[j])

    def test_overflowing_edges_are_rescaled(self):
        # x + w overflows float64 although every field is finite: the pair's
        # corners are rebuilt at an exact power-of-two scale, with no warning
        edge, shifted, small = BBox(1e308, 0, 1e308, 10), BBox(1.5e308, 0, 1e308, 10), BBox(0, 0, 10, 10)
        m = iou_matrix(xywh([edge, small]), xywh([edge, shifted, small]))
        np.testing.assert_allclose(m, [[1.0, 1 / 3, 0.0], [0.0, 0.0, 1.0]], rtol=1e-12, atol=0.0)
        assert m[0, 0] == 1.0 and m[1, 2] == 1.0

    def test_column_slice_of_overflowing_pairs(self):
        huge, half, small = BBox(0, 0, 1e250, 1e100), BBox(0, 0, 5e249, 1e100), BBox(0, 0, 10, 10)
        rows, cols = [huge, small], [small, half, huge, BBox(2, 2, 6, 6)]
        full = iou_matrix(xywh(rows), xywh(cols))
        for picked in ([2, 1], [1], [3, 0], []):
            assert full[:, picked].tobytes() == iou_matrix(xywh(rows), xywh([cols[j] for j in picked])).tobytes()
        assert full[1, 3] == iou_reference(small, cols[3])


class TestArs:
    def test_equal_aspect_ratios(self):
        assert ars(BBox(0, 0, 5, 10), BBox(40, 40, 50, 100)) == 1.0

    def test_square_vs_half_aspect(self):
        # frozen from a 50-digit evaluation of the formula
        got = ars(BBox(0, 0, 10, 10), BBox(0, 0, 5, 10))
        assert got == pytest.approx(0.9580435385057094, abs=1e-12)

    def test_extreme_ratio_approaches_three_quarters(self):
        got = ars(BBox(0, 0, 10, 10), BBox(0, 0, 1e6, 1.0))
        assert got == pytest.approx(0.7500006366193671, abs=1e-12)
        # a ratio beyond float64 is inf, and atan(inf) is pi/2
        assert ars(BBox(0, 0, 10, 10), BBox(0, 0, 1e300, 1e-10)) == pytest.approx(0.75, abs=1e-12)

    def test_opposite_extreme_ratios_reach_zero(self):
        # inf against about 1e-310: the atan difference rounds to pi/2, so the range is [0, 1]
        got = ars(np.array([[0, 0, 1e300, 1e-10]]), np.array([[0, 0, 1e-300, 1e10]]))
        assert got.tolist() == [0.0]

    @given(boxes, boxes, st.floats(0.01, 100))
    def test_uniform_scale_invariance(self, a, b, s):
        sa = BBox(a.x, a.y, a.w * s, a.h * s)
        sb = BBox(b.x, b.y, b.w * s, b.h * s)
        assert ars(sa, sb) == pytest.approx(ars(a, b), abs=1e-9)

    @given(boxes, boxes)
    def test_symmetric_and_in_range(self, a, b):
        v = ars(a, b)
        assert 0.0 < v <= 1.0
        assert v == ars(b, a)
        stacked = ars(xywh([a, b]), xywh([b, a]))
        assert stacked.tobytes() == np.array([v, ars(b, a)]).tobytes()


class TestBlendedAlpha:
    def test_full_overlap_reduces_to_one(self):
        assert blended_alpha(1.0, 0.5) == 1.0

    def test_no_overlap_halves(self):
        assert blended_alpha(0.0, 1.0) == 0.5

    def test_partial_overlap_substitution(self):
        assert blended_alpha(0.2, 1.0) == pytest.approx(0.5555555555555556, abs=1e-12)

    def test_degenerate_zero_over_zero(self):
        assert blended_alpha(1.0, 0.0) == 0.0
        # also as one entry among others
        assert blended_alpha(np.array([0.0, 1.0, 1.0]), np.array([1.0, 0.0, 0.5])).tolist() == [0.5, 0.0, 1.0]

    @pytest.mark.parametrize("i, v", [
        (-0.1, 0.5), (1.1, 0.5), (0.5, -0.1), (0.5, 1.1),
        # one bad entry among good ones
        (np.array([0.5, -0.1, 0.5]), np.full(3, 0.5)), (np.full(2, 0.5), np.array([0.5, np.nan])),
    ])
    def test_rejects_out_of_range(self, i, v):
        with pytest.raises(ValueError):
            blended_alpha(i, v)

    @pytest.mark.parametrize("i, v, message", [
        (np.array([0.5, np.nan]), np.full(2, 0.5), "iou out of range: array([0.5, nan])"),
        (0.5, np.nan, "v out of range: array(nan)"),
        (np.array([[1.0, 1.5]]), np.full((1, 2), 2.0), "iou out of range: array([[1. , 1.5]])"),
        (np.zeros(2), np.array([-np.inf, 0.0]), "v out of range: array([-inf,   0.])"),
    ])
    def test_out_of_range_message_names_the_input(self, i, v, message):
        with pytest.raises(ValueError) as caught:
            blended_alpha(i, v)
        assert str(caught.value) == message

    def test_empty_and_edge_entries_accepted(self):
        assert blended_alpha(np.array([]), np.array([])).shape == (0,)
        assert blended_alpha(np.zeros((0, 3)), np.zeros((0, 3))).shape == (0, 3)
        assert blended_alpha(np.array([-0.0, 1.0]), np.array([1.0, -0.0])).tolist() == [0.5, 0.0]

    @given(st.floats(0, 1))
    def test_zero_iou_never_exceeds_half(self, v):
        assert blended_alpha(0.0, v) <= 0.5

    @given(st.floats(0.001, 1))
    def test_monotone_in_iou(self, v):
        grid = [i / 20 for i in range(21)]
        vals = [blended_alpha(g, v) for g in grid]
        assert all(lo <= hi for lo, hi in zip(vals, vals[1:]))

    @given(st.floats(0, 1))
    def test_monotone_in_v(self, i):
        grid = [k / 20 for k in range(21)]
        vals = [blended_alpha(i, g) for g in grid]
        assert all(lo <= hi for lo, hi in zip(vals, vals[1:]))
