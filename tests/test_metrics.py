import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import array_shapes, arrays
from scipy.optimize import linear_sum_assignment

from seltrack import assignment, metrics
from seltrack.geometry import BBox, iou_matrix
from seltrack.metrics import EvalReport, evaluate, pde
from seltrack.tracker import RunStats

from providers import table


def box(x, y=0.0, size=10.0):
    return BBox(x, y, size, size)


class TestPde:
    def test_always_extract_is_hundred(self):
        assert pde(RunStats(fetches=40, high_detections=40)) == 100.0

    def test_zero_fetches(self):
        assert pde(RunStats(fetches=0, high_detections=10)) == 0.0

    def test_no_detections_is_not_applicable(self):
        assert pde(RunStats(fetches=0, high_detections=0)) is None

    def test_fraction(self):
        assert pde(RunStats(fetches=4393, high_detections=10000)) == pytest.approx(43.93)


class TestIdf1:
    def test_perfect_tracking(self):
        gt = {1: {f: box(f) for f in range(1, 11)}}
        pred = {7: {f: box(f) for f in range(1, 11)}}
        r = evaluate(table(gt), table(pred))
        assert r.idf1 == 1.0 and r.idtp == 10 and r.idfp == 0 and r.idfn == 0

    def test_six_four_split(self):
        gt = {1: {f: box(f) for f in range(1, 11)}}
        pred = {
            1: {f: box(f) for f in range(1, 7)},
            2: {f: box(f) for f in range(7, 11)},
        }
        r = evaluate(table(gt), table(pred))
        assert (r.idtp, r.idfp, r.idfn) == (6, 4, 4)
        assert r.idf1 == pytest.approx(0.6)

    def test_both_empty(self):
        r = evaluate(table({}), table({}))
        assert r.idf1 == 1.0 and r.id_switches == 0

    def test_one_side_empty(self):
        gt = {1: {1: box(0)}}
        for r in (evaluate(table(gt), table({})), evaluate(table({}), table(gt))):
            assert r.idf1 == 0.0 and r.id_switches == 0

    def test_symmetric_for_perfect_match(self):
        gt = {1: {f: box(f) for f in range(1, 6)}, 2: {f: box(f, 50) for f in range(1, 6)}}
        pred = {9: {f: box(f) for f in range(1, 6)}, 8: {f: box(f, 50) for f in range(1, 6)}}
        assert evaluate(table(gt), table(pred)).idf1 == evaluate(table(pred), table(gt)).idf1 == 1.0

    def test_overlap_below_threshold_does_not_count(self):
        gt = {1: {1: box(0)}}
        pred = {1: {1: box(8)}}  # iou = 2/18 < 0.5
        r = evaluate(table(gt), table(pred))
        assert r.idtp == 0 and r.idf1 == 0.0


def trajectories_of(counts):
    """gt and pred trajectory tables whose overlap count matrix is `counts`.

    Each count is frames of its own in which only that gt id and that pred
    id are present, on the same box; each id also gets one frame alone.
    """
    n_gt, n_pred = counts.shape
    gt = {g: {} for g in range(1, n_gt + 1)}
    pred = {p: {} for p in range(1, n_pred + 1)}
    frames = itertools.count(1)
    for (g, p), count in np.ndenumerate(counts):
        for _ in range(count):
            f = next(frames)
            gt[g + 1][f] = pred[p + 1][f] = box(0.0)
    for traj in (*gt.values(), *pred.values()):
        traj[next(frames)] = box(0.0)
    return table(gt), table(pred)


def conflicting(counts) -> bool:
    nonzero = counts > 0
    return bool((nonzero.sum(axis=0) > 1).any() or (nonzero.sum(axis=1) > 1).any())


count_matrices = arrays(np.int64, array_shapes(min_dims=2, max_dims=2, max_side=6),
                        elements=st.sampled_from((0, 0, 0, 1, 2, 5)))


class TestIdf1Solve:
    @settings(max_examples=200, deadline=None)
    @given(count_matrices)
    @example(np.array([[3, 0, 0], [0, 0, 2]]))  # conflict-free
    @example(np.array([[3, 2], [2, 0]]))  # a row and a column with two counts
    def test_idtp_is_the_optimal_total(self, counts):
        rows, cols = linear_sum_assignment(counts, maximize=True)
        r = evaluate(*trajectories_of(counts))
        assert r.idtp == counts[rows, cols].sum()
        assert (r.idfp, r.idfn) == (counts.sum() + counts.shape[1] - r.idtp,
                                    counts.sum() + counts.shape[0] - r.idtp)

    @settings(max_examples=100, deadline=None)
    @given(count_matrices)
    @example(np.array([[1, 0], [0, 4]]))
    @example(np.array([[1, 1], [0, 0]]))
    def test_solves_exactly_when_the_count_matrix_conflicts(self, counts):
        gt, pred = trajectories_of(counts)
        with mock.patch.object(assignment, "linear_sum_assignment",
                               wraps=assignment.linear_sum_assignment) as lsa:
            evaluate(gt, pred)
        assert lsa.call_count == (1 if conflicting(counts) else 0)


class TestIdSwitches:
    def test_perfect_tracking_has_none(self):
        gt = {1: {f: box(f) for f in range(1, 11)}}
        pred = {3: {f: box(f) for f in range(1, 11)}}
        assert evaluate(table(gt), table(pred)).id_switches == 0

    def test_six_four_split_switches_once(self):
        gt = {1: {f: box(f) for f in range(1, 11)}}
        pred = {
            1: {f: box(f) for f in range(1, 7)},
            2: {f: box(f) for f in range(7, 11)},
        }
        assert evaluate(table(gt), table(pred)).id_switches == 1

    def test_simultaneous_swap_counts_twice(self):
        # two targets swap predicted ids at frame 6
        gt = {
            1: {f: box(f, 0) for f in range(1, 11)},
            2: {f: box(f, 50) for f in range(1, 11)},
        }
        pred = {
            1: {f: box(f, 0) for f in range(1, 6)} | {f: box(f, 50) for f in range(6, 11)},
            2: {f: box(f, 50) for f in range(1, 6)} | {f: box(f, 0) for f in range(6, 11)},
        }
        assert evaluate(table(gt), table(pred)).id_switches == 2

    def test_gap_without_change_is_not_a_switch(self):
        gt = {1: {f: box(f) for f in range(1, 11)}}
        pred = {4: {f: box(f) for f in range(1, 11) if f != 5}}
        assert evaluate(table(gt), table(pred)).id_switches == 0


class TestIouMatchRange:
    @pytest.mark.parametrize("iou_match", [-0.1, 1.5, float("nan")])
    # the check comes before the early returns for empty tables
    @pytest.mark.parametrize("sides", ["both", "gt_only", "pred_only", "neither"])
    def test_outside_zero_one_is_an_error(self, sides, iou_match):
        one = {1: {1: box(0)}}
        gt = one if sides in ("both", "gt_only") else {}
        pred = one if sides in ("both", "pred_only") else {}
        with pytest.raises(ValueError, match=r"iou_match must be in \[0, 1\]"):
            evaluate(table(gt), table(pred), iou_match=iou_match)

    @pytest.mark.parametrize("iou_match", [0.0, 1.0])
    def test_bounds_are_valid(self, iou_match):
        gt = {1: {1: box(0), 2: box(1)}}
        r = evaluate(table(gt), table(gt), iou_match)
        assert r.idf1 == 1.0 and r.id_switches == 0


class TestEvaluate:
    def test_one_iou_matrix_per_shared_frame(self, monkeypatch):
        calls = []

        def counting(gt_boxes, pred_boxes):
            calls.append((len(gt_boxes), len(pred_boxes)))
            return iou_matrix(gt_boxes, pred_boxes)

        monkeypatch.setattr(metrics, "iou_matrix", counting)
        gt = {1: {f: box(f) for f in range(1, 4)}}
        pred = {1: {f: box(f) for f in range(2, 5)}}
        r = evaluate(table(gt), table(pred))
        assert calls == [(1, 1), (1, 1)]  # frames 2 and 3
        assert (r.idtp, r.idfp, r.idfn, r.id_switches) == (2, 1, 1, 0)

    def test_combines_fields(self):
        gt = {1: {f: box(f) for f in range(1, 11)}}
        pred = {
            1: {f: box(f) for f in range(1, 7)},
            2: {f: box(f) for f in range(7, 11)},
        }
        stats = RunStats(fetches=3, high_detections=10)
        r = evaluate(table(gt), table(pred), stats=stats)
        assert r.idf1 == pytest.approx(0.6)
        assert r.id_switches == 1
        assert r.pde == pytest.approx(30.0)

    def test_kv_lines_parse(self):
        r = EvalReport(pde=43.93, idf1=0.5, id_switches=2, idtp=1, idfp=2, idfn=3)
        kv = dict(line.split("=", 1) for line in r.kv_lines())
        assert kv["idf1"] == "0.500000"
        assert kv["pde"] == "43.9300"
        assert kv["id_switches"] == "2"

    def test_table_renders(self):
        r = EvalReport(pde=None, idf1=1.0, id_switches=0, idtp=5, idfp=0, idfn=0)
        text = r.table()
        assert "n/a" in text and "IDF1" in text
