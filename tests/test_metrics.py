import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxregress.metrics import (
    EvalRecord,
    corloc,
    mean_iou_trajectory,
    recall_at,
    recall_curve,
    write_recall_curve_svg,
    write_table,
)

from test_boxes import oracle_iou_pairwise


def record(image_id, boxes, gts):
    """An EvalRecord of ranked proposal boxes and ground truths given as lists of (x, y, w, h) rows."""
    return EvalRecord(image_id, np.array(boxes, dtype=np.float64).reshape(-1, 4),
                      np.array(gts, dtype=np.float64).reshape(-1, 4))


class TestRecallAt:
    def test_perfect_proposals(self):
        gts = [[10, 10, 5, 5], [30, 30, 8, 8]]
        rec = record("a", gts, gts)
        assert recall_at([rec], 0.5, k=2) == 1.0

    def test_no_proposal_reaches_threshold(self):
        rec = record("a", [[90, 90, 5, 5]], [[10, 10, 5, 5]])
        assert recall_at([rec], 0.5, k=5) == 0.0

    def test_hand_case_half(self):
        g1, g2 = [10, 10, 10, 10], [60, 60, 10, 10]
        near = [10.5, 10, 10, 10]  # IoU 0.905 with g1
        rec = record("a", [near, g2], [g1, g2])
        assert recall_at([rec], 0.5, k=1) == 0.5

    def test_strictness_at_threshold(self):
        g = [0, 0, 10, 10]
        half = [0, 0, 5, 10]  # IoU exactly 0.5
        rec = record("a", [half], [g])
        assert recall_at([rec], 0.5, k=1) == 0.0

    def test_monotone_in_k_and_threshold(self):
        rng = np.random.default_rng(0)
        records = []
        for i in range(10):
            gts = [[rng.uniform(5, 55), rng.uniform(5, 55), rng.uniform(4, 10), rng.uniform(4, 10)] for _ in range(3)]
            # Each box is drawn with a score, which the metrics ignore.
            ranked = [
                ([rng.uniform(5, 55), rng.uniform(5, 55), rng.uniform(4, 10), rng.uniform(4, 10)], rng.uniform(0, 5))
                for _ in range(30)
            ]
            records.append(record(str(i), [b for b, _ in ranked], gts))
        for thresh in (0.3, 0.5):
            vals = [recall_at(records, thresh, k) for k in (1, 2, 5, 10, 30, 100)]
            assert all(vals[i + 1] >= vals[i] for i in range(len(vals) - 1))
        for k in (1, 5, 20):
            assert recall_at(records, 0.3, k) >= recall_at(records, 0.5, k)

    def test_k_validated(self):
        with pytest.raises(ValueError):
            recall_at([record("a", [], [[0, 0, 1, 1]])], 0.5, k=0)


class TestCorloc:
    def test_perfect(self):
        gts = [[10, 10, 5, 5]]
        recs = [record("a", [gts[0]], gts)]
        assert corloc(recs) == 100.0

    def test_boundary_not_counted(self):
        g = [0, 0, 2, 2]
        half = [0, 0, 1, 2]  # IoU exactly 0.5
        recs = [record("a", [half], [g])]
        assert corloc(recs) == 0.0

    def test_two_of_three(self):
        g = [10, 10, 6, 6]
        miss = [50, 50, 6, 6]
        recs = [
            record("a", [g], [g]),
            record("b", [g], [g]),
            record("c", [miss], [g]),
        ]
        assert abs(corloc(recs) - 100 * 2 / 3) < 1e-9

    def test_top1_only(self):
        g = [10, 10, 6, 6]
        recs = [record("a", [[50, 50, 6, 6], g], [g])]
        assert corloc(recs) == 0.0

    def test_no_predictions_is_failure_not_error(self):
        recs = [record("a", [], [[10, 10, 6, 6]])]
        assert corloc(recs) == 0.0

    def test_empty_records_rejected(self):
        with pytest.raises(ValueError):
            corloc([])


class TestMeanIouTrajectory:
    def test_identity_trajectory(self):
        gts = np.array([[10, 10, 8, 8]], dtype=np.float64)
        boxes = np.array([[11, 10, 8, 8], [10, 12, 8, 8]], dtype=np.float64)
        means = mean_iou_trajectory(boxes, [boxes, boxes], gts)
        assert len(means) == 3
        assert means[0] == means[1] == means[2]

    def test_hand_mean(self):
        g = [0, 0, 10, 10]
        b04 = [0, 0, 4, 10]  # IoU 0.4
        b06 = [0, 0, 6, 10]  # IoU 0.6
        boxes = np.array([b04, b06], dtype=np.float64)
        means = mean_iou_trajectory(boxes, [boxes], np.array([g], dtype=np.float64))
        assert abs(means[0] - 0.5) < 1e-12

    def test_empty_trajectory_rejected(self):
        one = np.array([[0, 0, 1, 1]], dtype=np.float64)
        with pytest.raises(ValueError):
            mean_iou_trajectory(one, [], one)


class TestRecallCurve:
    def test_saturation(self):
        gts = [[10, 10, 5, 5]]
        recs = [record("a", [gts[0]], gts)]
        curve = recall_curve(recs, 0.5, ks=[1, 10, 1000])
        assert [r for _, r in curve] == [1.0, 1.0, 1.0]

    def test_k_grid_passthrough(self):
        gts = [[10, 10, 5, 5]]
        recs = [record("a", [[40, 40, 5, 5], gts[0]], gts)]
        curve = recall_curve(recs, 0.5, ks=[1, 2])
        assert curve == [(1, 0.0), (2, 1.0)]


class TestPermutationInvariance:
    def test_metrics_ignore_record_order(self):
        rng = np.random.default_rng(5)
        records = []
        for i in range(8):
            gts = [[rng.uniform(5, 55), rng.uniform(5, 55), rng.uniform(4, 10), rng.uniform(4, 10)] for _ in range(2)]
            ps = [
                [rng.uniform(5, 55), rng.uniform(5, 55), rng.uniform(4, 10), rng.uniform(4, 10)]
                for _ in range(10)
            ]
            records.append(record(str(i), ps, gts))
        shuffled = [records[i] for i in rng.permutation(len(records))]
        assert recall_at(records, 0.5, 5) == recall_at(shuffled, 0.5, 5)
        assert corloc(records) == corloc(shuffled)


class TestWriters:
    def test_write_table_full_precision(self, tmp_path):
        path = str(tmp_path / "t.csv")
        write_table(path, ["a", "b"], [[1, 0.1 + 0.2], ["x", 1.0 / 3.0]])
        lines = open(path).read().splitlines()
        assert lines[0] == "a,b"
        assert float(lines[1].split(",")[1]) == 0.1 + 0.2
        assert float(lines[2].split(",")[1]) == 1.0 / 3.0

    def test_svg_is_valid_xml_with_series(self, tmp_path):
        path = str(tmp_path / "curve.svg")
        series = [
            ("refined", [(1, 0.2), (10, 0.7), (100, 0.9)]),
            ("seeds", [(1, 0.0), (10, 0.1), (100, 0.3)]),
        ]
        write_recall_curve_svg(path, series, 0.7)
        root = ET.parse(path).getroot()
        assert root.tag.endswith("svg")
        polylines = [e for e in root.iter() if e.tag.endswith("polyline")]
        assert len(polylines) == 2


# Reference metrics: recall_at and corloc as they were on records holding
# lists of (x, y, w, h) rows, converting the top k boxes on every call.


def oracle_recall_at(records, iou_thresh, k):
    total = 0
    covered = 0
    for image_id, boxes, gts in records:
        if not gts:
            continue
        total += len(gts)
        if not boxes:
            continue
        top = np.array(boxes[:k], dtype=np.float64)
        covered += int((oracle_iou_pairwise(top, np.array(gts, dtype=np.float64)) > iou_thresh).any(axis=0).sum())
    return covered / total


def oracle_corloc(records, iou_thresh):
    hits = 0
    for image_id, boxes, gts in records:
        if not boxes or not gts:
            continue
        if float(oracle_iou_pairwise(np.array(boxes[:1], dtype=np.float64), np.array(gts, dtype=np.float64)).max()) > iou_thresh:
            hits += 1
    return 100.0 * hits / len(records)


COORD = st.integers(0, 40).map(float)
SIDE = st.integers(1, 20).map(float)
BOXES = st.tuples(COORD, COORD, SIDE, SIDE)


class TestArrayRecords:
    @settings(max_examples=150, deadline=None, database=None)
    @given(
        st.lists(st.tuples(st.lists(BOXES, max_size=12), st.lists(BOXES, min_size=1, max_size=4)), min_size=1, max_size=6),
        st.sampled_from([0.0, 0.3, 0.5, 0.7]),
        st.lists(st.integers(1, 15), min_size=1, max_size=4),
    )
    def test_array_records_match_proposal_lists(self, images, thresh, ks):
        # Integer boxes make exact-threshold IoUs common.
        lists = [(str(i), boxes, gts) for i, (boxes, gts) in enumerate(images)]
        from_arrays = [
            EvalRecord(i, np.array(boxes).reshape(-1, 4), np.array(gts))
            for i, boxes, gts in lists
        ]
        for k in ks:
            assert recall_at(from_arrays, thresh, k) == oracle_recall_at(lists, thresh, k)
        assert corloc(from_arrays, thresh) == oracle_corloc(lists, thresh)

    def test_record_holds_arrays(self):
        rec = record("a", [[1, 2, 3, 4], [5, 6, 7, 8]], [[0, 0, 1, 1]])
        assert rec.boxes.tolist() == [[1, 2, 3, 4], [5, 6, 7, 8]]
        assert rec.gts.tolist() == [[0, 0, 1, 1]]
        assert record("b", [], []).boxes.shape == (0, 4)
