import hashlib
import math
import os
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from boxregress.boxes import Box, _iou_of_extents, iou
from boxregress.errors import DataFormatError
from boxregress import proposals
from boxregress.model import init_model, refine
from boxregress.proposals import (
    NEIGHBOR_IOU,
    SeedGridConfig,
    _clip_array,
    _decay_ranking,
    _neighbor_graph,
    decay_nms,
    generate_proposals,
    read_corner_csv,
    seed_grid,
    write_corner_csv,
)
from boxregress.scenes import Scene, SynthConfig, synth_scenes

from test_boxes import oracle_iou_pairwise, row


def box_iou(u, v):
    return float(iou(row(u), row(v)))


def overlap_pair(target_iou, w=10.0):
    """Two equal boxes horizontally shifted to a chosen IoU."""
    # same size, shift s: iou = (w - s) / (w + s)
    s = w * (1 - target_iou) / (1 + target_iou)
    return Box(0, 0, w, w), Box(s, 0, w, w)


def nested_pair(target_iou, w=10.0, rel=0.0):
    """A box and a narrower one right-aligned inside it, at IoU target_iou * (1 + rel).

    Near the target their xmin gap is the widest that IoU > target allows.
    Returns no boxes when the narrow side underflows to 0 (subnormal target).
    """
    m = w * target_iou * (1 + rel)
    if not m > 0.0:
        return ()
    return Box(0, 0, w, w), Box(0.5 * (w - m), 0, m, w)


def crossed_pair(target_iou, a=10.0, rel=1e-9):
    """An a x b and a b x a box on one center, at IoU just above target_iou.

    Their IoU is r / (2 - r) for the side ratio r = b / a, while their
    side-ratio product is r * r: so a skip of pairs whose product is at
    most the threshold drops this true neighbor pair. Returns no boxes
    when no such pair exists (target 0 or 1) or the short side underflows.
    """
    b = a * 2.0 * target_iou / (1.0 + target_iou) * (1 + rel)
    if not 0.0 < b < a:
        return ()
    return Box(0, 0, a, b), Box(0, 0, b, a)


def proposal_rows(props):
    """(N, 5) rows (x, y, w, h, score) of a list of (Box, score) pairs."""
    return np.array([(b.x, b.y, b.w, b.h, s) for b, s in props], dtype=np.float64).reshape(-1, 5)


def neighbor_scores(boxes):
    """Each box's proposal score: the other boxes overlapping it at IoU above NEIGHBOR_IOU."""
    counts = _neighbor_graph(np.array([row(b) for b in boxes]).reshape(-1, 4), NEIGHBOR_IOU, NEIGHBOR_IOU)[3]
    return (counts - 1).astype(np.float64).tolist()


def ranked_rows(boxes, scores, iou_thresh=0.6, decay=10.0):
    """decay_nms over a Box list and its scores, as (N, 5) rows in emission order."""
    arr = np.array([row(b) for b in boxes]).reshape(-1, 4)
    order, emitted = decay_nms(arr, np.array(scores, dtype=np.float64), iou_thresh, decay)
    return np.column_stack([arr[order], emitted])


class TestSeedGrid:
    def test_single_box_at_center(self):
        cfg = SeedGridConfig(scales=(0.5,), aspect_ratios=(1.0,), stride=1.0)
        boxes = seed_grid(200, 200, cfg)
        assert boxes.tolist() == [[100, 100, 100, 100]]

    def test_default_count_by_enumeration(self):
        cfg = SeedGridConfig()
        boxes = seed_grid(600, 600, cfg)
        lattice = len(np.arange(0.5 * 0.0625 * 600, 600, 0.0625 * 600))
        assert lattice == 16
        assert len(boxes) == len(cfg.scales) * len(cfg.aspect_ratios) * lattice * lattice

    def test_aspect_ratio_shape(self):
        cfg = SeedGridConfig(scales=(0.25,), aspect_ratios=(2.0,), stride=1.0)
        x, y, w, h = seed_grid(400, 400, cfg)[0]
        assert abs(w / h - 2.0) < 1e-12

    def test_boxes_clipped_to_image(self):
        for x, y, w, h in seed_grid(300, 200, SeedGridConfig()):
            assert x - w / 2 >= -1e-9 and x + w / 2 <= 300 + 1e-9
            assert y - h / 2 >= -1e-9 and y + h / 2 <= 200 + 1e-9

    def test_bad_dims(self):
        with pytest.raises(ValueError):
            seed_grid(0, 100, SeedGridConfig())

    @pytest.mark.parametrize("kwargs", [
        {"scales": ()}, {"scales": (0.5, math.nan)}, {"scales": (math.inf,)},
        {"aspect_ratios": (-1.0,)}, {"stride": 0.0}, {"stride": math.nan},
    ])
    def test_config_validation(self, kwargs):
        with pytest.raises(ValueError):
            SeedGridConfig(**kwargs)


class TestClipBox:
    def test_inside_unchanged(self):
        b = np.array([[50.0, 50, 20, 20]])
        assert np.array_equal(_clip_array(b, 100, 100), b)

    def test_border_clip(self):
        x, y, w, h = _clip_array(np.array([[0.0, 50, 20, 20]]), 100, 100)[0]
        assert x - w / 2 == 0.0
        assert w == 10.0

    def test_min_side(self):
        x, y, w, h = _clip_array(np.array([[0.2, 50, 0.1, 20]]), 100, 100, min_side=1.0)[0]
        assert w >= 1.0


class TestScoreProposals:
    def test_single_box(self):
        assert neighbor_scores([Box(0, 0, 2, 2)]) == [0.0]

    def test_five_identical(self):
        boxes = [Box(1, 1, 4, 4)] * 5
        assert neighbor_scores(boxes) == [4.0] * 5

    def test_hand_triple(self):
        a, b = overlap_pair(0.8)
        c = Box(100, 0, 10, 10)
        assert box_iou(a, b) == pytest.approx(0.8)
        assert neighbor_scores([a, b, c]) == [1.0, 1.0, 0.0]

    def test_exact_threshold_not_counted(self):
        a, b = overlap_pair(0.7)
        assert box_iou(a, b) == pytest.approx(0.7, abs=1e-12)
        scores = neighbor_scores([a, b])
        assert scores == [0.0, 0.0]

    def test_empty(self):
        assert neighbor_scores([]) == []

    def test_permutation_consistency(self):
        rng = np.random.default_rng(0)
        boxes = [Box(rng.uniform(0, 20), rng.uniform(0, 20), rng.uniform(1, 8), rng.uniform(1, 8)) for _ in range(40)]
        base = neighbor_scores(boxes)
        perm = list(rng.permutation(40))
        shuffled = neighbor_scores([boxes[i] for i in perm])
        assert shuffled == [base[i] for i in perm]


def random_proposals(rng, n, lo, hi, side_lo, side_hi, score_lo, score_hi):
    """n boxes and scores, each box drawn before its score."""
    boxes, scores = [], []
    for _ in range(n):
        x, y = rng.uniform(lo, hi), rng.uniform(lo, hi)
        boxes.append(Box(x, y, rng.uniform(side_lo, side_hi), rng.uniform(side_lo, side_hi)))
        scores.append(float(rng.uniform(score_lo, score_hi)))
    return boxes, scores


class TestDecayNms:
    def test_two_identical_boxes_trace(self):
        b = [5.0, 5, 4, 4]
        _, emitted = decay_nms(np.array([b, b]), np.array([10.0, 9.0]))
        assert emitted.tolist() == [10.0, 0.9]

    def test_decayed_box_emitted_after_higher_scores(self):
        b = [5.0, 5, 4, 4]
        c = [50.0, 50, 4, 4]
        order, emitted = decay_nms(np.array([b, b, c]), np.array([10.0, 9.0, 5.0]))
        assert emitted.tolist() == [10.0, 5.0, 0.9]
        assert order[1] == 2

    def test_non_overlapping_plain_descending(self):
        boxes = np.array([[i * 100, 0, 5, 5] for i in range(4)], dtype=np.float64)
        _, emitted = decay_nms(boxes, np.array([3.0, 9.0, 1.0, 7.0]))
        assert emitted.tolist() == [9.0, 7.0, 3.0, 1.0]

    def test_tie_breaks_to_input_order(self):
        arr = np.array([[i * 100, 0, 5, 5] for i in range(4)], dtype=np.float64)
        order, _ = decay_nms(arr, np.full(4, 2.0))
        assert arr[order, 0].tolist() == [0, 100, 200, 300]

    def test_permutation_of_input(self):
        rng = np.random.default_rng(1)
        boxes, scores = random_proposals(rng, 60, 0, 30, 2, 10, 0, 10)
        arr = np.array([row(b) for b in boxes])
        order, emitted = decay_nms(arr, np.array(scores))
        assert len(order) == len(emitted) == len(boxes)
        assert sorted(map(tuple, arr[order].tolist())) == sorted(map(tuple, arr.tolist()))

    def test_emitted_scores_non_increasing(self):
        rng = np.random.default_rng(2)
        boxes, scores = random_proposals(rng, 50, 0, 20, 2, 10, 0, 10)
        scores = decay_nms(np.array([row(b) for b in boxes]), np.array(scores))[1].tolist()
        assert all(scores[i] >= scores[i + 1] for i in range(len(scores) - 1))

    def test_huge_decay_matches_hard_nms_prefix(self):
        rng = np.random.default_rng(3)
        boxes, scores = random_proposals(rng, 50, 0, 25, 2, 12, 1, 10)

        def hard_nms(thresh=0.6):
            order = sorted(range(len(boxes)), key=lambda i: (-scores[i], i))
            kept = []
            for i in order:
                if all(box_iou(boxes[i], boxes[j]) <= thresh for j in kept):
                    kept.append(i)
            return kept

        kept = hard_nms()
        order, _ = decay_nms(np.array([row(b) for b in boxes]), np.array(scores), decay=1e15)
        assert order[: len(kept)].tolist() == kept

    def test_decay_validation(self):
        for decay in (1.0, 0.5, math.nan, math.inf):
            with pytest.raises(ValueError):
                decay_nms(np.array([[0.0, 0, 1, 1]]), np.array([1.0]), decay=decay)

    def test_iou_thresh_validation(self):
        for thresh in (-0.5, 1.5, math.nan):
            with pytest.raises(ValueError):
                decay_nms(np.array([[0.0, 0, 1, 1]]), np.array([1.0]), iou_thresh=thresh)

    @pytest.mark.parametrize("score", [-1.0, -1e-300, math.nan, math.inf, -math.inf])
    def test_score_validation(self, score):
        # The ranking's early exit assumes no live score is negative.
        arr = np.array([[0.0, 0, 1, 1], [5, 5, 1, 1]])
        with pytest.raises(ValueError, match="proposal score must be finite and >= 0"):
            decay_nms(arr, np.array([1.0, score]))

    def test_shape_validation(self):
        arr = np.array([[0.0, 0, 1, 1], [5, 5, 1, 1]])
        for boxes, scores in ((arr, np.ones(3)), (arr, np.ones(1)), (arr, np.ones((2, 1))), (arr[:, :3], np.ones(2))):
            with pytest.raises(ValueError):
                decay_nms(boxes, scores)

    def test_empty(self):
        order, emitted = decay_nms(np.empty((0, 4)), np.empty(0))
        assert order.shape == emitted.shape == (0,)
        assert emitted.dtype == np.float64


class TestGenerateProposals:
    def zero_model(self):
        from boxregress.model import RegressorModel

        return RegressorModel(
            7, 3,
            np.zeros((8, 147)), np.zeros(8),
            np.zeros((8, 8)), np.zeros(8),
            np.zeros((4, 8)), np.zeros(4),
        )

    def test_empty_scene_completes(self):
        scene = Scene(id="empty", width=128, height=128, boxes=np.empty((0, 4)))
        props = generate_proposals(self.zero_model(), scene)
        assert len(props) == len(seed_grid(128, 128))

    def test_deterministic(self):
        scene = Scene(id="s", width=128, height=128, boxes=np.array([[60, 60, 30, 30]]))
        a = generate_proposals(self.zero_model(), scene)
        b = generate_proposals(self.zero_model(), scene)
        assert a.tobytes() == b.tobytes()

    def test_output_clipped(self):
        scene = Scene(id="s", width=128, height=128, boxes=np.array([[60, 60, 30, 30]]))
        for x, y, w, h, _ in generate_proposals(self.zero_model(), scene).tolist():
            assert x - w / 2 >= -1e-9
            assert x + w / 2 <= 128 + 1e-9

    def test_collapsed_boxes_are_a_numeric_failure(self):
        # exp(-60) shrinks every seed below the resolution of its center, so
        # its corner extent is 0 and it no longer overlaps even itself.
        model = self.zero_model()
        model.b3[2] = -60.0
        scene = Scene(id="s", width=128, height=128, boxes=np.array([[60, 60, 30, 30]]))
        with pytest.raises(OverflowError, match="floating-point resolution"):
            generate_proposals(model, scene)


class TestProposalIo:
    def test_roundtrip(self, tmp_path):
        by_image = {
            "img-1": [(Box(10, 10, 5, 5), 3.0), (Box(20, 20, 8, 8), 1.5)],
            "img-2": [(Box(1.25, 2.5, 0.5, 0.75), 0.0)],
        }
        path = str(tmp_path / "props.csv")
        write_corner_csv(path, {i: proposal_rows(p) for i, p in by_image.items()})
        loaded = read_corner_csv(path)
        assert {i: r.tolist() for i, r in loaded.items()} == {i: proposal_rows(p).tolist() for i, p in by_image.items()}

    def test_malformed_line_reports_lineno(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("img,1,2,3,4,5\nimg,not-a-number,2,3,4,5\n")
        with pytest.raises(DataFormatError, match="line 2"):
            read_corner_csv(str(path))

    def test_wrong_field_count(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("img,1,2,3\n")
        with pytest.raises(DataFormatError, match="6 fields"):
            read_corner_csv(str(path))

    def test_proposal_score_validation(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("img,0,0,1,1,1\nimg,0,0,1,1,-1\n")
        with pytest.raises(DataFormatError, match=r"line 2: proposal score must be finite and >= 0, got -1.0$"):
            read_corner_csv(str(path))


# Dense reference implementations: the proposal stage as it was before the
# sparse neighbor graph. The library must reproduce them bit for bit.


def oracle_clip_box(b, image_w, image_h, min_side=1.0):
    xmin = max(b.x - 0.5 * b.w, 0.0)
    xmax = min(b.x + 0.5 * b.w, image_w)
    ymin = max(b.y - 0.5 * b.h, 0.0)
    ymax = min(b.y + 0.5 * b.h, image_h)
    w = max(xmax - xmin, min_side)
    h = max(ymax - ymin, min_side)
    cx = min(max(0.5 * (xmin + xmax), 0.5 * w), image_w - 0.5 * w)
    cy = min(max(0.5 * (ymin + ymax), 0.5 * h), image_h - 0.5 * h)
    return Box(cx, cy, w, h)


def oracle_seed_grid(image_w, image_h, cfg):
    short = min(image_w, image_h)
    step = cfg.stride * short
    xs = np.arange(0.5 * step, image_w, step)
    ys = np.arange(0.5 * step, image_h, step)
    out = []
    for scale in cfg.scales:
        for ratio in cfg.aspect_ratios:
            w = scale * short * math.sqrt(ratio)
            h = scale * short / math.sqrt(ratio)
            for cy in ys:
                for cx in xs:
                    out.append(oracle_clip_box(Box(float(cx), float(cy), w, h), image_w, image_h))
    return out


def oracle_score_proposals(boxes):
    n = len(boxes)
    if n == 0:
        return []
    arr = np.array([row(b) for b in boxes])
    counts = np.zeros(n, dtype=np.int64)
    block = 512
    for start in range(0, n, block):
        sub = oracle_iou_pairwise(arr[start : start + block], arr)
        counts[start : start + block] = (sub > NEIGHBOR_IOU).sum(axis=1)
    return [float(c - 1) for c in counts]


def oracle_decay_nms(boxes, scores, iou_thresh=0.6, decay=10.0):
    """(Box, score) pairs in emission order."""
    n = len(boxes)
    if n == 0:
        return []
    arr = np.array([row(b) for b in boxes])
    scores = np.array(scores, dtype=np.float64)
    remaining = np.ones(n, dtype=bool)
    out = []
    for _ in range(n):
        pick = int(np.argmax(np.where(remaining, scores, -np.inf)))
        out.append((boxes[pick], float(scores[pick])))
        remaining[pick] = False
        if remaining.any():
            overlaps = oracle_iou_pairwise(arr[pick : pick + 1], arr)[0]
            scores[remaining & (overlaps > iou_thresh)] /= decay
    return out


def oracle_generate_proposals(model, scene, grid_cfg, iterations, nms_iou, decay):
    seeds = oracle_seed_grid(scene.width, scene.height, grid_cfg)
    seed_rows = np.array([row(b) for b in seeds])
    refined = [Box(*r) for r in refine(model, scene, seed_rows, iterations=iterations)[-1].tolist()]
    ranked = oracle_decay_nms(refined, oracle_score_proposals(refined), nms_iou, decay)
    return [(oracle_clip_box(b, scene.width, scene.height), s) for b, s in ranked]


def bits(props):
    """Every float of a list of (Box, score) pairs, as exact hex strings."""
    return [tuple(v.hex() for v in (b.x, b.y, b.w, b.h, float(s))) for b, s in props]


def row_bits(rows):
    """Every float of (N, 5) proposal rows, in the form of `bits`."""
    return [tuple(map(float.hex, r)) for r in rows.tolist()]


DIFFERENTIAL = settings(
    max_examples=150, deadline=None, database=None, suppress_health_check=[HealthCheck.too_slow]
)

SIDES = st.one_of(
    st.floats(0.01, 1.0),                     # sub-pixel
    st.floats(1.0, 60.0),
    st.sampled_from([128.0, 600.0]),          # image-sized
)


@st.composite
def box_sets(draw, thresholds=st.sampled_from([0.6, 0.7])):
    """Boxes with exact duplicates, pairs at or just above the thresholds, and a common offset."""
    coord = st.floats(-20.0, 150.0)
    boxes = draw(st.lists(st.builds(Box, coord, coord, SIDES, SIDES), max_size=40))
    if boxes:
        boxes += draw(st.lists(st.sampled_from(boxes), max_size=8))
    for target in draw(st.lists(thresholds, max_size=3)):
        boxes += overlap_pair(target, draw(st.floats(0.5, 100.0)))
        boxes += crossed_pair(target, draw(st.floats(0.5, 100.0)))
        if target > 0:
            rel = draw(st.sampled_from([0.0, 1e-15, 1e-9, 1e-3]))
            boxes += nested_pair(target, draw(st.floats(0.5, 100.0)), rel)
    dx, dy = draw(st.sampled_from([(0.0, 0.0), (1e5, -3e3), (-1e7, 1e7)]))
    return draw(st.permutations([Box(b.x + dx, b.y + dy, b.w, b.h) for b in boxes]))


def jittered_clusters(rng, k, n, side, spread):
    """(k * n, 4) rows: n boxes around each of k random spots, centers and sides jittered by `spread` of `side`."""
    rows = np.repeat(np.column_stack([rng.uniform(0, 1000, (k, 2)), np.full((k, 2), side)]), n, axis=0)
    rows[:, :2] += side * rng.uniform(-spread, spread, (k * n, 2))
    rows[:, 2:] *= 1 + rng.uniform(-spread, spread, (k * n, 2))
    return rows

SCORES = st.one_of(st.integers(0, 3).map(float), st.floats(0.0, 1e3))
DECAYS = st.one_of(st.sampled_from([1.5, 2.0, 10.0, 1e15]), st.floats(1.0001, 100.0))
NMS_IOUS = st.one_of(st.sampled_from([0.0, 0.6, 1.0]), st.floats(0.0, 1.0))


class TestDenseOracle:
    @DIFFERENTIAL
    @given(st.data(), st.one_of(st.sampled_from([0.0, 0.6, 0.7, 1.0]), st.floats(0.0, 1.0)))
    def test_neighbor_graph_is_dense_above_t(self, data, t):
        arr = np.array([row(b) for b in data.draw(box_sets(st.just(t)))]).reshape(-1, 4)
        start, stop, cols, counts = _neighbor_graph(arr, t, t)
        with np.errstate(invalid="ignore"):  # 0/0 for boxes below one ulp of their offset
            dense = oracle_iou_pairwise(arr, arr)
        assert len(start) == len(stop) == len(counts) == len(arr)
        for i in range(len(arr)):
            got = sorted(cols[start[i] : stop[i]].tolist())
            want = np.flatnonzero(dense[i] > t).tolist()
            assert got == want
            assert counts[i] == len(want)

    @DIFFERENTIAL
    @given(st.data(), st.sampled_from([0.0, 0.6, 0.7, 0.85, 1.0]))
    def test_neighbor_graph_at_nms_iou_and_neighbor_iou(self, data, nms_iou):
        # generate_proposals' call: lists above nms_iou, counts above 0.7.
        arr = np.array([row(b) for b in data.draw(box_sets(st.sampled_from([nms_iou, NEIGHBOR_IOU])))]).reshape(-1, 4)
        start, stop, cols, counts = _neighbor_graph(arr, nms_iou, NEIGHBOR_IOU)
        with np.errstate(invalid="ignore"):
            dense = oracle_iou_pairwise(arr, arr)
        for i in range(len(arr)):
            assert sorted(cols[start[i] : stop[i]].tolist()) == np.flatnonzero(dense[i] > nms_iou).tolist()
            assert counts[i] == int((dense[i] > NEIGHBOR_IOU).sum())

    @DIFFERENTIAL
    @given(box_sets())
    def test_score_proposals_matches_dense(self, boxes):
        got = neighbor_scores(boxes)
        want = oracle_score_proposals(boxes)
        assert [v.hex() for v in got] == [v.hex() for v in want]

    @DIFFERENTIAL
    @given(st.data(), box_sets(), NMS_IOUS, DECAYS)
    def test_decay_nms_matches_dense(self, data, boxes, nms_iou, decay):
        scores = data.draw(st.lists(SCORES, min_size=len(boxes), max_size=len(boxes)))
        want = oracle_decay_nms(boxes, scores, nms_iou, decay)
        assert row_bits(ranked_rows(boxes, scores, nms_iou, decay)) == bits(want)

    @DIFFERENTIAL
    @given(box_sets(), NMS_IOUS, DECAYS)
    def test_neighbor_scores_then_decay_match_dense(self, boxes, nms_iou, decay):
        want = oracle_decay_nms(boxes, oracle_score_proposals(boxes), nms_iou, decay)
        assert row_bits(ranked_rows(boxes, neighbor_scores(boxes), nms_iou, decay)) == bits(want)

    @settings(max_examples=25, deadline=None, database=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from([0.0, 0.6, 1.0]),
        st.sampled_from([1.5, 10.0, 1e15]),
        st.integers(1, 2),
        st.sampled_from([0.02, 0.1, 0.3]),
    )
    def test_generate_proposals_matches_dense(self, seed, nms_iou, decay, iterations, init_std):
        scene = synth_scenes(SynthConfig(seed=seed % 1000, max_objects=3), 1)[0]
        model = init_model(3, 7, (16, 16), init_std=init_std, rng=np.random.default_rng(seed))
        grid = SeedGridConfig(scales=(0.25, 0.5), aspect_ratios=(0.5, 1.0, 2.0), stride=0.125)
        got = generate_proposals(model, scene, grid, iterations, nms_iou, decay)
        want = oracle_generate_proposals(model, scene, grid, iterations, nms_iou, decay)
        assert row_bits(got) == bits(want)
        # The random head must actually move the seeds for this to test refinement.
        seeds = np.array([row(b) for b in oracle_seed_grid(scene.width, scene.height, grid)])
        assert not np.array_equal(refine(model, scene, seeds, iterations)[-1], seeds)

    @settings(max_examples=10, deadline=None, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.integers(0, 2**32 - 1), st.sampled_from([0.0, 0.6, 0.7, 0.85, 1.0]), st.sampled_from([1.5, 10.0, 1e15]))
    def test_proposals_file_matches_dense_bytes(self, tmp_path, seed, nms_iou, decay):
        # What `propose` writes: the array pipeline through write_corner_csv,
        # against the dense pipeline through the per-line writer.
        scenes = synth_scenes(SynthConfig(seed=seed % 1000, max_objects=3), 2)
        model = init_model(3, 7, (16, 16), init_std=0.1, rng=np.random.default_rng(seed))
        grid = SeedGridConfig(scales=(0.25, 0.5), aspect_ratios=(0.5, 1.0, 2.0), stride=0.125)
        write_corner_csv(str(tmp_path / "new.csv"), {
            s.id: generate_proposals(model, s, grid, 1, nms_iou, decay) for s in scenes
        })
        oracle_save_proposals(str(tmp_path / "old.csv"), {
            s.id: oracle_generate_proposals(model, s, grid, 1, nms_iou, decay) for s in scenes
        })
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    @pytest.mark.parametrize("block, batch", [(64, 1), (256, 1), (4096, 40)])
    def test_neighbor_graph_fill_batches_match_dense(self, block, batch):
        # Small blocks and batches: a cluster of 300 boxes splits into row
        # chunks whose same-bucket blocks have mirrored columns, its sides
        # straddle a bucket edge so adjacent-bucket blocks hold entries, and
        # the entries are placed over many fill batches (one per block at
        # batch 1).
        arr = np.concatenate([jittered_clusters(np.random.default_rng(block), 1, 300, 36.0, 0.05),
                              jittered_clusters(np.random.default_rng(batch), 30, 3, 20.0, 0.3)])
        seen = []

        def kernel(rows, cols):
            q = _iou_of_extents(rows, cols)
            seen.append((rows[0][:, 0], cols[0], q > 0.6))
            return q

        with mock.patch.object(proposals, "_BLOCK", block), mock.patch.object(proposals, "_BATCH", batch), \
                mock.patch.object(proposals, "_iou_of_extents", kernel):
            start, stop, cols, counts = _neighbor_graph(arr, 0.6, NEIGHBOR_IOU)
        dense = oracle_iou_pairwise(arr, arr)
        for i in range(len(arr)):
            assert sorted(cols[start[i] : stop[i]].tolist()) == np.flatnonzero(dense[i] > 0.6).tolist()
            assert counts[i] == int((dense[i] > NEIGHBOR_IOU).sum())
        # A same-bucket block's columns start with its rows; entries past them are mirrored.
        same = [len(c) >= len(r) and np.array_equal(c[: len(r)], r) for r, c, _ in seen]
        assert sum(hit.any() for _, _, hit in seen) >= 3
        assert any(s and hit[:, len(r):].any() for s, (r, _, hit) in zip(same, seen))
        assert any(not s and hit.any() for s, (_, _, hit) in zip(same, seen))

    def test_neighbor_graph_memory_per_entry(self):
        # Tight clusters hold 640,000 entries. Beyond the arrays it returns,
        # the graph holds each block's entries once while the rows fill.
        arr = jittered_clusters(np.random.default_rng(5), 4, 400, 36.0, 0.05)
        tracemalloc.start()
        try:
            graph = _neighbor_graph(arr, 0.6, NEIGHBOR_IOU)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        entries = len(graph[2])
        assert entries == 4 * 400 * 400
        assert peak - sum(a.nbytes for a in graph) <= 8 * entries

    @pytest.mark.parametrize("case", ["all_zero", "underflow", "zero_ties"])
    def test_decay_early_exit_matches_dense(self, case):
        # Once every live score is 0 the ranking ends in index order; the
        # dense loop keeps dividing zeros and must agree bit for bit.
        rng = np.random.default_rng(7)
        boxes = [Box(rng.uniform(0, 30), rng.uniform(0, 30), rng.uniform(2, 10), rng.uniform(2, 10)) for _ in range(40)]
        decay = 10.0
        if case == "all_zero":
            scores = [0.0] * 40
        elif case == "underflow":
            # A cluster of copies: each emission divides the others by 1e15
            # until they underflow to 0, ahead of the boxes that start at 0.
            boxes = [Box(5.0, 5.0, 4.0, 4.0)] * 20 + boxes[20:]
            scores = [float(v) for v in rng.uniform(1e-300, 1e-290, 20)] + [0.0] * 20
            decay = 1e15
        else:
            scores = [float(v) for v in rng.integers(0, 3, 40)]
            scores[::7] = [-0.0] * len(scores[::7])
        got = ranked_rows(boxes, scores, 0.6, decay)
        assert row_bits(got) == bits(oracle_decay_nms(boxes, scores, 0.6, decay))
        assert got[-1, 4] == 0.0

    @DIFFERENTIAL
    @given(st.builds(Box, st.floats(-50.0, 200.0), st.floats(-50.0, 200.0), SIDES, SIDES),
           st.sampled_from([64, 128.0, 600]), st.sampled_from([64, 100.5]))
    def test_clip_box_matches_scalar(self, b, image_w, image_h):
        got = Box(*_clip_array(row(b)[None], image_w, image_h)[0].tolist())
        want = oracle_clip_box(b, image_w, image_h)
        assert bits([(got, 0.0)]) == bits([(want, 0.0)])

    @pytest.mark.parametrize("shape", [(600, 600), (640, 427), (128, 128), (100.5, 333)])
    def test_seed_grid_matches_scalar(self, shape):
        for cfg in (SeedGridConfig(), SeedGridConfig(scales=(0.3,), aspect_ratios=(3.0,), stride=0.07)):
            got, want = seed_grid(*shape, cfg), oracle_seed_grid(*shape, cfg)
            assert bits([(Box(*r), 0.0) for r in got.tolist()]) == bits([(b, 0.0) for b in want])



def golden_scenes():
    """Refined-box fixtures, as {id: ((N, 4) center rows, image_w, image_h)}.

    "clusters" piles jittered boxes on a few spots, as refinement does,
    with some of them past the image border; "tail" scatters small boxes,
    so most scores are 0 and the ranking ends in a long zero-score tail;
    "shapes" mixes thin, crossed and sub-pixel boxes over the whole range
    of sides. Their values are multiples of 1/64, exact in float64.
    "rounded" holds clusters scaled by 0.1 and uniform draws on a small
    image, so its values use every bit and a change in the order of
    operations shows in the digests.
    """
    rng = np.random.default_rng(2019)

    def clusters(k, n, spread, image):
        base = np.column_stack([rng.integers(0, image * 8, (k, 2)), rng.integers(40, 400, (k, 2))]) / 8
        rows = np.repeat(base, n, axis=0)
        rows[:, :2] += rng.integers(-spread, spread + 1, (k * n, 2)) / 8
        rows[:, 2:] += rng.integers(-spread, spread + 1, (k * n, 2)) / 16
        return rows

    tail = np.column_stack([rng.integers(0, 1024, (300, 2)) / 8, rng.integers(8, 48, (300, 2)) / 8])
    shapes = np.column_stack([rng.integers(0, 8192, (400, 2)) / 64, rng.integers(1, 4096, (400, 2)) / 64])
    shapes[::4, 3] = shapes[::4, 2] / 4  # thin boxes, and their crossed twins on one center
    shapes[1::4] = shapes[::4][:, [0, 1, 3, 2]]
    rounded = np.column_stack([rng.uniform(-0.5, 7.0, (300, 2)), rng.uniform(0.2, 4.0, (300, 2))])
    # A 20 x 8 box and one 20t wide inside it: IoU exactly t, so `>` against `>=` shows.
    ties = [(20.0 * k + x, 60.0, w, 8.0) for k, t in enumerate((0.3, 0.6, 0.7, 0.85)) for x, w in ((0, 20), (1, 20 * t))]
    return {
        "clusters": (clusters(8, 60, 12, 96), 96.0, 80.0),
        "tail": (np.concatenate([tail, clusters(2, 20, 4, 128)]), 128.0, 128.0),
        "shapes": (np.concatenate([shapes, ties]), 128.0, 100.5),
        "rounded": (np.concatenate([clusters(4, 30, 12, 64) * 0.1, rounded]), 6.4 * 1.01, 4.8 * 1.03),
    }


def digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        a = np.asarray(a)
        h.update(a.astype("<f8" if a.dtype.kind == "f" else "<i8").tobytes())
    return h.hexdigest()


GOLDEN_NMS_IOUS = (0.3, 0.6, 0.85)
GOLDEN_DECAYS = (1.5, 10.0, 1e15)


class TestProposalDigests:
    """sha256 of the proposal stage's outputs on fixed fixtures: bitwise unchanged, with no parent checkout.

    These stages use only +, -, *, /, min, max and comparisons, each of
    which IEEE 754 rounds the same way on every CPU, so the constants
    hold on any machine.
    The graph is hashed with each row's neighbor list sorted, since the
    order within a row is free.
    """

    DIGESTS = {
        "graph": "c9e9edb18a534d2ac0c1be78e0ba57fa6a6f3c247cf7de06e867c1c79f8cf26b",
        "ranking": "31401e5d5d5f46811876cbd6300882ec5bcf22b5ee4d4a17d3c59fbce41f260c",
        "clip": "97a9fecd2157cd3f9d47d8ca4911837dbc86087abcc7e388f744d370a3b66ddd",
        "write": "514e6b70ef283a6808ea0e5a368a3483cb37fb31e9af64b1b56659d34fb95c79",
    }

    def outputs(self, stage, tmp_path):
        for name, (boxes, image_w, image_h) in golden_scenes().items():
            if stage == "clip":
                for min_side in (1.0, 0.25):
                    yield _clip_array(boxes, image_w, image_h, min_side)
                continue
            for nms_iou in GOLDEN_NMS_IOUS:
                start, stop, cols, counts = _neighbor_graph(boxes, nms_iou, NEIGHBOR_IOU)
                if stage == "graph":
                    yield stop - start
                    yield counts
                    yield np.concatenate([np.sort(cols[a:b]) for a, b in zip(start, stop)])
                    continue
                for decay in GOLDEN_DECAYS:
                    order, emitted = _decay_ranking(start, stop, cols, (counts - 1).astype(np.float64), decay)
                    if stage == "ranking":
                        yield order
                        yield emitted
                        continue
                    path = tmp_path / "proposals.csv"
                    rows = np.column_stack([_clip_array(boxes[order], image_w, image_h), emitted])
                    write_corner_csv(str(path), {name: rows, f"{name}-top": rows[:5]})
                    yield np.frombuffer(path.read_bytes(), dtype=np.uint8)

    @pytest.mark.parametrize("stage", ["graph", "ranking", "clip", "write"])
    def test_stage_digest(self, tmp_path, stage):
        assert digest(*self.outputs(stage, tmp_path)) == self.DIGESTS[stage]

    def test_fixture_covers_the_early_exit_and_dense_rows(self):
        boxes = golden_scenes()["tail"][0]
        start, stop, cols, counts = _neighbor_graph(boxes, 0.6, NEIGHBOR_IOU)
        _, emitted = _decay_ranking(start, stop, cols, (counts - 1).astype(np.float64), 10.0)
        assert (emitted == 0.0).sum() >= 200 and emitted[0] > 0
        boxes = golden_scenes()["clusters"][0]
        assert (_neighbor_graph(boxes, 0.3, NEIGHBOR_IOU)[3] > 20).any()


# Reference readers: the corner-CSV loaders as they were before the
# streaming reader, one float() per field and one Box per line.
# read_corner_csv must agree with them bit for bit, errors included.


def oracle_load_proposals(path):
    out = {}
    try:
        with open(path, "r", encoding="utf-8") as f:
            lines = f.readlines()
    except OSError as e:
        raise DataFormatError(f"{path}: {e}") from None
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 6:
            raise DataFormatError(f"{path}: line {lineno}: expected 6 fields, got {len(parts)}")
        image_id = parts[0]
        try:
            xmin, ymin, xmax, ymax, score = (float(v) for v in parts[1:])
        except ValueError:
            raise DataFormatError(f"{path}: line {lineno}: non-numeric field") from None
        try:
            box = Box(0.5 * (xmin + xmax), 0.5 * (ymin + ymax), xmax - xmin, ymax - ymin)
        except ValueError as e:
            raise DataFormatError(f"{path}: line {lineno}: {e}") from None
        if not (math.isfinite(score) and score >= 0):
            raise DataFormatError(f"{path}: line {lineno}: proposal score must be finite and >= 0, got {score}")
        out.setdefault(image_id, []).append((box, score))
    return out


def oracle_load_boxes(path):
    out = {}
    try:
        with open(path, "r", encoding="utf-8") as f:
            lines = f.readlines()
    except OSError as e:
        raise DataFormatError(f"{path}: {e}") from None
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) not in (5, 6):
            raise DataFormatError(f"{path}: line {lineno}: expected 5 or 6 fields, got {len(parts)}")
        try:
            xmin, ymin, xmax, ymax = (float(v) for v in parts[1:5])
            box = Box(0.5 * (xmin + xmax), 0.5 * (ymin + ymax), xmax - xmin, ymax - ymin)
        except ValueError as e:
            raise DataFormatError(f"{path}: line {lineno}: {e}") from None
        out.setdefault(parts[0], []).append(box)
    return out


def outcome(read, path):
    """A reader's result as exact hex strings per image, or its error message."""
    try:
        result = read(path)
    except DataFormatError as e:
        return "error", str(e)
    return "ok", [(image_id, [tuple(map(float.hex, row)) for row in rows]) for image_id, rows in result.items()]


def oracle_outcome(path, scored):
    if scored:
        return outcome(lambda p: {
            i: [(b.x, b.y, b.w, b.h, score) for b, score in props]
            for i, props in oracle_load_proposals(p).items()
        }, path)
    return outcome(lambda p: {i: [(b.x, b.y, b.w, b.h) for b in boxes] for i, boxes in oracle_load_boxes(p).items()}, path)


def reader_outcome(path, scored, limit=None):
    return outcome(lambda p: {i: rows.tolist() for i, rows in read_corner_csv(p, scored, limit).items()}, path)


def first_rows(result, limit):
    """A reader outcome cut to each image's first `limit` rows; errors pass through."""
    kind, value = result
    return (kind, [(image_id, rows[:limit]) for image_id, rows in value]) if kind == "ok" else result


IDS = st.sampled_from(["img-1", "a", "synth-0003", "x y", "\u00e9t\u00e9", "7"])
NEWLINES = st.sampled_from(["\n", "\r\n", "\r"])
# Block sizes in bytes: one line per block, a few lines, many, and the default.
READ_BYTES = st.sampled_from([1, 40, 130, 700, proposals._READ_BYTES])


@st.composite
def number_text(draw, value):
    """A spelling of value that float() reads."""
    fmt = draw(st.sampled_from(["repr", "fixed", "exp", "spaced", "signed"]))
    if fmt == "fixed":
        return f"{value:.{draw(st.integers(4, 20))}f}"
    if fmt == "exp":
        return f"{value:.{draw(st.integers(6, 17))}e}"
    if fmt == "spaced":
        return f" {value!r}\t"
    if fmt == "signed":
        return f"{value:+}"
    return repr(value)


@st.composite
def corner_rows(draw, scored):
    """Fields of one valid row: sides exceed what any spelling rounds away."""
    xmin = draw(st.floats(-1e3, 1e3))
    ymin = draw(st.floats(-1e3, 1e3))
    xmax = xmin + draw(st.floats(1e-2, 700.0))
    ymax = ymin + draw(st.floats(1e-2, 700.0))
    fields = [draw(IDS)] + [draw(number_text(v)) for v in (xmin, ymin, xmax, ymax)]
    if scored:
        fields.append(draw(number_text(draw(st.floats(0.0, 1e4)))))
    elif draw(st.booleans()):
        fields.append(draw(st.sampled_from(["0.5", "junk", ""])))
    return fields


@st.composite
def csv_lines(draw, scored, min_rows=0):
    """Row field lists interleaved with blank and whitespace-only lines (as strings)."""
    lines = draw(st.lists(corner_rows(scored), min_size=min_rows, max_size=30))
    for _ in range(draw(st.integers(0, 4))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(["", "  ", "\t \t"])))
    return lines


def corrupt(draw, fields, scored):
    """Break one row in one of the ways the readers must reject."""
    kind = draw(st.sampled_from(["fields", "text", "nonfinite", "zero", "negative", "score"]))
    fields = list(fields)
    col = draw(st.integers(1, 4))
    if kind == "fields":
        return fields + ["1", "2"] if draw(st.booleans()) else fields[:3]
    if kind == "text":
        fields[col] = draw(st.sampled_from(["abc", "0x10", "", "1e", "1__0", "--1"]))
    elif kind == "nonfinite":
        fields[col] = draw(st.sampled_from(["nan", "inf", "-Infinity", "1e400"]))
    elif kind == "zero":
        fields[3] = fields[1]
    elif kind == "negative":
        fields[2], fields[4] = fields[4], fields[2]
    elif scored:
        fields[5] = draw(st.sampled_from(["-1.5", "-1e-300", "nan", "inf"]))
    else:
        fields[1] = "-inf"
    return fields


def write_lines(path, lines, newline, final_newline=True):
    text = newline.join(line if isinstance(line, str) else ",".join(line) for line in lines)
    path.write_bytes((text + (newline if final_newline and lines else "")).encode("utf-8"))


@pytest.fixture(scope="module")
def propose_sized_csv(tmp_path_factory):
    """A proposals file grouped by image: 32 images of 3,072 rows at full precision, as propose writes."""
    path = str(tmp_path_factory.mktemp("reader") / "proposals.csv")
    rng = np.random.default_rng(0)
    write_corner_csv(path, {
        f"img-{i}": np.column_stack([rng.uniform(50, 100, (3072, 2)), rng.uniform(1, 50, (3072, 2)),
                                     rng.uniform(0, 1e3, 3072)])
        for i in range(32)
    })
    return path


def traced_read(path, **kwargs):
    """Traced peak bytes of read_corner_csv(path, **kwargs), and its result."""
    tracemalloc.start()
    try:
        result = read_corner_csv(path, **kwargs)
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


IO_PROPERTY = settings(
    max_examples=200, deadline=None, database=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)


class TestCornerCsvOracle:
    @IO_PROPERTY
    @given(st.data(), st.booleans(), NEWLINES, st.booleans(), READ_BYTES)
    def test_valid_files_match_oracle(self, tmp_path, data, scored, newline, final_newline, read_bytes):
        lines = data.draw(csv_lines(scored))
        path = tmp_path / "rows.csv"
        write_lines(path, lines, newline, final_newline)
        with mock.patch.object(proposals, "_READ_BYTES", read_bytes):
            got = reader_outcome(str(path), scored)
        assert got == oracle_outcome(str(path), scored)
        assert got[0] == "ok"

    @IO_PROPERTY
    @given(st.data(), st.booleans(), NEWLINES, READ_BYTES)
    def test_corrupt_files_match_oracle(self, tmp_path, data, scored, newline, read_bytes):
        lines = data.draw(csv_lines(scored, min_rows=1))
        rows = [i for i, line in enumerate(lines) if not isinstance(line, str)]
        for i in data.draw(st.lists(st.sampled_from(rows), min_size=1, max_size=2, unique=True)):
            lines[i] = corrupt(data.draw, lines[i], scored)
        path = tmp_path / "rows.csv"
        write_lines(path, lines, newline)
        with mock.patch.object(proposals, "_READ_BYTES", read_bytes):
            got = reader_outcome(str(path), scored)
        want = oracle_outcome(str(path), scored)
        assert got == want
        assert want[0] == "error" or not scored

    @IO_PROPERTY
    @given(st.data(), st.booleans(), st.booleans(), READ_BYTES, st.integers(1, 40))
    def test_limit_keeps_each_images_first_rows(self, tmp_path, data, scored, final_newline, read_bytes, limit):
        # Ids interleave at random and files hold up to 30 rows, so limits
        # fall inside, at and beyond an image's rows, counted across blocks.
        lines = data.draw(csv_lines(scored))
        path = tmp_path / "rows.csv"
        write_lines(path, lines, "\n", final_newline)
        with mock.patch.object(proposals, "_READ_BYTES", read_bytes):
            got = reader_outcome(str(path), scored, limit)
            full = reader_outcome(str(path), scored)
        assert got == first_rows(full, limit)
        assert got[0] == "ok"

    @IO_PROPERTY
    @given(st.data(), st.booleans(), READ_BYTES, st.integers(1, 4))
    def test_limit_reports_the_same_first_bad_line(self, tmp_path, data, scored, read_bytes, limit):
        lines = data.draw(csv_lines(scored, min_rows=1))
        rows = [i for i, line in enumerate(lines) if not isinstance(line, str)]
        for i in data.draw(st.lists(st.sampled_from(rows), min_size=1, max_size=2, unique=True)):
            lines[i] = corrupt(data.draw, lines[i], scored)
        path = tmp_path / "rows.csv"
        write_lines(path, lines, "\n")
        with mock.patch.object(proposals, "_READ_BYTES", read_bytes):
            assert reader_outcome(str(path), scored, limit) == first_rows(reader_outcome(str(path), scored), limit)

    @pytest.mark.parametrize("read_bytes", [1, 60, 150, proposals._READ_BYTES])
    @pytest.mark.parametrize("bad, message", [
        (["b", "0", "0", "1", "1", "-2"], "line 5: proposal score must be finite and >= 0, got -2.0"),
        (["a", "0", "0", "nan", "1", "1"], "line 5: box fields must be finite"),
        (["b", "0", "0", "1"], "line 5: expected 6 fields, got 4"),
    ])
    def test_bad_line_past_every_limit_is_reported(self, tmp_path, read_bytes, bad, message):
        # Each image's first row is its last kept one; line 5 is still checked.
        lines = [["a", "0", "0", "1", "1", "3"], ["b", "0", "0", "2", "2", "2"], ["a", "1", "1", "2", "2", "1"],
                 ["b", "1", "1", "3", "3", "1"], bad, ["a", "0", "0", "1", "1", "0"]]
        path = tmp_path / "rows.csv"
        write_lines(path, lines, "\n")
        with mock.patch.object(proposals, "_READ_BYTES", read_bytes):
            got = reader_outcome(str(path), True, 1)
            assert got == reader_outcome(str(path), True) == oracle_outcome(str(path), True)
        assert got[0] == "error" and message in got[1]

    def test_limit_must_be_positive(self, tmp_path):
        with pytest.raises(ValueError, match="limit must be >= 1, got 0"):
            read_corner_csv(str(tmp_path / "rows.csv"), limit=0)

    @pytest.mark.parametrize("images", [8, 40])
    def test_limited_read_memory_does_not_grow_with_rows(self, tmp_path, images):
        # 3,072 rows per image, as propose writes, of which 10 are kept: the
        # traced peak is the kept rows plus one block's parsing, whatever
        # the rows per image.
        path = tmp_path / "rows.csv"
        with open(path, "w", encoding="utf-8") as f:
            for i in range(images):
                f.write(f"img-{i},{i}.5,2.25,{i + 3}.75,40.0,{i}.125\n" * 3072)
        read_bytes = 1 << 16
        with mock.patch.object(proposals, "_READ_BYTES", read_bytes):
            peak, kept = traced_read(str(path), limit=10)
        assert [len(rows) for rows in kept.values()] == [10] * images
        assert peak < sum(rows.nbytes for rows in kept.values()) + 32 * read_bytes

    def test_block_parse_memory_is_bounded(self, propose_sized_csv):
        # One row per image is kept, so the traced peak is one block's parse:
        # its lines, fields and float conversion, at the real block size.
        peak, kept = traced_read(propose_sized_csv, limit=1)
        assert len(kept) == 32 and os.path.getsize(propose_sized_csv) >= 4 << 20
        assert peak < 4e6

    def test_grouped_read_holds_its_rows_once(self, propose_sized_csv):
        # A file grouped by image needs no permuted copy: the rows grow in
        # place by doubling beside their int32 image codes, so the peak is
        # at most twice their bytes plus one block's parse.
        with mock.patch.object(proposals, "_READ_BYTES", 1 << 14):
            block, _ = traced_read(propose_sized_csv, limit=1)
            peak, rows = traced_read(propose_sized_csv)
        result = sum(r.nbytes for r in rows.values())
        assert result == 32 * 3072 * 5 * 8
        codes = 32 * 3072 * 4
        assert peak <= 2 * (result + codes) + block

    @pytest.mark.parametrize("token", ["1_0", "\uff11\uff12", "\u0661\u0662", "+.5", "5.", " 7 ", "1e-400", "-0"])
    def test_float_spellings_match_oracle(self, tmp_path, token):
        path = tmp_path / "rows.csv"
        write_lines(path, [["a", token, token, "100", "100", "1"], ["a", "0", "0", "1", "1", token]], "\n")
        got = reader_outcome(str(path), True)
        assert got == oracle_outcome(str(path), True)
        assert got[0] == "ok"

    @pytest.mark.parametrize("read_bytes", [1, 60, 150])
    def test_first_bad_line_wins_across_blocks(self, tmp_path, read_bytes):
        # Line 3 has a negative side and line 5 the wrong field count: with
        # one, two or several lines per block, line 3 is reported.
        good = ["a", "0", "0", "1", "1", "1"]
        lines = [good, good, ["a", "5", "0", "1", "1", "1"], good, ["a", "1"], good]
        path = tmp_path / "rows.csv"
        write_lines(path, lines, "\n")
        with mock.patch.object(proposals, "_READ_BYTES", read_bytes):
            got = reader_outcome(str(path), True)
        assert got == oracle_outcome(str(path), True)
        assert got[1].endswith("line 3: box sides must be positive, got w=-4.0, h=1.0")

    def test_field_count_error_after_numeric_error_in_block(self, tmp_path):
        lines = [["a", "x", "0", "1", "1", "1"], ["a", "0", "0", "1", "1"]]
        path = tmp_path / "rows.csv"
        write_lines(path, lines, "\n")
        got = reader_outcome(str(path), True)
        assert got == oracle_outcome(str(path), True)
        assert got[1].endswith("line 1: non-numeric field")

    def test_not_utf8_is_a_data_error(self, tmp_path):
        path = tmp_path / "rows.csv"
        path.write_bytes(b"a,0,0,1,1,1\nimg\xff,1,2,3,4,5\n")
        with pytest.raises(DataFormatError, match="not valid UTF-8 after line 0"):
            read_corner_csv(str(path))

    def test_missing_file_is_a_data_error(self, tmp_path):
        with pytest.raises(DataFormatError, match="No such file"):
            read_corner_csv(str(tmp_path / "missing.csv"))

    def test_empty_file(self, tmp_path):
        path = tmp_path / "rows.csv"
        path.write_text("\n  \n")
        assert read_corner_csv(str(path)) == {} == oracle_load_proposals(str(path))

    def test_reader_groups_rows_by_image(self, tmp_path):
        path = tmp_path / "rows.csv"
        write_lines(path, [["b", "0", "0", "2", "4", "3"], ["a", "1", "1", "2", "2", "0"], ["b", "1", "1", "3", "3", "2"]], "\n")
        want = {
            "b": [(Box(1, 2, 2, 4), 3.0), (Box(2, 2, 2, 2), 2.0)],
            "a": [(Box(1.5, 1.5, 1, 1), 0.0)],
        }
        assert oracle_load_proposals(str(path)) == want
        loaded = read_corner_csv(str(path))
        assert list(loaded) == ["b", "a"]
        assert {i: r.tolist() for i, r in loaded.items()} == {i: proposal_rows(p).tolist() for i, p in want.items()}


def oracle_save_proposals(path, by_image):
    with open(path, "w", encoding="utf-8") as f:
        for image_id, props in by_image.items():
            for b, score in props:
                xmin, ymin, xmax, ymax = (
                    b.x - 0.5 * b.w,
                    b.y - 0.5 * b.h,
                    b.x + 0.5 * b.w,
                    b.y + 0.5 * b.h,
                )
                f.write(f"{image_id},{xmin!r},{ymin!r},{xmax!r},{ymax!r},{score!r}\n")


DYADIC = st.integers(-8000, 8000).map(lambda k: k / 8)
DYADIC_SIDE = st.integers(1, 4000).map(lambda k: k / 4)
FLOAT_PROPOSALS = st.tuples(
    st.builds(Box, st.floats(-1e3, 1e3), st.floats(-1e3, 1e3), SIDES, SIDES), st.floats(0.0, 1e4)
)


class TestCornerCsvRoundTrip:
    @IO_PROPERTY
    @given(st.dictionaries(IDS, st.lists(st.tuples(st.builds(Box, DYADIC, DYADIC, DYADIC_SIDE, DYADIC_SIDE),
                                                   st.floats(0.0, 1e4)), max_size=20)))
    def test_save_load_round_trip_exact(self, tmp_path, by_image):
        # Corner and center arithmetic is exact on this grid, so nothing may change.
        path = str(tmp_path / "props.csv")
        write_corner_csv(path, {i: proposal_rows(p) for i, p in by_image.items()})
        loaded = read_corner_csv(path)
        assert {i: row_bits(r) for i, r in loaded.items()} == {i: bits(p) for i, p in by_image.items() if p}

    @IO_PROPERTY
    @given(st.dictionaries(IDS, st.lists(FLOAT_PROPOSALS, max_size=20)))
    def test_save_matches_oracle_bytes(self, tmp_path, by_image):
        write_corner_csv(str(tmp_path / "new.csv"), {i: proposal_rows(p) for i, p in by_image.items()})
        oracle_save_proposals(str(tmp_path / "old.csv"), by_image)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
        assert outcome(read_corner_csv, str(tmp_path / "new.csv")) == oracle_outcome(str(tmp_path / "new.csv"), True)

    def test_write_boxes_without_scores(self, tmp_path):
        path = str(tmp_path / "boxes.csv")
        write_corner_csv(path, {"a": np.array([[1.0, 2.0, 2.0, 4.0], [0.1, 0.2, 0.3, 0.7]])})
        assert open(path).read().splitlines() == [
            "a,0.0,0.0,2.0,4.0",
            f"a,{0.1 - 0.15!r},{0.2 - 0.35!r},{0.1 + 0.15!r},{0.2 + 0.35!r}",
        ]
        assert outcome(lambda p: read_corner_csv(p, scored=False), path) == oracle_outcome(path, False)
