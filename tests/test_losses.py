import math

import numpy as np
import pytest

from boxregress.boxes import apply_offsets_array, encode_offsets_array, iou
from boxregress.losses import LOSS_KINDS, LossConfig, iou_loss_terms_batch, loss_terms, smooth_l1_terms_batch
from boxregress.model import _build_pool
from boxregress.sampling import SamplerConfig

CFG = LossConfig()


def rows(*boxes):
    return np.array(boxes, dtype=np.float64).reshape(-1, 4)


def iou_loss(u, v, cfg=CFG):
    """(N,) IoU losses of boxes u against v, through the batch loss with zero offsets."""
    u, v = rows(u), rows(v)
    return iou_loss_terms_batch(np.zeros_like(u), u, v, cfg)[0]


def terms(pred, input_box, gt, cfg=CFG):
    """Loss, gradient and fallback flag of one row."""
    loss, grad, fallback = iou_loss_terms_batch(rows(pred), rows(input_box), rows(gt), cfg)
    return loss[0], grad[0], bool(fallback[0])


def central_diff(pred, input_box, gt, cfg, h=1e-5):
    grad = np.zeros(4)
    for i in range(4):
        plus, minus = np.array(pred, dtype=np.float64), np.array(pred, dtype=np.float64)
        plus[i] += h
        minus[i] -= h
        grad[i] = (terms(plus, input_box, gt, cfg)[0] - terms(minus, input_box, gt, cfg)[0]) / (2 * h)
    return grad


def smooth_sample(rng, cfg):
    """Random (pred, input_box, gt) rows away from the loss's kinks."""
    while True:
        b = np.array([rng.uniform(0, 10), rng.uniform(0, 10), rng.uniform(1, 5), rng.uniform(1, 5)])
        g = np.array([
            b[0] + rng.uniform(-0.4, 0.4) * b[2],
            b[1] + rng.uniform(-0.4, 0.4) * b[3],
            b[2] * math.exp(rng.uniform(-0.4, 0.4)),
            b[3] * math.exp(rng.uniform(-0.4, 0.4)),
        ])
        pred = encode_offsets_array(b[None], g[None])[0] + rng.uniform(-0.2, 0.2, 4)
        rx, ry, rw, rh = apply_offsets_array(b[None], pred[None])[0]
        gx, gy, gw, gh = g
        iw = min(rx + rw / 2, gx + gw / 2) - max(rx - rw / 2, gx - gw / 2)
        ih = min(ry + rh / 2, gy + gh / 2) - max(ry - rh / 2, gy - gh / 2)
        edge_margin = min(
            abs((rx + rw / 2) - (gx + gw / 2)),
            abs((rx - rw / 2) - (gx - gw / 2)),
            abs((ry + rh / 2) - (gy + gh / 2)),
            abs((ry - rh / 2) - (gy - gh / 2)),
        )
        if iw > 1e-2 and ih > 1e-2 and edge_margin > 1e-3:
            return pred, b, g


def smooth_l1(pred, target):
    loss, grad = smooth_l1_terms_batch(rows(pred), rows(target))
    return loss[0], grad[0]


class TestIouLoss:
    def test_perfect_overlap(self):
        b = (0, 0, 2, 2)
        assert abs(iou_loss(b, b)[0] - -math.log1p(1e-6)) < 1e-15

    def test_zero_overlap_floor(self):
        val = iou_loss((0, 0, 2, 2), (10, 10, 2, 2))[0]
        assert abs(val - -math.log(1e-6)) < 1e-12
        assert abs(val - 13.815510557964274) < 1e-9

    def test_one_seventh_pair(self):
        # epsilon -> 0 limit of the hand-computed IoU example
        val = iou_loss((0, 0, 2, 2), (1, 1, 2, 2), LossConfig(epsilon=1e-300))[0]
        assert abs(val - math.log(7)) < 1e-12

    def test_floor_and_equality_condition(self):
        rng = np.random.default_rng(0)
        floor = -math.log1p(CFG.epsilon)
        pairs = [
            [[rng.uniform(0, 5), rng.uniform(0, 5), rng.uniform(0.5, 3), rng.uniform(0.5, 3)] for _ in range(2)]
            for _ in range(200)
        ]
        u, v = rows([p[0] for p in pairs]), rows([p[1] for p in pairs])
        losses = iou_loss(u, v)
        assert (losses >= floor - 1e-15).all()
        assert np.array_equal(losses == floor, iou(u, v) == 1.0)


class TestSmoothL1:
    def test_zero_at_target(self):
        d = (0.3, -0.2, 0.1, 0)
        assert smooth_l1(d, d)[0] == 0.0

    def test_linear_branch(self):
        assert abs(smooth_l1((2, 0, 0, 0), (0, 0, 0, 0))[0] - 1.5) < 1e-15

    def test_quadratic_branch(self):
        assert abs(smooth_l1((0.5, 0, 0, 0), (0, 0, 0, 0))[0] - 0.125) < 1e-15

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        h = 1e-6
        for _ in range(100):
            pred = rng.uniform(-2, 2, 4)
            target = rng.uniform(-2, 2, 4)
            diffs = pred - target
            if np.any(np.abs(np.abs(diffs) - 1.0) < 1e-4):
                continue
            grad = smooth_l1(pred, target)[1]
            for i in range(4):
                plus, minus = pred.copy(), pred.copy()
                plus[i] += h
                minus[i] -= h
                fd = (smooth_l1(plus, target)[0] - smooth_l1(minus, target)[0]) / (2 * h)
                assert abs(grad[i] - fd) < 1e-6


class TestIouLossGrad:
    def test_perfect_prediction_gradient_vanishes(self):
        # Exactly representable roundtrips: equal sizes, dyadic shifts.
        cases = [
            ((0, 0, 2, 2), (1, -1, 2, 2)),
            ((2, 4, 8, 4), (4, 3, 8, 4)),
            ((0, 0, 4, 4), (0, 0, 4, 4)),
        ]
        for b, g in cases:
            pred = encode_offsets_array(rows(b), rows(g))[0]
            assert np.array_equal(apply_offsets_array(rows(b), pred[None]), rows(g))  # exact roundtrip by construction
            _, grad, fb = terms(pred, b, g)
            assert not fb
            assert np.max(np.abs(grad)) < 1e-9
            fd = central_diff(pred, b, g, CFG)
            assert np.max(np.abs(grad - fd)) < 1e-4

    def test_matches_finite_differences_on_smooth_samples(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            pred, b, g = smooth_sample(rng, CFG)
            _, grad, fb = terms(pred, b, g)
            assert not fb
            fd = central_diff(pred, b, g, CFG)
            for an, num in zip(grad, fd):
                scale = max(abs(an), abs(num))
                if scale < 1e-6:  # zero component, relative error undefined
                    assert abs(an - num) < 1e-6
                else:
                    assert abs(an - num) / scale < 1e-3

    def test_disjoint_falls_back_to_smooth_l1(self):
        b = (0, 0, 2, 2)
        g = (50, 50, 2, 2)
        pred = np.zeros(4)  # refined box = b, disjoint from g
        _, grad, fb = terms(pred, b, g)
        assert fb
        expected = smooth_l1(pred, encode_offsets_array(rows(b), rows(g))[0])[1]
        assert np.array_equal(grad, expected)

    def test_batch_matches_scalar(self):
        # Rows are independent: a batch equals its rows run one at a time.
        rng = np.random.default_rng(3)
        preds, bs, gs = [], [], []
        for _ in range(40):
            pred, b, g = smooth_sample(rng, CFG)
            preds.append(pred)
            bs.append(b)
            gs.append(g)
        # include a disjoint row
        preds.append(np.zeros(4))
        bs.append([0, 0, 2, 2])
        gs.append([50, 50, 2, 2])
        losses, grads, fallback = iou_loss_terms_batch(
            np.array(preds), np.array(bs), np.array(gs), CFG
        )
        for i in range(len(preds)):
            l, g_, fb = terms(preds[i], bs[i], gs[i])
            assert losses[i] == l
            assert np.array_equal(grads[i], g_)
            assert fallback[i] == fb

    def test_monotone_along_each_coordinate(self):
        # Loss never increases as one coordinate moves toward the optimum.
        b = rows((1, 2, 4, 3))
        g = rows((2, 1.5, 5, 4))
        target = encode_offsets_array(b, g)[0]
        for i in range(4):
            for sign in (-1, 1):
                ts = np.linspace(0.5, 0.0, 60)
                preds = np.tile(target, (len(ts), 1))
                preds[:, i] += sign * ts
                vals, _, _ = iou_loss_terms_batch(preds, np.repeat(b, len(ts), 0), np.repeat(g, len(ts), 0), CFG)
                diffs = np.diff(vals)
                assert (diffs <= 1e-12).all()


def matched_mean_loss(inputs, gts, cfg=CFG):
    """Training's objective at fixed offsets: each input box is matched to
    its best-overlapping ground truth, as the training pool matches them,
    and the IoU losses of the refined boxes are averaged."""
    boxes = rows([b for b, _ in inputs])
    preds = rows([p for _, p in inputs])
    gts = rows(gts)
    matched = gts[iou(boxes[:, None], gts[None]).argmax(axis=1)]
    return float(iou_loss_terms_batch(preds, boxes, matched, cfg)[0].mean())


class TestBatchIouLoss:
    def test_single_reduces_to_matched_pair(self):
        b = (0, 0, 2, 2)
        gts = [(10, 10, 2, 2), (0.5, 0, 2, 2)]
        pred = (0.05, 0, 0, 0)
        expected = iou_loss(apply_offsets_array(rows(b), rows(pred)), gts[1])[0]
        assert matched_mean_loss([(b, pred)], gts) == expected

    def test_mean_of_two(self):
        b1, b2 = (0, 0, 2, 2), (5, 5, 3, 3)
        g = [(0.5, 0, 2, 2)]
        p = (0, 0, 0, 0)
        l1 = iou_loss(b1, g[0])[0]
        l2 = iou_loss(b2, g[0])[0]
        assert abs(matched_mean_loss([(b1, p), (b2, p)], g) - (l1 + l2) / 2) < 1e-15

    def test_permutation_invariant(self):
        rng = np.random.default_rng(4)
        inputs = []
        for _ in range(10):
            b = (rng.uniform(0, 5), rng.uniform(0, 5), rng.uniform(1, 3), rng.uniform(1, 3))
            inputs.append((b, rng.uniform(-0.2, 0.2, 4)))
        gts = [(1, 1, 2, 2), (4, 4, 2, 2)]
        v1 = matched_mean_loss(inputs, gts)
        v2 = matched_mean_loss(list(reversed(inputs)), gts)
        assert abs(v1 - v2) < 1e-12

    def test_empty_rejected(self):
        # No training boxes, or no ground truth to match them to.
        with pytest.raises(ValueError):
            _build_pool([], SamplerConfig(), np.random.default_rng(0))
        with pytest.raises(ValueError):
            matched_mean_loss([((0, 0, 1, 1), (0, 0, 0, 0))], [])


class TestConfigValidation:
    @pytest.mark.parametrize("kwargs", [
        {"epsilon": 0}, {"epsilon": math.nan}, {"epsilon": math.inf},
        {"kind": "huber"}, {"kind": "IOU"}, {"kind": ""},
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            LossConfig(**kwargs)

    def test_kinds(self):
        assert LOSS_KINDS == ("iou", "smooth_l1") and LossConfig().kind == "iou"


class TestLossTerms:
    # loss_terms against the two kernels it picks between, on rows with
    # overlapping, disjoint and exactly matching refined boxes.
    def sample(self):
        rng = np.random.default_rng(5)
        boxes = np.column_stack([rng.uniform(0, 50, (30, 2)), rng.uniform(2, 20, (30, 2))])
        gts = boxes * rng.uniform(0.8, 1.2, (30, 4))
        gts[:3, :2] += 500.0
        preds = rng.normal(0, 0.3, (30, 4))
        preds[3] = encode_offsets_array(boxes[3:4], gts[3:4])[0]
        return preds, boxes, gts

    def test_iou(self):
        preds, boxes, gts = self.sample()
        got = loss_terms(preds, boxes, gts, LossConfig(kind="iou", epsilon=1e-4))
        want = iou_loss_terms_batch(preds, boxes, gts, LossConfig(epsilon=1e-4))
        assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))
        assert want[2][:3].all()

    def test_smooth_l1(self):
        preds, boxes, gts = self.sample()
        loss, grad, fallback = loss_terms(preds, boxes, gts, LossConfig(kind="smooth_l1"))
        want_loss, want_grad = smooth_l1_terms_batch(preds, encode_offsets_array(boxes, gts))
        assert loss.tobytes() == want_loss.tobytes() and grad.tobytes() == want_grad.tobytes()
        assert fallback.dtype == bool and fallback.shape == (30,) and not fallback.any()
