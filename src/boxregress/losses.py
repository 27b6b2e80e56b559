"""IoU regression loss, its analytic gradient, and the smooth-L1 baseline.

The loss between a refined box and its target is -ln(IoU + epsilon).
Gradients are taken with respect to the predicted offsets, i.e. through
the box transform and the IoU computation by the chain rule. At points
where the intersection extent switches between box edges the gradient
uses the midpoint of the two one-sided derivatives, so exact symmetric
optima (refined box equal to the target) get a zero gradient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .boxes import apply_offsets_array, encode_offsets_array


# The loss kinds train can use: the IoU loss, or the smooth-L1 baseline on offsets.
LOSS_KINDS = ("iou", "smooth_l1")


@dataclass(frozen=True)
class LossConfig:
    kind: str = "iou"      # one of LOSS_KINDS
    epsilon: float = 1e-6  # stabilizer inside the logarithm

    def __post_init__(self):
        if self.kind not in LOSS_KINDS:
            raise ValueError(f"loss must be one of {LOSS_KINDS}, got {self.kind!r}")
        if not (math.isfinite(self.epsilon) and self.epsilon > 0):
            raise ValueError(f"epsilon must be finite and positive, got {self.epsilon}")


def smooth_l1_terms_batch(preds: np.ndarray, targets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rowwise smooth-L1 loss and gradient between (N, 4) offset arrays, quadratic below |d| = 1."""
    d = preds - targets
    quad = np.abs(d) < 1.0
    loss = np.where(quad, 0.5 * d * d, np.abs(d) - 0.5).sum(axis=1)
    grad = np.where(quad, d, np.sign(d))
    return loss, grad


def loss_terms(
    preds: np.ndarray, input_boxes: np.ndarray, gts: np.ndarray, cfg: LossConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(loss, grad, fallback) of cfg.kind, shaped as iou_loss_terms_batch returns them; smooth-L1 never falls back."""
    if cfg.kind == "iou":
        return iou_loss_terms_batch(preds, input_boxes, gts, cfg)
    loss, grad = smooth_l1_terms_batch(preds, encode_offsets_array(input_boxes, gts))
    return loss, grad, np.zeros(len(preds), dtype=bool)


def _edge_weight(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # Subgradient of min(a, b) in a: 1 where a selects, 0 where b does,
    # midpoint at exact ties.
    return np.where(a < b, 1.0, np.where(a == b, 0.5, 0.0))


def iou_loss_terms_batch(
    preds: np.ndarray,
    input_boxes: np.ndarray,
    gts: np.ndarray,
    cfg: LossConfig = LossConfig(),
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """IoU loss and offset gradient for matched rows.

    preds are (N, 4) offsets, input_boxes and gts (N, 4) center-form
    boxes. Returns (loss, grad, fallback) of shapes (N,), (N, 4), (N,).
    Rows whose refined box is disjoint from its target get the zero IoU
    loss value but the smooth-L1 gradient toward the encoded target,
    with the fallback flag set.
    """
    refined = apply_offsets_array(input_boxes, preds)
    if not np.isfinite(refined).all():
        raise OverflowError("refined boxes out of numeric range")

    rx_lo = refined[:, 0] - 0.5 * refined[:, 2]
    rx_hi = refined[:, 0] + 0.5 * refined[:, 2]
    ry_lo = refined[:, 1] - 0.5 * refined[:, 3]
    ry_hi = refined[:, 1] + 0.5 * refined[:, 3]
    gx_lo = gts[:, 0] - 0.5 * gts[:, 2]
    gx_hi = gts[:, 0] + 0.5 * gts[:, 2]
    gy_lo = gts[:, 1] - 0.5 * gts[:, 3]
    gy_hi = gts[:, 1] + 0.5 * gts[:, 3]

    iw = np.minimum(rx_hi, gx_hi) - np.maximum(rx_lo, gx_lo)
    ih = np.minimum(ry_hi, gy_hi) - np.maximum(ry_lo, gy_lo)
    overlap = (iw > 0.0) & (ih > 0.0)

    inter = np.where(overlap, iw * ih, 0.0)
    union = refined[:, 2] * refined[:, 3] + gts[:, 2] * gts[:, 3] - inter
    iou_val = inter / union
    loss = -np.log(iou_val + cfg.epsilon)

    # Which box edge bounds the intersection on each side (0.5 at ties).
    wx_hi = _edge_weight(rx_hi, gx_hi)
    wx_lo = _edge_weight(gx_lo, rx_lo)
    wy_hi = _edge_weight(ry_hi, gy_hi)
    wy_lo = _edge_weight(gy_lo, ry_lo)

    # IoU = I / (A_r + A_g - I):
    # dIoU/dq = (dI/dq * (U + I) - I * dA_r/dq) / U^2, then
    # dL/dq = -dIoU/dq / (IoU + eps).
    scale = -1.0 / ((iou_val + cfg.epsilon) * union * union)
    upi = union + inter
    dl_rx = scale * ih * (wx_hi - wx_lo) * upi
    dl_ry = scale * iw * (wy_hi - wy_lo) * upi
    dl_rw = scale * (ih * 0.5 * (wx_hi + wx_lo) * upi - inter * refined[:, 3])
    dl_rh = scale * (iw * 0.5 * (wy_hi + wy_lo) * upi - inter * refined[:, 2])

    # Chain through the box transform to the offsets.
    grad = np.column_stack(
        [
            dl_rx * input_boxes[:, 2],
            dl_ry * input_boxes[:, 3],
            dl_rw * refined[:, 2],
            dl_rh * refined[:, 3],
        ]
    )

    fallback = ~overlap
    if fallback.any():
        targets = encode_offsets_array(input_boxes[fallback], gts[fallback])
        grad[fallback] = smooth_l1_terms_batch(preds[fallback], targets)[1]
    return loss, grad, fallback
