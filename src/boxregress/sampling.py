"""Randomized training-box generation.

Input boxes for training are produced by perturbing ground-truth boxes
with uniform offsets and rejecting samples that overlap their source box
too little.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .boxes import Box, apply_offsets_array, iou


class SampleBudgetWarning(RuntimeWarning):
    """Rejection sampling ran out of attempts before filling its quota."""


@dataclass(frozen=True)
class SamplerConfig:
    """Perturbation ranges and the rejection threshold.

    tx, ty are drawn from U(-alpha, alpha); tw, th from
    U(ln(1 - beta), ln(1 + beta)). Samples with IoU < t against their
    source ground truth are discarded.
    """

    alpha: float = 0.35
    beta: float = 0.5
    t: float = 0.3
    boxes_per_gt: int = 50
    max_attempts_per_box: int = 1000

    def __post_init__(self):
        if self.alpha < 0:
            raise ValueError(f"alpha must be >= 0, got {self.alpha}")
        if not 0 <= self.beta < 1:
            raise ValueError(f"beta must be in [0, 1), got {self.beta}")
        if not 0 <= self.t < 1:
            raise ValueError(f"t must be in [0, 1), got {self.t}")
        if self.boxes_per_gt < 1:
            raise ValueError(f"boxes_per_gt must be >= 1, got {self.boxes_per_gt}")
        if self.max_attempts_per_box < 1:
            raise ValueError(f"max_attempts_per_box must be >= 1, got {self.max_attempts_per_box}")

    def _bounds(self) -> tuple[np.ndarray, np.ndarray]:
        lo = math.log1p(-self.beta)
        hi = math.log1p(self.beta)
        return (
            np.array([-self.alpha, -self.alpha, lo, lo]),
            np.array([self.alpha, self.alpha, hi, hi]),
        )


def generate_training_boxes(g: Box, cfg: SamplerConfig, rng: np.random.Generator) -> np.ndarray:
    """(N, 4) center-form perturbed copies of g, each overlapping g with IoU >= cfg.t.

    Candidates are drawn in buffered blocks but consumed one attempt at a
    time, so each output slot gets at most max_attempts_per_box draws.
    Returns cfg.boxes_per_gt rows when the rejection rate allows;
    otherwise stops early with a SampleBudgetWarning. Accepted boxes are
    returned unmodified, in acceptance order.
    """
    low, high = cfg._bounds()
    g_row = np.array([[g.x, g.y, g.w, g.h]], dtype=np.float64)
    out = np.empty((cfg.boxes_per_gt, 4))
    n = 0
    attempts = 0  # draws spent on the current slot
    buf_ok = np.empty(0, dtype=bool)
    pos = 0
    while n < cfg.boxes_per_gt:
        if pos >= len(buf_ok):
            chunk = 4 * cfg.boxes_per_gt
            offs = rng.uniform(low, high, size=(chunk, 4))
            buf_boxes = apply_offsets_array(np.broadcast_to(g_row, (chunk, 4)), offs)
            buf_ok = iou(buf_boxes, g_row) >= cfg.t
            pos = 0
        if buf_ok[pos]:
            out[n] = buf_boxes[pos]
            n += 1
            attempts = 0
        else:
            attempts += 1
            if attempts >= cfg.max_attempts_per_box:
                warnings.warn(
                    f"gave up after {cfg.max_attempts_per_box} attempts per box: "
                    f"kept {n} of {cfg.boxes_per_gt} (t={cfg.t})",
                    SampleBudgetWarning,
                    stacklevel=2,
                )
                break
        pos += 1
    return out[:n]
