"""Axis-aligned box algebra in center parameterization.

A box is (x, y, w, h) with (x, y) the center, in raster units. Batches
of boxes are float64 arrays whose last axis holds those four fields;
the `Box` value exists for ground truths and the public API edges.
Corner form (xmin, ymin, xmax, ymax) exists only at file-format
boundaries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np


@dataclass(frozen=True, slots=True)
class Box:
    """Axis-aligned rectangle: center (x, y), positive sides (w, h)."""

    x: float
    y: float
    w: float
    h: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.x, self.y, self.w, self.h))):
            raise ValueError(f"box fields must be finite, got {self}")
        if self.w <= 0.0 or self.h <= 0.0:
            raise ValueError(f"box sides must be positive, got w={self.w}, h={self.h}")

    @property
    def area(self) -> float:
        return self.w * self.h


def boxes_to_array(boxes: Sequence[Box]) -> np.ndarray:
    """(N, 4) center-form rows of a sequence of boxes."""
    out = np.empty((len(boxes), 4), dtype=np.float64)
    for i, b in enumerate(boxes):
        out[i, 0] = b.x
        out[i, 1] = b.y
        out[i, 2] = b.w
        out[i, 3] = b.h
    return out


def _extents(a: np.ndarray):
    x, y, half_w, half_h = a[..., 0], a[..., 1], 0.5 * a[..., 2], 0.5 * a[..., 3]
    x_lo, x_hi, y_lo, y_hi = x - half_w, x + half_w, y - half_h, y + half_h
    return x_lo, x_hi, y_lo, y_hi, (x_hi - x_lo) * (y_hi - y_lo)


def iou(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Intersection over union of center-form boxes, broadcast over the leading axes.

    a and b are (..., 4) arrays; iou(a, b) pairs matched rows and
    iou(a[:, None], b[None]) is the (N, M) matrix. Values lie in [0, 1]:
    0 for disjoint or edge-touching boxes, exactly 1 for identical ones,
    and iou(a, b) == iou(b, a) bitwise. Corner extents and areas are
    computed once per input row, before broadcasting, so the bounds
    hold exactly in floating point.
    """
    ax_lo, ax_hi, ay_lo, ay_hi, area_a = _extents(a)
    bx_lo, bx_hi, by_lo, by_hi, area_b = _extents(b)
    iw = np.minimum(ax_hi, bx_hi) - np.maximum(ax_lo, bx_lo)
    ih = np.minimum(ay_hi, by_hi) - np.maximum(ay_lo, by_lo)
    inter = np.maximum(iw, 0.0) * np.maximum(ih, 0.0)
    return inter / (area_a + area_b - inter)


def apply_offsets_array(boxes: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Transform (..., 4) boxes by offsets (tx, ty, tw, th) of the same shape.

    Centers shift by t * side, sides scale by exp(t). Overflow produces
    non-finite rows rather than raising; callers check the result.
    """
    out = np.empty_like(boxes)
    with np.errstate(over="ignore"):
        out[..., 0] = boxes[..., 0] + offsets[..., 0] * boxes[..., 2]
        out[..., 1] = boxes[..., 1] + offsets[..., 1] * boxes[..., 3]
        out[..., 2] = boxes[..., 2] * np.exp(offsets[..., 2])
        out[..., 3] = boxes[..., 3] * np.exp(offsets[..., 3])
    return out


def encode_offsets_array(boxes: np.ndarray, gts: np.ndarray) -> np.ndarray:
    """(N, 4) offsets that map matched boxes onto gts; the inverse of apply_offsets_array."""
    out = np.empty_like(boxes)
    out[:, 0] = (gts[:, 0] - boxes[:, 0]) / boxes[:, 2]
    out[:, 1] = (gts[:, 1] - boxes[:, 1]) / boxes[:, 3]
    out[:, 2] = np.log(gts[:, 2] / boxes[:, 2])
    out[:, 3] = np.log(gts[:, 3] / boxes[:, 3])
    return out
