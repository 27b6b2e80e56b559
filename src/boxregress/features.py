"""Scene feature maps and RoI-Align pooling.

A feature map is a dense (channels, height, width) grid at a fixed
stride of 4 raster units per cell. The value at continuous feature-map
coordinate (u, v) is bilinear between the four surrounding cell centers
(cell (i, j) has its center at (j + 0.5, i + 0.5)); cells outside the
grid read as zero, so pooling is linear in the feature data and boxes
fully outside the map pool to all zeros.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Raster units covered by one feature-map cell.
FEATURE_STRIDE = 4.0


@dataclass(frozen=True)
class FeatureMap:
    data: np.ndarray  # (channels, height, width) float64

    def __post_init__(self):
        if self.data.ndim != 3:
            raise ValueError(f"feature data must be (channels, height, width), got shape {self.data.shape}")
        if min(self.data.shape) < 1:
            raise ValueError(f"feature dimensions must be >= 1, got shape {self.data.shape}")
        if not np.isfinite(self.data).all():
            raise ValueError("feature data contains non-finite entries")

    @property
    def channels(self) -> int:
        return self.data.shape[0]

    @property
    def height(self) -> int:
        return self.data.shape[1]

    @property
    def width(self) -> int:
        return self.data.shape[2]


def roi_align_many(fm: FeatureMap, boxes: np.ndarray, pool_size: int = 7) -> np.ndarray:
    """Pooled feature vectors for (N, 4) center-form boxes in feature-map coordinates.

    Each box is divided into a pool_size x pool_size grid and each cell
    is sampled once at its center. Returns (N, channels * pool_size**2),
    each row flattened channel-major.
    """
    if pool_size < 1:
        raise ValueError(f"pool_size must be >= 1, got {pool_size}")
    n = boxes.shape[0]
    c, h, w = fm.data.shape
    if n == 0:
        return np.zeros((0, c * pool_size * pool_size), dtype=np.float64)

    frac = (np.arange(pool_size, dtype=np.float64) + 0.5) / pool_size
    # Sample-point grids, shape (N, P) per axis.
    sx = (boxes[:, 0] - 0.5 * boxes[:, 2])[:, None] + frac[None, :] * boxes[:, 2][:, None]
    sy = (boxes[:, 1] - 0.5 * boxes[:, 3])[:, None] + frac[None, :] * boxes[:, 3][:, None]

    # (N, P, P): rows vary with y, columns with x.
    u = np.broadcast_to(sx[:, None, :], (n, pool_size, pool_size))
    v = np.broadcast_to(sy[:, :, None], (n, pool_size, pool_size))

    fu = u - 0.5
    fv = v - 0.5
    j0 = np.floor(fu).astype(np.int64)
    i0 = np.floor(fv).astype(np.int64)
    aj = fu - j0
    ai = fv - i0

    out = np.zeros((n, c, pool_size, pool_size), dtype=np.float64)
    for di, dj, wt in (
        (0, 0, (1 - ai) * (1 - aj)),
        (0, 1, (1 - ai) * aj),
        (1, 0, ai * (1 - aj)),
        (1, 1, ai * aj),
    ):
        ii = i0 + di
        jj = j0 + dj
        valid = (ii >= 0) & (ii < h) & (jj >= 0) & (jj < w)
        vals = fm.data[:, ii.clip(0, h - 1), jj.clip(0, w - 1)]  # (C, N, P, P)
        out += np.transpose(vals * (wt * valid), (1, 0, 2, 3))
    return out.reshape(n, c * pool_size * pool_size)
