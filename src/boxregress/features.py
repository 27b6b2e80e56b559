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

    The four corner cells of each sample are read from a copy of each
    channel with one ring of zeros around it, with the cell indices
    clipped into that ring, so a corner outside the map reads zero.
    """
    if pool_size < 1:
        raise ValueError(f"pool_size must be >= 1, got {pool_size}")
    n = boxes.shape[0]
    c, h, w = fm.data.shape
    if n == 0:
        return np.zeros((0, c * pool_size * pool_size), dtype=np.float64)

    frac = (np.arange(pool_size, dtype=np.float64) + 0.5) / pool_size
    # Sample-point grids, shape (N, P) per axis: x varies along a row of
    # the pooled grid, y down its columns.
    sx = (boxes[:, 0] - 0.5 * boxes[:, 2])[:, None] + frac[None, :] * boxes[:, 2][:, None]
    sy = (boxes[:, 1] - 0.5 * boxes[:, 3])[:, None] + frac[None, :] * boxes[:, 3][:, None]

    fu = sx - 0.5
    fv = sy - 0.5
    j0 = np.floor(fu).astype(np.int64)
    i0 = np.floor(fv).astype(np.int64)
    aj = (fu - j0)[:, None, :]
    ai = (fv - i0)[:, :, None]

    # Row and column of each corner in the zero-bordered (h + 2, w + 2) planes.
    rows = [(i0 + di + 1).clip(0, h + 1)[:, :, None] * (w + 2) for di in (0, 1)]
    cols = [(j0 + dj + 1).clip(0, w + 1)[:, None, :] for dj in (0, 1)]
    corners = [
        (rows[0] + cols[0], (1 - ai) * (1 - aj)),
        (rows[0] + cols[1], (1 - ai) * aj),
        (rows[1] + cols[0], ai * (1 - aj)),
        (rows[1] + cols[1], ai * aj),
    ]  # (N, P, P) flat indices and weights

    padded = np.zeros((c, h + 2, w + 2), dtype=np.float64)
    padded[:, 1:-1, 1:-1] = fm.data
    out = np.zeros((n, c, pool_size, pool_size), dtype=np.float64)
    for ch in range(c):
        plane = padded[ch].ravel()
        acc = out[:, ch]
        for idx, wt in corners:
            acc += plane.take(idx) * wt
    return out.reshape(n, c * pool_size * pool_size)
