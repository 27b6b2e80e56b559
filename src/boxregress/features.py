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


@dataclass(frozen=True)
class PlaneBuffer:
    """Zero-bordered feature planes of one or more maps, back to back.

    Map m's (height + 2, width + 2) planes, each with one ring of zeros
    around its cells, are flattened into columns offsets[m] onward of
    data, one row per channel. Every map has the same channel count.
    """

    data: np.ndarray     # (channels, total cells) float64
    offsets: np.ndarray  # (M,) int64: first column of each map's planes
    heights: np.ndarray  # (M,) int64: cell rows of each map, border excluded
    widths: np.ndarray   # (M,) int64


def plane_buffer(maps: list[FeatureMap]) -> PlaneBuffer:
    """One buffer of the zero-bordered planes of the given feature maps."""
    if not maps:
        raise ValueError("plane_buffer needs at least one feature map")
    channels = maps[0].channels
    if any(fm.channels != channels for fm in maps):
        raise ValueError("feature maps in one plane buffer must have the same channel count")
    heights = np.array([fm.height for fm in maps], dtype=np.int64)
    widths = np.array([fm.width for fm in maps], dtype=np.int64)
    sizes = (heights + 2) * (widths + 2)
    offsets = np.concatenate(([0], np.cumsum(sizes)[:-1]))
    data = np.zeros((channels, int(sizes.sum())), dtype=np.float64)
    for fm, start, size in zip(maps, offsets, sizes):
        data[:, start : start + size].reshape(channels, fm.height + 2, fm.width + 2)[:, 1:-1, 1:-1] = fm.data
    return PlaneBuffer(data, offsets, heights, widths)


def _axis_samples(lo, side, pool_size: int, cells):
    """Sample cells and weights along one axis for boxes at lo with the given side.

    The pool_size samples of each box sit at the centers of equal
    divisions of [lo - side / 2, lo + side / 2]. Returns the two cells
    each sample lies between, as (N, P) indices into a bordered axis of
    cells + 2 entries (clipped into the border), and their weights.
    """
    frac = (np.arange(pool_size, dtype=np.float64) + 0.5) / pool_size
    f = (lo - 0.5 * side)[:, None] + frac[None, :] * side[:, None]
    f -= 0.5  # cell i has its center at i + 0.5
    first = np.floor(f)
    f -= first  # the second cell's weight
    first = first.astype(np.int64)
    return [np.clip(first + d + 1, 0, cells + 1) for d in (0, 1)], (1 - f, f)


def roi_align_many(
    buf: PlaneBuffer, boxes: np.ndarray, pool_size: int = 7, maps: np.ndarray | None = None
) -> np.ndarray:
    """Pooled feature vectors for (N, 4) center-form boxes in feature-map coordinates.

    Row i is pooled from map maps[i] of the buffer, or from its first
    map when maps is None. Each box is divided into a pool_size x
    pool_size grid and each cell is sampled once at its center. Returns
    (N, channels * pool_size**2), each row flattened channel-major. A
    row depends on its own box and map alone.

    The four corner cells of each sample are read from the map's
    zero-bordered planes, with the cell indices clipped into the border,
    so a corner outside the map reads zero. The corners are visited one
    at a time, each added to every channel, so only one corner's indices
    and weights are alive at once.
    """
    if pool_size < 1:
        raise ValueError(f"pool_size must be >= 1, got {pool_size}")
    n = boxes.shape[0]
    c = buf.data.shape[0]
    out = np.zeros((n, c, pool_size, pool_size), dtype=np.float64)
    if n == 0:
        return out.reshape(0, c * pool_size * pool_size)
    if maps is None:
        base, h, w = buf.offsets[0], buf.heights[0], buf.widths[0]
    else:
        base = buf.offsets[maps][:, None, None]
        h = buf.heights[maps][:, None]
        w = buf.widths[maps][:, None]

    # Row and column of each sample's two neighbouring cells in the map's
    # zero-bordered planes, and their bilinear weights: x varies along a
    # row of the pooled grid, y down its columns.
    ys, wy = _axis_samples(boxes[:, 1], boxes[:, 3], pool_size, h)
    xs, wx = _axis_samples(boxes[:, 0], boxes[:, 2], pool_size, w)
    rows = [base + (y * (w + 2))[:, :, None] for y in ys]

    idx = np.empty((n, pool_size, pool_size), dtype=np.int64)
    wt = np.empty((n, pool_size, pool_size), dtype=np.float64)
    vals = np.empty_like(wt)
    for di, dj in ((0, 0), (0, 1), (1, 0), (1, 1)):
        np.add(rows[di], xs[dj][:, None, :], out=idx)
        np.multiply(wy[di][:, :, None], wx[dj][:, None, :], out=wt)
        for ch in range(c):
            # Every index is inside the buffer; "clip" only spares take a
            # buffered copy of its output.
            np.take(buf.data[ch], idx, out=vals, mode="clip")
            vals *= wt
            out[:, ch] += vals
    return out.reshape(n, c * pool_size * pool_size)
