"""Independent checks of boxregress outputs, written against the file formats.

Nothing here imports boxregress: IoU, recall and CorLoc are recomputed
with plain numpy on corner-form boxes, and the model container and
tables are parsed from their documented layouts.
"""

from __future__ import annotations

import math
import struct

import numpy as np

# IoU values this close to a threshold count as either side of it, since
# the library converts corners to centers and back before comparing.
IOU_TOL = 1e-9


class CheckFailed(Exception):
    pass


def iou_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(N, M) IoU between corner-form (xmin, ymin, xmax, ymax) rows."""
    iw = np.minimum(a[:, None, 2], b[None, :, 2]) - np.maximum(a[:, None, 0], b[None, :, 0])
    ih = np.minimum(a[:, None, 3], b[None, :, 3]) - np.maximum(a[:, None, 1], b[None, :, 1])
    inter = np.clip(iw, 0.0, None) * np.clip(ih, 0.0, None)
    area_a = (a[:, 2] - a[:, 0]) * (a[:, 3] - a[:, 1])
    area_b = (b[:, 2] - b[:, 0]) * (b[:, 3] - b[:, 1])
    return inter / (area_a[:, None] + area_b[None, :] - inter)


def read_proposals(path: str) -> dict[str, np.ndarray]:
    """image id -> (N, 5) rows of xmin, ymin, xmax, ymax, score in file order."""
    rows: dict[str, list[list[float]]] = {}
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            parts = line.rstrip("\n").split(",")
            if len(parts) != 6:
                raise CheckFailed(f"{path}:{lineno}: expected 6 fields, got {len(parts)}")
            try:
                rows.setdefault(parts[0], []).append([float(v) for v in parts[1:]])
            except ValueError:
                raise CheckFailed(f"{path}:{lineno}: non-numeric field") from None
    return {k: np.array(v, dtype=np.float64) for k, v in rows.items()}


def check_ranked(image_id: str, rows: np.ndarray, width: float, height: float, expect_rows: int):
    """A propose output for one scene: count, finite, inside the image, ranked."""
    if len(rows) != expect_rows:
        raise CheckFailed(f"{image_id}: {len(rows)} proposals, expected {expect_rows}")
    if not np.isfinite(rows).all():
        raise CheckFailed(f"{image_id}: non-finite values")
    x0, y0, x1, y1, score = rows.T
    if (x0 < 0).any() or (y0 < 0).any() or (x1 > width).any() or (y1 > height).any():
        raise CheckFailed(f"{image_id}: proposal outside the image")
    if not ((x1 > x0).all() and (y1 > y0).all()):
        raise CheckFailed(f"{image_id}: degenerate proposal")
    if (score < 0).any() or (np.diff(score) > 0).any():
        raise CheckFailed(f"{image_id}: scores negative or not in descending order")


def coverage(ranked: dict[str, np.ndarray], gts: dict[str, np.ndarray], iou_thresh: float, k: int):
    """Ground truths hit by a top-k proposal with IoU > iou_thresh.

    Returns (sure, possible, total): hits beyond the tolerance band, hits
    within it, and the number of ground truths.
    """
    sure = possible = total = 0
    for image_id, g in gts.items():
        total += len(g)
        top = ranked.get(image_id)
        if top is None or len(top) == 0:
            continue
        best = iou_matrix(top[:k, :4], g).max(axis=0)
        sure += int((best > iou_thresh + IOU_TOL).sum())
        possible += int((best > iou_thresh - IOU_TOL).sum())
    return sure, possible, total


def top1_hits(ranked: dict[str, np.ndarray], gts: dict[str, np.ndarray], iou_thresh: float):
    """Images whose first proposal hits a ground truth: (sure, possible, images)."""
    sure = possible = 0
    for image_id, g in gts.items():
        top = ranked.get(image_id)
        if top is None or len(top) == 0:
            continue
        best = float(iou_matrix(top[:1, :4], g).max())
        sure += best > iou_thresh + IOU_TOL
        possible += best > iou_thresh - IOU_TOL
    return sure, possible, len(gts)


def neighbor_means(rows: np.ndarray, thresholds=(0.6, 0.7), block: int = 1024) -> list[float]:
    """Mean count of other boxes above each IoU threshold, per box."""
    boxes = rows[:, :4]
    totals = [0] * len(thresholds)
    for start in range(0, len(boxes), block):
        m = iou_matrix(boxes[start : start + block], boxes)
        for i, t in enumerate(thresholds):
            totals[i] += int((m > t).sum())
    # Each box overlaps itself with IoU 1.
    return [(t - len(boxes)) / len(boxes) for t in totals]


def read_table(path: str, header: list[str]) -> list[list[float]]:
    with open(path, "r", encoding="utf-8") as f:
        lines = f.read().splitlines()
    if not lines or lines[0].split(",") != header:
        raise CheckFailed(f"{path}: header is not {','.join(header)}")
    out = []
    for line in lines[1:]:
        parts = line.split(",")
        if len(parts) != len(header):
            raise CheckFailed(f"{path}: row {line!r} has {len(parts)} fields")
        try:
            row = [float(v) for v in parts]
        except ValueError:
            raise CheckFailed(f"{path}: non-numeric row {line!r}") from None
        if not all(map(math.isfinite, row)):
            raise CheckFailed(f"{path}: non-finite row {line!r}")
        out.append(row)
    return out


def check_count(what: str, reported: float, scale: float, sure: int, possible: int):
    """A reported ratio (count / scale) must equal a count in [sure, possible]."""
    count = reported * scale
    if abs(count - round(count)) > 1e-6 or not sure <= round(count) <= possible:
        raise CheckFailed(f"{what}: reported {reported!r}, oracle count in [{sure}, {possible}] of {scale:g}")


def check_model(path: str) -> int:
    """Parse a model container; returns its weight count."""
    with open(path, "rb") as f:
        blob = f.read()
    magic = b"UBBR1"
    if blob[:5] != magic or len(blob) < 29:
        raise CheckFailed(f"{path}: not a model container")
    pool, channels, in_dim, h1, h2, out = struct.unpack("<6i", blob[5:29])
    need = h1 * in_dim + h1 + h2 * h1 + h2 + 4 * h2 + 4
    weights = np.frombuffer(blob[29:], dtype="<f8")
    if in_dim != channels * pool * pool or out != 4 or weights.size != need:
        raise CheckFailed(f"{path}: inconsistent dimensions or length")
    if not np.isfinite(weights).all():
        raise CheckFailed(f"{path}: non-finite weights")
    return need
