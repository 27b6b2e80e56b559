"""Localization metrics: recall at IoU over proposal budgets, correct
localization rate, and mean-IoU trajectories across refinement rounds."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .boxes import iou
from .ioutil import atomic_write

DEFAULT_K_GRID = (1, 2, 5, 10, 20, 50, 100, 200, 500, 1000)

# A top-1 proposal localizes its image above this IoU (eval --corloc-iou).
CORLOC_IOU = 0.5


@dataclass(frozen=True, eq=False)
class EvalRecord:
    """One image's ranked proposal boxes and ground truths, as center-form arrays."""

    image_id: str
    boxes: np.ndarray  # (N, 4) center-form proposal boxes, ranked
    gts: np.ndarray  # (G, 4) center-form ground truths


def recall_at(records: Sequence[EvalRecord], iou_thresh: float, k: int) -> float:
    """Fraction of all ground truths covered by a top-k proposal.

    A ground truth is covered when at least one of the image's first k
    proposals overlaps it with IoU strictly above iou_thresh; each
    ground truth counts once no matter how many proposals hit it.
    """
    check_budgets((k,), "k")
    total = 0
    covered = 0
    for rec in records:
        total += len(rec.gts)
        if len(rec.gts) and len(rec.boxes):
            covered += int((iou(rec.boxes[:k, None], rec.gts[None]) > iou_thresh).any(axis=0).sum())
    if total == 0:
        raise ValueError("recall_at requires at least one ground truth")
    return covered / total


def corloc(records: Sequence[EvalRecord], iou_thresh: float = CORLOC_IOU) -> float:
    """Percentage of images whose top-1 proposal hits some ground truth.

    A hit requires IoU strictly above iou_thresh (the boundary value
    does not count). Images without proposals count as misses.
    """
    if not records:
        raise ValueError("corloc requires at least one record")
    hits = 0
    for rec in records:
        if len(rec.boxes) and len(rec.gts) and float(iou(rec.boxes[0], rec.gts).max()) > iou_thresh:
            hits += 1
    return 100.0 * hits / len(records)


def mean_iou_trajectory(before: np.ndarray, trajectory: Sequence[np.ndarray], gts: np.ndarray) -> list[float]:
    """Mean nearest-ground-truth IoU of (N, 4) boxes for the inputs and every iteration.

    Returns len(trajectory) + 1 values, the first for the input boxes.
    """
    if not trajectory:
        raise ValueError("trajectory must have at least one iteration")
    return [float(iou(stage[:, None], gts[None]).max(axis=1).mean()) for stage in [before, *trajectory]]


def check_budgets(ks: Sequence[int], name: str = "ks") -> None:
    """Refuse an empty proposal-budget grid or a budget below 1; `name` labels the grid."""
    if not ks or min(ks) < 1:
        raise ValueError(f"{name} must list at least one budget, each >= 1, got {list(ks)}")


def recall_curve(
    records: Sequence[EvalRecord],
    iou_thresh: float,
    ks: Sequence[int] = DEFAULT_K_GRID,
) -> list[tuple[int, float]]:
    """Plot-ready (k, recall) series over a proposal-budget grid."""
    check_budgets(ks)
    return [(k, recall_at(records, iou_thresh, k)) for k in ks]


def write_table(path: str, header: Sequence[str], rows: Sequence[Sequence[object]]) -> None:
    """Comma-separated table; floats keep full double precision."""

    def fmt(v: object) -> str:
        if isinstance(v, float):
            return repr(v)
        return str(v)

    with atomic_write(path) as f:
        f.write(",".join(header) + "\n")
        for row in rows:
            f.write(",".join(fmt(v) for v in row) + "\n")


def write_recall_curve_svg(
    path: str,
    series: Sequence[tuple[str, Sequence[tuple[int, float]]]],
    iou_thresh: float,
) -> None:
    """Standalone SVG: recall (linear y) against proposal budget (log x)."""
    width, height = 640, 440
    left, right, top, bottom = 70, 620, 40, 390
    palette = ("#d62728", "#1f77b4", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

    max_k = max((k for _, pts in series for k, _ in pts), default=10)
    log_max = max(np.log10(max_k), 1.0)

    def sx(k: int) -> float:
        return left + (right - left) * np.log10(max(k, 1)) / log_max

    def sy(r: float) -> float:
        return bottom - (bottom - top) * r

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{left}" y1="{bottom}" x2="{right}" y2="{bottom}" stroke="black"/>',
        f'<line x1="{left}" y1="{top}" x2="{left}" y2="{bottom}" stroke="black"/>',
        f'<text x="{(left + right) / 2}" y="{height - 8}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">proposals (log scale)</text>',
        f'<text x="16" y="{(top + bottom) / 2}" text-anchor="middle" font-family="sans-serif" '
        f'font-size="14" transform="rotate(-90 16 {(top + bottom) / 2})">recall at IoU {iou_thresh:g}</text>',
    ]
    # y ticks every 0.2, x ticks at powers of ten
    for i in range(6):
        r = i / 5
        parts.append(
            f'<line x1="{left - 4}" y1="{sy(r):.1f}" x2="{left}" y2="{sy(r):.1f}" stroke="black"/>'
            f'<text x="{left - 8}" y="{sy(r) + 4:.1f}" text-anchor="end" font-family="sans-serif" '
            f'font-size="12">{r:.1f}</text>'
        )
    p = 0
    while 10**p <= max_k or p == 0:
        k = 10**p
        parts.append(
            f'<line x1="{sx(k):.1f}" y1="{bottom}" x2="{sx(k):.1f}" y2="{bottom + 4}" stroke="black"/>'
            f'<text x="{sx(k):.1f}" y="{bottom + 18}" text-anchor="middle" font-family="sans-serif" '
            f'font-size="12">{k}</text>'
        )
        p += 1
    for i, (name, pts) in enumerate(series):
        color = palette[i % len(palette)]
        coords = " ".join(f"{sx(k):.1f},{sy(r):.1f}" for k, r in pts)
        parts.append(f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="2"/>')
        ly = top + 16 + 18 * i
        parts.append(
            f'<line x1="{right - 150}" y1="{ly - 4}" x2="{right - 120}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="2"/>'
            f'<text x="{right - 112}" y="{ly}" font-family="sans-serif" font-size="12">{name}</text>'
        )
    parts.append("</svg>")
    with atomic_write(path) as f:
        f.write("\n".join(parts) + "\n")
