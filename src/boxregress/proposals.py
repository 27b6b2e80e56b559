"""Object proposal generation: seed grid, refinement, scoring, decay NMS.

Seed boxes of several scales and aspect ratios are placed on a uniform
lattice, refined by a trained model, scored by how many refined
neighbors pile up on the same spot, and ranked by a non-maximum
suppression that divides overlapping neighbors' scores instead of
deleting them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import compress, repeat
from typing import Sequence

import numpy as np

from .boxes import Box, boxes_to_array, iou
from .errors import DataFormatError
from .ioutil import atomic_write
from .model import RegressorModel, refine

# A refined box counts toward a seed's score above this overlap.
NEIGHBOR_IOU = 0.7


@dataclass(frozen=True)
class Proposal:
    box: Box
    score: float

    def __post_init__(self):
        if not (math.isfinite(self.score) and self.score >= 0):
            raise ValueError(f"proposal score must be finite and >= 0, got {self.score}")


@dataclass(frozen=True)
class SeedGridConfig:
    """Seed box sizes as fractions of the image's short side."""

    scales: tuple[float, ...] = (0.125, 0.25, 0.5, 0.75)
    aspect_ratios: tuple[float, ...] = (0.5, 1.0, 2.0)
    stride: float = 0.0625

    def __post_init__(self):
        if not self.scales or not all(_finite_positive(s) for s in self.scales):
            raise ValueError(f"scales must be nonempty, finite and positive, got {self.scales}")
        if not self.aspect_ratios or not all(_finite_positive(r) for r in self.aspect_ratios):
            raise ValueError(f"aspect_ratios must be nonempty, finite and positive, got {self.aspect_ratios}")
        if not _finite_positive(self.stride):
            raise ValueError(f"stride must be finite and positive, got {self.stride}")


def _finite_positive(v: float) -> bool:
    return math.isfinite(v) and v > 0


def _check_nms_args(iou_thresh: float, decay: float) -> None:
    if not 0.0 <= iou_thresh <= 1.0:
        raise ValueError(f"iou_thresh must be in [0, 1], got {iou_thresh}")
    # Emitted boxes sit at -inf and keep being divided; -inf / inf is NaN.
    if not (math.isfinite(decay) and decay > 1):
        raise ValueError(f"decay must be finite and > 1, got {decay}")


def _clip_array(arr: np.ndarray, image_w: float, image_h: float, min_side: float = 1.0) -> np.ndarray:
    """Clip (N, 4) center-form rows to image bounds, keeping at least min_side per axis.

    Only min, max, sums and halving are used, each elementwise, so a row
    comes out bitwise equal to the same arithmetic on Python floats.
    """
    xmin = np.maximum(arr[:, 0] - 0.5 * arr[:, 2], 0.0)
    xmax = np.minimum(arr[:, 0] + 0.5 * arr[:, 2], image_w)
    ymin = np.maximum(arr[:, 1] - 0.5 * arr[:, 3], 0.0)
    ymax = np.minimum(arr[:, 1] + 0.5 * arr[:, 3], image_h)
    w = np.maximum(xmax - xmin, min_side)
    h = np.maximum(ymax - ymin, min_side)
    cx = np.minimum(np.maximum(0.5 * (xmin + xmax), 0.5 * w), image_w - 0.5 * w)
    cy = np.minimum(np.maximum(0.5 * (ymin + ymax), 0.5 * h), image_h - 0.5 * h)
    return np.stack([cx, cy, w, h], axis=1)


def seed_grid(image_w: float, image_h: float, cfg: SeedGridConfig = SeedGridConfig()) -> np.ndarray:
    """(N, 4) center-form seeds: one per (scale, aspect ratio, lattice position), clipped.

    Lattice centers start at half a stride from the image border and
    cover the whole image; enumeration order is scales, then ratios,
    then rows, then columns.
    """
    if image_w <= 0 or image_h <= 0:
        raise ValueError(f"image dims must be positive, got {image_w} x {image_h}")
    short = min(image_w, image_h)
    step = cfg.stride * short
    xs = np.arange(0.5 * step, image_w, step)
    ys = np.arange(0.5 * step, image_h, step)
    cy, cx = (g.ravel() for g in np.meshgrid(ys, xs, indexing="ij"))
    blocks = []
    for scale in cfg.scales:
        for ratio in cfg.aspect_ratios:
            w = scale * short * math.sqrt(ratio)
            h = scale * short / math.sqrt(ratio)
            blocks.append(np.stack([cx, cy, np.full_like(cx, w), np.full_like(cx, h)], axis=1))
    return _clip_array(np.concatenate(blocks), image_w, image_h)


# The pruning bounds in _neighbor_graph hold in exact arithmetic. Widening
# them by this relative slack keeps every pair whose IoU, as `iou`
# computes it with a relative error of a few ulps, exceeds the threshold.
_SLACK = 1e-9

# Upper bound on rows x columns per IoU block.
_BLOCK = 1 << 15


def _neighbor_graph(arr: np.ndarray, t: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every ordered pair (i, j), self included, with IoU(i, j) > t, in CSR form.

    Returns (indptr, cols, ious): box i's neighbors are
    cols[indptr[i]:indptr[i + 1]], in no particular order, and ious
    holds their IoU with i as `iou` computes it. That kernel is bitwise
    symmetric, so the graph is exactly the entries above t of the dense
    IoU matrix, for any t in [0, 1].

    IoU is computed only on candidate blocks. 2-D IoU is at most the
    1-D IoU on either axis, since A + B - iw*ih >= ih*(wa + wb - iw).
    So IoU > t implies that both side ratios lie in (t, 1/t), and that
    |xmin_i - xmin_j| < min(w_i, w_j) * (1/t - 1). Boxes are bucketed by
    log(width) and log(height) in steps of log(1/t); a box can only
    overlap boxes in its own or an adjacent bucket on each axis, and
    within those only boxes whose xmin lies in a window swept along a
    sort by xmin. As t falls to 0 the buckets and windows widen until
    every pair is a candidate.
    """
    n = len(arr)
    if t >= 1.0 or n == 0:
        return np.zeros(n + 1, dtype=np.intp), np.zeros(0, dtype=np.intp), np.zeros(0)
    # Corner extents as `iou` computes them: the bounds apply to these.
    lo = arr[:, 0] - 0.5 * arr[:, 2]
    wid = (arr[:, 0] + 0.5 * arr[:, 2]) - lo
    hgt = (arr[:, 1] + 0.5 * arr[:, 3]) - (arr[:, 1] - 0.5 * arr[:, 3])
    # A box with no finite positive corner extent has IoU 0 or NaN with everything.
    ok = np.flatnonzero(np.isfinite(wid) & np.isfinite(hgt) & (wid > 0.0) & (hgt > 0.0))
    tp = t * (1.0 - _SLACK)
    bucket = -math.log(tp) + _SLACK if tp > 0.0 else math.inf
    reach = 1.0 / tp - 1.0 if tp > 0.0 else math.inf
    pad = _SLACK * (float(np.abs(lo[ok]).max()) + float(wid[ok].max())) if ok.size else 0.0

    logs = np.stack([np.log(wid[ok]), np.log(hgt[ok])], axis=1)
    keys, inverse, counts = np.unique(
        np.floor(logs / bucket).astype(np.int64), axis=0, return_inverse=True, return_counts=True
    )
    by_group = ok[np.lexsort((lo[ok], inverse.ravel()))]
    groups = {}
    for key, members in zip(map(tuple, keys.tolist()), np.split(by_group, np.cumsum(counts)[:-1])):
        groups[key] = (members, lo[members], float(wid[members].max()))

    # Each unordered pair is computed once and entered in both directions:
    # a bucket meets the adjacent buckets on one side only, and itself from
    # each row chunk onwards.
    rows_out = [np.zeros(0, dtype=np.intp)]
    cols_out = [np.zeros(0, dtype=np.intp)]
    ious_out = [np.zeros(0)]
    for (kw, kh), (rows, rows_lo, _) in groups.items():
        for dw, dh in ((0, 0), (0, 1), (1, -1), (1, 0), (1, 1)):
            other = groups.get((kw + dw, kh + dh))
            if other is None:
                continue
            same = dw == 0 and dh == 0
            cols, cols_lo, cols_wmax = other
            step = max(1, _BLOCK // len(cols))
            for r0 in range(0, len(rows), step):
                chunk = rows[r0 : r0 + step]
                window = reach * min(float(wid[chunk].max()), cols_wmax) + pad
                c0 = r0 if same else np.searchsorted(cols_lo, rows_lo[r0] - window, side="left")
                c1 = np.searchsorted(cols_lo, rows_lo[r0 + len(chunk) - 1] + window, side="right")
                if c0 >= c1:
                    continue
                block = iou(arr[chunk, None], arr[None, cols[c0:c1]])
                r, c = np.nonzero(block > t)
                i, j, q = chunk[r], cols[c0 + c], block[r, c]
                mirror = c0 + c >= r0 + len(chunk) if same else slice(None)
                rows_out += [i, j[mirror]]
                cols_out += [j, i[mirror]]
                ious_out += [q, q[mirror]]
    rows = np.concatenate(rows_out)
    order = np.argsort(rows)
    indptr = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return indptr, np.concatenate(cols_out)[order], np.concatenate(ious_out)[order]


def _above(graph, thresh: float):
    """The entries of a neighbor graph with IoU > thresh."""
    indptr, cols, ious = graph
    keep = ious > thresh
    kept_before = np.zeros(len(keep) + 1, dtype=np.intp)
    np.cumsum(keep, out=kept_before[1:])
    return kept_before[indptr], cols[keep], ious[keep]


def _neighbor_scores(graph) -> np.ndarray:
    """Neighbors above NEIGHBOR_IOU per box, itself excluded, from a graph at t <= NEIGHBOR_IOU."""
    indptr, _, _ = _above(graph, NEIGHBOR_IOU)
    return (np.diff(indptr) - 1).astype(np.float64)


def _decay_ranking(graph, scores: np.ndarray, decay: float) -> tuple[np.ndarray, np.ndarray]:
    """Emission order and emitted scores of decay NMS over a neighbor graph.

    Each step emits argmax(live), whose ties go to the lowest index, and
    sets it to -inf; then every neighbor of it is divided by decay. An
    emitted box stays at -inf, so each remaining box gets exactly the
    divisions of the dense formulation, in the same order.
    """
    indptr, cols, _ = graph
    live = np.array(scores, dtype=np.float64)
    nbrs = np.split(cols, indptr[1:-1])
    order = np.empty(len(live), dtype=np.intp)
    emitted = np.empty(len(live), dtype=np.float64)
    for k in range(len(live)):
        i = int(live.argmax())
        order[k] = i
        emitted[k] = live[i]
        live[i] = -np.inf
        live[nbrs[i]] /= decay
    return order, emitted


def score_proposals(boxes: Sequence[Box]) -> list[float]:
    """Score each box by its count of near-duplicate neighbors.

    The score of box n is the number of other boxes with IoU(b_n, b_m)
    strictly above 0.7.
    """
    if len(boxes) == 0:
        return []
    return _neighbor_scores(_neighbor_graph(boxes_to_array(boxes), NEIGHBOR_IOU)).tolist()


def decay_nms(
    proposals: Sequence[Proposal], iou_thresh: float = 0.6, decay: float = 10.0
) -> list[Proposal]:
    """Rank proposals, dividing overlapping neighbors' scores by `decay`.

    Repeatedly emits the highest-score remaining proposal (ties break to
    the lower input index), then divides by `decay` the score of every
    remaining proposal whose IoU with the emitted one exceeds
    iou_thresh, which must lie in [0, 1]. Nothing is deleted: the result
    is a permutation of the input carrying the decayed scores as of
    emission time.
    """
    _check_nms_args(iou_thresh, decay)
    if len(proposals) == 0:
        return []
    graph = _neighbor_graph(boxes_to_array([p.box for p in proposals]), iou_thresh)
    order, emitted = _decay_ranking(graph, np.array([p.score for p in proposals], dtype=np.float64), decay)
    return [Proposal(proposals[i].box, s) for i, s in zip(order.tolist(), emitted.tolist())]


def generate_proposals(
    model: RegressorModel,
    scene,
    grid_cfg: SeedGridConfig = SeedGridConfig(),
    iterations: int = 1,
    nms_iou: float = 0.6,
    decay: float = 10.0,
) -> list[Proposal]:
    """Full pipeline: seed, refine, score, rank; output boxes clipped.

    One neighbor graph at IoU > min(nms_iou, 0.7) serves both steps; the
    result equals decay_nms over the refined boxes and their
    score_proposals scores, with each box then clipped.
    """
    _check_nms_args(nms_iou, decay)
    seeds = seed_grid(scene.width, scene.height, grid_cfg)
    refined = refine(model, scene, seeds, iterations=iterations)[-1]
    graph = _neighbor_graph(refined, min(nms_iou, NEIGHBOR_IOU))
    order, emitted = _decay_ranking(_above(graph, nms_iou), _neighbor_scores(graph), decay)
    clipped = _clip_array(refined[order], scene.width, scene.height)
    return [Proposal(Box(*row), s) for row, s in zip(clipped.tolist(), emitted.tolist())]


# Bytes of text per block of read_corner_csv: each block gets one float64
# conversion and one validation pass, and memory beyond the result is
# bounded by the block, not the file.
_READ_BYTES = 1 << 20


def _check_row(parts: list[str], scored: bool) -> None:
    """Build one row's Box (and Proposal) by the scalar rules.

    Raises ValueError with the message the row is rejected with.
    """
    try:
        xmin, ymin, xmax, ymax, *score = map(float, parts[1:6] if scored else parts[1:5])
    except ValueError as e:
        raise ValueError("non-numeric field" if scored else str(e)) from None
    box = Box(0.5 * (xmin + xmax), 0.5 * (ymin + ymax), xmax - xmin, ymax - ymin)
    if scored:
        Proposal(box, score[0])


def _row_error(path: str, lines: list[str], linenos: Sequence[int], scored: bool) -> DataFormatError:
    """The error of the first of `lines` that breaks the scalar rules."""
    for line, lineno in zip(lines, linenos):
        try:
            _check_row(line.split(","), scored)
        except ValueError as e:
            return DataFormatError(f"{path}: line {lineno}: {e}")
    raise RuntimeError(f"{path}: lines {linenos[0]}-{linenos[-1]}: array checks and scalar rules disagree")


def _block_rows(path: str, lines: list[str], linenos: Sequence[int], width: int) -> tuple[list[str], np.ndarray]:
    """Image ids and (N, 4) center rows, plus a score column if width is 6, of one block of lines.

    Every line holds exactly `width` comma-separated fields.
    """
    fields = ",".join(lines).split(",")
    ids = fields[::width]
    del fields[::width]
    scored = width == 6
    try:
        corners = np.array(fields, dtype=np.float64).reshape(-1, width - 1)
    except ValueError:
        raise _row_error(path, lines, linenos, scored) from None
    xmin, ymin, xmax, ymax = corners[:, :4].T
    with np.errstate(over="ignore", invalid="ignore"):
        rows = np.column_stack([0.5 * (xmin + xmax), 0.5 * (ymin + ymax), xmax - xmin, ymax - ymin, corners[:, 4:]])
    ok = np.isfinite(rows).all(axis=1) & (rows[:, 2] > 0.0) & (rows[:, 3] > 0.0)
    if scored:
        ok &= rows[:, 4] >= 0.0
    if not ok.all():
        first = int(np.argmin(ok))
        raise _row_error(path, lines[first:], linenos[first:], scored)
    return ids, rows


def read_corner_csv(path: str, scored: bool = True) -> dict[str, np.ndarray]:
    """Read a corner-form CSV into per-image arrays, in file order.

    Each non-blank line is `image_id,xmin,ymin,xmax,ymax,score` when
    scored; otherwise it has 5 fields, or 6 with the last one ignored.
    Returns {image_id: rows} with images in order of first appearance
    and rows (x, y, w, h[, score]) in center form: (N, 5) when scored,
    (N, 4) otherwise. A field is accepted exactly when float() accepts
    it; every box must be finite with positive sides, and every score
    finite and >= 0. The first bad line in file order raises a
    DataFormatError naming it. Lines are streamed in fixed-size blocks,
    so memory beyond the result does not grow with the file.
    """
    width, counts = (6, (6,)) if scored else (5, (5, 6))
    expected = "6 fields" if scored else "5 or 6 fields"
    index: dict[str, int] = {}  # image id -> code, by first appearance
    codes: list[np.ndarray] = []
    blocks: list[np.ndarray] = []
    done = 0  # lines in earlier blocks
    try:
        with open(path, "r", encoding="utf-8") as f:
            while raw := f.readlines(_READ_BYTES):
                lines = list(map(str.strip, raw))
                nonblank = np.fromiter(map(bool, lines), dtype=bool, count=len(lines))
                lines = list(compress(lines, nonblank))
                linenos = done + 1 + np.flatnonzero(nonblank)
                n = np.fromiter(map(str.count, lines, repeat(",")), dtype=np.intp, count=len(lines)) + 1
                wrong = np.flatnonzero(~np.isin(n, counts))
                cut = int(wrong[0]) if wrong.size else len(lines)
                for i in np.flatnonzero(n[:cut] > width).tolist():
                    lines[i] = lines[i][: lines[i].rindex(",")]
                if cut:
                    ids, rows = _block_rows(path, lines[:cut], linenos[:cut], width)
                    for image_id in dict.fromkeys(ids):
                        index.setdefault(image_id, len(index))
                    codes.append(np.fromiter(map(index.__getitem__, ids), dtype=np.intp, count=len(ids)))
                    blocks.append(rows)
                if wrong.size:
                    raise DataFormatError(f"{path}: line {linenos[cut]}: expected {expected}, got {n[cut]}")
                done += len(raw)
    except UnicodeDecodeError as e:
        raise DataFormatError(f"{path}: not valid UTF-8 after line {done}: {e.reason}") from None
    except OSError as e:
        raise DataFormatError(f"{path}: {e}") from None
    if not blocks:
        return {}
    code = np.concatenate(codes)
    rows = np.concatenate(blocks)[np.argsort(code, kind="stable")]
    return dict(zip(index, np.split(rows, np.cumsum(np.bincount(code))[:-1])))


def write_corner_csv(path: str, by_image: dict[str, np.ndarray]) -> None:
    """Write center-form rows as corner-form CSV lines, the inverse of read_corner_csv.

    Rows are (x, y, w, h) or (x, y, w, h, score); each line is the image
    id, xmin, ymin, xmax, ymax and the score if present. Floats keep full
    double precision.
    """
    with atomic_write(path) as f:
        for image_id, rows in by_image.items():
            x, y, w, h = rows[:, :4].T
            corners = np.column_stack([x - 0.5 * w, y - 0.5 * h, x + 0.5 * w, y + 0.5 * h, rows[:, 4:]])
            f.write("".join(f"{image_id},{','.join(map(repr, r))}\n" for r in corners.tolist()))


def save_proposals(path: str, by_image: dict[str, list[Proposal]]) -> None:
    """Write proposals as comma-separated lines.

    Each line is: image id, xmin, ymin, xmax, ymax, score. Floats keep
    full double precision.
    """
    write_corner_csv(path, {
        image_id: np.array([(p.box.x, p.box.y, p.box.w, p.box.h, p.score) for p in props], dtype=np.float64).reshape(-1, 5)
        for image_id, props in by_image.items()
    })


def load_proposals(path: str) -> dict[str, list[Proposal]]:
    """Read a proposals file; per-image order is preserved.

    A `Proposal` view of read_corner_csv, with the same checks and errors.
    """
    return {
        image_id: [Proposal(Box(x, y, w, h), s) for x, y, w, h, s in rows.tolist()]
        for image_id, rows in read_corner_csv(path).items()
    }
