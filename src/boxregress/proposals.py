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

from .boxes import Box, _extents, _iou_of_extents
from .errors import DataFormatError
from .ioutil import atomic_write, check_id, open_input
from .model import PROPOSE_ITERATIONS, RegressorModel, refine

# A refined box counts toward a seed's score above this overlap.
NEIGHBOR_IOU = 0.7

# Decay NMS defaults: a box's score is divided by NMS_DECAY for each emitted
# box it overlaps with IoU above NMS_IOU (propose --nms-iou and --decay).
NMS_IOU = 0.6
NMS_DECAY = 10.0

# Most seeds, |scales| * |ratios| * ceil(1 / stride)^2, a grid may place on a
# square image: 21 times the default grid's 3072.
MAX_SEEDS = 1 << 16


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
        pairs = len(self.scales) * len(self.aspect_ratios)
        if pairs * math.ceil(min(1.0 / self.stride, MAX_SEEDS)) ** 2 > MAX_SEEDS:
            raise ValueError(f"{pairs} scale/ratio pairs at stride {self.stride} exceed {MAX_SEEDS} seeds per image")


def _finite_positive(v: float) -> bool:
    return math.isfinite(v) and v > 0


def check_nms_args(iou_thresh: float, decay: float, names: tuple[str, str] = ("iou_thresh", "decay")) -> None:
    """Refuse an NMS threshold outside [0, 1] or a decay that is not finite and > 1; `names` label them."""
    if not 0.0 <= iou_thresh <= 1.0:
        raise ValueError(f"{names[0]} must be in [0, 1], got {iou_thresh}")
    # Emitted boxes sit at -inf and keep being divided; -inf / inf is NaN.
    if not (math.isfinite(decay) and decay > 1):
        raise ValueError(f"{names[1]} must be finite and > 1, got {decay}")


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

# Upper bound on rows x columns per IoU block, and least pairs per fill batch.
_BLOCK, _BATCH = 1 << 15, 1 << 13


def _neighbor_graph(arr: np.ndarray, t: float, count_t: float) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Neighbor lists at IoU > t and neighbor counts at IoU > count_t, self included.

    Returns (start, stop, cols, counts): box i's neighbors are the int32
    cols[start[i]:stop[i]], in no particular order: every box j with
    IoU(i, j) > t as `iou` computes it. counts[i] is the number of boxes
    j with IoU(i, j) > count_t. That kernel is bitwise symmetric, so
    both are exactly the entries above their threshold of the dense IoU
    matrix, for any thresholds in [0, 1]. No IoU value is kept.

    IoU is computed only on candidate blocks, pruned at the lower
    threshold t0. 2-D IoU is at most the 1-D IoU on either axis, since
    A + B - iw*ih >= ih*(wa + wb - iw). So IoU > t0 implies that both
    side ratios lie in (t0, 1/t0), and that |xmin_i - xmin_j| <
    min(w_i, w_j) * (1/t0 - 1). Boxes are bucketed by log(width) and
    log(height) in steps of log(1/t0); a box can only overlap boxes in
    its own or an adjacent bucket on each axis, and within those only
    boxes whose xmin lies in a window swept along a sort by xmin. As t0
    falls to 0 the buckets and windows widen until every pair is a
    candidate. Each block's entries above t0 are split by the higher
    threshold there, so one pass gives both results.
    """
    n = len(arr)
    t0 = min(t, count_t)
    if t0 >= 1.0 or n == 0:
        return np.zeros(n, np.intp), np.zeros(n, np.intp), np.zeros(0, np.int32), np.zeros(n, np.intp)
    x_lo, x_hi, y_lo, y_hi, area = _extents(arr)
    wid = x_hi - x_lo
    hgt = y_hi - y_lo
    # A box with no finite positive corner extent has IoU 0 or NaN with everything.
    ok = np.flatnonzero(np.isfinite(wid) & np.isfinite(hgt) & (wid > 0.0) & (hgt > 0.0))
    tp = t0 * (1.0 - _SLACK)
    bucket = -math.log(tp) + _SLACK if tp > 0.0 else math.inf
    reach = 1.0 / tp - 1.0 if tp > 0.0 else math.inf

    # Sorted position p of each box: by width bucket, height bucket, xmin.
    kw = np.floor(np.log(wid[ok]) / bucket)
    kh = np.floor(np.log(hgt[ok]) / bucket)
    perm = np.lexsort((x_lo[ok], kh, kw))
    order = ok[perm]
    kw, kh = kw[perm], kh[perm]
    x0, x1, y0, y1, ar = (v[order] for v in (x_lo, x_hi, y_lo, y_hi, area))
    w = wid[order]
    m = len(order)
    pad = _SLACK * (float(np.abs(x0).max()) + float(w.max())) if m else 0.0
    edges = np.flatnonzero((np.diff(kw) != 0) | (np.diff(kh) != 0)) + 1
    bounds = np.concatenate(([0], edges, [m])).tolist()
    groups = {
        (float(kw[a]), float(kh[a])): (a, b, float(w[a:b].max()))
        for a, b in zip(bounds[:-1], bounds[1:])
        if a < b
    }

    # Each unordered pair is computed once: a bucket meets the adjacent
    # buckets on one side only, and itself from each row chunk onwards. A
    # block keeps its entries once, as sorted positions (int32), with the
    # column from which they are also mirrored; deg counts both directions.
    blocks = []
    deg = np.zeros(m, dtype=np.intp)
    counts_p = np.zeros(m, dtype=np.intp)
    for (gw, gh), (a, b, wmax) in groups.items():
        for dw, dh in ((0, 0), (0, 1), (1, -1), (1, 0), (1, 1)):
            other = groups.get((gw + dw, gh + dh))
            if other is None:
                continue
            same = dw == 0 and dh == 0
            ca, cb, cwmax = other
            step = max(1, _BLOCK // (cb - ca))
            for r0 in range(a, b, step):
                r1 = min(r0 + step, b)
                window = reach * min(float(w[r0:r1].max()), cwmax) + pad
                c0 = r0 if same else ca + int(np.searchsorted(x0[ca:cb], x0[r0] - window, side="left"))
                c1 = ca + int(np.searchsorted(x0[ca:cb], x0[r1 - 1] + window, side="right"))
                if c0 >= c1:
                    continue
                q = _iou_of_extents(
                    (x0[r0:r1, None], x1[r0:r1, None], y0[r0:r1, None], y1[r0:r1, None], ar[r0:r1, None]),
                    (x0[c0:c1], x1[c0:c1], y0[c0:c1], y1[c0:c1], ar[c0:c1]),
                )
                f = np.flatnonzero(q > t0)
                r, c = (v.astype(np.int32) for v in np.divmod(f, c1 - c0))
                # Block-local neighbor entries (nr, nc) and counted entries (cr, cc).
                nr, nc = cr, cc = r, c
                if t != count_t:
                    hi = q.take(f) > max(t, count_t)
                    if t > count_t:
                        nr, nc = r[hi], c[hi]
                    else:
                        cr, cc = r[hi], c[hi]
                lim = r1 - c0 if same else 0  # columns from r1 on are not rows of this chunk: mirror them
                for acc, er, ec in ((deg, nr, nc), (counts_p, cr, cc)):
                    acc[r0:r1] += np.bincount(er, minlength=r1 - r0)
                    acc[c0:c1] += np.bincount(ec[ec >= lim], minlength=c1 - c0)
                blocks.append((nr + r0, nc + c0, lim + c0))
    # CSR by a counting fill: each batch of blocks is keyed row << 32 | col,
    # mirrored entries included, and sorted; each row's run goes to that
    # row's fill pointer. A block is freed once keyed.
    indptr = np.zeros(m + 1, dtype=np.intp)
    np.cumsum(deg, out=indptr[1:])
    fill = indptr[:-1].copy()
    cols = np.empty(indptr[-1], dtype=np.int32)
    ids = order.astype(np.int32)
    blocks.reverse()  # the last blocks are the densest: place them once others are freed
    while blocks:
        batch, size = [], 0
        while blocks and size < _BATCH:
            batch.append(blocks.pop())
            size += len(batch[-1][0])
        i, j, lim = zip(*batch)
        del batch
        lim = np.repeat(lim, [len(v) for v in i])
        i, j = np.concatenate(i), np.concatenate(j)
        back = j >= lim
        keys = np.concatenate([i.astype(np.int64) << 32 | j, j[back].astype(np.int64) << 32 | i[back]])
        del i, j, lim, back
        keys.sort()
        rows = keys >> 32
        keys &= 0xFFFFFFFF
        in_batch = np.bincount(rows, minlength=m)
        dest = (fill - np.cumsum(in_batch) + in_batch)[rows] + np.arange(len(keys))
        cols[dest] = ids[keys]
        fill += in_batch
    start = np.zeros(n, dtype=np.intp)
    stop = np.zeros(n, dtype=np.intp)
    counts = np.zeros(n, dtype=np.intp)
    start[order] = indptr[:-1]
    stop[order] = indptr[1:]
    counts[order] = counts_p
    return start, stop, cols, counts


def _decay_ranking(start, stop, cols, scores: np.ndarray, decay: float) -> tuple[np.ndarray, np.ndarray]:
    """Emission order and emitted scores of decay NMS over neighbor lists.

    Each step emits argmax(live), whose ties go to the lowest index, and
    sets it to -inf; then every neighbor of it is divided by decay. An
    emitted box stays at -inf, so each remaining box gets exactly the
    divisions of the dense formulation, in the same order. No live
    score is negative and division keeps 0 at 0, so once the highest
    live score is 0 every live score is 0: the rest are emitted in
    ascending index order with their (zero) scores.
    """
    live = np.array(scores, dtype=np.float64)
    order: list[int] = []
    emitted: list[float] = []
    start, stop = start.tolist(), stop.tolist()
    argmax = live.argmax
    for _ in range(len(live)):
        i = int(argmax())
        top = live.item(i)
        if top == 0.0:
            rest = np.flatnonzero(live == 0.0)
            order += rest.tolist()
            emitted += live[rest].tolist()
            break
        order.append(i)
        emitted.append(top)
        live[i] = -np.inf
        # An intp index is taken about twice as fast as the int32 slice.
        live[cols[start[i] : stop[i]].astype(np.intp)] /= decay
    return np.array(order, dtype=np.intp), np.array(emitted, dtype=np.float64)


def decay_nms(
    boxes: np.ndarray, scores: np.ndarray, iou_thresh: float = NMS_IOU, decay: float = NMS_DECAY
) -> tuple[np.ndarray, np.ndarray]:
    """Rank (N, 4) center-form boxes, dividing overlapping neighbors' scores by `decay`.

    Repeatedly emits the highest-score remaining box (ties break to the
    lower index), then divides by `decay` the score of every remaining
    box whose IoU with the emitted one exceeds iou_thresh, which must
    lie in [0, 1]. Scores are (N,), finite and >= 0. Nothing is deleted:
    returns (order, emitted), a permutation of the box indices and each
    box's decayed score as of its emission.
    """
    check_nms_args(iou_thresh, decay)
    boxes = np.asarray(boxes, dtype=np.float64)
    scores = np.asarray(scores, dtype=np.float64)
    if boxes.ndim != 2 or boxes.shape[1] != 4:
        raise ValueError(f"boxes must be (N, 4), got shape {boxes.shape}")
    if scores.shape != (len(boxes),):
        raise ValueError(f"expected {len(boxes)} scores, got shape {scores.shape}")
    # _decay_ranking's early exit relies on no live score being negative.
    bad = np.flatnonzero(~(np.isfinite(scores) & (scores >= 0.0)))
    if bad.size:
        raise ValueError(f"proposal score must be finite and >= 0, got {scores[bad[0]]} at index {bad[0]}")
    start, stop, cols, _ = _neighbor_graph(boxes, iou_thresh, iou_thresh)
    return _decay_ranking(start, stop, cols, scores, decay)


def generate_proposals(
    model: RegressorModel,
    scene,
    grid_cfg: SeedGridConfig = SeedGridConfig(),
    iterations: int = PROPOSE_ITERATIONS,
    nms_iou: float = NMS_IOU,
    decay: float = NMS_DECAY,
) -> np.ndarray:
    """Full pipeline: seed, refine, score, rank; output boxes clipped.

    Returns (N, 5) rows (x, y, w, h, score) in rank order, one per seed.
    A refined box's score is the number of other refined boxes that
    overlap it with IoU above 0.7. One pass over the refined boxes gives
    both those counts and the neighbor lists above nms_iou; the result
    equals decay_nms over the refined boxes and their scores, with each
    box then clipped. Raises OverflowError if a refined box is
    below floating-point resolution at its position (zero corner extent).
    """
    check_nms_args(nms_iou, decay)
    seeds = seed_grid(scene.width, scene.height, grid_cfg)
    refined = refine(model, scene, seeds, iterations=iterations)[-1]
    start, stop, cols, counts = _neighbor_graph(refined, nms_iou, NEIGHBOR_IOU)
    # A box always counts itself, unless its corner extents vanish.
    if len(counts) and counts.min() < 1:
        raise OverflowError("refined boxes fell below floating-point resolution")
    order, emitted = _decay_ranking(start, stop, cols, (counts - 1).astype(np.float64), decay)
    out = np.empty((len(order), 5))
    out[:, :4] = _clip_array(refined[order], scene.width, scene.height)
    out[:, 4] = emitted
    return out


# Bytes of text per block of read_corner_csv: each block gets one float64
# conversion and one validation pass, and memory beyond the result is
# bounded by the block, not the file. A block's parse peaks at about eight
# times its text, mostly in Python strings.
_READ_BYTES = 1 << 18


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
        for i, line in enumerate(lines):
            try:
                list(map(float, line.split(",")[1:]))
            except ValueError as e:
                _block_rows(path, lines[:i], linenos[:i], width)  # a bad row before it comes first
                raise DataFormatError(f"{path}: line {linenos[i]}: {'non-numeric field' if scored else e}") from None
        raise
    xmin, ymin, xmax, ymax = corners[:, :4].T
    with np.errstate(over="ignore", invalid="ignore"):
        rows = np.column_stack([0.5 * (xmin + xmax), 0.5 * (ymin + ymax), xmax - xmin, ymax - ymin, corners[:, 4:]])
    ok = np.isfinite(rows).all(axis=1) & (rows[:, 2] > 0.0) & (rows[:, 3] > 0.0)
    if scored:
        ok &= rows[:, 4] >= 0.0
    if not ok.all():
        first = int(np.argmin(ok))
        row = rows[first].tolist()
        try:
            Box(*row[:4])
        except ValueError as e:
            raise DataFormatError(f"{path}: line {linenos[first]}: {e}") from None
        raise DataFormatError(f"{path}: line {linenos[first]}: proposal score must be finite and >= 0, got {row[4]}")
    return ids, rows


def _first_rows(code: np.ndarray, seen: np.ndarray, limit: int) -> np.ndarray:
    """Mask of a block's rows that are among their image's first `limit` rows in the file.

    `code` holds each row's image code and `seen[c]` the rows of image c
    in earlier blocks, capped at `limit`; the block's rows are added to it.
    """
    counts = np.bincount(code, minlength=len(seen))
    # A row's rank within its image in this block, from a stable sort by image.
    order = np.argsort(code, kind="stable")
    rank = np.empty(len(code), dtype=np.intp)
    rank[order] = np.arange(len(code)) - (np.cumsum(counts) - counts)[code[order]]
    keep = rank < (limit - seen)[code]
    np.minimum(seen + counts, limit, out=seen)
    return keep


def read_corner_csv(path: str, scored: bool = True, limit: int | None = None) -> dict[str, np.ndarray]:
    """Read a corner-form CSV into per-image arrays, in file order.

    Each non-blank line is `image_id,xmin,ymin,xmax,ymax,score` when
    scored; otherwise it has 5 fields, or 6 with the last one ignored.
    Returns {image_id: rows} with images in order of first appearance
    and rows (x, y, w, h[, score]) in center form: (N, 5) when scored,
    (N, 4) otherwise. A field is accepted exactly when float() accepts
    it; every box must be finite with positive sides, and every score
    finite and >= 0. The first bad line in file order raises a
    DataFormatError naming it. Lines are streamed in fixed-size blocks,
    so memory beyond the result does not grow with the file. Kept rows
    are written in file order into one array grown in place; only a
    file whose images interleave is permuted into a second one. With a
    `limit`, each image keeps only its first `limit` rows in file order:
    every row is still checked, and each block drops the rows past their
    image's limit before the next block is read.
    """
    if limit is not None and limit < 1:
        raise ValueError(f"limit must be >= 1, got {limit}")
    width, counts = (6, (6,)) if scored else (5, (5, 6))
    expected = "6 fields" if scored else "5 or 6 fields"
    index: dict[str, int] = {}  # image id -> code, by first appearance
    seen = np.zeros(0, dtype=np.intp)  # rows per image code so far, capped at limit
    codes: list[np.ndarray] = []  # int32 image codes of each block's kept rows
    out = np.empty((0, width - 1))  # kept rows in file order, grown in place
    kept = 0
    done = 0  # lines read so far
    with open_input(path) as f:
        try:
            while lines := f.readlines(_READ_BYTES):
                first, done = done + 1, done + len(lines)
                lines = list(map(str.strip, lines))  # drops the unstripped lines
                nonblank = np.fromiter(map(bool, lines), dtype=bool, count=len(lines))
                lines = list(compress(lines, nonblank))
                linenos = first + np.flatnonzero(nonblank)
                n = np.fromiter(map(str.count, lines, repeat(",")), dtype=np.intp, count=len(lines)) + 1
                wrong = np.flatnonzero(~np.isin(n, counts))
                cut = int(wrong[0]) if wrong.size else len(lines)
                for i in np.flatnonzero(n[:cut] > width).tolist():
                    lines[i] = lines[i][: lines[i].rindex(",")]
                if cut:
                    ids, rows = _block_rows(path, lines[:cut], linenos[:cut], width)
                    for image_id in dict.fromkeys(ids):
                        index.setdefault(image_id, len(index))
                    code = np.fromiter(map(index.__getitem__, ids), dtype=np.int32, count=len(ids))
                    if limit is not None:
                        seen = np.pad(seen, (0, len(index) - len(seen)))
                        keep = _first_rows(code, seen, limit)
                        if not keep.all():
                            code, rows = code[keep], rows[keep]
                    codes.append(code)
                    if kept + len(rows) > len(out):
                        # Doubling: glibc grows a large block by remapping it, with no copy.
                        out.resize((max(2 * len(out), kept + len(rows)), width - 1), refcheck=False)
                    out[kept : kept + len(rows)] = rows
                    kept += len(rows)
                if wrong.size:
                    raise DataFormatError(f"{path}: line {linenos[cut]}: expected {expected}, got {n[cut]}")
        except UnicodeDecodeError as e:
            raise DataFormatError(f"{path}: not valid UTF-8 after line {done}: {e.reason}") from None
    if not kept:
        return {}
    out.resize((kept, width - 1), refcheck=False)
    code = np.concatenate(codes)
    del codes
    # Codes follow first appearance, so they only fall where images interleave.
    if (np.diff(code) < 0).any():
        out = out[np.argsort(code, kind="stable")]
    return dict(zip(index, np.split(out, np.cumsum(np.bincount(code))[:-1])))


def write_corner_csv(path: str, by_image: dict[str, np.ndarray]) -> None:
    """Write center-form rows as corner-form CSV lines, the inverse of read_corner_csv.

    Rows are (x, y, w, h) or (x, y, w, h, score); each line is the image
    id, xmin, ymin, xmax, ymax and the score if present. Floats keep full
    double precision. An id that ioutil.check_id refuses is a ValueError.
    """
    with atomic_write(path) as f:
        for image_id, rows in by_image.items():
            check_id(image_id)
            x, y, w, h = rows[:, :4].T
            corners = np.column_stack([x - 0.5 * w, y - 0.5 * h, x + 0.5 * w, y + 0.5 * h, rows[:, 4:]])
            f.write("".join(f"{image_id},{','.join(map(repr, r))}\n" for r in corners.tolist()))
