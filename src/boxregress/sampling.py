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

from .boxes import apply_offsets_array, iou


# Most boxes per ground truth a SamplerConfig may ask for. Each ground truth's
# chunk of 4 * boxes_per_gt offsets is then at most 4 MB.
MAX_BOXES_PER_GT = 1 << 15


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
        if not (math.isfinite(self.alpha) and self.alpha >= 0):
            raise ValueError(f"alpha must be finite and >= 0, got {self.alpha}")
        if not 0 <= self.beta < 1:
            raise ValueError(f"beta must be in [0, 1), got {self.beta}")
        if not 0 <= self.t < 1:
            raise ValueError(f"t must be in [0, 1), got {self.t}")
        if not 1 <= self.boxes_per_gt <= MAX_BOXES_PER_GT:
            raise ValueError(f"boxes_per_gt must be in [1, {MAX_BOXES_PER_GT}], got {self.boxes_per_gt}")
        if self.max_attempts_per_box < 1:
            raise ValueError(f"max_attempts_per_box must be >= 1, got {self.max_attempts_per_box}")

    def _bounds(self) -> tuple[np.ndarray, np.ndarray]:
        lo = math.log1p(-self.beta)
        hi = math.log1p(self.beta)
        return (
            np.array([-self.alpha, -self.alpha, lo, lo]),
            np.array([self.alpha, self.alpha, hi, hi]),
        )


def generate_training_boxes_many(
    gts: np.ndarray, cfg: SamplerConfig, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Perturbed copies of each (G, 4) center-form ground truth, in order.

    Returns (rows, counts): rows is (N, 4) with each ground truth's
    accepted boxes in acceptance order, ground truth after ground truth,
    and counts (G,) says how many rows each one got.

    Every ground truth consumes offsets in chunks of 4 * boxes_per_gt
    draws, starting a fresh chunk, and scans them one attempt at a time:
    a draw is accepted when its box overlaps the ground truth with
    IoU >= cfg.t, and each output slot gets at most max_attempts_per_box
    draws. A ground truth that runs out of attempts stops early with a
    SampleBudgetWarning. Since every ground truth takes at least one
    chunk, one chunk per remaining ground truth is drawn at a time and
    scanned for all of them at once; a ground truth that its own chunk
    does not settle continues into the chunks after it, which shifts
    the ones that follow. The rows, the warnings and the final RNG state
    are those of sampling the ground truths one at a time.
    """
    gts = np.asarray(gts, dtype=np.float64).reshape(-1, 4)
    q, budget = cfg.boxes_per_gt, cfg.max_attempts_per_box
    chunk = 4 * q
    low, high = cfg._bounds()

    def draw(n_chunks: int) -> np.ndarray:
        return rng.uniform(low, high, size=(n_chunks * chunk, 4)).reshape(n_chunks, chunk, 4)

    def accepts(g: np.ndarray, offs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # Candidate boxes and accept flags for (K, 4) ground truths and (K, L, 4) offsets.
        boxes = apply_offsets_array(np.broadcast_to(g[:, None], offs.shape), offs)
        return boxes, iou(boxes, g[:, None]) >= cfg.t

    n_gts = len(gts)
    counts = np.zeros(n_gts, dtype=np.int64)
    pieces: list[np.ndarray] = []
    gave_up: list[int] = []
    stream = np.empty((0, chunk, 4))
    k = 0  # next ground truth to sample
    s = 0  # its first chunk in stream
    window = n_gts  # ground truths scanned per pass; shrinks after a ground truth spills over
    while k < n_gts:
        if len(stream) - s < n_gts - k:
            stream = np.concatenate((stream[s:], draw(n_gts - k - (len(stream) - s))))
            s = 0
        m = min(window, n_gts - k)
        boxes, ok = accepts(gts[k : k + m], stream[s : s + m])
        stop, n, run = _scan(ok, q, budget, np.zeros(m, dtype=np.int64), np.zeros(m, dtype=np.int64))
        settled = m if (stop >= 0).all() else int(np.argmin(stop >= 0))
        keep = ok[:settled] & (np.arange(chunk) <= stop[:settled, None])
        pieces.append(boxes[:settled][keep])
        counts[k : k + settled] = n[:settled]
        gave_up += [k + i for i in np.flatnonzero(~ok[np.arange(settled), stop[:settled]])]
        k += settled
        s += settled
        window = 2 * (settled + 1)
        if settled == m:
            continue
        # Ground truth k continues the one-attempt-at-a-time scan into the
        # chunks after its own, a doubling span of them at a time.
        pieces.append(boxes[settled][ok[settled]])
        n_k, run_k = n[settled : settled + 1], run[settled : settled + 1]
        s += 1
        span = 1
        while True:
            if s == len(stream):
                stream, s = draw(n_gts - k), 0
            ahead = stream[s : s + span]
            boxes_k, ok_k = accepts(gts[k : k + 1], ahead.reshape(1, -1, 4))
            stop_k, n_k, run_k = _scan(ok_k, q, budget, n_k, run_k)
            if stop_k[0] >= 0:
                break
            pieces.append(boxes_k[0][ok_k[0]])
            s += len(ahead)
            span *= 2
        stop = int(stop_k[0])
        pieces.append(boxes_k[0][: stop + 1][ok_k[0, : stop + 1]])
        counts[k] = n_k[0]
        if not ok_k[0, stop]:
            gave_up.append(k)
        k += 1
        s += stop // chunk + 1
    for i in gave_up:
        warnings.warn(
            f"gave up after {budget} attempts per box: kept {counts[i]} of {q} (t={cfg.t})",
            SampleBudgetWarning,
            stacklevel=2,
        )
    rows = np.concatenate(pieces) if pieces else np.empty((0, 4))
    return rows, counts


def _scan(ok: np.ndarray, q: int, budget: int, n0: np.ndarray, run0: np.ndarray):
    """Scan (K, C) accept flags one attempt at a time, each row from its own state.

    n0 and run0 (K,) are the accepts so far and the current run of
    rejections. A row settles at its q-th accept or at the budget-th
    rejection in a row. Returns (stop, n, run): the position where each
    row settles or -1, the accepts through stop (or the whole row), and
    the run of rejections at the row's end.
    """
    pos = np.arange(ok.shape[1])
    cum = n0[:, None] + np.cumsum(ok, axis=1)
    last_accept = np.maximum.accumulate(np.where(ok, pos, -1 - run0[:, None]), axis=1)
    runs = pos - last_accept
    end = (cum >= q) | (runs >= budget)
    settled = end.any(axis=1)
    stop = np.where(settled, end.argmax(axis=1), -1)
    n = np.where(settled, cum[np.arange(len(ok)), stop], cum[:, -1])
    return stop, n, runs[:, -1]
