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

# Most bytes of offsets one pass of generate_training_boxes_many scans; a
# pass holds at least one chunk.
_PASS_BYTES = 1 << 20


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
    SampleBudgetWarning. The stream of chunks is scanned in passes of at
    most _PASS_BYTES of offsets, one chunk for each of several ground
    truths at once. A ground truth that its chunk does not settle is cut
    short: the chunks of the ones after it go back to the stream, and it
    carries its state into passes of its own over doubling spans. Since
    every ground truth takes at least one chunk, no more chunks are drawn
    than ground truths are left. The rows, the warnings and the final
    RNG state are those of sampling the ground truths one at a time.
    """
    gts = np.asarray(gts, dtype=np.float64).reshape(-1, 4)
    q, budget = cfg.boxes_per_gt, cfg.max_attempts_per_box
    chunk = 4 * q
    low, high = cfg._bounds()
    per_pass = max(1, _PASS_BYTES // (32 * chunk))  # chunks of float64 offsets one pass may hold

    n_gts = len(gts)
    counts = np.zeros(n_gts, dtype=np.int64)
    rows = np.empty((n_gts * q, 4))  # each ground truth keeps at most q rows
    filled = 0
    stream = np.empty((0, chunk, 4))  # chunks drawn but not yet scanned
    k = 0  # first ground truth of the pass
    n0 = run0 = 0  # its accepts and rejection run, carried from the last pass
    m, span = n_gts, 1  # ground truths in the pass, chunks each; span > 1 only if m == 1
    while k < n_gts:
        m, span = min(m, per_pass, n_gts - k), min(span, per_pass, n_gts - k)
        if len(stream) < m * span:  # refill to a full pass
            more = rng.uniform(low, high, size=((min(per_pass, n_gts - k) - len(stream)) * chunk, 4))
            stream = np.concatenate((stream, more.reshape(-1, chunk, 4)))
        offs = stream[: m * span].reshape(m, span * chunk, 4)
        g = gts[k : k + m]
        boxes = apply_offsets_array(np.broadcast_to(g[:, None], offs.shape), offs)
        ok = iou(boxes, g[:, None]) >= cfg.t
        carry = np.zeros((2, m), dtype=np.int64)
        carry[:, 0] = n0, run0
        stop, n, run = _scan(ok, q, budget, *carry)
        settled = m if (stop >= 0).all() else int(np.argmin(stop >= 0))
        used = min(settled + 1, m)  # the settled ground truths and the one cut short
        last = np.where(stop[:used] >= 0, stop[:used], span * chunk - 1)
        accepted = boxes[:used][ok[:used] & (np.arange(span * chunk) <= last[:, None])]
        rows[filled : filled + len(accepted)] = accepted
        filled += len(accepted)
        counts[k : k + settled] = n[:settled]
        stream = stream[int((last // chunk + 1).sum()) :]
        k += settled
        if settled == m:
            m, span, n0, run0 = 2 * (settled + 1), 1, 0, 0
        else:
            span = 2 * span if m == 1 else 1
            m, n0, run0 = 1, n[settled], run[settled]
    for i in np.flatnonzero(counts < q):  # a ground truth that reaches q settles there
        warnings.warn(
            f"gave up after {budget} attempts per box: kept {counts[i]} of {q} (t={cfg.t})",
            SampleBudgetWarning,
            stacklevel=2,
        )
    return rows[:filled], counts


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
