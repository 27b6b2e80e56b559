"""Regression head: pooled features to box offsets, training, refinement.

The head is three affine layers with rectifiers in between, applied to a
RoI-Align feature vector. Training is plain SGD with momentum and weight
decay on the IoU loss (or the smooth-L1 baseline), with input boxes
regenerated every epoch and a divide-on-plateau learning-rate schedule
driven by a held-out loss. Pooled features are treated as constants, so
gradients flow through the head only.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, replace
from itertools import accumulate

import numpy as np

from .boxes import apply_offsets_array, iou
from .features import FEATURE_STRIDE, plane_buffer, roi_align_many
from .ioutil import BinaryReader, atomic_write
from .losses import LossConfig, loss_terms
from .sampling import SamplerConfig, generate_training_boxes_many
from .scenes import scene_map

MODEL_MAGIC = b"UBBR1"

# Widest hidden layer and largest pooling grid a TrainConfig may ask for: at both,
# a 3-channel head holds 5.8 million weights (46 MB), and training keeps six copies.
MAX_HIDDEN = 2048
MAX_POOL_SIZE = 16

# Fixed parts of the recipe: train's held-out share of its scenes, boxes per held-out ground
# truth (dense, for a stable plateau signal), and the divisor of the learning rate at a plateau.
VAL_FRACTION = 0.04
VAL_BOXES_PER_GT = 150
LR_DECAY_FACTOR = 10.0

# Refinement steps of refine and generate_proposals when not given, and propose's --iters.
PROPOSE_ITERATIONS = 1


class TrainingDiverged(RuntimeError):
    """Training hit non-finite values; carries the last finite checkpoint."""

    def __init__(self, message: str, model: "RegressorModel | None" = None, log: "list[EpochStats] | None" = None):
        super().__init__(message)
        self.model = model
        self.log = log or []


@dataclass
class RegressorModel:
    """Weights of the 3-layer head plus its pooling configuration."""

    pool_size: int
    channels: int
    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray
    w3: np.ndarray
    b3: np.ndarray

    def __post_init__(self):
        if self.w1.shape[1] != self.in_dim:
            raise ValueError(
                f"first layer expects {self.w1.shape[1]} inputs but pooling produces {self.in_dim}"
            )
        if self.w2.shape[1] != self.w1.shape[0] or self.w3.shape[1] != self.w2.shape[0]:
            raise ValueError("layer widths do not chain")
        if self.w3.shape[0] != 4:
            raise ValueError(f"output width must be 4, got {self.w3.shape[0]}")

    @property
    def in_dim(self) -> int:
        return self.channels * self.pool_size * self.pool_size

    def params(self) -> dict[str, np.ndarray]:
        return {"w1": self.w1, "b1": self.b1, "w2": self.w2, "b2": self.b2, "w3": self.w3, "b3": self.b3}

    def copy(self) -> "RegressorModel":
        return RegressorModel(
            self.pool_size, self.channels,
            self.w1.copy(), self.b1.copy(), self.w2.copy(), self.b2.copy(), self.w3.copy(), self.b3.copy(),
        )


@dataclass(frozen=True)
class TrainConfig:
    """Optimizer recipe and head shape."""

    momentum: float = 0.9
    weight_decay: float = 0.0005
    initial_lr: float = 1e-3
    plateau_patience: int = 3      # epochs without held-out improvement before decay
    stop_lr: float = 1e-6
    minibatch_size: int = 128
    init_std: float = 0.001
    seed: int = 0
    hidden: tuple[int, int] = (256, 256)
    pool_size: int = 7
    plateau_rel_improvement: float = 2e-4  # smaller relative gains count as no improvement
    max_epochs: int = 200

    def __post_init__(self):
        if len(self.hidden) != 2:
            raise ValueError(f"TrainConfig hidden must be two widths, got {self.hidden}")
        for name, v, cap in (("hidden", max(self.hidden), MAX_HIDDEN), ("pool_size", self.pool_size, MAX_POOL_SIZE)):
            if v > cap:
                raise ValueError(f"TrainConfig {name} must be at most {cap}, got {v}")
        # Plain SGD has no momentum or weight decay, and seeds start at 0; every
        # other field scales or counts something that must exist.
        nonnegative = {"momentum": self.momentum, "weight_decay": self.weight_decay, "seed": self.seed}
        positive = {
            "initial_lr": self.initial_lr, "plateau_patience": self.plateau_patience, "stop_lr": self.stop_lr,
            "minibatch_size": self.minibatch_size, "init_std": self.init_std, "pool_size": self.pool_size,
            "plateau_rel_improvement": self.plateau_rel_improvement, "max_epochs": self.max_epochs,
            "hidden": min(self.hidden),
        }
        for name, v in (*nonnegative.items(), *positive.items()):
            if not (math.isfinite(v) and (v > 0 if name in positive else v >= 0)):
                bound = "> 0" if name in positive else ">= 0"
                raise ValueError(f"TrainConfig {name} must be finite and {bound}, got {v}")
        if self.stop_lr >= self.initial_lr:
            raise ValueError(f"stop_lr must be below initial_lr, got {self.stop_lr} >= {self.initial_lr}")


@dataclass(frozen=True)
class EpochStats:
    epoch: int
    lr: float
    train_loss: float
    val_loss: float
    val_mean_iou: float


def init_model(
    channels: int, pool_size: int, hidden: tuple[int, int], init_std: float, rng: np.random.Generator
) -> RegressorModel:
    """Fresh head: Gaussian weights drawn from rng, zero biases.

    The output layer uses init_std, so a new model's refinement is
    near-identity. Hidden layers are drawn at fan-in scale so the
    gradient signal survives the two rectifier stages.
    """
    in_dim = channels * pool_size * pool_size
    h1, h2 = hidden
    w1 = rng.normal(0.0, math.sqrt(2.0 / in_dim), size=(h1, in_dim))
    w2 = rng.normal(0.0, math.sqrt(2.0 / h1), size=(h2, h1))
    w3 = rng.normal(0.0, init_std, size=(4, h2))
    return RegressorModel(
        pool_size, channels,
        w1, np.zeros(h1), w2, np.zeros(h2), w3, np.zeros(4),
    )


def _forward(model: RegressorModel, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The head's offsets for features x, and its two rectified activations.

    Each layer is computed in place in its own output array. A rectified
    unit is positive exactly where its pre-activation is, so the
    activations alone give the backward pass its masks.
    """
    h1 = x @ model.w1.T
    h1 += model.b1
    np.maximum(h1, 0.0, out=h1)
    h2 = h1 @ model.w2.T
    h2 += model.b2
    np.maximum(h2, 0.0, out=h2)
    pred = h2 @ model.w3.T
    pred += model.b3
    return pred, h1, h2


def loss_and_weight_grads(
    model: RegressorModel,
    x: np.ndarray,
    input_boxes: np.ndarray,
    gt_boxes: np.ndarray,
    loss_cfg: LossConfig = LossConfig(),
) -> tuple[float, dict[str, np.ndarray], int]:
    """Mean loss of loss_cfg's kind over a minibatch and its gradient in every head weight.

    Features x are (N, in_dim) and are treated as constants; input_boxes
    and gt_boxes are matched (N, 4) center-form arrays. Returns (loss,
    grads keyed like params(), fallback count).
    """
    n = x.shape[0]
    pred, h1, h2 = _forward(model, x)
    losses, dpred, fallback = loss_terms(pred, input_boxes, gt_boxes, loss_cfg)

    dz3 = dpred / n
    dh2 = dz3 @ model.w3
    dz2 = dh2 * (h2 > 0.0)
    dh1 = dz2 @ model.w2
    dz1 = dh1 * (h1 > 0.0)
    grads = {
        "w3": dz3.T @ h2, "b3": dz3.sum(axis=0),
        "w2": dz2.T @ h1, "b2": dz2.sum(axis=0),
        "w1": dz1.T @ x, "b1": dz1.sum(axis=0),
    }
    return float(losses.mean()), grads, int(fallback.sum())


def _build_pool(scenes, sampler_cfg: SamplerConfig, rng: np.random.Generator):
    """Sample training boxes for every ground truth of the scenes.

    The ground truths of all scenes are sampled in one call, scene after
    scene, so they share one offset stream. Returns (input boxes,
    matched ground truths, scene index of each row): the boxes as (N, 4)
    center-form arrays, in scene order. Features are pooled later, from
    a plane buffer of the scenes' maps.
    """
    gts = [scene.boxes for scene in scenes]
    rows, counts = generate_training_boxes_many(
        np.concatenate(gts) if gts else np.empty((0, 4)), sampler_cfg, rng
    )
    if not len(rows):
        raise ValueError("no training boxes could be generated")
    # Each scene's rows end where its last ground truth's rows end.
    row_ends = np.concatenate(([0], np.cumsum(counts)))[np.cumsum([len(g) for g in gts], dtype=np.int64)]
    matched = np.empty_like(rows)
    start = 0
    for gts_arr, end in zip(gts, row_ends):
        if end > start:
            matched[start:end] = gts_arr[iou(rows[start:end, None], gts_arr[None]).argmax(axis=1)]
        start = end
    scene_of = np.repeat(np.arange(len(scenes)), np.diff(row_ends, prepend=0))
    return rows, matched, scene_of


# Minibatches pooled at once in _train_epoch. Against pooling the whole
# epoch up front (192 scenes of the default recipe; one thread of a
# 2-vCPU Xeon VM, SkylakeX OpenBLAS kernel; median of 24 alternating
# epochs), pooling each minibatch alone took 1.08x the epoch time, its
# many small gathers missing cache; spans of 8, 16 and 32 took 0.99x,
# 0.99x and 0.98x. A span of 16 holds 2.4 MB of features at the default
# minibatch, where the epoch's pool held 22 MB.
_POOL_SPAN = 16


# Rows per head chunk in refine and _evaluate, and per pooling chunk in
# refine; chunks start at multiples of it. Pooling is elementwise per
# row, but a row's matrix-product bits can depend on the BLAS kernel's
# row blocking. Chunks that start at these multiples, each 512-1023 rows
# long, gave predictions bitwise equal to one unchunked product on every
# OpenBLAS kernel tried (Prescott to SkylakeX); equal-sized chunks did
# not on several, and on the output layer chunks of 300 rows or fewer
# differed even on the default kernel.
_REFINE_ROWS = 512


def _row_chunks(n: int) -> list[int]:
    """Chunk edges for n rows: every multiple of _REFINE_ROWS below n, then n.

    A remainder shorter than _REFINE_ROWS joins the chunk before it, so
    fewer than 2 * _REFINE_ROWS rows stay one chunk.
    """
    return list(range(0, n, _REFINE_ROWS))[: max(1, n // _REFINE_ROWS)] + [n]


def _predict(model: RegressorModel, n: int, features) -> np.ndarray:
    """The head's (n, 4) offsets, run in row chunks (see _REFINE_ROWS).

    features(a, b) gives the pooled features of rows a to b.
    """
    pred = np.empty((n, 4))
    edges = _row_chunks(n)
    for a, b in zip(edges[:-1], edges[1:]):
        pred[a:b] = _forward(model, features(a, b))[0]
    return pred


def _evaluate(model, x, input_boxes, gt_boxes, loss_cfg):
    """Held-out loss and mean IoU of one-step refinement."""
    pred = _predict(model, len(x), lambda a, b: x[a:b])
    losses = loss_terms(pred, input_boxes, gt_boxes, loss_cfg)[0]
    refined = apply_offsets_array(input_boxes, pred)
    return float(losses.mean()), float(iou(refined, gt_boxes).mean())


def _train_epoch(model, velocity, scenes, buf, rng, lr, cfg, sampler_cfg, loss_cfg) -> float:
    """One epoch of SGD on freshly sampled boxes; returns its mean training loss.

    Samples the boxes from rng, then draws the minibatch order from it.
    Features are pooled from buf, the plane buffer of the scenes' maps,
    _POOL_SPAN minibatches at a time just before those steps run. The
    weights and their velocities are updated in place: each step adds
    weight decay to the weight gradients, then sets v = momentum * v +
    g and p -= lr * v, through one scratch array per weight.
    """
    in_boxes, gt_boxes, scene_of = _build_pool(scenes, sampler_cfg, rng)
    perm = rng.permutation(len(in_boxes))
    params = model.params()
    scratch = {name: np.empty_like(p) for name, p in params.items()}
    mb = cfg.minibatch_size
    running = 0.0
    for span in range(0, len(perm), mb * _POOL_SPAN):
        span_idx = perm[span : span + mb * _POOL_SPAN]
        # Pool the span's rows sorted, which is scene order, so the gathers
        # walk the buffer forward; then put them back in minibatch order.
        order = np.argsort(span_idx)
        rows = span_idx[order]
        x = roi_align_many(buf, in_boxes[rows] / FEATURE_STRIDE, cfg.pool_size, scene_of[rows])[np.argsort(order)]
        for start in range(0, len(span_idx), mb):
            idx = span_idx[start : start + mb]
            mb_loss, grads, _ = loss_and_weight_grads(
                model, x[start : start + mb], in_boxes[idx], gt_boxes[idx], loss_cfg
            )
            running += mb_loss * len(idx)
            for name, p in params.items():
                g, v, s = grads[name], velocity[name], scratch[name]
                if name.startswith("w"):
                    np.multiply(p, cfg.weight_decay, out=s)
                    g += s
                v *= cfg.momentum
                v += g
                np.multiply(v, lr, out=s)
                p -= s
        del x  # the next span's features replace these
    return running / len(perm)


def train(
    scenes,
    cfg: TrainConfig = TrainConfig(),
    sampler_cfg: SamplerConfig = SamplerConfig(),
    loss_cfg: LossConfig = LossConfig(),
) -> tuple[RegressorModel, list[EpochStats]]:
    """Train a head on the given scenes; returns (best model, epoch log).

    Scenes must each carry at least one ground truth. The tail of the
    scene list (about VAL_FRACTION of it) is held out to drive the
    plateau schedule; the returned model is the best-validation one.
    Fixed seed and a single thread give bitwise-reproducible results.
    """
    if not scenes:
        raise ValueError("train requires at least one scene")
    for s in scenes:
        if not len(s.boxes):
            raise ValueError(f"scene {s.id} has no ground-truth boxes")

    if len(scenes) >= 2:
        n_val = max(1, round(VAL_FRACTION * len(scenes)))
        train_scenes, val_scenes = scenes[:-n_val], scenes[-n_val:]
    else:
        train_scenes = val_scenes = list(scenes)

    model = init_model(train_scenes[0].channels, cfg.pool_size, cfg.hidden, cfg.init_std,
                       np.random.default_rng([cfg.seed, 0]))
    velocity = {k: np.zeros_like(v) for k, v in model.params().items()}

    # The held-out features are pooled once; the training scenes' planes
    # stay in one buffer that every epoch pools from.
    val_sampler = replace(sampler_cfg, boxes_per_gt=VAL_BOXES_PER_GT)
    val_boxes, val_gts, val_of = _build_pool(val_scenes, val_sampler, np.random.default_rng([cfg.seed, 2]))
    val_x = roi_align_many(
        plane_buffer([scene_map(s) for s in val_scenes]), val_boxes / FEATURE_STRIDE, cfg.pool_size, val_of
    )
    buf = plane_buffer([scene_map(s) for s in train_scenes])

    log: list[EpochStats] = []
    best_val = math.inf
    best_model = model.copy()
    checkpoint = model.copy()
    lr = cfg.initial_lr
    stall = 0

    for epoch in range(cfg.max_epochs):
        try:
            train_loss = _train_epoch(
                model, velocity, train_scenes, buf, np.random.default_rng([cfg.seed, 1, epoch]),
                lr, cfg, sampler_cfg, loss_cfg,
            )
            val_loss, val_miou = _evaluate(model, val_x, val_boxes, val_gts, loss_cfg)
        except (OverflowError, ValueError) as e:
            raise TrainingDiverged(f"epoch {epoch}: {e}", model=checkpoint, log=log) from None

        if not (math.isfinite(train_loss) and math.isfinite(val_loss)):
            raise TrainingDiverged(
                f"epoch {epoch}: non-finite loss (train={train_loss}, val={val_loss})",
                model=checkpoint, log=log,
            )

        checkpoint = model.copy()
        log.append(EpochStats(epoch, lr, train_loss, val_loss, val_miou))

        if val_loss < best_val * (1.0 - cfg.plateau_rel_improvement):
            best_val = val_loss
            best_model = model.copy()
            stall = 0
        else:
            if val_loss < best_val:
                best_val = val_loss
                best_model = model.copy()
            stall += 1
            if stall >= cfg.plateau_patience:
                lr /= LR_DECAY_FACTOR
                stall = 0
        if lr < cfg.stop_lr:
            break
    return best_model, log


def check_iterations(iterations: int, name: str = "iterations") -> None:
    """Refuse fewer than one refinement iteration; `name` labels the count."""
    if iterations < 1:
        raise ValueError(f"{name} must be >= 1, got {iterations}")


def refine(
    model: RegressorModel, scene, boxes: np.ndarray, iterations: int = PROPOSE_ITERATIONS
) -> list[np.ndarray]:
    """Iteratively refine (N, 4) center-form boxes against one scene.

    The scene's map (scene_map) is taken once and reused. Boxes are
    pooled and run through the head in row chunks (see _REFINE_ROWS),
    so working memory beyond the (N, 4) arrays does not grow with N.
    Returns the boxes after each iteration, one (N, 4) array each, so
    the result has `iterations` entries. Raises OverflowError if a
    refined row is not a box (a non-finite field or a non-positive side).
    """
    check_iterations(iterations)
    fm = scene_map(scene)
    if fm.channels != model.channels:
        raise ValueError(f"model expects {model.channels} channels, scene provides {fm.channels}")
    buf = plane_buffer([fm])
    arr = boxes
    out: list[np.ndarray] = []
    for _ in range(iterations):
        pred = _predict(model, len(arr), lambda a, b: roi_align_many(buf, arr[a:b] / FEATURE_STRIDE, model.pool_size))
        arr = apply_offsets_array(arr, pred)
        if not (np.isfinite(arr).all() and (arr[:, 2:] > 0.0).all()):
            raise OverflowError("refined boxes left the numeric range")
        out.append(arr)
    return out


def save_model(path: str, model: RegressorModel) -> None:
    """Write the flat binary model container."""
    h1 = model.w1.shape[0]
    h2 = model.w2.shape[0]
    with atomic_write(path, "wb") as f:
        f.write(MODEL_MAGIC)
        f.write(struct.pack("<6i", model.pool_size, model.channels, model.in_dim, h1, h2, 4))
        for name in ("w1", "b1", "w2", "b2", "w3", "b3"):
            f.write(model.params()[name].astype("<f8").tobytes())


def load_model(path: str) -> RegressorModel:
    """Read a model container; dimensions, length and finite weights are validated."""
    r = BinaryReader(path)
    if r.take(min(len(MODEL_MAGIC), r.left())) != MODEL_MAGIC:
        raise r.error("bad magic, not a model container")
    if r.left() < 24:
        raise r.error("truncated header")
    header = r.unpack("<6i")
    for name, value in zip(("pool size", "channels", "input width", "hidden width 1", "hidden width 2",
                            "output width"), header):
        if value < 1:
            raise r.error(f"{name} must be >= 1, got {value}")
    pool_size, channels, in_dim, h1, h2, out_dim = header
    if in_dim != channels * pool_size * pool_size:
        raise r.error(f"input width {in_dim} does not match {channels}x{pool_size}^2")
    if out_dim != 4:
        raise r.error(f"output width must be 4, got {out_dim}")
    # Python ints: every count is a product of positive header fields, exact at any size.
    shapes = [(h1, in_dim), (h1,), (h2, h1), (h2,), (4, h2), (4,)]
    need = sum(map(math.prod, shapes))
    found, extra = divmod(r.left(), 8)
    if (found, extra) != (need, 0):
        raise r.error(f"expected {need} weights, found {found}" + (f" and a {extra}-byte remainder" if extra else ""))
    arrays = [r.array("<f8", s) for s in shapes]
    for a, done in zip(arrays, accumulate((a.size for a in arrays), initial=0)):
        # min and max propagate NaN and expose +-inf without a temporary array.
        if not (np.isfinite(a.min()) and np.isfinite(a.max())):
            first = int(np.flatnonzero(~np.isfinite(a))[0])
            raise r.error(f"weight {done + first} is not finite ({a.flat[first]})")
    return RegressorModel(pool_size, channels, *arrays)
