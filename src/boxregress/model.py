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

import numpy as np

from .boxes import apply_offsets_array, boxes_to_array, encode_offsets_array, iou
from .errors import DataFormatError
from .features import FEATURE_STRIDE, roi_align_many
from .losses import LossConfig, iou_loss_terms_batch, smooth_l1_terms_batch
from .sampling import SamplerConfig, generate_training_boxes_many

MODEL_MAGIC = b"UBBR1"

LOSS_KINDS = ("iou", "smooth_l1")


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
    lr_decay_factor: float = 10.0
    plateau_patience: int = 3      # epochs without held-out improvement before decay
    stop_lr: float = 1e-6
    minibatch_size: int = 128
    init_std: float = 0.001
    seed: int = 0
    hidden: tuple[int, int] = (256, 256)
    pool_size: int = 7
    val_fraction: float = 0.04
    val_boxes_per_gt: int = 150            # held-out pool density; high for a stable plateau signal
    plateau_rel_improvement: float = 2e-4  # smaller relative gains count as no improvement
    max_epochs: int = 200

    def __post_init__(self):
        positives = (
            self.momentum, self.weight_decay, self.initial_lr, self.lr_decay_factor,
            self.plateau_patience, self.stop_lr, self.minibatch_size, self.init_std,
            self.pool_size, self.val_fraction, self.val_boxes_per_gt,
            self.plateau_rel_improvement, self.max_epochs, *self.hidden,
        )
        if any(v <= 0 for v in positives):
            raise ValueError("all TrainConfig numeric fields must be positive")
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
    channels: int,
    pool_size: int = 7,
    hidden: tuple[int, int] = (256, 256),
    init_std: float = 0.001,
    rng: np.random.Generator | None = None,
) -> RegressorModel:
    """Fresh head: Gaussian weights with the given std, zero biases.

    The output layer always uses init_std, so a new model's refinement
    is near-identity. Hidden layers are drawn at fan-in scale so the
    gradient signal survives the two rectifier stages; pass None for rng
    to get an unseeded draw.
    """
    if rng is None:
        rng = np.random.default_rng()
    in_dim = channels * pool_size * pool_size
    h1, h2 = hidden
    w1 = rng.normal(0.0, math.sqrt(2.0 / in_dim), size=(h1, in_dim))
    w2 = rng.normal(0.0, math.sqrt(2.0 / h1), size=(h2, h1))
    w3 = rng.normal(0.0, init_std, size=(4, h2))
    return RegressorModel(
        pool_size, channels,
        w1, np.zeros(h1), w2, np.zeros(h2), w3, np.zeros(4),
    )


def _forward_batch(model: RegressorModel, x: np.ndarray):
    z1 = x @ model.w1.T + model.b1
    h1 = np.maximum(z1, 0.0)
    z2 = h1 @ model.w2.T + model.b2
    h2 = np.maximum(z2, 0.0)
    pred = h2 @ model.w3.T + model.b3
    return pred, (z1, h1, z2, h2)


def loss_and_weight_grads(
    model: RegressorModel,
    x: np.ndarray,
    input_boxes: np.ndarray,
    gt_boxes: np.ndarray,
    loss_cfg: LossConfig = LossConfig(),
    loss: str = "iou",
) -> tuple[float, dict[str, np.ndarray], int]:
    """Mean loss over a minibatch and its gradient in every head weight.

    Features x are (N, in_dim) and are treated as constants; input_boxes
    and gt_boxes are matched (N, 4) center-form arrays. Returns (loss,
    grads keyed like params(), fallback count).
    """
    if loss not in LOSS_KINDS:
        raise ValueError(f"loss must be one of {LOSS_KINDS}, got {loss!r}")
    n = x.shape[0]
    pred, (z1, h1, z2, h2) = _forward_batch(model, x)

    if loss == "iou":
        losses, dpred, fallback = iou_loss_terms_batch(pred, input_boxes, gt_boxes, loss_cfg)
        fallbacks = int(fallback.sum())
    else:
        targets = encode_offsets_array(input_boxes, gt_boxes)
        losses, dpred = smooth_l1_terms_batch(pred, targets, loss_cfg)
        fallbacks = 0

    dz3 = dpred / n
    dh2 = dz3 @ model.w3
    dz2 = dh2 * (z2 > 0.0)
    dh1 = dz2 @ model.w2
    dz1 = dh1 * (z1 > 0.0)
    grads = {
        "w3": dz3.T @ h2, "b3": dz3.sum(axis=0),
        "w2": dz2.T @ h1, "b2": dz2.sum(axis=0),
        "w1": dz1.T @ x, "b1": dz1.sum(axis=0),
    }
    return float(losses.mean()), grads, fallbacks


def _build_pool(scenes, sampler_cfg: SamplerConfig, rng: np.random.Generator, pool_size: int):
    """Sample training boxes for every ground truth and pool their features.

    The ground truths of all scenes are sampled in one call, scene after
    scene, so they share one offset stream; each scene's features are
    written into one preallocated array. Returns (features, input boxes,
    matched ground truths) with the box data as (N, 4) center-form
    arrays.
    """
    gts = [boxes_to_array(scene.gts) for scene in scenes]
    rows, counts = generate_training_boxes_many(
        np.concatenate(gts) if gts else np.empty((0, 4)), sampler_cfg, rng
    )
    if not len(rows):
        raise ValueError("no training boxes could be generated")
    # Each scene's rows end where its last ground truth's rows end.
    row_ends = np.concatenate(([0], np.cumsum(counts)))[np.cumsum([len(g) for g in gts], dtype=np.int64)]
    feats = np.empty((len(rows), scenes[0].feature_map().channels * pool_size * pool_size))
    matched = np.empty_like(rows)
    start = 0
    for scene, gts_arr, end in zip(scenes, gts, row_ends):
        if end > start:
            arr = rows[start:end]
            matched[start:end] = gts_arr[iou(arr[:, None], gts_arr[None]).argmax(axis=1)]
            feats[start:end] = roi_align_many(scene.feature_map(), arr / FEATURE_STRIDE, pool_size)
        start = end
    return feats, rows, matched


def _evaluate(model, x, input_boxes, gt_boxes, loss_cfg, loss):
    """Held-out loss and mean IoU of one-step refinement."""
    pred, _ = _forward_batch(model, x)
    if loss == "iou":
        losses, _, _ = iou_loss_terms_batch(pred, input_boxes, gt_boxes, loss_cfg)
    else:
        losses, _ = smooth_l1_terms_batch(pred, encode_offsets_array(input_boxes, gt_boxes), loss_cfg)
    refined = apply_offsets_array(input_boxes, pred)
    return float(losses.mean()), float(iou(refined, gt_boxes).mean())


def train(
    scenes,
    cfg: TrainConfig = TrainConfig(),
    sampler_cfg: SamplerConfig = SamplerConfig(),
    loss_cfg: LossConfig = LossConfig(),
    loss: str = "iou",
) -> tuple[RegressorModel, list[EpochStats]]:
    """Train a head on the given scenes; returns (best model, epoch log).

    Scenes must each carry at least one ground truth. The tail of the
    scene list (about val_fraction of it) is held out to drive the
    plateau schedule; the returned model is the best-validation one.
    Fixed seed and a single thread give bitwise-reproducible results.
    """
    if loss not in LOSS_KINDS:
        raise ValueError(f"loss must be one of {LOSS_KINDS}, got {loss!r}")
    if not scenes:
        raise ValueError("train requires at least one scene")
    for s in scenes:
        if not s.gts:
            raise ValueError(f"scene {s.id} has no ground-truth boxes")

    if len(scenes) >= 2:
        n_val = max(1, round(cfg.val_fraction * len(scenes)))
        train_scenes, val_scenes = scenes[:-n_val], scenes[-n_val:]
    else:
        train_scenes = val_scenes = list(scenes)

    channels = train_scenes[0].feature_map().channels
    model = init_model(channels, cfg.pool_size, cfg.hidden, cfg.init_std,
                       np.random.default_rng([cfg.seed, 0]))
    velocity = {k: np.zeros_like(v) for k, v in model.params().items()}

    val_sampler = replace(sampler_cfg, boxes_per_gt=cfg.val_boxes_per_gt)
    val_x, val_boxes, val_gts = _build_pool(val_scenes, val_sampler, np.random.default_rng([cfg.seed, 2]), cfg.pool_size)

    log: list[EpochStats] = []
    best_val = math.inf
    best_model = model.copy()
    checkpoint = model.copy()
    lr = cfg.initial_lr
    stall = 0

    for epoch in range(cfg.max_epochs):
        rng_e = np.random.default_rng([cfg.seed, 1, epoch])
        try:
            x, in_boxes, gt_boxes = _build_pool(train_scenes, sampler_cfg, rng_e, cfg.pool_size)
            perm = rng_e.permutation(len(in_boxes))
            running = 0.0
            for start in range(0, len(perm), cfg.minibatch_size):
                idx = perm[start : start + cfg.minibatch_size]
                mb_loss, grads, _ = loss_and_weight_grads(
                    model, x[idx], in_boxes[idx], gt_boxes[idx], loss_cfg, loss
                )
                running += mb_loss * len(idx)
                params = model.params()
                for name, p in params.items():
                    g = grads[name]
                    if name.startswith("w"):
                        g = g + cfg.weight_decay * p
                    velocity[name] = cfg.momentum * velocity[name] + g
                    p -= lr * velocity[name]
            train_loss = running / len(perm)
            del x, in_boxes, gt_boxes  # free this epoch's pool before the next one is built
            val_loss, val_miou = _evaluate(model, val_x, val_boxes, val_gts, loss_cfg, loss)
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
                lr /= cfg.lr_decay_factor
                stall = 0
        if lr < cfg.stop_lr:
            break
    return best_model, log


def refine(model: RegressorModel, scene, boxes: np.ndarray, iterations: int = 1) -> list[np.ndarray]:
    """Iteratively refine (N, 4) center-form boxes against one scene.

    The scene's feature map is computed once and reused. Returns the
    boxes after each iteration, one (N, 4) array each, so the result
    has `iterations` entries. Raises OverflowError if a refined row is
    not a box (a non-finite field or a non-positive side).
    """
    if iterations < 1:
        raise ValueError(f"iterations must be >= 1, got {iterations}")
    fm = scene.feature_map()
    if fm.channels != model.channels:
        raise ValueError(f"model expects {model.channels} channels, scene provides {fm.channels}")
    arr = boxes
    out: list[np.ndarray] = []
    for _ in range(iterations):
        feats = roi_align_many(fm, arr / FEATURE_STRIDE, model.pool_size)
        pred, _ = _forward_batch(model, feats)
        arr = apply_offsets_array(arr, pred)
        if not (np.isfinite(arr).all() and (arr[:, 2:] > 0.0).all()):
            raise OverflowError("refined boxes left the numeric range")
        out.append(arr)
    return out


def save_model(path: str, model: RegressorModel) -> None:
    """Write the flat binary model container."""
    from .ioutil import atomic_write

    h1 = model.w1.shape[0]
    h2 = model.w2.shape[0]
    with atomic_write(path, "wb") as f:
        f.write(MODEL_MAGIC)
        f.write(struct.pack("<6i", model.pool_size, model.channels, model.in_dim, h1, h2, 4))
        for name in ("w1", "b1", "w2", "b2", "w3", "b3"):
            f.write(model.params()[name].astype("<f8").tobytes())


def load_model(path: str) -> RegressorModel:
    """Read a model container; dimensions, length and finite weights are validated."""
    try:
        with open(path, "rb") as f:
            blob = f.read()
    except OSError as e:
        raise DataFormatError(f"{path}: {e}") from None
    if blob[: len(MODEL_MAGIC)] != MODEL_MAGIC:
        raise DataFormatError(f"{path}: bad magic, not a model container")
    header_end = len(MODEL_MAGIC) + 24
    if len(blob) < header_end:
        raise DataFormatError(f"{path}: truncated header")
    pool_size, channels, in_dim, h1, h2, out_dim = struct.unpack("<6i", blob[len(MODEL_MAGIC) : header_end])
    if in_dim != channels * pool_size * pool_size:
        raise DataFormatError(f"{path}: input width {in_dim} does not match {channels}x{pool_size}^2")
    if out_dim != 4:
        raise DataFormatError(f"{path}: output width must be 4, got {out_dim}")
    shapes = [(h1, in_dim), (h1,), (h2, h1), (h2,), (4, h2), (4,)]
    need = sum(int(np.prod(s)) for s in shapes)
    body = np.frombuffer(blob[header_end:], dtype="<f8")
    if body.size != need:
        raise DataFormatError(f"{path}: expected {need} weights, found {body.size}")
    # min and max propagate NaN and expose +-inf without a temporary array.
    if not (np.isfinite(body.min()) and np.isfinite(body.max())):
        first = int(np.flatnonzero(~np.isfinite(body))[0])
        raise DataFormatError(f"{path}: weight {first} is not finite ({body[first]})")
    arrays = []
    pos = 0
    for s in shapes:
        size = int(np.prod(s))
        arrays.append(body[pos : pos + size].reshape(s).copy())
        pos += size
    return RegressorModel(pool_size, channels, *arrays)
