import ctypes
import glob
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

import boxregress
from boxregress import model as model_module
from boxregress.boxes import Box, apply_offsets_array, encode_offsets_array, iou
from boxregress.features import FEATURE_STRIDE, plane_buffer, roi_align_many
from boxregress.losses import LossConfig, iou_loss_terms_batch, smooth_l1_terms_batch
from boxregress.model import (
    EpochStats,
    RegressorModel,
    TrainConfig,
    TrainingDiverged,
    _build_pool,
    _forward,
    init_model,
    load_model,
    loss_and_weight_grads,
    refine,
    save_model,
    train,
)
from boxregress.proposals import SeedGridConfig, seed_grid
from boxregress.sampling import SampleBudgetWarning, SamplerConfig, generate_training_boxes_many
from boxregress.scenes import Scene, SynthConfig, scene_map, synth_scenes

from test_features import oracle_roi_align_many
from test_sampling import oracle_generate_training_boxes

LOSS_CFG = LossConfig()


def zero_model(channels=3, pool_size=7, hidden=(8, 8)):
    h1, h2 = hidden
    in_dim = channels * pool_size * pool_size
    return RegressorModel(
        pool_size, channels,
        np.zeros((h1, in_dim)), np.zeros(h1),
        np.zeros((h2, h1)), np.zeros(h2),
        np.zeros((4, h2)), np.zeros(4),
    )


def forward(model, features):
    """The head's (tx, ty, tw, th) for one pooled feature vector."""
    return tuple(_forward(model, np.asarray(features, dtype=np.float64)[None])[0][0].tolist())


class TestForward:
    def test_zero_weights_identity_offsets(self):
        m = zero_model()
        assert forward(m, np.ones(m.in_dim)) == (0, 0, 0, 0)

    def test_hand_computed_toy(self):
        m = RegressorModel(
            1, 1,
            np.array([[1.0], [-1.0]]), np.array([0.5, 0.0]),
            np.array([[1.0, 1.0], [0.0, 1.0]]), np.array([0.0, 0.0]),
            np.array([[1.0, 0.0], [0.0, 1.0], [0.5, 0.0], [-1.0, 0.0]]), np.array([0.0, 0.0, 0.1, 0.0]),
        )
        # features [2]: z1 = (2.5, -2) -> h1 = (2.5, 0) -> z2 = (2.5, 0) -> pred
        assert forward(m, np.array([2.0])) == (2.5, 0.0, 1.35, -2.5)

    def test_dimension_mismatch_rejected(self):
        m = zero_model()
        with pytest.raises(ValueError):
            forward(m, np.ones(m.in_dim + 1))

    def test_fresh_init_is_near_identity(self):
        rng = np.random.default_rng(0)
        worst = 0.0
        for _ in range(1000):
            m = init_model(3, 7, (256, 256), init_std=0.001, rng=rng)
            features = rng.normal(size=m.in_dim)
            features /= np.linalg.norm(features)
            worst = max(worst, *map(abs, forward(m, features)))
        assert worst < 0.1


class TestModelValidation:
    def test_bad_chain_rejected(self):
        with pytest.raises(ValueError):
            RegressorModel(
                7, 3,
                np.zeros((8, 100)), np.zeros(8),  # in_dim should be 147
                np.zeros((8, 8)), np.zeros(8),
                np.zeros((4, 8)), np.zeros(4),
            )

    def test_bad_output_width(self):
        with pytest.raises(ValueError):
            RegressorModel(
                1, 1,
                np.zeros((2, 1)), np.zeros(2),
                np.zeros((2, 2)), np.zeros(2),
                np.zeros((3, 2)), np.zeros(3),
            )


class TestSerialization:
    def test_roundtrip(self, tmp_path):
        m = init_model(3, 7, (16, 12), init_std=0.001, rng=np.random.default_rng(1))
        path = str(tmp_path / "model.ubbr")
        save_model(path, m)
        loaded = load_model(path)
        assert loaded.pool_size == m.pool_size and loaded.channels == m.channels
        for k, v in m.params().items():
            assert np.array_equal(loaded.params()[k], v)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.ubbr"
        path.write_bytes(b"NOTAMODEL" + b"\0" * 64)
        from boxregress.errors import DataFormatError

        with pytest.raises(DataFormatError):
            load_model(str(path))

    def test_truncated(self, tmp_path):
        m = init_model(2, 3, (4, 4), init_std=0.001, rng=np.random.default_rng(2))
        path = str(tmp_path / "model.ubbr")
        save_model(path, m)
        blob = open(path, "rb").read()
        open(path, "wb").write(blob[:-16])
        from boxregress.errors import DataFormatError

        with pytest.raises(DataFormatError):
            load_model(path)

    def test_inconsistent_header(self, tmp_path):
        import struct

        path = tmp_path / "model.ubbr"
        path.write_bytes(b"UBBR1" + struct.pack("<6i", 7, 3, 999, 4, 4, 4))
        from boxregress.errors import DataFormatError

        with pytest.raises(DataFormatError):
            load_model(str(path))


class TestWeightGradients:
    @pytest.mark.parametrize("loss", ["iou", "smooth_l1"])
    def test_matches_finite_differences(self, loss):
        checked = 0
        for seed in range(60):
            got = gradcheck_sample(seed, loss, coords_per_param=1)
            if got is None:
                continue
            checked += got
        assert checked >= 100


def gradcheck_sample(seed, loss, coords_per_param=1, h=1e-5):
    """Finite-difference check of one random smooth sample.

    Returns the number of coordinates verified, or None when the sample
    sits too close to a rectifier or box-edge kink for central
    differences to be trustworthy.
    """
    rng = np.random.default_rng(seed)
    m = init_model(1, 3, (10, 10), init_std=0.001, rng=rng)
    for name, p in m.params().items():
        if name.startswith("w"):
            p += rng.normal(0, 0.2, p.shape)
        else:
            p += rng.uniform(0.05, 0.15, p.shape)
    x = rng.normal(size=(3, m.in_dim))
    boxes = np.array([[0.0, 0.0, 4.0, 4.0], [1.0, 1.0, 3.0, 5.0], [-1.0, 2.0, 5.0, 2.0]])
    gts = boxes * np.array([1, 1, 1.2, 0.9]) + np.array([0.5, -0.3, 0, 0])

    pred, (z1, _, z2, _) = oracle_forward_batch(m, x)
    if min(np.abs(z1).min(), np.abs(z2).min()) < 1e-3:
        return None
    if loss == "iou":
        refined = apply_offsets_array(boxes, pred)
        r_lo = refined[:, :2] - 0.5 * refined[:, 2:]
        r_hi = refined[:, :2] + 0.5 * refined[:, 2:]
        g_lo = gts[:, :2] - 0.5 * gts[:, 2:]
        g_hi = gts[:, :2] + 0.5 * gts[:, 2:]
        iw_ih = np.minimum(r_hi, g_hi) - np.maximum(r_lo, g_lo)
        if iw_ih.min() < 1e-2:  # disjoint or near-degenerate intersection
            return None
        if min(np.abs(r_hi - g_hi).min(), np.abs(r_lo - g_lo).min()) < 1e-3:
            return None
    else:
        d = pred - encode_offsets_array(boxes, gts)
        if np.abs(np.abs(d) - 1.0).min() < 1e-3:
            return None

    loss_cfg = LossConfig(kind=loss)
    _, grads, fallbacks = loss_and_weight_grads(m, x, boxes, gts, loss_cfg)
    assert fallbacks == 0
    coord_rng = np.random.default_rng(10_000 + seed)
    checked = 0
    for name, p in m.params().items():
        flat = p.reshape(-1)
        for idx in coord_rng.integers(0, flat.size, size=coords_per_param):
            orig = flat[idx]
            flat[idx] = orig + h
            lp, _, _ = loss_and_weight_grads(m, x, boxes, gts, loss_cfg)
            flat[idx] = orig - h
            lm, _, _ = loss_and_weight_grads(m, x, boxes, gts, loss_cfg)
            flat[idx] = orig
            fd = (lp - lm) / (2 * h)
            an = grads[name].reshape(-1)[idx]
            if max(abs(an), abs(fd)) < 1e-7:  # dead unit, nothing to compare
                continue
            rel = abs(an - fd) / max(abs(an), abs(fd), 1e-8)
            assert rel < 1e-3, f"seed {seed} {name}[{idx}]: analytic {an} vs fd {fd}"
            checked += 1
    return checked


class TestRefine:
    def test_zero_weight_model_is_identity(self):
        scenes = synth_scenes(SynthConfig(seed=0), 1)
        m = zero_model()
        boxes = np.array([[30.0, 40, 20, 10], [60, 60, 30, 30]])
        traj = refine(m, scenes[0], boxes, iterations=3)
        assert len(traj) == 3
        for stage in traj:
            assert np.array_equal(stage, boxes)

    def test_single_iteration_equals_one_pass(self):
        scenes = synth_scenes(SynthConfig(seed=1), 1)
        m = init_model(3, 7, (16, 16), init_std=0.05, rng=np.random.default_rng(3))
        boxes = scenes[0].boxes
        one = refine(m, scenes[0], boxes, iterations=1)
        three = refine(m, scenes[0], boxes, iterations=3)
        assert np.array_equal(one[0], three[0])

    def test_iterations_validated(self):
        scenes = synth_scenes(SynthConfig(seed=2), 1)
        with pytest.raises(ValueError):
            refine(zero_model(), scenes[0], scenes[0].boxes, iterations=0)

    def test_channel_mismatch_rejected(self):
        scenes = synth_scenes(SynthConfig(seed=3), 1)
        with pytest.raises(ValueError):
            refine(zero_model(channels=5), scenes[0], scenes[0].boxes, iterations=1)

    @pytest.mark.parametrize("iterations", [1, 2, 3])
    def test_inference_forward_matches_training_forward(self, iterations):
        # refine's offsets must be the reference training forward's pred
        # bit for bit, at the default head width.
        scene = synth_scenes(SynthConfig(seed=5, max_objects=3), 1)[0]
        m = init_model(3, 7, (256, 256), init_std=0.1, rng=np.random.default_rng(iterations))
        arr = seed_grid(scene.width, scene.height)
        traj = refine(m, scene, arr, iterations=iterations)
        buf = plane_buffer([scene_map(scene)])
        for stage in traj:
            pred, _ = oracle_forward_batch(m, roi_align_many(buf, arr / FEATURE_STRIDE, m.pool_size))
            arr = apply_offsets_array(arr, pred)
            assert stage.tobytes() == arr.tobytes()
        assert not np.array_equal(traj[-1], seed_grid(scene.width, scene.height))

    @pytest.mark.parametrize("tw", [800.0, -800.0])
    def test_leaving_numeric_range_is_overflow(self, tw):
        # A finite model whose width offset overflows exp (or underflows it to a zero side).
        scenes = synth_scenes(SynthConfig(seed=4), 1)
        m = zero_model()
        m.b3[2] = tw
        with pytest.raises(OverflowError):
            refine(m, scenes[0], scenes[0].boxes, iterations=1)


def openblas_core() -> str:
    """numpy's OpenBLAS kernel name, found as CI's not-slow job finds it."""
    try:
        libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
        lib = ctypes.CDLL(glob.glob(os.path.join(libs, "*openblas*"))[0])
        lib.scipy_openblas_get_corename64_.restype = ctypes.c_char_p
        return lib.scipy_openblas_get_corename64_().decode()
    except (IndexError, OSError, AttributeError):
        return "unknown"


# Runs in a fresh process, so OPENBLAS_CORETYPE picks the kernel: chunked
# refine against one unchunked pooling and head pass per iteration, at the
# pinned model's widths. Prints the kernel's name, then every (rows,
# iterations) whose bits differ.
CHUNK_BITS_SCRIPT = """
import ctypes, glob, os
import numpy as np
from boxregress.boxes import apply_offsets_array
from boxregress.features import FEATURE_STRIDE, plane_buffer, roi_align_many
from boxregress.model import _forward, init_model, refine
from boxregress.scenes import SynthConfig, scene_map, synth_scenes

try:
    lib = ctypes.CDLL(glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))[0])
    lib.scipy_openblas_get_corename64_.restype = ctypes.c_char_p
    print(lib.scipy_openblas_get_corename64_().decode())
except (IndexError, OSError, AttributeError):
    print("unknown")
scene = synth_scenes(SynthConfig(seed=5, max_objects=3), 1)[0]
buf = plane_buffer([scene_map(scene)])
model = init_model(3, 7, (256, 256), init_std=0.1, rng=np.random.default_rng(0))
rng = np.random.default_rng(1)
for n in (1, 4, 5, 300, 511, 512, 513, 1023, 1024, 1025, 1535, 1536, 2047, 2100, 3072, 3073):
    boxes = np.column_stack([rng.uniform(0.0, 128.0, (n, 2)), rng.uniform(4.0, 100.0, (n, 2))])
    for iterations in (1, 3):
        arr = boxes
        for got in refine(model, scene, boxes, iterations):
            arr = apply_offsets_array(arr, _forward(model, roi_align_many(buf, arr / FEATURE_STRIDE, 7))[0])
            if got.tobytes() != arr.tobytes():
                print(n, iterations)
                break
"""


class TestRefineChunks:
    @pytest.mark.parametrize("coretype", ["", "Prescott", "Nehalem", "Sandybridge", "Haswell", "Zen"])
    def test_bitwise_equal_to_unchunked_on_each_kernel(self, coretype):
        env = dict(os.environ, OPENBLAS_CORETYPE=coretype, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                   PYTHONPATH=os.path.dirname(os.path.dirname(boxregress.__file__)))
        run = subprocess.run([sys.executable, "-c", CHUNK_BITS_SCRIPT], env=env, capture_output=True, text=True,
                             timeout=300)
        assert run.returncode == 0, run.stderr
        kernel, *differing = run.stdout.splitlines()
        assert differing == [], f"OpenBLAS kernel {kernel}: (rows, iterations) differing: {differing}"

    @pytest.mark.parametrize("stride", [0.0625, 0.03125])  # 3072 and 12288 seeds
    def test_working_memory_is_bounded(self, stride):
        scene = synth_scenes(SynthConfig(seed=5, max_objects=3), 1)[0]
        seeds = seed_grid(scene.width, scene.height, SeedGridConfig(stride=stride))
        assert len(seeds) == 3072 * (0.0625 / stride) ** 2
        model = init_model(3, 7, (256, 256), init_std=0.1, rng=np.random.default_rng(0))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            refine(model, scene, seeds)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= 4_000_000, f"refine on {len(seeds)} seeds peaked at {peak / 1e6:.2f} MB"


class TestTrain:
    def test_degenerate_config_converges_fast(self):
        # Inputs equal ground truths, so the identity refinement is optimal
        # and a near-identity init starts next to the optimum.
        scenes = synth_scenes(SynthConfig(seed=4, min_objects=1, max_objects=1), 1)
        cfg = TrainConfig(seed=0, max_epochs=5, hidden=(16, 16), minibatch_size=16,
                          init_std=1e-4, initial_lr=1e-4)
        sampler = SamplerConfig(alpha=0, beta=0, t=0.5, boxes_per_gt=100)
        model, log = train(scenes, cfg, sampler, LOSS_CFG)
        assert min(r.train_loss for r in log) <= 1e-3

    def test_bitwise_deterministic(self):
        scenes = synth_scenes(SynthConfig(seed=5), 4)
        cfg = TrainConfig(seed=9, max_epochs=3, hidden=(12, 12))
        sampler = SamplerConfig(boxes_per_gt=10)
        m1, log1 = train(scenes, cfg, sampler, LOSS_CFG)
        m2, log2 = train(scenes, cfg, sampler, LOSS_CFG)
        for k in m1.params():
            assert np.array_equal(m1.params()[k], m2.params()[k])
        assert log1 == log2

    def test_divergence_aborts_with_checkpoint(self):
        scenes = synth_scenes(SynthConfig(seed=6), 2)
        cfg = TrainConfig(seed=0, initial_lr=1e9, max_epochs=10, hidden=(12, 12), stop_lr=1e-3)
        with pytest.raises(TrainingDiverged) as exc:
            train(scenes, cfg, SamplerConfig(boxes_per_gt=10), LOSS_CFG)
        assert isinstance(exc.value.model, RegressorModel)
        assert isinstance(exc.value.log, list)

    def test_input_validation(self):
        scenes = synth_scenes(SynthConfig(seed=7), 2)
        with pytest.raises(ValueError):
            train([], TrainConfig(), SamplerConfig(), LOSS_CFG)
        with pytest.raises(ValueError):
            train(scenes, TrainConfig(), SamplerConfig(), LossConfig(kind="huber"))
        from boxregress.scenes import Scene

        empty = Scene(id="x", width=64, height=64, boxes=np.empty((0, 4)))
        with pytest.raises(ValueError):
            train([empty], TrainConfig(), SamplerConfig(), LOSS_CFG)

    def test_smooth_l1_training_runs(self):
        scenes = synth_scenes(SynthConfig(seed=8), 3)
        cfg = TrainConfig(seed=0, max_epochs=2, hidden=(12, 12))
        model, log = train(scenes, cfg, SamplerConfig(boxes_per_gt=10), LossConfig(kind="smooth_l1"))
        assert len(log) == 2
        assert all(math.isfinite(r.val_loss) for r in log)


class TestTrainConfigValidation:
    def test_stop_lr_below_initial(self):
        with pytest.raises(ValueError):
            TrainConfig(initial_lr=1e-6, stop_lr=1e-3)

    def test_positive_fields(self):
        with pytest.raises(ValueError):
            TrainConfig(initial_lr=0)

    def test_plain_sgd_fields_may_be_zero(self):
        cfg = TrainConfig(momentum=0.0, weight_decay=0.0)
        assert cfg.momentum == cfg.weight_decay == 0.0

    @pytest.mark.parametrize("field", [
        "momentum", "weight_decay", "initial_lr", "stop_lr", "init_std", "plateau_rel_improvement",
    ])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_float_fields_must_be_finite(self, field, value):
        with pytest.raises(ValueError, match=field):
            TrainConfig(**{field: value})


# Reference pool: _build_pool as it was when it sampled one ground truth
# at a time, on the reference sampler and the reference pooling.


def oracle_generate_training_boxes_array(g, cfg, rng):
    out = oracle_generate_training_boxes(g, cfg, rng)
    return np.array([[b.x, b.y, b.w, b.h] for b in out], dtype=np.float64).reshape(-1, 4)


def oracle_build_pool(scenes, sampler_cfg, rng, pool_size):
    feats = []
    input_rows = []
    gt_rows = []
    for scene in scenes:
        arr = np.concatenate([oracle_generate_training_boxes_array(Box(*g), sampler_cfg, rng)
                              for g in scene.boxes.tolist()])
        if not len(arr):
            continue
        gts_arr = scene.boxes
        matched = iou(arr[:, None], gts_arr[None]).argmax(axis=1)
        feats.append(oracle_roi_align_many(scene_map(scene), arr / FEATURE_STRIDE, pool_size))
        input_rows.append(arr)
        gt_rows.append(gts_arr[matched])
    if not feats:
        raise ValueError("no training boxes could be generated")
    return np.concatenate(feats), np.concatenate(input_rows), np.concatenate(gt_rows)


class TestBuildPoolOracle:
    @pytest.mark.parametrize("synth_seed", [0, 5, 12])
    @pytest.mark.parametrize("sampler_cfg,pool_size", [
        (SamplerConfig(), 7),                                           # the training recipe
        (SamplerConfig(boxes_per_gt=150), 7),                           # the held-out pool
        (SamplerConfig(t=0.6, boxes_per_gt=12, max_attempts_per_box=15), 3),  # spills and give-ups
    ], ids=["train", "val", "spill"])
    def test_bitwise_equal(self, synth_seed, sampler_cfg, pool_size):
        scenes = synth_scenes(SynthConfig(seed=synth_seed, noise=0.3), 24)
        rng_new, rng_old = np.random.default_rng([synth_seed, 1, 3]), np.random.default_rng([synth_seed, 1, 3])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", SampleBudgetWarning)
            boxes, matched, scene_of = _build_pool(scenes, sampler_cfg, rng_new)
            buf = plane_buffer([scene_map(s) for s in scenes])
            got = (roi_align_many(buf, boxes / FEATURE_STRIDE, pool_size, scene_of), boxes, matched)
            want = oracle_build_pool(scenes, sampler_cfg, rng_old, pool_size)
        for a, b in zip(got, want):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()
        assert rng_new.bit_generator.state == rng_old.bit_generator.state
        assert rng_new.permutation(len(got[1])).tolist() == rng_old.permutation(len(want[1])).tolist()


# Reference training loop: the forward pass, gradients, held-out
# evaluation and train as they were before the single in-place forward
# and the epoch function, verbatim but for their names, the loss kind read
# from LossConfig and the recipe's fixed values (held-out fraction 0.04,
# 150 held-out boxes per ground truth, learning rate divided by 10)
# written out. train must reproduce them bit for bit.


def oracle_forward_batch(model: RegressorModel, x: np.ndarray):
    z1 = x @ model.w1.T + model.b1
    h1 = np.maximum(z1, 0.0)
    z2 = h1 @ model.w2.T + model.b2
    h2 = np.maximum(z2, 0.0)
    pred = h2 @ model.w3.T + model.b3
    return pred, (z1, h1, z2, h2)


def oracle_loss_and_weight_grads(
    model: RegressorModel,
    x: np.ndarray,
    input_boxes: np.ndarray,
    gt_boxes: np.ndarray,
    loss_cfg: LossConfig = LossConfig(),
) -> tuple[float, dict[str, np.ndarray], int]:
    n = x.shape[0]
    pred, (z1, h1, z2, h2) = oracle_forward_batch(model, x)

    if loss_cfg.kind == "iou":
        losses, dpred, fallback = iou_loss_terms_batch(pred, input_boxes, gt_boxes, loss_cfg)
        fallbacks = int(fallback.sum())
    else:
        targets = encode_offsets_array(input_boxes, gt_boxes)
        losses, dpred = smooth_l1_terms_batch(pred, targets)
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


def reference_build_pool(scenes, sampler_cfg, rng, pool_size):
    """The epoch's full pool, as _build_pool built it before training pooled per span."""
    gts = [scene.boxes for scene in scenes]
    rows, counts = generate_training_boxes_many(
        np.concatenate(gts) if gts else np.empty((0, 4)), sampler_cfg, rng
    )
    if not len(rows):
        raise ValueError("no training boxes could be generated")
    row_ends = np.concatenate(([0], np.cumsum(counts)))[np.cumsum([len(g) for g in gts], dtype=np.int64)]
    feats = np.empty((len(rows), scene_map(scenes[0]).channels * pool_size * pool_size))
    matched = np.empty_like(rows)
    start = 0
    for scene, gts_arr, end in zip(scenes, gts, row_ends):
        if end > start:
            arr = rows[start:end]
            matched[start:end] = gts_arr[iou(arr[:, None], gts_arr[None]).argmax(axis=1)]
            feats[start:end] = oracle_roi_align_many(scene_map(scene), arr / FEATURE_STRIDE, pool_size)
        start = end
    return feats, rows, matched


def oracle_evaluate(model, x, input_boxes, gt_boxes, loss_cfg):
    pred, _ = oracle_forward_batch(model, x)
    if loss_cfg.kind == "iou":
        losses, _, _ = iou_loss_terms_batch(pred, input_boxes, gt_boxes, loss_cfg)
    else:
        losses, _ = smooth_l1_terms_batch(pred, encode_offsets_array(input_boxes, gt_boxes))
    refined = apply_offsets_array(input_boxes, pred)
    return float(losses.mean()), float(iou(refined, gt_boxes).mean())


def oracle_train(
    scenes,
    cfg: TrainConfig = TrainConfig(),
    sampler_cfg: SamplerConfig = SamplerConfig(),
    loss_cfg: LossConfig = LossConfig(),
) -> tuple[RegressorModel, list[EpochStats]]:
    if not scenes:
        raise ValueError("train requires at least one scene")
    for s in scenes:
        if not len(s.boxes):
            raise ValueError(f"scene {s.id} has no ground-truth boxes")

    if len(scenes) >= 2:
        n_val = max(1, round(0.04 * len(scenes)))
        train_scenes, val_scenes = scenes[:-n_val], scenes[-n_val:]
    else:
        train_scenes = val_scenes = list(scenes)

    channels = scene_map(train_scenes[0]).channels
    model = init_model(channels, cfg.pool_size, cfg.hidden, cfg.init_std,
                       np.random.default_rng([cfg.seed, 0]))
    velocity = {k: np.zeros_like(v) for k, v in model.params().items()}

    val_sampler = replace(sampler_cfg, boxes_per_gt=150)
    val_x, val_boxes, val_gts = reference_build_pool(
        val_scenes, val_sampler, np.random.default_rng([cfg.seed, 2]), cfg.pool_size
    )

    log: list[EpochStats] = []
    best_val = math.inf
    best_model = model.copy()
    checkpoint = model.copy()
    lr = cfg.initial_lr
    stall = 0

    for epoch in range(cfg.max_epochs):
        rng_e = np.random.default_rng([cfg.seed, 1, epoch])
        try:
            x, in_boxes, gt_boxes = reference_build_pool(train_scenes, sampler_cfg, rng_e, cfg.pool_size)
            perm = rng_e.permutation(len(in_boxes))
            running = 0.0
            for start in range(0, len(perm), cfg.minibatch_size):
                idx = perm[start : start + cfg.minibatch_size]
                mb_loss, grads, _ = oracle_loss_and_weight_grads(
                    model, x[idx], in_boxes[idx], gt_boxes[idx], loss_cfg
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
            val_loss, val_miou = oracle_evaluate(model, val_x, val_boxes, val_gts, loss_cfg)
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
                lr /= 10.0
                stall = 0
        if lr < cfg.stop_lr:
            break
    return best_model, log


def weight_bytes(model):
    return {name: p.tobytes() for name, p in model.params().items()}


def log_bits(log):
    """Every field of an epoch log, floats as exact hex strings."""
    return [(r.epoch, r.lr.hex(), r.train_loss.hex(), r.val_loss.hex(), r.val_mean_iou.hex()) for r in log]


def run_train(fn, *args, **kwargs):
    """(weight bytes, log bits, divergence message) of one training run."""
    try:
        model, log = fn(*args, **kwargs)
        message = None
    except TrainingDiverged as e:
        model, log, message = e.model, e.log, str(e)
    return weight_bytes(model), log_bits(log), message


TRAIN_CASES = {
    "iou": (TrainConfig(seed=3, max_epochs=4, hidden=(12, 12)), SamplerConfig(boxes_per_gt=10), "iou"),
    "smooth_l1": (TrainConfig(seed=4, max_epochs=4, hidden=(12, 12)), SamplerConfig(boxes_per_gt=10), "smooth_l1"),
    # Every epoch counts as a stall, so the learning rate is divided each epoch.
    "plateau": (
        TrainConfig(seed=5, max_epochs=6, hidden=(12, 12), plateau_patience=1, plateau_rel_improvement=0.5,
                    stop_lr=1e-9),
        SamplerConfig(boxes_per_gt=10), "iou",
    ),
    "weight_decay_0": (TrainConfig(seed=6, max_epochs=3, hidden=(12, 12), weight_decay=0.0),
                       SamplerConfig(boxes_per_gt=10), "iou"),
    "weight_decay_big": (TrainConfig(seed=7, max_epochs=3, hidden=(12, 12), weight_decay=0.5, initial_lr=0.01),
                         SamplerConfig(boxes_per_gt=10), "smooth_l1"),
    "minibatch_tail": (TrainConfig(seed=8, max_epochs=3, hidden=(10, 6), minibatch_size=7),
                       SamplerConfig(boxes_per_gt=9), "iou"),
    "diverges": (TrainConfig(seed=0, initial_lr=1e9, max_epochs=10, hidden=(12, 12), stop_lr=1e-3),
                 SamplerConfig(boxes_per_gt=10), "iou"),
    "diverges_late": (TrainConfig(seed=1, initial_lr=3.0, max_epochs=8, hidden=(12, 12), stop_lr=1e-3),
                      SamplerConfig(boxes_per_gt=10), "iou"),
}


def reference_train_epoch(model, velocity, scenes, rng, lr, cfg, sampler_cfg, loss_cfg):
    """_train_epoch as it was when it pooled the whole epoch before the first step."""
    x, in_boxes, gt_boxes = reference_build_pool(scenes, sampler_cfg, rng, cfg.pool_size)
    perm = rng.permutation(len(in_boxes))
    params = model.params()
    scratch = {name: np.empty_like(p) for name, p in params.items()}
    running = 0.0
    for start in range(0, len(perm), cfg.minibatch_size):
        idx = perm[start : start + cfg.minibatch_size]
        mb_loss, grads, _ = loss_and_weight_grads(model, x[idx], in_boxes[idx], gt_boxes[idx], loss_cfg)
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
    return running / len(perm)


def mixed_size_scenes():
    """Eleven scenes of five image sizes, square and not, in mixed order."""
    scenes = []
    for i, size in enumerate((48, 100, 128)):
        scenes += synth_scenes(SynthConfig(seed=30 + i, image_size=size, max_objects=3, noise=0.3), 3)
    scenes += [
        Scene(id="wide", width=160, height=72, boxes=np.array([[40, 30, 50, 30], [120, 40, 30, 40]])),
        Scene(id="tall", width=56, height=140, boxes=np.array([[28, 100, 30, 50]])),
    ]
    return [scenes[i] for i in np.random.default_rng(0).permutation(len(scenes))]


class TestTrainEpochOracle:
    @pytest.mark.parametrize("span", [1, 3, None], ids=["span1", "span3", "default"])
    @pytest.mark.parametrize("minibatch_size,loss", [(7, "iou"), (32, "smooth_l1")])
    def test_bitwise_equal_to_full_pool(self, monkeypatch, span, minibatch_size, loss):
        # About 440 rows an epoch: every case but the default span at 32 rows
        # a minibatch pools several spans, the last one short.
        if span is not None:
            monkeypatch.setattr(model_module, "_POOL_SPAN", span)
        scenes = mixed_size_scenes()
        cfg = TrainConfig(seed=3, hidden=(12, 12), minibatch_size=minibatch_size, initial_lr=0.01)
        sampler = SamplerConfig(boxes_per_gt=20)
        model = init_model(3, cfg.pool_size, cfg.hidden, 0.1, np.random.default_rng(1))
        ref = model.copy()
        velocity = {k: np.zeros_like(v) for k, v in model.params().items()}
        ref_velocity = {k: np.zeros_like(v) for k, v in ref.params().items()}
        buf = plane_buffer([scene_map(s) for s in scenes])
        for epoch in range(2):
            got = model_module._train_epoch(model, velocity, scenes, buf, np.random.default_rng([3, 1, epoch]),
                                            cfg.initial_lr, cfg, sampler, LossConfig(kind=loss))
            want = reference_train_epoch(ref, ref_velocity, scenes, np.random.default_rng([3, 1, epoch]),
                                         cfg.initial_lr, cfg, sampler, LossConfig(kind=loss))
            assert got.hex() == want.hex()
            assert weight_bytes(model) == weight_bytes(ref)
            assert {k: v.tobytes() for k, v in velocity.items()} == {k: v.tobytes() for k, v in ref_velocity.items()}


def traced_peak(fn, *args):
    """Bytes fn(*args) allocates at its peak, above what was live before it."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


class TestTrainMemory:
    def test_epoch_holds_less_than_its_pool(self):
        # The whole epoch's features, rows x in_dim floats, are never alive
        # at once: only one span of minibatches is pooled at a time.
        scenes = synth_scenes(SynthConfig(seed=5, max_objects=3), 100)
        cfg = TrainConfig(hidden=(16, 16))
        sampler = SamplerConfig()
        model = init_model(3, cfg.pool_size, cfg.hidden, cfg.init_std, np.random.default_rng(0))
        velocity = {k: np.zeros_like(v) for k, v in model.params().items()}
        buf = plane_buffer([scene_map(s) for s in scenes])
        rows = len(model_module._build_pool(scenes, sampler, np.random.default_rng(4))[0])
        pool_bytes = rows * model.in_dim * 8
        peak = traced_peak(model_module._train_epoch, model, velocity, scenes, buf, np.random.default_rng(4),
                           1e-3, cfg, sampler, LOSS_CFG)
        assert peak < pool_bytes, f"{rows} rows: epoch peak {peak / 1e6:.2f} MB, pool {pool_bytes / 1e6:.2f} MB"

    def test_evaluate_runs_the_head_in_chunks(self):
        # 4096 rows at widths (256, 256): one unchunked pass would hold two
        # 8.4 MB activations, 512-row chunks two 1 MB ones.
        rng = np.random.default_rng(2)
        model = init_model(3, 7, (256, 256), init_std=0.1, rng=rng)
        x = rng.normal(size=(4096, model.in_dim))
        boxes = np.column_stack([rng.uniform(20, 100, (4096, 2)), rng.uniform(4, 40, (4096, 2))])
        gts = boxes * rng.uniform(0.9, 1.1, (4096, 4))
        peak = traced_peak(model_module._evaluate, model, x, boxes, gts, LOSS_CFG)
        assert peak <= 4_000_000, f"_evaluate on 4096 rows peaked at {peak / 1e6:.2f} MB"


class TestTrainOracle:
    @pytest.mark.parametrize("case", list(TRAIN_CASES))
    def test_bitwise_equal(self, case):
        cfg, sampler, loss = TRAIN_CASES[case]
        scenes = synth_scenes(SynthConfig(seed=20 + len(case), max_objects=3), 6)
        got = run_train(train, scenes, cfg, sampler, LossConfig(kind=loss))
        want = run_train(oracle_train, scenes, cfg, sampler, LossConfig(kind=loss))
        assert got == want
        _, log, message = got
        assert (message is not None) == case.startswith("diverges")
        if case == "plateau":
            assert len({lr for _, lr, *_ in log}) > 2

    def test_cases_cover_divergence_after_an_epoch(self):
        # The checkpoint compared above is then a trained model, not the init.
        cfg, sampler, loss = TRAIN_CASES["diverges_late"]
        scenes = synth_scenes(SynthConfig(seed=20 + len("diverges_late"), max_objects=3), 6)
        with pytest.raises(TrainingDiverged) as exc:
            train(scenes, cfg, sampler, LossConfig(kind=loss))
        assert len(exc.value.log) >= 2

    @pytest.mark.parametrize("loss", ["iou", "smooth_l1"])
    def test_weight_grads_match_reference(self, loss):
        rng = np.random.default_rng(11)
        m = init_model(1, 3, (10, 10), init_std=0.1, rng=rng)
        x = rng.normal(size=(40, m.in_dim))
        boxes = np.column_stack([rng.uniform(0, 50, (40, 2)), rng.uniform(2, 20, (40, 2))])
        gts = boxes * rng.uniform(0.8, 1.2, (40, 4))
        got = loss_and_weight_grads(m, x, boxes, gts, LossConfig(kind=loss))
        want = oracle_loss_and_weight_grads(m, x, boxes, gts, LossConfig(kind=loss))
        assert got[0].hex() == want[0].hex() and got[2] == want[2]
        assert {k: v.tobytes() for k, v in got[1].items()} == {k: v.tobytes() for k, v in want[1].items()}


class TestForwardOracle:
    def test_rectifier_mask_from_activation(self):
        # The backward pass masks with h > 0 in place of z > 0.
        z = np.array([1.5, 0.0, -0.0, -2.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324])
        h = z.copy()
        np.maximum(h, 0.0, out=h)
        assert ((h > 0.0) == (z > 0.0)).all()

    def test_matches_reference_on_zero_negative_and_nan_rows(self):
        # One input unit feeds each hidden unit through a unit weight, so the
        # first pre-activations are the features plus the biases.
        m = zero_model(channels=1, pool_size=2, hidden=(4, 4))
        m.w1[:] = np.eye(4)
        m.b1[:] = [0.0, -0.0, -1.0, 0.5]
        m.w2[:] = [[1.0, -1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 1.0], [-1.0, 0.0, 0.0, 1.0], [0.0, 1.0, 1.0, -1.0]]
        m.b2[:] = [0.0, -0.0, 0.25, -0.5]
        m.w3[:] = np.arange(16.0).reshape(4, 4) - 6.0
        m.b3[:] = [0.1, -0.2, 0.0, -0.0]
        x = np.array([
            [0.0, 0.0, 0.0, 0.0],         # zero pre-activations
            [-0.0, -0.0, -0.0, -0.0],     # signed zeros
            [-1.0, -3.0, -0.5, -2.0],     # all negative
            [np.nan, 1.0, 2.0, 3.0],      # a NaN feature
            [1.0, -1.0, 2.0, -0.5],
            [0.5, 0.0, 1.0, -0.5],        # exactly zero after the bias
        ])
        pred, h1, h2 = _forward(m, x)
        want, (z1, h1_old, z2, h2_old) = oracle_forward_batch(m, x)
        for a, b in ((pred, want), (h1, h1_old), (h2, h2_old)):
            assert a.tobytes() == b.tobytes()
        assert ((h1 > 0.0) == (z1 > 0.0)).all() and ((h2 > 0.0) == (z2 > 0.0)).all()
        assert (z1 == 0.0).any() and (z1 < 0.0).any() and np.isnan(z1).any()
        assert (z2 == 0.0).any() and (z2 < 0.0).any() and np.isnan(z2).any()
