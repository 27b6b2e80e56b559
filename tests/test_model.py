import math
import warnings

import numpy as np
import pytest

from boxregress.boxes import boxes_to_array, iou
from boxregress.features import FEATURE_STRIDE
from boxregress.losses import LossConfig
from boxregress.model import (
    RegressorModel,
    TrainConfig,
    TrainingDiverged,
    _build_pool,
    _forward_batch,
    init_model,
    load_model,
    loss_and_weight_grads,
    refine,
    save_model,
    train,
)
from boxregress.sampling import SampleBudgetWarning, SamplerConfig
from boxregress.scenes import SynthConfig, synth_scenes

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
    return tuple(_forward_batch(model, np.asarray(features, dtype=np.float64)[None])[0][0].tolist())


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
        m = init_model(3, 7, (16, 12), rng=np.random.default_rng(1))
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
        m = init_model(2, 3, (4, 4), rng=np.random.default_rng(2))
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
    from boxregress.boxes import apply_offsets_array, encode_offsets_array
    from boxregress.model import _forward_batch

    rng = np.random.default_rng(seed)
    m = init_model(1, 3, (10, 10), rng=rng)
    for name, p in m.params().items():
        if name.startswith("w"):
            p += rng.normal(0, 0.2, p.shape)
        else:
            p += rng.uniform(0.05, 0.15, p.shape)
    x = rng.normal(size=(3, m.in_dim))
    boxes = np.array([[0.0, 0.0, 4.0, 4.0], [1.0, 1.0, 3.0, 5.0], [-1.0, 2.0, 5.0, 2.0]])
    gts = boxes * np.array([1, 1, 1.2, 0.9]) + np.array([0.5, -0.3, 0, 0])

    pred, (z1, _, z2, _) = _forward_batch(m, x)
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
        if np.abs(np.abs(d) - LOSS_CFG.smooth_l1_delta).min() < 1e-3:
            return None

    _, grads, fallbacks = loss_and_weight_grads(m, x, boxes, gts, LOSS_CFG, loss)
    assert fallbacks == 0
    coord_rng = np.random.default_rng(10_000 + seed)
    checked = 0
    for name, p in m.params().items():
        flat = p.reshape(-1)
        for idx in coord_rng.integers(0, flat.size, size=coords_per_param):
            orig = flat[idx]
            flat[idx] = orig + h
            lp, _, _ = loss_and_weight_grads(m, x, boxes, gts, LOSS_CFG, loss)
            flat[idx] = orig - h
            lm, _, _ = loss_and_weight_grads(m, x, boxes, gts, LOSS_CFG, loss)
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
        boxes = boxes_to_array(scenes[0].gts)
        one = refine(m, scenes[0], boxes, iterations=1)
        three = refine(m, scenes[0], boxes, iterations=3)
        assert np.array_equal(one[0], three[0])

    def test_iterations_validated(self):
        scenes = synth_scenes(SynthConfig(seed=2), 1)
        with pytest.raises(ValueError):
            refine(zero_model(), scenes[0], boxes_to_array(scenes[0].gts), iterations=0)

    def test_channel_mismatch_rejected(self):
        scenes = synth_scenes(SynthConfig(seed=3), 1)
        with pytest.raises(ValueError):
            refine(zero_model(channels=5), scenes[0], boxes_to_array(scenes[0].gts), iterations=1)

    @pytest.mark.parametrize("tw", [800.0, -800.0])
    def test_leaving_numeric_range_is_overflow(self, tw):
        # A finite model whose width offset overflows exp (or underflows it to a zero side).
        scenes = synth_scenes(SynthConfig(seed=4), 1)
        m = zero_model()
        m.b3[2] = tw
        with pytest.raises(OverflowError):
            refine(m, scenes[0], boxes_to_array(scenes[0].gts), iterations=1)


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
            train(scenes, TrainConfig(), SamplerConfig(), LOSS_CFG, loss="huber")
        from boxregress.scenes import Scene

        empty = Scene(id="x", width=64, height=64, gts=[])
        with pytest.raises(ValueError):
            train([empty], TrainConfig(), SamplerConfig(), LOSS_CFG)

    def test_smooth_l1_training_runs(self):
        scenes = synth_scenes(SynthConfig(seed=8), 3)
        cfg = TrainConfig(seed=0, max_epochs=2, hidden=(12, 12))
        model, log = train(scenes, cfg, SamplerConfig(boxes_per_gt=10), LOSS_CFG, loss="smooth_l1")
        assert len(log) == 2
        assert all(math.isfinite(r.val_loss) for r in log)


class TestTrainConfigValidation:
    def test_stop_lr_below_initial(self):
        with pytest.raises(ValueError):
            TrainConfig(initial_lr=1e-6, stop_lr=1e-3)

    def test_positive_fields(self):
        with pytest.raises(ValueError):
            TrainConfig(momentum=0)


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
        arr = np.concatenate([oracle_generate_training_boxes_array(g, sampler_cfg, rng) for g in scene.gts])
        if not len(arr):
            continue
        gts_arr = boxes_to_array(scene.gts)
        matched = iou(arr[:, None], gts_arr[None]).argmax(axis=1)
        feats.append(oracle_roi_align_many(scene.feature_map(), arr / FEATURE_STRIDE, pool_size))
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
            got = _build_pool(scenes, sampler_cfg, rng_new, pool_size)
            want = oracle_build_pool(scenes, sampler_cfg, rng_old, pool_size)
        for a, b in zip(got, want):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()
        assert rng_new.bit_generator.state == rng_old.bit_generator.state
        assert rng_new.permutation(len(got[1])).tolist() == rng_old.permutation(len(want[1])).tolist()
