import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxregress import sampling
from boxregress.boxes import Box, apply_offsets_array, encode_offsets_array, iou
from boxregress.sampling import (
    SampleBudgetWarning,
    SamplerConfig,
    generate_training_boxes_many,
)
from boxregress.scenes import SynthConfig, synth_scenes

from test_boxes import oracle_iou_pairwise

G = Box(50, 50, 20, 30)
G_ROW = np.array([[G.x, G.y, G.w, G.h]])


class TestConfig:
    def test_defaults(self):
        cfg = SamplerConfig()
        assert (cfg.alpha, cfg.beta, cfg.t, cfg.boxes_per_gt) == (0.35, 0.5, 0.3, 50)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"alpha": -0.1},
            {"beta": 1.0},
            {"beta": -0.2},
            {"t": 1.0},
            {"t": -0.5},
            {"boxes_per_gt": 0},
            {"max_attempts_per_box": 0},
            {"alpha": math.nan},
            {"alpha": math.inf},
            {"beta": math.nan},
            {"t": math.nan},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            SamplerConfig(**kwargs)


def drawn_offsets(cfg, rng):
    """The offsets behind one call's boxes: at t = 0 every draw is accepted."""
    cfg = SamplerConfig(alpha=cfg.alpha, beta=cfg.beta, t=0.0, boxes_per_gt=cfg.boxes_per_gt)
    out = generate_training_boxes_many(G_ROW, cfg, rng)[0]
    return encode_offsets_array(np.repeat(G_ROW, len(out), 0), out)


class TestSampleOffsets:
    def test_degenerate_ranges(self):
        cfg = SamplerConfig(alpha=0, beta=0, boxes_per_gt=20)
        rng = np.random.default_rng(0)
        assert np.array_equal(drawn_offsets(cfg, rng), np.zeros((20, 4)))

    def test_seed_determinism(self):
        cfg = SamplerConfig()
        rng1, rng2 = np.random.default_rng(42), np.random.default_rng(42)
        assert np.array_equal(drawn_offsets(cfg, rng1), drawn_offsets(cfg, rng2))

    def test_statistics(self):
        cfg = SamplerConfig(boxes_per_gt=20_000)
        rng = np.random.default_rng(1)
        draws = drawn_offsets(cfg, rng)
        txs, tws = draws[:, 0], draws[:, 2]
        assert abs(txs.mean()) < 0.01
        assert txs.min() >= -0.35 - 1e-12 and txs.max() <= 0.35 + 1e-12
        assert tws.min() >= math.log(0.5) - 1e-12 and tws.max() <= math.log(1.5) + 1e-12


class TestGenerate:
    def test_degenerate_yields_copies(self):
        cfg = SamplerConfig(alpha=0, beta=0, t=0.5)
        out = generate_training_boxes_many(G_ROW, cfg, np.random.default_rng(0))[0]
        assert out.shape == (50, 4)
        assert (out == G_ROW).all()

    def test_threshold_enforced(self):
        cfg = SamplerConfig()
        rng = np.random.default_rng(2)
        boxes = []
        while sum(map(len, boxes)) < 2000:
            boxes.append(generate_training_boxes_many(G_ROW, cfg, rng)[0])
        assert (iou(np.concatenate(boxes), G_ROW) >= cfg.t).all()

    def test_seed_determinism(self):
        cfg = SamplerConfig()
        a = generate_training_boxes_many(G_ROW, cfg, np.random.default_rng(7))[0]
        b = generate_training_boxes_many(G_ROW, cfg, np.random.default_rng(7))[0]
        assert np.array_equal(a, b)

    def test_underfill_warns_and_terminates(self):
        cfg = SamplerConfig(t=0.99, max_attempts_per_box=200)
        with pytest.warns(SampleBudgetWarning):
            out = generate_training_boxes_many(G_ROW, cfg, np.random.default_rng(3))[0]
        assert len(out) < cfg.boxes_per_gt

    def test_high_threshold_acceptance_rate(self):
        # At t = 0.99 almost every draw is rejected.
        cfg = SamplerConfig()
        rng = np.random.default_rng(4)
        draws = rng.uniform(*cfg._bounds(), size=(10_000, 4))
        accepted = (iou(apply_offsets_array(np.repeat(G_ROW, 10_000, 0), draws), G_ROW) >= 0.99).sum()
        assert accepted / 10_000 < 0.05


# Reference sampler: the one-ground-truth sampler as it was when it
# consumed candidates one attempt at a time and returned a list of Box
# values.


def oracle_generate_training_boxes(g: Box, cfg: SamplerConfig, rng: np.random.Generator) -> list[Box]:
    low, high = cfg._bounds()
    g_row = np.array([[g.x, g.y, g.w, g.h]])
    out: list[Box] = []
    attempts = 0  # draws spent on the current slot
    buf_boxes = np.empty((0, 4))
    buf_ok = np.empty(0, dtype=bool)
    pos = 0
    while len(out) < cfg.boxes_per_gt:
        if pos >= len(buf_ok):
            chunk = 4 * cfg.boxes_per_gt
            offs = rng.uniform(low, high, size=(chunk, 4))
            buf_boxes = apply_offsets_array(np.broadcast_to(g_row, (chunk, 4)), offs)
            buf_ok = oracle_iou_pairwise(buf_boxes, g_row)[:, 0] >= cfg.t
            pos = 0
        if buf_ok[pos]:
            b = buf_boxes[pos]
            out.append(Box(float(b[0]), float(b[1]), float(b[2]), float(b[3])))
            attempts = 0
        else:
            attempts += 1
            if attempts >= cfg.max_attempts_per_box:
                warnings.warn(
                    f"gave up after {cfg.max_attempts_per_box} attempts per box: "
                    f"kept {len(out)} of {cfg.boxes_per_gt} (t={cfg.t})",
                    SampleBudgetWarning,
                    stacklevel=2,
                )
                break
        pos += 1
    return out


# Pass sizes the differential tests run at: the real _PASS_BYTES, under
# which their ground truths all fit in one pass; three chunks, so passes of
# several ground truths are cut short and give chunks back, and a head's
# span is capped; and one byte, which leaves one chunk per pass.
PASS_SIZES = ["real", "three chunks", "one byte"]


def pass_bytes(size, cfg):
    """Patch sampling._PASS_BYTES to one of PASS_SIZES for cfg's chunks of 4 * boxes_per_gt float64 offsets."""
    chunk_bytes = 4 * cfg.boxes_per_gt * 4 * 8
    value = {"real": sampling._PASS_BYTES, "three chunks": 3 * chunk_bytes, "one byte": 1}[size]
    return mock.patch.object(sampling, "_PASS_BYTES", value)


class TestOracle:
    # One ground truth sampled on its own must be the reference's
    # one-attempt-at-a-time result: rows, warnings and final RNG state.

    @settings(max_examples=300, deadline=None, database=None)
    @given(
        st.floats(0.0, 1.5),
        st.floats(0.0, 0.95),
        st.floats(0.0, 0.99),
        st.integers(1, 40),
        st.integers(1, 400),
        st.integers(0, 2**32 - 1),
        st.tuples(st.floats(-50, 50), st.floats(-50, 50), st.floats(0.1, 40), st.floats(0.1, 40)),
        st.sampled_from(PASS_SIZES),
    )
    def test_matches_one_attempt_at_a_time(self, alpha, beta, t, boxes_per_gt, max_attempts, seed, g, pass_size):
        # High thresholds and small budgets make runs of rejections cross
        # block boundaries and give up mid-block; the RNG must end where
        # the old sampler left it, so later draws are unchanged too.
        cfg = SamplerConfig(alpha=alpha, beta=beta, t=t, boxes_per_gt=boxes_per_gt, max_attempts_per_box=max_attempts)
        gts = np.array([g], dtype=np.float64)
        with pass_bytes(pass_size, cfg):
            assert run_many(gts, cfg, seed) == run_oracle_in_sequence(gts, cfg, seed)

    @pytest.mark.parametrize("t,max_attempts", [(0.3, 1000), (0.9, 3), (0.97, 50), (0.5, 1), (0.99, 7)])
    def test_matches_on_many_seeds(self, t, max_attempts, pass_size="real"):
        cfg = SamplerConfig(t=t, boxes_per_gt=25, max_attempts_per_box=max_attempts)
        gts = np.array([[50.0, 50.0, 20.0, 30.0]])
        with pass_bytes(pass_size, cfg):
            for seed in range(40):
                assert run_many(gts, cfg, seed) == run_oracle_in_sequence(gts, cfg, seed)

    @pytest.mark.parametrize("pass_size", PASS_SIZES[1:])
    @pytest.mark.parametrize("t,max_attempts", [(0.3, 1000), (0.9, 3), (0.97, 50), (0.5, 1), (0.99, 7)])
    def test_matches_on_many_seeds_in_small_passes(self, t, max_attempts, pass_size):
        self.test_matches_on_many_seeds(t, max_attempts, pass_size)

    def test_integer_box_is_not_truncated(self):
        # The reference sampled an int-valued Box into an int array and
        # truncated every box; the sampler works in float64.
        cfg = SamplerConfig(boxes_per_gt=25)
        ints = np.array([[50, 50, 20, 30]])
        out = generate_training_boxes_many(ints, cfg, np.random.default_rng(0))[0]
        assert out.dtype == np.float64 and not (out == np.round(out)).all()
        assert run_many(ints, cfg, 0) == run_many(ints.astype(np.float64), cfg, 0)


def run_many(gts, cfg, seed):
    """generate_training_boxes_many over (G, 4) gts: rows as hex strings, counts, warnings, final RNG state."""
    rng = np.random.default_rng(seed)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rows, counts = generate_training_boxes_many(gts, cfg, rng)
    messages = [(w.category, str(w.message)) for w in caught]
    return [[v.hex() for v in r] for r in rows.tolist()], counts.tolist(), messages, rng.bit_generator.state


def run_oracle_in_sequence(gts, cfg, seed):
    """The reference sampler called once per ground truth on one generator."""
    rng = np.random.default_rng(seed)
    rows, counts = [], []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for g in gts:
            out = oracle_generate_training_boxes(Box(*g.tolist()), cfg, rng)
            rows += [[v.hex() for v in (b.x, b.y, b.w, b.h)] for b in out]
            counts.append(len(out))
    messages = [(w.category, str(w.message)) for w in caught]
    return rows, counts, messages, rng.bit_generator.state


box_strategy = st.tuples(st.floats(-50, 50), st.floats(-50, 50), st.floats(0.1, 40), st.floats(0.1, 40))


class TestEpochStream:
    @settings(max_examples=300, deadline=None, database=None)
    @given(
        st.floats(0.0, 1.5),
        st.floats(0.0, 0.95),
        st.floats(0.0, 0.99),
        st.integers(1, 30),
        st.integers(1, 400),
        st.integers(0, 2**32 - 1),
        st.lists(box_strategy, min_size=0, max_size=12),
        st.sampled_from(PASS_SIZES),
    )
    def test_matches_oracle_in_sequence(self, alpha, beta, t, boxes_per_gt, max_attempts, seed, gts, pass_size):
        # A chunk holds 4 * boxes_per_gt draws, so budgets range from below
        # a chunk to several chunks; at high t a ground truth spills into
        # the chunks of the ones after it, at any place in the sequence.
        cfg = SamplerConfig(alpha=alpha, beta=beta, t=t, boxes_per_gt=boxes_per_gt, max_attempts_per_box=max_attempts)
        gts = np.array(gts, dtype=np.float64).reshape(-1, 4)
        with pass_bytes(pass_size, cfg):
            assert run_many(gts, cfg, seed) == run_oracle_in_sequence(gts, cfg, seed)

    @pytest.mark.parametrize("t,boxes_per_gt,max_attempts", [
        (0.3, 50, 1000),   # the defaults: every ground truth settles in its own chunk
        (0.75, 20, 1000),  # some ground truths spill into later chunks
        (0.9, 5, 30),      # spills and give-ups inside and across chunks
        (0.97, 1, 3),      # one box per ground truth, tiny chunks
        (0.99, 10, 1000),  # every ground truth gives up after several chunks
        (0.6, 1, 1),       # a single rejection gives up
    ])
    def test_matches_on_many_seeds(self, t, boxes_per_gt, max_attempts, pass_size="real"):
        cfg = SamplerConfig(t=t, boxes_per_gt=boxes_per_gt, max_attempts_per_box=max_attempts)
        rng = np.random.default_rng(99)
        with pass_bytes(pass_size, cfg):
            for seed in range(15):
                gts = np.column_stack([rng.uniform(0, 100, (25, 2)), rng.uniform(1, 40, (25, 2))])
                assert run_many(gts, cfg, seed) == run_oracle_in_sequence(gts, cfg, seed)

    @pytest.mark.parametrize("pass_size", PASS_SIZES[1:])
    @pytest.mark.parametrize("t,boxes_per_gt,max_attempts", [
        (0.3, 50, 1000), (0.75, 20, 1000), (0.9, 5, 30), (0.97, 1, 3), (0.99, 10, 1000), (0.6, 1, 1),
    ])
    def test_matches_on_many_seeds_in_small_passes(self, t, boxes_per_gt, max_attempts, pass_size):
        self.test_matches_on_many_seeds(t, boxes_per_gt, max_attempts, pass_size)

    def test_no_ground_truths_draws_nothing(self):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        rows, counts = generate_training_boxes_many(np.empty((0, 4)), SamplerConfig(), rng)
        assert rows.shape == (0, 4) and counts.shape == (0,)
        assert rng.bit_generator.state == state

    def test_traced_peak_is_bounded_by_the_pass(self):
        # 388 ground truths at 1,000 boxes each return 12.4 MB of rows,
        # written pass by pass into one buffer of that size. A pass holds at
        # most _PASS_BYTES of offsets; drawing one chunk for every ground
        # truth at once peaked at 201 MB.
        scenes = synth_scenes(SynthConfig(seed=5, max_objects=3), 192)
        gts = np.concatenate([s.boxes for s in scenes])
        assert len(gts) == 388
        tracemalloc.start()
        try:
            generate_training_boxes_many(gts, SamplerConfig(boxes_per_gt=1000), np.random.default_rng(0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20e6
