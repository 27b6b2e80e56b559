import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxregress.boxes import Box
from boxregress.features import FEATURE_STRIDE, FeatureMap, plane_buffer, roi_align_many


def roi_align(fm, b, pool_size=7):
    """Pooled feature vector of one box given in feature-map coordinates."""
    return roi_align_many(plane_buffer([fm]), np.array([[b.x, b.y, b.w, b.h]]), pool_size)[0]


class TestFeatureMap:
    def test_shape_properties(self):
        fm = FeatureMap(np.zeros((3, 5, 8)))
        assert (fm.channels, fm.height, fm.width) == (3, 5, 8)

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            FeatureMap(np.zeros((4, 4)))
        with pytest.raises(ValueError):
            FeatureMap(np.zeros((1, 0, 4)))

    def test_rejects_nonfinite(self):
        data = np.zeros((1, 2, 2))
        data[0, 0, 0] = np.nan
        with pytest.raises(ValueError):
            FeatureMap(data)


class TestRoiAlign:
    def test_constant_map(self):
        fm = FeatureMap(np.full((2, 10, 10), 3.7))
        out = roi_align(fm, Box(5, 5, 6, 4), pool_size=7)
        assert out.shape == (2 * 49,)
        assert np.allclose(out, 3.7, atol=1e-12)

    def test_hand_bilinear(self):
        # 2x2 map, unit box centered between all four cells, pool 1.
        fm = FeatureMap(np.array([[[0.0, 1.0], [2.0, 3.0]]]))
        out = roi_align(fm, Box(1, 1, 1, 1), pool_size=1)
        assert out.shape == (1,)
        assert out[0] == 1.5

    def test_fully_outside_is_zero(self):
        fm = FeatureMap(np.ones((3, 4, 4)))
        out = roi_align(fm, Box(100, 100, 2, 2), pool_size=5)
        assert np.array_equal(out, np.zeros(3 * 25))

    def test_linear_in_feature_data(self):
        rng = np.random.default_rng(0)
        f1 = rng.normal(size=(2, 6, 6))
        f2 = rng.normal(size=(2, 6, 6))
        b = Box(3, 2.5, 4, 3)
        out = roi_align(FeatureMap(2.5 * f1 + 0.5 * f2), b)
        combo = 2.5 * roi_align(FeatureMap(f1), b) + 0.5 * roi_align(FeatureMap(f2), b)
        assert np.allclose(out, combo, atol=1e-12)

    def test_channel_major_layout(self):
        data = np.stack([np.zeros((4, 4)), np.ones((4, 4))])
        out = roi_align(FeatureMap(data), Box(2, 2, 2, 2), pool_size=3)
        assert np.array_equal(out[:9], np.zeros(9))
        assert np.allclose(out[9:], np.ones(9))

    def test_linear_ramp_sampling(self):
        # Bilinear interpolation reproduces a linear ramp at sample points.
        w, h = 8, 8
        ramp = np.tile(np.arange(w, dtype=float), (h, 1))[None]  # value = column index
        fm = FeatureMap(ramp)
        b = Box(4.0, 4.0, 3.0, 3.0)
        p = 3
        out = roi_align(fm, b, pool_size=p).reshape(p, p)
        xs = (b.x - b.w / 2) + (np.arange(p) + 0.5) * (b.w / p)
        expected = np.tile(xs - 0.5, (p, 1))  # cell j has center value j at x = j + 0.5
        assert np.allclose(out, expected, atol=1e-12)

    def test_many_matches_single(self):
        rng = np.random.default_rng(1)
        fm = FeatureMap(rng.normal(size=(3, 9, 7)))
        boxes = [Box(rng.uniform(0, 7), rng.uniform(0, 9), rng.uniform(0.5, 5), rng.uniform(0.5, 5)) for _ in range(20)]
        arr = np.array([[b.x, b.y, b.w, b.h] for b in boxes])
        batch = roi_align_many(plane_buffer([fm]), arr, pool_size=4)
        for i, b in enumerate(boxes):
            assert np.array_equal(batch[i], roi_align(fm, b, pool_size=4))

    def test_empty_batch(self):
        fm = FeatureMap(np.ones((2, 3, 3)))
        assert roi_align_many(plane_buffer([fm]), np.zeros((0, 4)), pool_size=3).shape == (0, 18)

    def test_pool_size_validation(self):
        fm = FeatureMap(np.ones((1, 3, 3)))
        with pytest.raises(ValueError):
            roi_align(fm, Box(1, 1, 1, 1), pool_size=0)

    def test_feature_coords_scaling(self):
        # Raster boxes are pooled at raster coordinates / FEATURE_STRIDE.
        b = np.array([[8.0, 12, 4, 20]]) / FEATURE_STRIDE
        assert b.tolist() == [[2, 3, 1, 5]]


# Reference pooling: roi_align_many as it was when it masked the corners
# outside the map and gathered all channels with fancy indexing.


def oracle_roi_align_many(fm: FeatureMap, boxes: np.ndarray, pool_size: int = 7) -> np.ndarray:
    if pool_size < 1:
        raise ValueError(f"pool_size must be >= 1, got {pool_size}")
    n = boxes.shape[0]
    c, h, w = fm.data.shape
    if n == 0:
        return np.zeros((0, c * pool_size * pool_size), dtype=np.float64)

    frac = (np.arange(pool_size, dtype=np.float64) + 0.5) / pool_size
    # Sample-point grids, shape (N, P) per axis.
    sx = (boxes[:, 0] - 0.5 * boxes[:, 2])[:, None] + frac[None, :] * boxes[:, 2][:, None]
    sy = (boxes[:, 1] - 0.5 * boxes[:, 3])[:, None] + frac[None, :] * boxes[:, 3][:, None]

    # (N, P, P): rows vary with y, columns with x.
    u = np.broadcast_to(sx[:, None, :], (n, pool_size, pool_size))
    v = np.broadcast_to(sy[:, :, None], (n, pool_size, pool_size))

    fu = u - 0.5
    fv = v - 0.5
    j0 = np.floor(fu).astype(np.int64)
    i0 = np.floor(fv).astype(np.int64)
    aj = fu - j0
    ai = fv - i0

    out = np.zeros((n, c, pool_size, pool_size), dtype=np.float64)
    for di, dj, wt in (
        (0, 0, (1 - ai) * (1 - aj)),
        (0, 1, (1 - ai) * aj),
        (1, 0, ai * (1 - aj)),
        (1, 1, ai * aj),
    ):
        ii = i0 + di
        jj = j0 + dj
        valid = (ii >= 0) & (ii < h) & (jj >= 0) & (jj < w)
        vals = fm.data[:, ii.clip(0, h - 1), jj.clip(0, w - 1)]  # (C, N, P, P)
        out += np.transpose(vals * (wt * valid), (1, 0, 2, 3))
    return out.reshape(n, c * pool_size * pool_size)


def random_boxes(rng, n, h, w, spill, side_lo, side_hi):
    """(N, 4) boxes whose centers may lie up to spill sides beyond the map."""
    sides = rng.uniform(side_lo, side_hi, size=(n, 2))
    x = rng.uniform(-spill * w, (1 + spill) * w, size=n)
    y = rng.uniform(-spill * h, (1 + spill) * h, size=n)
    return np.column_stack([x, y, sides[:, 0], sides[:, 1]])


class TestOracle:
    @settings(max_examples=300, deadline=None, database=None)
    @given(
        st.integers(1, 4),
        st.integers(1, 12),
        st.integers(1, 12),
        st.integers(0, 40),
        st.integers(1, 9),
        st.sampled_from([(0.0, 0.0, 0.05), (0.3, 0.2, 3.0), (1.5, 0.5, 20.0), (0.0, 0.01, 0.6)]),
        st.sampled_from([1.0, 1e-300, 1e-320]),
        st.integers(0, 2**32 - 1),
    )
    def test_bitwise_equal(self, c, h, w, n, pool_size, boxes_kind, scale, seed):
        # Noisy maps carry negative values, whose products with a zero
        # weight are -0.0 in the reference, and -0.0 entries; subnormal
        # scales make products underflow to -0.0. Boxes range from
        # sub-cell to several map sides, inside, straddling and fully
        # outside the map.
        rng = np.random.default_rng(seed)
        spill, side_lo, side_hi = boxes_kind
        data = rng.normal(size=(c, h, w)) * scale
        data[rng.random(data.shape) < 0.2] = -0.0
        fm = FeatureMap(data)
        boxes = random_boxes(rng, n, h, w, spill, max(side_lo, 1e-3), side_hi)
        got = roi_align_many(plane_buffer([fm]), boxes, pool_size)
        want = oracle_roi_align_many(fm, boxes, pool_size)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("pool_size", range(1, 10))
    def test_cell_aligned_and_edge_samples(self, pool_size):
        # Sample points on cell centers and exactly on the map edges give
        # interpolation weights of exactly 0 and 1.
        rng = np.random.default_rng(pool_size)
        fm = FeatureMap(rng.normal(size=(3, 5, 6)))
        boxes = np.array([
            [3.0, 2.5, 6.0, 5.0], [0.5, 0.5, 1.0, 1.0], [6.0, 5.0, 2.0, 2.0], [0.0, 0.0, 1.0, 1.0],
            [-1.0, 2.5, 2.0, 5.0], [3.0, 5.5, 6.0, 1.0], [100.0, -100.0, 1.0, 1.0], [3.0, 2.5, 1e-6, 1e-6],
        ])
        got = roi_align_many(plane_buffer([fm]), boxes, pool_size)
        assert got.tobytes() == oracle_roi_align_many(fm, boxes, pool_size).tobytes()

    def test_empty(self):
        fm = FeatureMap(np.ones((2, 3, 3)))
        got = roi_align_many(plane_buffer([fm]), np.zeros((0, 4)), 4)
        assert got.shape == (0, 32) and got.tobytes() == oracle_roi_align_many(fm, np.zeros((0, 4)), 4).tobytes()


class TestPlaneBuffer:
    @pytest.mark.parametrize("pool_size", range(1, 8))
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_mixed_sizes_match_oracle_per_scene(self, pool_size, seed):
        # Rows of maps of five sizes, shuffled together, each pooled from its
        # own map; boxes lie inside, straddling and fully outside their map.
        rng = np.random.default_rng(seed)
        shapes = [(5, 8), (12, 4), (1, 1), (9, 9), (3, 17)]
        maps, boxes, of = [], [], []
        for m, (h, w) in enumerate(shapes):
            data = rng.normal(size=(3, h, w))
            data[rng.random(data.shape) < 0.2] = -0.0
            maps.append(FeatureMap(data))
            n = int(rng.integers(0, 30))
            boxes.append(random_boxes(rng, n, h, w, 1.5, 0.05, 20.0))
            of.append(np.full(n, m))
        boxes, of = np.concatenate(boxes), np.concatenate(of)
        assert (np.bincount(of, minlength=len(shapes)) > 0).sum() >= 4
        perm = rng.permutation(len(boxes))
        got = roi_align_many(plane_buffer(maps), boxes[perm], pool_size, of[perm])
        assert got.shape == (len(boxes), 3 * pool_size * pool_size)
        for m, fm in enumerate(maps):
            rows = np.flatnonzero(of[perm] == m)
            want = oracle_roi_align_many(fm, boxes[perm][rows], pool_size)
            assert got[rows].tobytes() == want.tobytes()

    def test_first_map_by_default(self):
        rng = np.random.default_rng(3)
        maps = [FeatureMap(rng.normal(size=(2, 6, 4))), FeatureMap(rng.normal(size=(2, 3, 9)))]
        boxes = random_boxes(rng, 12, 6, 4, 0.3, 0.5, 5.0)
        got = roi_align_many(plane_buffer(maps), boxes, 3)
        assert got.tobytes() == roi_align_many(plane_buffer(maps), boxes, 3, np.zeros(12, dtype=np.int64)).tobytes()
        assert got.tobytes() == oracle_roi_align_many(maps[0], boxes, 3).tobytes()

    def test_layout(self):
        fm = FeatureMap(np.arange(12.0).reshape(2, 2, 3))
        buf = plane_buffer([FeatureMap(np.ones((2, 1, 1))), fm])
        assert buf.offsets.tolist() == [0, 9] and buf.heights.tolist() == [1, 2] and buf.widths.tolist() == [1, 3]
        assert buf.data.shape == (2, 9 + 20)
        planes = buf.data[:, 9:].reshape(2, 4, 5)
        assert np.array_equal(planes[:, 1:-1, 1:-1], fm.data)
        planes[:, 1:-1, 1:-1] = 0.0
        assert not planes.any()

    def test_rejects_no_maps_and_mixed_channels(self):
        with pytest.raises(ValueError):
            plane_buffer([])
        with pytest.raises(ValueError):
            plane_buffer([FeatureMap(np.ones((2, 3, 3))), FeatureMap(np.ones((3, 3, 3)))])
