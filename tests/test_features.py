import numpy as np
import pytest

from boxregress.boxes import Box
from boxregress.features import FEATURE_STRIDE, FeatureMap, roi_align_many


def roi_align(fm, b, pool_size=7):
    """Pooled feature vector of one box given in feature-map coordinates."""
    return roi_align_many(fm, np.array([[b.x, b.y, b.w, b.h]]), pool_size)[0]


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
        batch = roi_align_many(fm, arr, pool_size=4)
        for i, b in enumerate(boxes):
            assert np.array_equal(batch[i], roi_align(fm, b, pool_size=4))

    def test_empty_batch(self):
        fm = FeatureMap(np.ones((2, 3, 3)))
        assert roi_align_many(fm, np.zeros((0, 4)), pool_size=3).shape == (0, 18)

    def test_pool_size_validation(self):
        fm = FeatureMap(np.ones((1, 3, 3)))
        with pytest.raises(ValueError):
            roi_align(fm, Box(1, 1, 1, 1), pool_size=0)

    def test_feature_coords_scaling(self):
        # Raster boxes are pooled at raster coordinates / FEATURE_STRIDE.
        b = np.array([[8.0, 12, 4, 20]]) / FEATURE_STRIDE
        assert b.tolist() == [[2, 3, 1, 5]]
