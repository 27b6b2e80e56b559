import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxregress.boxes import Box, apply_offsets_array, encode_offsets_array, iou
from boxregress.errors import DataFormatError
from boxregress.proposals import read_corner_csv, write_corner_csv
from boxregress.scenes import Scene


def random_box(rng):
    return Box(rng.uniform(0, 10), rng.uniform(0, 10), rng.uniform(0.5, 5), rng.uniform(0.5, 5))


def row(b):
    """The (4,) float64 center-form row of a Box."""
    return np.array([b.x, b.y, b.w, b.h], dtype=np.float64)


def raster_iou(u, v, cells=1000):
    """Brute-force IoU: count raster cell centers inside each box."""
    xmin = min(u.x - u.w / 2, v.x - v.w / 2)
    xmax = max(u.x + u.w / 2, v.x + v.w / 2)
    ymin = min(u.y - u.h / 2, v.y - v.h / 2)
    ymax = max(u.y + u.h / 2, v.y + v.h / 2)
    xs = xmin + (np.arange(cells) + 0.5) * (xmax - xmin) / cells
    ys = ymin + (np.arange(cells) + 0.5) * (ymax - ymin) / cells

    def mask(b):
        in_x = np.abs(xs - b.x) <= b.w / 2
        in_y = np.abs(ys - b.y) <= b.h / 2
        return np.outer(in_y, in_x)

    mu, mv = mask(u), mask(v)
    inter = np.logical_and(mu, mv).sum()
    union = np.logical_or(mu, mv).sum()
    return inter / union


# Reference kernels: the scalar IoU of two Box values and the (N, M)
# matrix form, as the library had them before `iou` replaced both.


def oracle_iou(u: Box, v: Box) -> float:
    ux_lo, ux_hi = u.x - 0.5 * u.w, u.x + 0.5 * u.w
    uy_lo, uy_hi = u.y - 0.5 * u.h, u.y + 0.5 * u.h
    vx_lo, vx_hi = v.x - 0.5 * v.w, v.x + 0.5 * v.w
    vy_lo, vy_hi = v.y - 0.5 * v.h, v.y + 0.5 * v.h
    iw = min(ux_hi, vx_hi) - max(ux_lo, vx_lo)
    ih = min(uy_hi, vy_hi) - max(uy_lo, vy_lo)
    if iw <= 0.0 or ih <= 0.0:
        return 0.0
    inter = iw * ih
    union = (ux_hi - ux_lo) * (uy_hi - uy_lo) + (vx_hi - vx_lo) * (vy_hi - vy_lo) - inter
    return inter / union


def oracle_iou_pairwise(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    ax_lo = a[:, 0] - 0.5 * a[:, 2]
    ax_hi = a[:, 0] + 0.5 * a[:, 2]
    ay_lo = a[:, 1] - 0.5 * a[:, 3]
    ay_hi = a[:, 1] + 0.5 * a[:, 3]
    bx_lo = b[:, 0] - 0.5 * b[:, 2]
    bx_hi = b[:, 0] + 0.5 * b[:, 2]
    by_lo = b[:, 1] - 0.5 * b[:, 3]
    by_hi = b[:, 1] + 0.5 * b[:, 3]

    iw = np.minimum(ax_hi[:, None], bx_hi[None, :]) - np.maximum(ax_lo[:, None], bx_lo[None, :])
    ih = np.minimum(ay_hi[:, None], by_hi[None, :]) - np.maximum(ay_lo[:, None], by_lo[None, :])
    inter = np.maximum(iw, 0.0) * np.maximum(ih, 0.0)
    area_a = (ax_hi - ax_lo) * (ay_hi - ay_lo)
    area_b = (bx_hi - bx_lo) * (by_hi - by_lo)
    union = area_a[:, None] + area_b[None, :] - inter
    return inter / union


def oracle_encode_offsets(b: Box, g: Box) -> tuple[float, float, float, float]:
    return (
        (g.x - b.x) / b.w,
        (g.y - b.y) / b.h,
        math.log(g.w / b.w),
        math.log(g.h / b.h),
    )


def nearest_gt(boxes, gts):
    """Index of each box's best-overlapping ground truth, as training matches them."""
    return iou(boxes[:, None], gts[None]).argmax(axis=1)


class TestBoxTypes:
    def test_rejects_nonpositive_sides(self):
        with pytest.raises(ValueError):
            Box(0, 0, 0, 2)
        with pytest.raises(ValueError):
            Box(0, 0, 2, -1)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            Box(math.nan, 0, 1, 1)
        # Offsets are not validated; a non-finite one yields a non-finite row.
        out = apply_offsets_array(np.array([[0.0, 0.0, 1.0, 1.0]]), np.array([[0.0, math.inf, 0.0, 0.0]]))
        assert not np.isfinite(out).all()

    def test_immutability(self):
        b = Box(0, 0, 1, 1)
        with pytest.raises(AttributeError):
            b.x = 5


class TestIou:
    def test_identity(self):
        b = row(Box(0, 0, 2, 2))
        assert iou(b, b) == 1.0

    def test_disjoint(self):
        assert iou(row(Box(0, 0, 2, 2)), row(Box(10, 10, 2, 2))) == 0.0

    def test_one_seventh(self):
        # I = 1, U = 4 + 4 - 1 = 7
        assert abs(iou(row(Box(0, 0, 2, 2)), row(Box(1, 1, 2, 2))) - 1 / 7) < 1e-12

    def test_edge_touching_is_zero(self):
        assert iou(row(Box(0, 0, 2, 2)), row(Box(2, 0, 2, 2))) == 0.0
        assert iou(row(Box(0, 0, 2, 2)), row(Box(0, 2, 2, 2))) == 0.0

    def test_symmetry_and_bounds(self):
        rng = np.random.default_rng(3)
        pairs = [(random_box(rng), random_box(rng)) for _ in range(1000)]
        u = np.array([row(p[0]) for p in pairs])
        v = np.array([row(p[1]) for p in pairs])
        a, b = iou(u, v), iou(v, u)
        assert np.array_equal(a, b)
        assert ((0.0 <= a) & (a <= 1.0)).all()
        assert (iou(u, u) == 1.0).all()

    def test_agrees_with_raster_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(150):
            u, v = random_box(rng), random_box(rng)
            assert abs(iou(row(u), row(v)) - raster_iou(u, v)) < 1e-2


class TestOffsets:
    def test_zero_offsets_identity(self):
        b = row(Box(3, -2, 4, 5))[None]
        assert np.array_equal(apply_offsets_array(b, np.zeros((1, 4))), b)

    def test_apply_example(self):
        out = apply_offsets_array(np.array([[0.0, 0, 10, 10]]), np.array([[0.1, -0.2, math.log(2), 0]]))[0]
        assert abs(out[0] - 1) < 1e-12
        assert abs(out[1] - -2) < 1e-12
        assert abs(out[2] - 20) < 1e-12
        assert abs(out[3] - 10) < 1e-12

    def test_encode_identity(self):
        b = np.array([[1.0, 2, 3, 4]])
        assert np.array_equal(encode_offsets_array(b, b), np.zeros((1, 4)))

    def test_encode_example(self):
        d = encode_offsets_array(np.array([[0.0, 0, 10, 10]]), np.array([[1.0, -2, 20, 10]]))[0]
        assert abs(d[0] - 0.1) < 1e-12
        assert abs(d[1] - -0.2) < 1e-12
        assert abs(d[2] - math.log(2)) < 1e-12
        assert abs(d[3]) < 1e-12

    def test_roundtrip_sweep(self):
        rng = np.random.default_rng(5)
        pairs = [(random_box(rng), random_box(rng)) for _ in range(10_000)]
        b = np.array([row(p[0]) for p in pairs])
        g = np.array([row(p[1]) for p in pairs])
        r = apply_offsets_array(b, encode_offsets_array(b, g))
        assert np.abs(r - g).max() < 1e-9

    def test_overflow_reported(self):
        # Overflow is reported as a non-finite row; refine turns it into an OverflowError.
        out = apply_offsets_array(np.array([[0.0, 0, 1, 1]]), np.array([[0.0, 0, 800.0, 0]]))
        assert not np.isfinite(out).all()
        out = apply_offsets_array(np.array([[1e308, 0, 1e308, 1]]), np.array([[1e4, 0, 0, 0]]))
        assert not np.isfinite(out).all()


class TestMatching:
    def test_single(self):
        b = np.array([[0.0, 0, 2, 2]])
        assert nearest_gt(b, b).tolist() == [0]

    def test_example(self):
        # IoUs 0 vs 3/5
        b = np.array([[0.0, 0, 2, 2]])
        assert nearest_gt(b, np.array([[10.0, 10, 2, 2], [0.5, 0, 2, 2]])).tolist() == [1]

    def test_all_zero_iou_ties_to_lowest(self):
        b = np.array([[0.0, 0, 1, 1]])
        assert nearest_gt(b, np.array([[50.0, 50, 1, 1], [60.0, 60, 1, 1]])).tolist() == [0]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            nearest_gt(np.array([[0.0, 0, 1, 1]]), np.zeros((0, 4)))

    def test_maximizes_iou(self):
        rng = np.random.default_rng(6)
        for _ in range(300):
            b = random_box(rng)
            gts = [random_box(rng) for _ in range(5)]
            idx = nearest_gt(row(b)[None], np.array([row(g) for g in gts]))[0]
            best = max(oracle_iou(b, g) for g in gts)
            assert oracle_iou(b, gts[idx]) == best


class TestCornerConversion:
    def test_example(self, tmp_path):
        path = str(tmp_path / "boxes.csv")
        write_corner_csv(path, {"a": np.array([[0.0, 0, 2, 2]])})
        assert open(path).read() == "a,-1.0,-1.0,1.0,1.0\n"

    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(7)
        b = np.array([row(random_box(rng)) for _ in range(1000)])
        path = str(tmp_path / "boxes.csv")
        write_corner_csv(path, {"a": b})
        r = read_corner_csv(path, scored=False)["a"]
        assert np.abs(r[:, 0] - b[:, 0]).max() < 1e-12
        assert np.abs(r[:, 2] - b[:, 2]).max() < 1e-12

    def test_degenerate_rejected(self, tmp_path):
        for line in ("a,0,0,0,5\n", "a,0,5,3,5\n"):
            path = tmp_path / "boxes.csv"
            path.write_text(line)
            with pytest.raises(DataFormatError):
                read_corner_csv(str(path), scored=False)


class TestArrayHelpers:
    def test_array_roundtrip(self):
        # A scene keeps float64 rows and gives them back as Box values at its edge.
        boxes = [Box(1, 2, 3, 4), Box(-1, 0, 0.5, 9)]
        scene = Scene(id="a", width=8, height=16, boxes=np.array([row(b) for b in boxes]))
        assert scene.boxes.dtype == np.float64
        assert scene.gts == boxes

    def test_pairwise_matches_scalar(self):
        rng = np.random.default_rng(8)
        a = [random_box(rng) for _ in range(12)]
        b = [random_box(rng) for _ in range(9)]
        mat = iou(np.array([row(u) for u in a])[:, None], np.array([row(v) for v in b])[None])
        for i, u in enumerate(a):
            for j, v in enumerate(b):
                assert mat[i, j] == oracle_iou(u, v)

    def test_elementwise_matches_scalar(self):
        rng = np.random.default_rng(9)
        a = [random_box(rng) for _ in range(20)]
        b = [random_box(rng) for _ in range(20)]
        vals = iou(np.array([row(u) for u in a]), np.array([row(v) for v in b]))
        for i in range(20):
            assert vals[i] == oracle_iou(a[i], b[i])

    def test_apply_encode_arrays_match_scalar(self):
        rng = np.random.default_rng(10)
        boxes = [random_box(rng) for _ in range(50)]
        gts = [random_box(rng) for _ in range(50)]
        box_rows = np.array([row(b) for b in boxes])
        enc = encode_offsets_array(box_rows, np.array([row(g) for g in gts]))
        applied = apply_offsets_array(box_rows, enc)
        for i in range(50):
            assert np.allclose(enc[i], oracle_encode_offsets(boxes[i], gts[i]), atol=1e-15)
            assert np.allclose(applied[i], [gts[i].x, gts[i].y, gts[i].w, gts[i].h], atol=1e-9)


# Coordinates mix a fine random range with a coarse integer grid, so that
# shared edges, touching boxes and exact duplicates come up often.
COORD = st.one_of(st.floats(-1e3, 1e3, allow_subnormal=False), st.integers(-20, 20).map(float))
SIDE = st.one_of(st.floats(1e-3, 1e3), st.integers(1, 10).map(float))
BOX = st.tuples(COORD, COORD, SIDE, SIDE)
BOX_ARRAYS = st.lists(BOX, min_size=1, max_size=12).map(lambda rows: np.array(rows, dtype=np.float64))
# The raster oracle's distribution: boxes a sizeable share of the pair's extent.
RASTER_BOX = st.builds(Box, st.floats(0, 10), st.floats(0, 10), st.floats(0.5, 5), st.floats(0.5, 5))


def hex_rows(a):
    return [[v.hex() for v in np.atleast_1d(r).tolist()] for r in a]


class TestIouProperties:
    @settings(max_examples=300, deadline=None, database=None)
    @given(BOX_ARRAYS, BOX_ARRAYS)
    def test_bitwise_symmetric(self, a, b):
        assert hex_rows(iou(a[:, None], b[None])) == hex_rows(iou(b[:, None], a[None]).T)
        n = min(len(a), len(b))
        assert hex_rows(iou(a[:n], b[:n])) == hex_rows(iou(b[:n], a[:n]))

    @settings(max_examples=300, deadline=None, database=None)
    @given(BOX_ARRAYS, BOX_ARRAYS)
    def test_bounds_and_identity(self, a, b):
        m = iou(a[:, None], b[None])
        assert ((0.0 <= m) & (m <= 1.0)).all()
        assert (iou(a, a) == 1.0).all()
        assert (np.diagonal(iou(a[:, None], a[None])) == 1.0).all()

    @settings(max_examples=300, deadline=None, database=None)
    @given(BOX_ARRAYS, BOX_ARRAYS)
    def test_pairwise_form_matches_rows_and_oracles(self, a, b):
        m = iou(a[:, None], b[None])
        assert hex_rows(m) == hex_rows(oracle_iou_pairwise(a, b))
        for i in range(len(a)):
            assert hex_rows([iou(a[i], b)]) == hex_rows(m[i : i + 1])
            assert hex_rows([iou(np.broadcast_to(a[i], b.shape), b)]) == hex_rows(m[i : i + 1])
            want = [oracle_iou(Box(*a[i]), Box(*r)) for r in b.tolist()]
            assert hex_rows([m[i]]) == hex_rows([want])

    @settings(max_examples=60, deadline=None, database=None)
    @given(RASTER_BOX, RASTER_BOX)
    def test_agrees_with_raster_oracle(self, u, v):
        assert abs(iou(row(u), row(v)) - raster_iou(u, v)) < 1e-2

    @settings(max_examples=300, deadline=None, database=None)
    @given(BOX_ARRAYS, st.data())
    def test_encode_apply_round_trip(self, boxes, data):
        gts = np.array(data.draw(st.lists(BOX, min_size=len(boxes), max_size=len(boxes))), dtype=np.float64)
        back = apply_offsets_array(boxes, encode_offsets_array(boxes, gts))
        scale = np.abs(gts) + np.abs(boxes)
        assert (np.abs(back - gts) <= 1e-12 * scale).all()
