import hashlib
import json
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxregress import cli
from boxregress.boxes import iou
from boxregress.errors import DataFormatError
from boxregress.scenes import (
    SCENE_CACHE_MAGIC,
    Scene,
    SceneBudgetWarning,
    SynthConfig,
    _feature_data,
    _within_slack,
    filter_categories,
    load_annotations,
    load_scenes,
    save_scenes,
    scene_map,
    synth_scenes,
)


def write_json(tmp_path, doc, name="ann.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


MINIMAL = {
    "images": [{"id": 1, "width": 100, "height": 80}],
    "annotations": [{"image_id": 1, "bbox": [10, 20, 30, 40], "category_id": 7}],
}


class TestLoadAnnotations:
    def test_minimal_center_conversion(self, tmp_path):
        scenes = load_annotations(write_json(tmp_path, MINIMAL))
        assert len(scenes) == 1
        s = scenes[0]
        assert (s.width, s.height) == (100, 80)
        assert s.boxes.tolist() == [[25, 40, 30, 40]]
        assert s.labels == [7]

    def test_empty_annotations_give_gtless_scene(self, tmp_path):
        doc = {"images": [{"id": 5, "width": 64, "height": 64}], "annotations": []}
        scenes = load_annotations(write_json(tmp_path, doc))
        assert len(scenes) == 1
        assert scenes[0].boxes.shape == (0, 4)

    def test_unknown_image_skipped_with_warning(self, tmp_path):
        doc = {
            "images": [{"id": 1, "width": 64, "height": 64}],
            "annotations": [{"image_id": 99, "bbox": [1, 1, 5, 5]}],
        }
        with pytest.warns(UserWarning, match="unknown image"):
            scenes = load_annotations(write_json(tmp_path, doc))
        assert scenes[0].boxes.shape == (0, 4)

    def test_nonpositive_dims_skipped_with_warning(self, tmp_path):
        doc = {
            "images": [{"id": 1, "width": 64, "height": 64}],
            "annotations": [{"image_id": 1, "bbox": [1, 1, 0, 5]}],
        }
        with pytest.warns(UserWarning, match="non-positive"):
            scenes = load_annotations(write_json(tmp_path, doc))
        assert scenes[0].boxes.shape == (0, 4)

    def test_far_outside_skipped_with_warning(self, tmp_path):
        doc = {
            "images": [{"id": 1, "width": 64, "height": 64}],
            "annotations": [{"image_id": 1, "bbox": [-500, 0, 30, 30]}],
        }
        with pytest.warns(UserWarning, match="outside"):
            scenes = load_annotations(write_json(tmp_path, doc))
        assert scenes[0].boxes.shape == (0, 4)

    def test_truncated_file_fails_closed(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"images": [{"id": 1, ')
        with pytest.raises(DataFormatError, match="line"):
            load_annotations(str(path))

    def test_missing_arrays_rejected(self, tmp_path):
        with pytest.raises(DataFormatError):
            load_annotations(write_json(tmp_path, {"images": []}))

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(DataFormatError):
            load_annotations(str(tmp_path / "does-not-exist.json"))

    def test_duplicate_image_id_rejected(self, tmp_path):
        # A later image with the same id would silently replace the first,
        # and the annotation would move onto it.
        doc = {
            "images": [{"id": 1, "width": 100, "height": 100}, {"id": 2, "width": 64, "height": 64},
                       {"id": 1, "width": 50, "height": 50}],
            "annotations": [{"image_id": 1, "bbox": [60, 60, 30, 30]}],
        }
        with pytest.raises(DataFormatError, match=r"images\[2\]: duplicate image id 1"):
            load_annotations(write_json(tmp_path, doc))

    @pytest.mark.parametrize("label", [1.5, "7", True, [1]], ids=repr)
    def test_non_integer_category_rejected(self, tmp_path, capsys, label):
        # The scene cache stores labels as int32: a label that is not an
        # integer is refused at load time, before any annotation is skipped.
        doc = {
            "images": [{"id": 1, "width": 64, "height": 64}],
            "annotations": [
                {"image_id": 1, "bbox": [1, 1, 5, 5], "category_id": 3},
                {"image_id": 99, "bbox": [1, 1, 5, 5], "category_id": label},
            ],
        }
        path = write_json(tmp_path, doc)
        with pytest.raises(DataFormatError, match=r"annotations\[1\]: category_id"):
            load_annotations(path)
        code = cli.main(["train", "--out-dir", str(tmp_path / "o"), "--annotations", path])
        assert code == 2
        assert "annotations[1]" in capsys.readouterr().err

    @pytest.mark.parametrize("bbox", [[float("nan"), 1, 5, 5], [1, 1, float("inf"), 5], [1, float("-inf"), 5, 5],
                                      [1, 1, 5, float("nan")]])
    def test_nonfinite_bbox_rejected(self, tmp_path, capsys, bbox):
        # A NaN side passes a `w <= 0` test; it is refused, not skipped.
        doc = {
            "images": [{"id": 1, "width": 64, "height": 64}],
            "annotations": [
                {"image_id": 1, "bbox": [1, 1, 5, 5]},
                {"image_id": 1, "bbox": bbox},
            ],
        }
        path = write_json(tmp_path, doc)
        with pytest.raises(DataFormatError, match=r"annotations\[1\]: bbox values must be finite"):
            load_annotations(path)
        code = cli.main(["train", "--out-dir", str(tmp_path / "o"), "--annotations", path])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("data error: ") and "annotations[1]" in err[0]

    def test_short_side_rescaling(self, tmp_path):
        scenes = load_annotations(write_json(tmp_path, MINIMAL), short_side=600)
        s = scenes[0]
        # factor 600 / 80 = 7.5
        assert (s.width, s.height) == (750, 600)
        assert s.boxes.tolist() == [[25 * 7.5, 40 * 7.5, 30 * 7.5, 40 * 7.5]]


class TestFilterCategories:
    def make(self):
        return [
            Scene(id="a", width=64, height=64, boxes=np.array([[10, 10, 5, 5]]), labels=[1]),
            Scene(id="b", width=64, height=64, boxes=np.array([[10, 10, 5, 5], [30, 30, 5, 5]]), labels=[2, 3]),
            Scene(id="c", width=64, height=64, boxes=np.array([[10, 10, 5, 5]]), labels=[3]),
        ]

    def test_empty_exclusion_is_identity(self):
        scenes = self.make()
        assert filter_categories(scenes, set()) == scenes

    def test_whole_image_removed(self):
        # scene b has one excluded and one kept category: both go
        kept = filter_categories(self.make(), {2})
        assert [s.id for s in kept] == ["a", "c"]

    def test_all_excluded(self):
        assert filter_categories(self.make(), {1, 2, 3}) == []

    def test_survivors_untouched(self):
        scenes = self.make()
        kept = filter_categories(scenes, {2})
        assert kept[0] is scenes[0]


def geometry_map(width, height, boxes):
    """scene_map of a scene that carries no map of its own."""
    return scene_map(Scene(id="s", width=width, height=height, boxes=np.array(boxes, dtype=np.float64).reshape(-1, 4)))


class TestFeatureMapBuild:
    def test_occupancy_exact_inside_outside(self):
        # Object centered on a cell center (cells at 4j + 2).
        x, y, w, h = 62, 62, 40, 32
        fm = geometry_map(128, 128, [[x, y, w, h]])
        assert fm.data.shape == (3, 32, 32)
        cx = (np.arange(32) + 0.5) * 4.0
        inside_x = np.abs(cx - x) <= w / 2
        inside_y = np.abs(cx - y) <= h / 2
        expected = np.outer(inside_y, inside_x).astype(float)
        assert np.array_equal(fm.data[0], expected)

    def test_distance_channels_vanish_at_center(self):
        fm = geometry_map(128, 128, [[62, 62, 40, 32]])
        assert fm.data[1][15, 15] == 0.0
        assert fm.data[2][15, 15] == 0.0

    def test_distance_normalized_and_clamped(self):
        fm = geometry_map(128, 128, [[62, 62, 8, 8]])
        # one cell right of center: dx = 4, normalized 0.5
        assert fm.data[1][15, 16] == 0.5
        # far cells clamp to 2
        assert fm.data[1][15, 31] == 2.0
        assert fm.data[1][15, 0] == -2.0

    def test_no_objects_all_zero(self):
        fm = geometry_map(64, 64, [])
        assert np.array_equal(fm.data, np.zeros((3, 16, 16)))

    def test_own_map_is_returned_and_none_is_cached(self):
        scene = synth_scenes(SynthConfig(seed=2), 1)[0]
        assert scene_map(scene) is scene.features
        bare = replace(scene, features=None)
        first, second = scene_map(bare), scene_map(bare)
        assert first is not second and bare.features is None
        assert first.data.tobytes() == scene.features.data.tobytes()

    def test_occupancy_integrates_to_area(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            w, h = rng.uniform(20, 80), rng.uniform(20, 80)
            g = [rng.uniform(w / 2, 128 - w / 2), rng.uniform(h / 2, 128 - h / 2), w, h]
            fm = geometry_map(128, 128, [g])
            measured = fm.data[0].sum() * 16.0  # cells are 4x4 raster units
            assert abs(measured - w * h) <= 4 * (w + h) + 32


class TestSynthScenes:
    def test_deterministic(self):
        cfg = SynthConfig(seed=3)
        a = synth_scenes(cfg, 5)
        b = synth_scenes(cfg, 5)
        assert [s.boxes.tolist() for s in a] == [s.boxes.tolist() for s in b]
        for sa, sb in zip(a, b):
            assert np.array_equal(sa.features.data, sb.features.data)

    def test_independent_of_count(self):
        # Scene i draws from its own stream, so prefixes agree.
        cfg = SynthConfig(seed=4)
        a = synth_scenes(cfg, 3)
        b = synth_scenes(cfg, 6)
        assert [s.boxes.tolist() for s in a] == [s.boxes.tolist() for s in b[:3]]

    def test_object_counts_and_separation(self):
        cfg = SynthConfig(seed=5, min_objects=2, max_objects=4)
        for s in synth_scenes(cfg, 30):
            assert 2 <= len(s.boxes) <= 4
            for i in range(len(s.boxes)):
                for j in range(i + 1, len(s.boxes)):
                    assert iou(s.boxes[i], s.boxes[j]) < cfg.max_gt_iou

    def test_objects_inside_image(self):
        cfg = SynthConfig(seed=6)
        for s in synth_scenes(cfg, 20):
            for x, y, w, h in s.boxes.tolist():
                assert x - w / 2 >= 0 and x + w / 2 <= s.width
                assert y - h / 2 >= 0 and y + h / 2 <= s.height

    def test_adjacent_pair_mode(self):
        cfg = SynthConfig(seed=7, adjacent_pairs=True)
        for s in synth_scenes(cfg, 10):
            assert len(s.boxes) == 2
            (ax, ay, aw, _), (bx, by, bw, _) = s.boxes.tolist()
            assert abs((ax + aw / 2) - (bx - bw / 2)) < 1e-9
            assert ay == by

    def test_placement_budget_warning(self):
        # Four near-half-image objects cannot all fit nearly disjoint; the
        # generator must warn and fall back to fewer objects, not spin.
        cfg = SynthConfig(seed=8, min_objects=4, max_objects=4,
                          min_size_frac=0.52, max_size_frac=0.55, max_gt_iou=0.02)
        with pytest.warns(SceneBudgetWarning):
            scenes = synth_scenes(cfg, 10)
        assert all(1 <= len(s.boxes) <= 4 for s in scenes)

    def test_noise_applied(self):
        clean = synth_scenes(SynthConfig(seed=9), 1)[0]
        noisy = synth_scenes(SynthConfig(seed=9, noise=0.05), 1)[0]
        assert not np.array_equal(clean.features.data, noisy.features.data)


# Reference synthesis: the per-scene generator as it was before feature
# maps were built per axis and in batches. synth_scenes must match it bit
# for bit, warnings included.


def oracle_build_feature_map(width, height, gts, noise=0.0, rng=None):
    cells_h, cells_w = max(1, int(np.ceil(height / 4.0))), max(1, int(np.ceil(width / 4.0)))
    data = np.zeros((3, cells_h, cells_w), dtype=np.float64)
    if len(gts):
        cx = (np.arange(cells_w, dtype=np.float64) + 0.5) * 4.0
        cy = (np.arange(cells_h, dtype=np.float64) + 0.5) * 4.0
        px, py = np.meshgrid(cx, cy)
        centers = np.array([[x, y] for x, y, _, _ in gts])
        sides = np.array([[w, h] for _, _, w, h in gts])
        dx = px[None, :, :] - centers[:, 0, None, None]
        dy = py[None, :, :] - centers[:, 1, None, None]
        inside = (np.abs(dx) <= 0.5 * sides[:, 0, None, None]) & (np.abs(dy) <= 0.5 * sides[:, 1, None, None])
        data[0] = inside.any(axis=0).astype(np.float64)
        nearest = np.argmin(dx * dx + dy * dy, axis=0)
        sel_dx = np.take_along_axis(dx, nearest[None], axis=0)[0]
        sel_dy = np.take_along_axis(dy, nearest[None], axis=0)[0]
        data[1] = np.clip(sel_dx / sides[nearest, 0], -2.0, 2.0)
        data[2] = np.clip(sel_dy / sides[nearest, 1], -2.0, 2.0)
    if noise > 0.0:
        data += rng.normal(0.0, noise, size=data.shape)
    return data


def oracle_place_objects(cfg, rng, n_target):
    size = float(cfg.image_size)
    placed = []
    for _ in range(n_target):
        ok = None
        for _ in range(40):
            w = rng.uniform(cfg.min_size_frac, cfg.max_size_frac) * size
            h = rng.uniform(cfg.min_size_frac, cfg.max_size_frac) * size
            cand = (rng.uniform(0.5 * w, size - 0.5 * w), rng.uniform(0.5 * h, size - 0.5 * h), w, h)
            if not placed or (iou(np.array([cand]), np.array(placed)) < cfg.max_gt_iou).all():
                ok = cand
                break
        if ok is None:
            return None
        placed.append(ok)
    return placed


def oracle_synth_scene(cfg, index):
    """(ground truths, feature data, warning message or None) of one scene."""
    from boxregress.scenes import _place_adjacent_pair

    size = float(cfg.image_size)
    rng = np.random.default_rng([cfg.seed, index, 0])
    n_initial = 2 if cfg.adjacent_pairs else int(rng.integers(cfg.min_objects, cfg.max_objects + 1))
    retry = 0
    while True:
        if retry:
            rng = np.random.default_rng([cfg.seed, index, retry])
        n_target = max(1, n_initial - retry)
        if cfg.adjacent_pairs and n_target >= 2:
            gts = _place_adjacent_pair(cfg, rng)
        else:
            gts = oracle_place_objects(cfg, rng, n_target)
        if gts is not None:
            msg = f"scene {index}: placement budget exhausted, regenerated with {len(gts)} objects" if retry else None
            return gts, oracle_build_feature_map(size, size, gts, cfg.noise, rng), msg
        retry += 1


class TestSynthOracle:
    @pytest.mark.parametrize("seed", [0, 3, 11, 12, 99])
    @pytest.mark.parametrize("extra,count", [
        ({"max_objects": 3}, 260),  # more than one feature-data batch
        ({"noise": 0.3}, 30),
        ({"max_objects": 6, "max_gt_iou": 0.05, "min_size_frac": 0.4, "max_size_frac": 0.6}, 30),
        ({"adjacent_pairs": True, "noise": 0.1}, 30),
        ({"image_size": 50, "min_objects": 2, "max_objects": 5}, 30),
    ])
    def test_synth_scenes_match_per_scene_oracle(self, seed, extra, count):
        cfg = SynthConfig(seed=seed, **extra)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            scenes = synth_scenes(cfg, count)
        want = [oracle_synth_scene(cfg, i) for i in range(count)]
        assert [(str(w.message), w.category) for w in caught] == [
            (msg, SceneBudgetWarning) for _, _, msg in want if msg is not None
        ]
        for s, (gts, data, _) in zip(scenes, want):
            assert [tuple(g) for g in s.boxes.tolist()] == [tuple(g) for g in np.asarray(gts).tolist()]
            assert s.features.data.tobytes() == data.tobytes()

    @settings(max_examples=200, deadline=None, database=None)
    @given(
        st.sampled_from([4.0, 13.5, 128.0, 300.0]),
        st.sampled_from([4.0, 100.0, 427.0]),
        st.lists(st.tuples(st.floats(-0.4, 1.4), st.floats(-0.4, 1.4), st.floats(0.001, 1.0), st.floats(0.001, 1.0)),
                 max_size=6),
        st.booleans(),
    )
    def test_feature_map_matches_oracle(self, width, height, rel, duplicate):
        gts = [(x * width, y * height, w * width, h * height) for x, y, w, h in rel]
        if duplicate and gts:
            gts.append(gts[-1])
        if all(_within_slack(*g, width, height) for g in gts):
            got = geometry_map(width, height, gts).data
        else:  # a Scene refuses these boxes, so the map's kernel is called directly
            got = _feature_data(width, height, [np.array(gts)])[0]
        assert got.tobytes() == oracle_build_feature_map(width, height, gts).tobytes()


def export_coco(path, scenes):
    """Test-side writer for the annotation format; the loader must invert it."""
    doc = {"images": [], "annotations": []}
    for i, s in enumerate(scenes):
        doc["images"].append({"id": i, "width": s.width, "height": s.height})
        for j, (x, y, w, h) in enumerate(s.boxes.tolist()):
            doc["annotations"].append(
                {
                    "image_id": i,
                    "bbox": [x - w / 2, y - h / 2, w, h],
                    "category_id": (s.labels or [None] * len(s.boxes))[j],
                }
            )
    path.write_text(json.dumps(doc))
    return str(path)


class TestAnnotationRoundtrip:
    def test_export_then_load_is_identity(self, tmp_path):
        scenes = [
            Scene(id="0", width=128, height=96, boxes=np.array([[20, 20, 10, 8], [64, 48, 30, 30]]), labels=[1, 2]),
            Scene(id="1", width=64, height=64, boxes=np.array([[32, 32, 16, 16]]), labels=[5]),
        ]
        path = export_coco(tmp_path / "rt.json", scenes)
        loaded = load_annotations(path)
        assert len(loaded) == len(scenes)
        for a, b in zip(scenes, loaded):
            assert (a.width, a.height) == (b.width, b.height)
            assert a.labels == b.labels
            assert a.boxes.shape == b.boxes.shape
            assert (np.abs(a.boxes - b.boxes) < 1e-9).all()


class TestBoxEdge:
    def test_gts_read_as_the_benchmark_reads_them_equal_boxes_bitwise(self):
        # bench/run.py reads ground truths as Box values: len(s.gts), g.x - 0.5 * g.w, ...
        scenes = synth_scenes(SynthConfig(seed=1, max_objects=3), 20)
        assert sum(len(s.gts) for s in scenes) == sum(len(s.boxes) for s in scenes)
        for s in scenes:
            corners = np.array([[g.x - 0.5 * g.w, g.y - 0.5 * g.h, g.x + 0.5 * g.w, g.y + 0.5 * g.h] for g in s.gts])
            x, y, w, h = s.boxes.T
            assert corners.tobytes() == np.column_stack([x - 0.5 * w, y - 0.5 * h, x + 0.5 * w, y + 0.5 * h]).tobytes()
            assert np.array([[b.x, b.y, b.w, b.h] for b in s.gts]).tobytes() == s.boxes.tobytes()


class TestSceneValidation:
    def test_slack_invariant(self):
        with pytest.raises(ValueError):
            Scene(id="x", width=64, height=64, boxes=np.array([[-200, 0, 30, 30]]))

    def test_labels_alignment(self):
        with pytest.raises(ValueError):
            Scene(id="x", width=64, height=64, boxes=np.array([[10, 10, 5, 5]]), labels=[1, 2])


class TestSceneCache:
    def test_roundtrip(self, tmp_path):
        scenes = synth_scenes(SynthConfig(seed=10), 4)
        scenes.append(Scene(id="manual", width=100, height=50, boxes=np.array([[20, 20, 10, 10]]), labels=[None]))
        path = str(tmp_path / "scenes.bin")
        save_scenes(path, scenes)
        loaded = load_scenes(path)
        assert len(loaded) == len(scenes)
        for a, b in zip(scenes, loaded):
            assert (a.id, a.width, a.height, a.boxes.tolist(), a.labels) == (b.id, b.width, b.height,
                                                                             b.boxes.tolist(), b.labels)
            if a.features is None:
                assert b.features is None
            else:
                assert np.array_equal(a.features.data, b.features.data)

    @pytest.mark.parametrize("label", [-1, 2**31, -(2**31) - 1], ids=str)
    def test_unstorable_label_rejected(self, tmp_path, capsys, label):
        # -1 is the cache's "no label" value and labels are int32: either
        # would not read back as written, so the scene is refused.
        scenes = [
            Scene(id="ok", width=64, height=64, boxes=np.array([[20, 20, 10, 10]]), labels=[2**31 - 1]),
            Scene(id="bad", width=64, height=64, boxes=np.array([[20, 20, 10, 10], [40, 40, 8, 8]]), labels=[None, label]),
        ]
        path = tmp_path / "scenes.bin"
        with pytest.raises(DataFormatError, match=f"scene bad: label {label}"):
            save_scenes(str(path), scenes)
        assert not path.exists()
        save_scenes(str(path), scenes[:1])
        assert load_scenes(str(path))[0].labels == [2**31 - 1]

        doc = {
            "images": [{"id": "bad", "width": 64, "height": 64}],
            "annotations": [{"image_id": "bad", "bbox": [1, 1, 5, 5], "category_id": label}],
        }
        code = cli.main([
            "train", "--out-dir", str(tmp_path / "o"), "--annotations", write_json(tmp_path, doc),
            "--save-scene-cache", str(tmp_path / "cli.bin"),
        ])
        assert code == 2
        assert "scene bad: label" in capsys.readouterr().err
        assert not (tmp_path / "cli.bin").exists()

    @pytest.mark.parametrize("flag", ["labels", "feature-map"])
    @pytest.mark.parametrize("value", [2, 7, 255])
    def test_flag_byte_must_be_0_or_1(self, tmp_path, flag, value):
        scene = Scene(id="s", width=64, height=64, boxes=np.array([[20, 20, 10, 10]]), labels=[3])
        scene = replace(scene, features=scene_map(scene))
        path = tmp_path / "scenes.bin"
        save_scenes(str(path), [scene])
        # magic, count, id length and id, extents and count, one box; then
        # the has-labels flag, one label and the has-feature-map flag.
        at = len(SCENE_CACHE_MAGIC) + 4 + 2 + 1 + 20 + 32 + (0 if flag == "labels" else 1 + 4)
        blob = bytearray(path.read_bytes())
        assert blob[at] == 1
        blob[at] = value
        path.write_bytes(bytes(blob))
        with pytest.raises(DataFormatError, match=f"byte {at}: scene s: has-{flag} flag must be 0 or 1, got {value}"):
            load_scenes(str(path))

    def test_repeated_scene_id(self, tmp_path, capsys):
        # A second record with the first one's id: propose would keep one of
        # the two scenes, and eval would score both against one id's rows.
        scenes = synth_scenes(SynthConfig(seed=4), 2)
        path = tmp_path / "scenes.bin"
        save_scenes(str(path), scenes[:1])
        second = len(path.read_bytes())
        save_scenes(str(path), scenes)
        blob = path.read_bytes()
        assert blob.count(b"synth-0001") == 1
        path.write_bytes(blob.replace(b"synth-0001", b"synth-0000"))
        with pytest.raises(DataFormatError, match=f"byte {second}: duplicate scene id 'synth-0000'"):
            load_scenes(str(path))
        proposals = tmp_path / "p.csv"
        proposals.write_text("")
        for argv in (["propose", "--model", str(tmp_path / "m.ubbr")], ["eval", "--proposals", str(proposals)]):
            assert cli.main(argv + ["--out-dir", str(tmp_path / "o"), "--scene-cache", str(path)]) == 2
            assert f"byte {second}: duplicate scene id" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_save_refuses_repeated_scene_id(self, tmp_path):
        # load_scenes refuses a repeated id, so save_scenes must not write one.
        scenes = synth_scenes(SynthConfig(seed=4), 2)
        scenes[1] = replace(scenes[1], id=scenes[0].id)
        path = tmp_path / "scenes.bin"
        with pytest.raises(DataFormatError, match=r"scenes\[1\]: duplicate scene id 'synth-0000'"):
            save_scenes(str(path), scenes)
        assert list(tmp_path.iterdir()) == []

    def test_save_refuses_id_longer_than_its_length_field(self, tmp_path):
        # The id length is a uint16; 21,845 three-byte characters are 65,535 bytes.
        path = tmp_path / "scenes.bin"
        fits = Scene(id="€" * 21845, width=64, height=64, boxes=np.array([[20, 20, 10, 10]]))
        save_scenes(str(path), [fits])
        assert load_scenes(str(path))[0].id == fits.id
        path.unlink()
        fits = replace(fits, id=fits.id + "a")
        with pytest.raises(DataFormatError, match=r"scenes\[0\]: scene id is longer than 65535 UTF-8 bytes"):
            save_scenes(str(path), [fits])
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("edit, message", [
        ("nan-box", "box fields must be finite"),
        ("far-box", "too far outside image bounds"),
        ("inf-map", "feature data contains non-finite entries"),
        ("extra-label", "labels and ground truths misaligned"),
    ])
    def test_save_refuses_scene_changed_in_place(self, tmp_path, edit, message):
        # A frozen scene's arrays and label list can still change in place;
        # written as they are, load_scenes would refuse each of these caches.
        scene = Scene(id="s", width=64, height=64, boxes=np.array([[20, 20, 10, 10]]), labels=[3])
        scenes = [synth_scenes(SynthConfig(seed=4), 1)[0], replace(scene, features=scene_map(scene))]
        if edit == "nan-box":
            scenes[1].boxes[0, 0] = np.nan
        elif edit == "far-box":
            scenes[1].boxes[0, 2] = 1e6
        elif edit == "inf-map":
            scenes[1].features.data[0, 0, 0] = np.inf
        else:
            scenes[1].labels.append(4)
        path = tmp_path / "scenes.bin"
        with pytest.raises(DataFormatError, match=rf"scenes\[1\]: .*{message}"):
            save_scenes(str(path), scenes)
        assert list(tmp_path.iterdir()) == []

    # sha256 of the cache of the first 3 noise-free synth scenes of each seed.
    # Placement draws from numpy's PCG64 streams, and the feature maps use
    # only correctly rounded IEEE operations, so the bytes hold on any CPU.
    DIGESTS = {
        0: "fb6776a3d1f78bb6f9119cd1f8a4ef08ba2c3d00a013d4715d8be2bdf6e96989",
        3: "a9b1f10f6c879dde22817a8c66c3f571f7af665565be0576a86c9155a38d3d42",
        11: "a675d26c0f6b79337713278ad945f3963d0921b67d06dfd1e4ee3dc78bf2bc67",
        12: "2d914a3f50f454ac133445c4eade42e28de21e87985198036f579f308185135e",
        99: "deb9ec54b10dc16336ac74291c21e77bf52f64da905e509ba0c929d22192b467",
    }

    @pytest.mark.parametrize("seed", sorted(DIGESTS))
    def test_synth_cache_digest(self, tmp_path, seed):
        path = tmp_path / "scenes.bin"
        save_scenes(str(path), synth_scenes(SynthConfig(seed=seed), 3))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == self.DIGESTS[seed]

    @pytest.mark.parametrize("count", [8, 16])
    def test_synth_memory_does_not_grow_with_scene_count(self, count):
        # At 1024 px a scene's feature-data temporaries take about 5 MB, so a
        # batch is sized by feature cells: 4 such scenes at once, not 256.
        tracemalloc.start()
        try:
            scenes = synth_scenes(SynthConfig(image_size=1024, seed=3), count)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - sum(s.features.data.nbytes for s in scenes) < 24e6

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"WRONGMAG" + b"\0" * 16)
        with pytest.raises(DataFormatError, match="magic"):
            load_scenes(str(path))

    def test_truncated(self, tmp_path):
        scenes = synth_scenes(SynthConfig(seed=11), 2)
        path = str(tmp_path / "scenes.bin")
        save_scenes(path, scenes)
        blob = open(path, "rb").read()
        open(path, "wb").write(blob[: len(blob) // 2])
        with pytest.raises(DataFormatError, match="truncated"):
            load_scenes(path)
