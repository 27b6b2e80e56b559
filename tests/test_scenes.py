import json

import numpy as np
import pytest

from boxregress import cli
from boxregress.boxes import Box, boxes_to_array, iou
from boxregress.errors import DataFormatError
from boxregress.scenes import (
    Scene,
    SceneBudgetWarning,
    SynthConfig,
    build_feature_map,
    filter_categories,
    load_annotations,
    load_scenes,
    save_scenes,
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
        assert s.gts == [Box(25, 40, 30, 40)]
        assert s.labels == [7]

    def test_empty_annotations_give_gtless_scene(self, tmp_path):
        doc = {"images": [{"id": 5, "width": 64, "height": 64}], "annotations": []}
        scenes = load_annotations(write_json(tmp_path, doc))
        assert len(scenes) == 1
        assert scenes[0].gts == []

    def test_unknown_image_skipped_with_warning(self, tmp_path):
        doc = {
            "images": [{"id": 1, "width": 64, "height": 64}],
            "annotations": [{"image_id": 99, "bbox": [1, 1, 5, 5]}],
        }
        with pytest.warns(UserWarning, match="unknown image"):
            scenes = load_annotations(write_json(tmp_path, doc))
        assert scenes[0].gts == []

    def test_nonpositive_dims_skipped_with_warning(self, tmp_path):
        doc = {
            "images": [{"id": 1, "width": 64, "height": 64}],
            "annotations": [{"image_id": 1, "bbox": [1, 1, 0, 5]}],
        }
        with pytest.warns(UserWarning, match="non-positive"):
            scenes = load_annotations(write_json(tmp_path, doc))
        assert scenes[0].gts == []

    def test_far_outside_skipped_with_warning(self, tmp_path):
        doc = {
            "images": [{"id": 1, "width": 64, "height": 64}],
            "annotations": [{"image_id": 1, "bbox": [-500, 0, 30, 30]}],
        }
        with pytest.warns(UserWarning, match="outside"):
            scenes = load_annotations(write_json(tmp_path, doc))
        assert scenes[0].gts == []

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
        assert s.gts == [Box(25 * 7.5, 40 * 7.5, 30 * 7.5, 40 * 7.5)]


class TestFilterCategories:
    def make(self):
        return [
            Scene(id="a", width=64, height=64, gts=[Box(10, 10, 5, 5)], labels=[1]),
            Scene(id="b", width=64, height=64, gts=[Box(10, 10, 5, 5), Box(30, 30, 5, 5)], labels=[2, 3]),
            Scene(id="c", width=64, height=64, gts=[Box(10, 10, 5, 5)], labels=[3]),
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


class TestFeatureMapBuild:
    def test_occupancy_exact_inside_outside(self):
        # Object centered on a cell center (cells at 4j + 2).
        g = Box(62, 62, 40, 32)
        fm = build_feature_map(128, 128, [g])
        assert fm.data.shape == (3, 32, 32)
        cx = (np.arange(32) + 0.5) * 4.0
        inside_x = np.abs(cx - g.x) <= g.w / 2
        inside_y = np.abs(cx - g.y) <= g.h / 2
        expected = np.outer(inside_y, inside_x).astype(float)
        assert np.array_equal(fm.data[0], expected)

    def test_distance_channels_vanish_at_center(self):
        fm = build_feature_map(128, 128, [Box(62, 62, 40, 32)])
        assert fm.data[1][15, 15] == 0.0
        assert fm.data[2][15, 15] == 0.0

    def test_distance_normalized_and_clamped(self):
        g = Box(62, 62, 8, 8)
        fm = build_feature_map(128, 128, [g])
        # one cell right of center: dx = 4, normalized 0.5
        assert fm.data[1][15, 16] == 0.5
        # far cells clamp to 2
        assert fm.data[1][15, 31] == 2.0
        assert fm.data[1][15, 0] == -2.0

    def test_no_objects_all_zero(self):
        fm = build_feature_map(64, 64, [])
        assert np.array_equal(fm.data, np.zeros((3, 16, 16)))

    def test_occupancy_integrates_to_area(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            w, h = rng.uniform(20, 80), rng.uniform(20, 80)
            g = Box(rng.uniform(w / 2, 128 - w / 2), rng.uniform(h / 2, 128 - h / 2), w, h)
            fm = build_feature_map(128, 128, [g])
            measured = fm.data[0].sum() * 16.0  # cells are 4x4 raster units
            assert abs(measured - g.area) <= 4 * (g.w + g.h) + 32

    def test_noise_requires_rng_and_is_deterministic(self):
        with pytest.raises(ValueError):
            build_feature_map(64, 64, [Box(32, 32, 10, 10)], noise=0.1)
        a = build_feature_map(64, 64, [Box(32, 32, 10, 10)], 0.1, np.random.default_rng(5))
        b = build_feature_map(64, 64, [Box(32, 32, 10, 10)], 0.1, np.random.default_rng(5))
        assert np.array_equal(a.data, b.data)


class TestSynthScenes:
    def test_deterministic(self):
        cfg = SynthConfig(seed=3)
        a = synth_scenes(cfg, 5)
        b = synth_scenes(cfg, 5)
        assert [s.gts for s in a] == [s.gts for s in b]
        for sa, sb in zip(a, b):
            assert np.array_equal(sa.feature_map().data, sb.feature_map().data)

    def test_independent_of_count(self):
        # Scene i draws from its own stream, so prefixes agree.
        cfg = SynthConfig(seed=4)
        a = synth_scenes(cfg, 3)
        b = synth_scenes(cfg, 6)
        assert [s.gts for s in a] == [s.gts for s in b[:3]]

    def test_object_counts_and_separation(self):
        cfg = SynthConfig(seed=5, min_objects=2, max_objects=4)
        for s in synth_scenes(cfg, 30):
            assert 2 <= len(s.gts) <= 4
            for i in range(len(s.gts)):
                for j in range(i + 1, len(s.gts)):
                    assert iou(*boxes_to_array([s.gts[i], s.gts[j]])) < cfg.max_gt_iou

    def test_objects_inside_image(self):
        cfg = SynthConfig(seed=6)
        for s in synth_scenes(cfg, 20):
            for g in s.gts:
                assert g.x - g.w / 2 >= 0 and g.x + g.w / 2 <= s.width
                assert g.y - g.h / 2 >= 0 and g.y + g.h / 2 <= s.height

    def test_adjacent_pair_mode(self):
        cfg = SynthConfig(seed=7, adjacent_pairs=True)
        for s in synth_scenes(cfg, 10):
            assert len(s.gts) == 2
            a, b = s.gts
            assert abs((a.x + a.w / 2) - (b.x - b.w / 2)) < 1e-9
            assert a.y == b.y

    def test_placement_budget_warning(self):
        # Four near-half-image objects cannot all fit nearly disjoint; the
        # generator must warn and fall back to fewer objects, not spin.
        cfg = SynthConfig(seed=8, min_objects=4, max_objects=4,
                          min_size_frac=0.52, max_size_frac=0.55, max_gt_iou=0.02)
        with pytest.warns(SceneBudgetWarning):
            scenes = synth_scenes(cfg, 10)
        assert all(1 <= len(s.gts) <= 4 for s in scenes)

    def test_noise_applied(self):
        clean = synth_scenes(SynthConfig(seed=9), 1)[0]
        noisy = synth_scenes(SynthConfig(seed=9, noise=0.05), 1)[0]
        assert not np.array_equal(clean.feature_map().data, noisy.feature_map().data)


def export_coco(path, scenes):
    """Test-side writer for the annotation format; the loader must invert it."""
    doc = {"images": [], "annotations": []}
    for i, s in enumerate(scenes):
        doc["images"].append({"id": i, "width": s.width, "height": s.height})
        for j, g in enumerate(s.gts):
            doc["annotations"].append(
                {
                    "image_id": i,
                    "bbox": [g.x - g.w / 2, g.y - g.h / 2, g.w, g.h],
                    "category_id": (s.labels or [None] * len(s.gts))[j],
                }
            )
    path.write_text(json.dumps(doc))
    return str(path)


class TestAnnotationRoundtrip:
    def test_export_then_load_is_identity(self, tmp_path):
        scenes = [
            Scene(id="0", width=128, height=96, gts=[Box(20, 20, 10, 8), Box(64, 48, 30, 30)], labels=[1, 2]),
            Scene(id="1", width=64, height=64, gts=[Box(32, 32, 16, 16)], labels=[5]),
        ]
        path = export_coco(tmp_path / "rt.json", scenes)
        loaded = load_annotations(path)
        assert len(loaded) == len(scenes)
        for a, b in zip(scenes, loaded):
            assert (a.width, a.height) == (b.width, b.height)
            assert a.labels == b.labels
            for ga, gb in zip(a.gts, b.gts):
                assert abs(ga.x - gb.x) < 1e-9
                assert abs(ga.y - gb.y) < 1e-9
                assert abs(ga.w - gb.w) < 1e-9
                assert abs(ga.h - gb.h) < 1e-9


class TestSceneValidation:
    def test_slack_invariant(self):
        with pytest.raises(ValueError):
            Scene(id="x", width=64, height=64, gts=[Box(-200, 0, 30, 30)])

    def test_labels_alignment(self):
        with pytest.raises(ValueError):
            Scene(id="x", width=64, height=64, gts=[Box(10, 10, 5, 5)], labels=[1, 2])


class TestSceneCache:
    def test_roundtrip(self, tmp_path):
        scenes = synth_scenes(SynthConfig(seed=10), 4)
        scenes.append(Scene(id="manual", width=100, height=50, gts=[Box(20, 20, 10, 10)], labels=[None]))
        path = str(tmp_path / "scenes.bin")
        save_scenes(path, scenes)
        loaded = load_scenes(path)
        assert len(loaded) == len(scenes)
        for a, b in zip(scenes, loaded):
            assert (a.id, a.width, a.height, a.gts, a.labels) == (b.id, b.width, b.height, b.gts, b.labels)
            if a._fm is None:
                assert b._fm is None
            else:
                assert np.array_equal(a._fm.data, b._fm.data)

    @pytest.mark.parametrize("label", [-1, 2**31, -(2**31) - 1], ids=str)
    def test_unstorable_label_rejected(self, tmp_path, capsys, label):
        # -1 is the cache's "no label" value and labels are int32: either
        # would not read back as written, so the scene is refused.
        scenes = [
            Scene(id="ok", width=64, height=64, gts=[Box(20, 20, 10, 10)], labels=[2**31 - 1]),
            Scene(id="bad", width=64, height=64, gts=[Box(20, 20, 10, 10), Box(40, 40, 8, 8)], labels=[None, label]),
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
