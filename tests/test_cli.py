import argparse
import ast
import hashlib
import inspect
import json
import os
import struct
from dataclasses import replace

import numpy as np
import pytest

from boxregress import cli, proposals
from boxregress.features import FeatureMap
from boxregress.model import MAX_HIDDEN, MAX_POOL_SIZE, MODEL_MAGIC, init_model, load_model, refine, save_model
from boxregress.proposals import MAX_SEEDS, write_corner_csv
from boxregress.sampling import MAX_BOXES_PER_GT
from boxregress.scenes import (MAX_IMAGE_SIDE, SCENE_CACHE_MAGIC, SynthConfig, load_annotations, save_scenes,
                              synth_scenes)

from test_formats import cache_with_id
from test_proposals import oracle_load_boxes


def run_cli(args):
    try:
        return cli.main(args)
    except SystemExit as e:
        return e.code


def one_line_error(capsys, prefix):
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(prefix), err
    return err[0]


TINY_TRAIN = [
    "--synth", "--synth-count", "6", "--seed", "3",
    "--max-epochs", "3", "--hidden", "12,12", "--boxes-per-gt", "10",
]


@pytest.fixture(scope="module")
def trained_dir(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("run") / "train")
    code = run_cli(["train", "--out-dir", out] + TINY_TRAIN)
    assert code == 0
    return out


class TestUsageErrors:
    def test_no_scene_source(self, tmp_path):
        assert run_cli(["train", "--out-dir", str(tmp_path)]) == 1

    def test_two_scene_sources(self, tmp_path):
        assert run_cli(["train", "--out-dir", str(tmp_path), "--synth", "--annotations", "x.json"]) == 1

    def test_missing_required_flag(self):
        assert run_cli(["refine", "--out-dir", "/tmp/x", "--synth"]) == 1

    def test_bad_hidden_spec(self, tmp_path):
        assert run_cli(["train", "--out-dir", str(tmp_path), "--synth", "--hidden", "8"]) == 1

    @pytest.mark.parametrize("flag", [
        ["--decay", "1"],
        ["--decay", "nan"],
        ["--iters", "0"],
        ["--scales", "0,-1"],
        ["--stride", "0"],
        ["--nms-iou", "-0.5"],
        ["--nms-iou", "1.5"],
        ["--nms-iou", "nan"],
    ], ids="=".join)
    def test_bad_propose_flag(self, tmp_path, capsys, flag):
        # The model path does not exist: a usage check that ran after the
        # model load would exit 2 instead.
        code = run_cli([
            "propose", "--out-dir", str(tmp_path / "o"), "--synth", "--synth-count", "1",
            "--model", str(tmp_path / "missing.ubbr"),
        ] + flag)
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")


    @pytest.mark.parametrize("iters", ["0", "-3"])
    def test_bad_refine_iters(self, tmp_path, capsys, iters):
        # Neither the model nor the boxes file exists: a check after loading would exit 2.
        code = run_cli([
            "refine", "--out-dir", str(tmp_path / "o"), "--synth", "--synth-count", "1",
            "--model", str(tmp_path / "missing.ubbr"), "--boxes", str(tmp_path / "missing.csv"), "--iters", iters,
        ])
        assert code == 1
        assert "--iters" in one_line_error(capsys, "error: ")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("flag,field", [
        (["--t", "1.5"], "t must be"),                # SamplerConfig
        (["--lr", "-1"], "TrainConfig"),              # TrainConfig
        (["--epsilon", "0"], "epsilon must be"),      # LossConfig
        # Every float field must be finite; NaN passes a plain `v <= 0` check.
        (["--alpha", "nan"], "alpha must be"),
        (["--alpha", "inf"], "alpha must be"),
        (["--epsilon", "nan"], "epsilon must be"),
        (["--epsilon", "inf"], "epsilon must be"),
        (["--lr", "nan"], "initial_lr must be"),
        (["--lr", "inf"], "initial_lr must be"),
        (["--init-std", "nan"], "init_std must be"),
        (["--init-std", "inf"], "init_std must be"),
        (["--momentum", "nan"], "momentum must be"),
        (["--momentum", "inf"], "momentum must be"),
        (["--weight-decay", "nan"], "weight_decay must be"),
        (["--weight-decay", "inf"], "weight_decay must be"),
        (["--stop-lr", "nan"], "stop_lr must be"),
        (["--momentum", "-0.5"], "momentum must be"),
    ], ids=lambda v: "=".join(v) if isinstance(v, list) else None)
    def test_bad_train_flag(self, tmp_path, capsys, flag, field):
        # The annotation file does not exist: a check after building the scenes would exit 2.
        code = run_cli([
            "train", "--out-dir", str(tmp_path / "o"), "--annotations", str(tmp_path / "missing.json"),
        ] + flag)
        assert code == 1
        assert field in one_line_error(capsys, "error: ")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("flag", [
        ["--image-size", "2"],
        ["--min-objects", "0"],
        ["--max-objects", "0"],
        ["--noise", "-1"],
        ["--min-size-frac", "0"],
        ["--synth-count", "0"],
    ], ids="=".join)
    @pytest.mark.parametrize("command", ["train", "refine", "propose", "eval"])
    def test_bad_scene_flag(self, tmp_path, capsys, command, flag):
        # Every input file is missing: a check after loading one would exit 2.
        missing = {
            "train": [],
            "refine": ["--model", str(tmp_path / "missing.ubbr"), "--boxes", str(tmp_path / "missing.csv")],
            "propose": ["--model", str(tmp_path / "missing.ubbr")],
            "eval": ["--proposals", str(tmp_path / "missing.csv")],
        }[command]
        code = run_cli([command, "--out-dir", str(tmp_path / "o"), "--synth"] + missing + flag)
        assert code == 1
        one_line_error(capsys, "error: ")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("flag", [
        ["--ks", "0"], ["--ks", "1,0"], ["--ks", "-3"], ["--ks", "a,b"], ["--ks", "1.5"], ["--ks", ""], ["--ks", ","],
        ["--iou", "nan"], ["--iou", "1.5"], ["--corloc-iou", "-0.1"], ["--corloc-iou", "nan"],
    ], ids="=".join)
    def test_bad_eval_flag(self, tmp_path, capsys, flag):
        # The proposals file does not exist: a check after loading would exit 2.
        code = run_cli([
            "eval", "--out-dir", str(tmp_path / "o"), "--synth", "--synth-count", "1",
            "--proposals", str(tmp_path / "missing.csv"),
        ] + flag)
        assert code == 1
        assert flag[0] in one_line_error(capsys, "error: ")
        assert not (tmp_path / "o").exists()


class TestPlainSgd:
    @pytest.mark.parametrize("flag", ["--weight-decay", "--momentum"])
    def test_zero_is_accepted(self, tmp_path, flag):
        out = tmp_path / "train"
        assert run_cli(["train", "--out-dir", str(out), flag, "0"] + TINY_TRAIN) == 0
        assert (out / "model.ubbr").exists()


class TestDataErrors:
    def test_bad_annotations(self, tmp_path):
        ann = tmp_path / "broken.json"
        ann.write_text("{not json")
        assert run_cli(["train", "--out-dir", str(tmp_path / "o"), "--annotations", str(ann)]) == 2

    def test_duplicate_image_id(self, tmp_path, capsys):
        ann = tmp_path / "dup.json"
        ann.write_text(json.dumps({
            "images": [{"id": 1, "width": 100, "height": 100}, {"id": 1, "width": 50, "height": 50}],
            "annotations": [{"image_id": 1, "bbox": [10, 10, 30, 30]}],
        }))
        assert run_cli(["train", "--out-dir", str(tmp_path / "o"), "--annotations", str(ann)]) == 2
        assert "images[1]: duplicate image id 1" in one_line_error(capsys, "data error: ")
        assert not (tmp_path / "o").exists()

    def test_missing_model(self, tmp_path):
        code = run_cli([
            "propose", "--out-dir", str(tmp_path / "o"), "--synth", "--synth-count", "1",
            "--model", str(tmp_path / "missing.ubbr"),
        ])
        assert code == 2

    def test_unknown_box_image_id(self, tmp_path, trained_dir):
        boxes = tmp_path / "boxes.csv"
        boxes.write_text("nonexistent,1,1,5,5\n")
        code = run_cli([
            "refine", "--out-dir", str(tmp_path / "o"), "--synth", "--synth-count", "2", "--seed", "3",
            "--model", os.path.join(trained_dir, "model.ubbr"), "--boxes", str(boxes),
        ])
        assert code == 2


    @pytest.mark.parametrize("command", ["eval", "refine"])
    def test_csv_not_utf8(self, tmp_path, capsys, trained_dir, command):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"img\xff,1,2,3,4,5\n")
        flag = ["--proposals", str(bad)] if command == "eval" else [
            "--boxes", str(bad), "--model", os.path.join(trained_dir, "model.ubbr")]
        code = run_cli([command, "--out-dir", str(tmp_path / "o"), "--synth", "--synth-count", "1"] + flag)
        assert code == 2
        assert "not valid UTF-8" in one_line_error(capsys, "data error: ")

    # Byte offsets in a one-scene cache with id "synth-0000" and ground truths.
    ID_AT, WIDTH_AT, GT_AT = 14, 24, 44

    @pytest.mark.parametrize("offset,patch,where", [
        (WIDTH_AT, struct.pack("<d", -10.0), "byte 12: scene synth-0000: image dims"),
        (WIDTH_AT, struct.pack("<d", float("nan")), "byte 12: scene synth-0000: image dims"),
        (GT_AT, struct.pack("<d", float("inf")), "byte 44: scene synth-0000: box fields must be finite"),
        (ID_AT, b"\xff", "byte 14: scene id is not valid UTF-8"),
        (-8, struct.pack("<d", float("nan")), "scene synth-0000: feature data contains non-finite entries"),
        # (h, w) of the 3 x 32 x 32 map's header, which sits 12 + 3 * 32 * 32 * 8 bytes from the end;
        # 16 x 64 keeps the data length, so only the shape check can refuse it.
        (-(3 * 32 * 32 * 8 + 8), struct.pack("<II", 16, 64),
         "byte {fm_at}: scene synth-0000: feature map is 16 x 64 cells, a 128 x 128 image has 32 x 32"),
    ], ids=["negative-width", "nan-width", "inf-gt", "id-not-utf8", "nan-feature", "feature-shape"])
    def test_corrupt_scene_cache(self, tmp_path, capsys, offset, patch, where):
        cache = tmp_path / "scenes.bin"
        scenes = synth_scenes(SynthConfig(seed=3), 1)
        assert scenes[0].id == "synth-0000" and len(scenes[0].boxes)
        assert scenes[0].features.data.shape == (3, 32, 32)
        save_scenes(str(cache), scenes)
        blob = bytearray(cache.read_bytes())
        assert blob[: len(SCENE_CACHE_MAGIC)] == SCENE_CACHE_MAGIC
        where = where.format(fm_at=len(blob) - 3 * 32 * 32 * 8 - 12)
        offset %= len(blob)  # a negative offset counts from the end: the last feature value
        blob[offset : offset + len(patch)] = patch
        cache.write_bytes(bytes(blob))
        proposals = tmp_path / "p.csv"
        proposals.write_text("synth-0000,1,1,5,5,1\n")
        code = run_cli(["eval", "--out-dir", str(tmp_path / "o"), "--scene-cache", str(cache), "--proposals", str(proposals)])
        assert code == 2
        assert where in one_line_error(capsys, "data error: ")

    def test_model_cut_mid_weight(self, tmp_path, capsys):
        path = saved_model(tmp_path)
        blob = open(path, "rb").read()
        open(path, "wb").write(blob[:-3])
        code = run_cli(["propose", "--out-dir", str(tmp_path / "o"), "--synth", "--synth-count", "1", "--model", path])
        assert code == 2
        msg = one_line_error(capsys, "data error: ")
        weights = (len(blob) - len(MODEL_MAGIC) - 24) // 8
        assert f"{path}: expected {weights} weights, found {weights - 1} and a 5-byte remainder" in msg
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("kind", ["config", "annotations"])
    def test_text_file_not_utf8(self, tmp_path, capsys, kind):
        path = tmp_path / "bad"
        if kind == "config":
            path.write_bytes(b"seed = 1\n\xff\n")
            argv = ["train", "--config", str(path), "--out-dir", str(tmp_path / "o"), "--synth"]
        else:
            path.write_bytes(b'{"images": [], "annotations": [], "x": "\xff"}')
            argv = ["train", "--out-dir", str(tmp_path / "o"), "--annotations", str(path)]
        assert run_cli(argv) == 2
        assert f"{path}: not valid UTF-8" in one_line_error(capsys, "data error: ")
        assert not (tmp_path / "o").exists()

    IMAGE = {"id": 1, "width": 64, "height": 64}

    @pytest.mark.parametrize("doc,where", [
        ({"images": 5, "annotations": []}, ": images must be an array, got int"),
        ({"images": [], "annotations": 3}, ": annotations must be an array, got int"),
        ({"images": {"1": IMAGE}, "annotations": []}, ": images must be an array, got dict"),
        ({"images": [IMAGE], "annotations": [{"image_id": [1], "bbox": [1, 1, 5, 5]}]},
         ": annotations[0]: image_id must be a JSON string or integer, got [1]"),
        ("[" * 100_000 + "]" * 100_000, ": arrays or objects nested too deeply"),
        ({"images": [{"id": 1, "width": 10**400, "height": 64}], "annotations": []},
         ": images[0]: int too large to convert to float"),
        ({"images": [IMAGE], "annotations": [{"image_id": 1, "bbox": [1, 1, 10**400, 5]}]},
         ": annotations[0]: int too large to convert to float"),
        ({"images": [IMAGE, {**IMAGE, "id": "1"}], "annotations": []}, ": images[1]: duplicate image id '1'"),
        ({"images": [{**IMAGE, "id": "\ud800"}], "annotations": []}, ": images[0]: 'utf-8' codec can't encode"),
        # Each value must be a JSON number (not a bool or a string), and bbox an array of four.
        ({"images": [IMAGE], "annotations": [{"image_id": 1, "bbox": {"10": 0, "12": 0, "20": 0, "22": 0}}]},
         ": annotations[0]: bbox must be an array of 4 JSON numbers, got {'10': 0, '12': 0, '20': 0, '22': 0}"),
        ({"images": [IMAGE], "annotations": [{"image_id": 1, "bbox": "1234"}]},
         ": annotations[0]: bbox must be an array of 4 JSON numbers, got '1234'"),
        ({"images": [IMAGE], "annotations": [{"image_id": 1, "bbox": [1, 1, 5]}]},
         ": annotations[0]: bbox must be an array of 4 JSON numbers, got [1, 1, 5]"),
        ({"images": [IMAGE], "annotations": [{"image_id": 1, "bbox": [1, True, 5, 5]}]},
         ": annotations[0]: bbox must be an array of 4 JSON numbers, got [1, True, 5, 5]"),
        ({"images": [IMAGE], "annotations": [{"image_id": 1, "bbox": [1, 1, "30", 5]}]},
         ": annotations[0]: bbox must be an array of 4 JSON numbers, got [1, 1, '30', 5]"),
        ({"images": [IMAGE], "annotations": [{"image_id": 1, "bbox": [1, 1, [5], 5]}]},
         ": annotations[0]: bbox must be an array of 4 JSON numbers, got [1, 1, [5], 5]"),
        ({"images": [{**IMAGE, "width": True}], "annotations": []},
         ": images[0]: width and height must be JSON numbers, got [True, 64]"),
        ({"images": [{**IMAGE, "height": "50"}], "annotations": []},
         ": images[0]: width and height must be JSON numbers, got [64, '50']"),
        # Image ids the corner CSV cannot carry.
        ({"images": [{**IMAGE, "id": " a"}], "annotations": []}, ": images[0]: image id ' a' is empty or has a comma"),
        ({"images": [{**IMAGE, "id": "a\t"}], "annotations": []}, ": images[0]: image id 'a\\t' is empty"),
        ({"images": [{**IMAGE, "id": "a,b"}], "annotations": []}, ": images[0]: image id 'a,b' is empty"),
        ({"images": [{**IMAGE, "id": "a\nb"}], "annotations": []}, ": images[0]: image id 'a\\nb' is empty"),
        ({"images": [{**IMAGE, "id": "a\rb"}], "annotations": []}, ": images[0]: image id 'a\\rb' is empty"),
        ({"images": [{**IMAGE, "id": ""}], "annotations": []}, ": images[0]: image id '' is empty"),
        # Image ids of any other JSON type than a string or an integer.
        ({"images": [{**IMAGE, "id": None}], "annotations": []},
         ": images[0]: id must be a JSON string or integer, got None"),
        ({"images": [{**IMAGE, "id": True}], "annotations": []},
         ": images[0]: id must be a JSON string or integer, got True"),
        ({"images": [{**IMAGE, "id": 1.5}], "annotations": []},
         ": images[0]: id must be a JSON string or integer, got 1.5"),
        ({"images": [{**IMAGE, "id": 1e20}], "annotations": []},
         ": images[0]: id must be a JSON string or integer, got 1e+20"),
        ({"images": [IMAGE], "annotations": [{"image_id": None, "bbox": [1, 1, 5, 5]}]},
         ": annotations[0]: image_id must be a JSON string or integer, got None"),
        ({"images": [IMAGE], "annotations": [{"image_id": True, "bbox": [1, 1, 5, 5]}]},
         ": annotations[0]: image_id must be a JSON string or integer, got True"),
        ({"images": [IMAGE], "annotations": [{"image_id": 1.5, "bbox": [1, 1, 5, 5]}]},
         ": annotations[0]: image_id must be a JSON string or integer, got 1.5"),
        ({"images": [IMAGE], "annotations": [{"image_id": 1e20, "bbox": [1, 1, 5, 5]}]},
         ": annotations[0]: image_id must be a JSON string or integer, got 1e+20"),
    ], ids=["images-int", "annotations-int", "images-object", "image-id-list", "nested", "huge-width", "huge-bbox",
            "ids-1-and-'1'", "lone-surrogate-id", "bbox-object", "bbox-string", "bbox-three", "bbox-bool",
            "bbox-string-value", "bbox-nested-value", "width-bool", "height-string", "id-leading-space",
            "id-trailing-tab", "id-comma", "id-line-feed", "id-carriage-return", "id-empty", "id-null", "id-bool",
            "id-float", "id-float-exponent", "image-id-null", "image-id-bool", "image-id-float",
            "image-id-float-exponent"])
    def test_malformed_annotation_document(self, tmp_path, capsys, doc, where):
        path = write_file(tmp_path / "ann.json", doc if isinstance(doc, str) else json.dumps(doc))
        assert run_cli(["train", "--out-dir", str(tmp_path / "o"), "--annotations", path]) == 2
        assert path + where in one_line_error(capsys, "data error: ")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("ident", [b" a", b"a ", b"a,b", b"a\nb", b"a\rb", b""])
    def test_scene_cache_id_the_corner_csv_cannot_carry(self, tmp_path, capsys, ident):
        path = tmp_path / "bad.scenes"
        path.write_bytes(cache_with_id(ident))
        assert run_cli(["eval", "--out-dir", str(tmp_path / "o"), "--scene-cache", str(path),
                        "--proposals", str(path)]) == 2
        msg = one_line_error(capsys, "data error: ")
        assert f"{path}: byte {len(SCENE_CACHE_MAGIC) + 4}: image id {ident.decode()!r} is empty or" in msg
        assert not (tmp_path / "o").exists()

    def test_scene_cache_zero_sized_map_dimension(self, tmp_path, capsys):
        path = tmp_path / "zero.scenes"
        path.write_bytes(SCENE_CACHE_MAGIC + struct.pack("<IH1sddIBBIII", 1, 1, b"a", 64.0, 64.0, 0, 0, 1,
                                                         3, 2**31, 0))
        assert run_cli(["eval", "--out-dir", str(tmp_path / "o"), "--scene-cache", str(path),
                        "--proposals", str(path)]) == 2
        assert one_line_error(capsys, "data error: ").endswith("scene a: feature map has 0 columns")
        assert not (tmp_path / "o").exists()

    def test_nonfinite_model_weights(self, tmp_path, capsys):
        model = init_model(3, 7, (8, 8), init_std=0.001, rng=np.random.default_rng(0))
        model.w2[1, 2] = np.nan
        path = str(tmp_path / "nan.ubbr")
        save_model(path, model)
        code = run_cli([
            "propose", "--out-dir", str(tmp_path / "o"), "--synth", "--synth-count", "1", "--model", path,
        ])
        assert code == 2
        assert "not finite" in one_line_error(capsys, "data error: ")

    @pytest.mark.parametrize("header,weights,field", [
        # Negative widths whose signed weight count matches a 3-weight body.
        ((1, 1, 1, -2, 1, 4), 3, "hidden width 1 must be >= 1, got -2"),
        ((0, 3, 0, 8, 8, 4), 116, "pool size must be >= 1, got 0"),
        # Zero widths, which would refine with the output bias alone.
        ((7, 3, 147, 0, 0, 4), 4, "hidden width 1 must be >= 1, got 0"),
    ], ids=["negative-hidden", "zero-pool", "zero-hidden"])
    def test_impossible_model_header(self, tmp_path, capsys, header, weights, field):
        path = tmp_path / "odd.ubbr"
        path.write_bytes(MODEL_MAGIC + struct.pack("<6i", *header) + np.zeros(weights, "<f8").tobytes())
        code = run_cli([
            "propose", "--out-dir", str(tmp_path / "o"), "--synth", "--synth-count", "1", "--model", str(path),
        ])
        assert code == 2
        assert field in one_line_error(capsys, "data error: ")

    @pytest.mark.parametrize("command", ["refine", "propose"])
    def test_model_channel_mismatch(self, tmp_path, capsys, command):
        # Synthetic scenes have 3 feature channels; the model expects 5.
        path = str(tmp_path / "five.ubbr")
        save_model(path, init_model(5, 7, (8, 8), init_std=0.001, rng=np.random.default_rng(0)))
        boxes = tmp_path / "boxes.csv"
        boxes.write_text("synth-0000,10,10,30,30\n")
        extra = ["--boxes", str(boxes)] if command == "refine" else []
        code = run_cli([
            command, "--out-dir", str(tmp_path / "o"), "--synth", "--synth-count", "1", "--model", path,
        ] + extra)
        assert code == 2
        msg = one_line_error(capsys, "data error: ")
        assert "model expects 5 feature channels, scene synth-0000 provides 3" in msg
        assert not (tmp_path / "o").exists()

    def test_train_mixed_channel_counts(self, tmp_path, capsys):
        scenes = synth_scenes(SynthConfig(seed=3), 6)
        odd = scenes[2]
        scenes[2] = replace(odd, features=FeatureMap(np.concatenate([odd.features.data, odd.features.data[:2]])))
        cache = tmp_path / "mixed.scenes"
        save_scenes(str(cache), scenes)
        code = run_cli(["train", "--out-dir", str(tmp_path / "o"), "--scene-cache", str(cache),
                        "--max-epochs", "2", "--hidden", "8,8", "--boxes-per-gt", "8"])
        assert code == 2
        msg = one_line_error(capsys, "data error: ")
        assert "scene synth-0000 provides 3 feature channels, scene synth-0002 provides 5" in msg
        assert not (tmp_path / "o").exists()


class TestNumericErrors:
    def test_divergence_exit_code(self, tmp_path):
        code = run_cli([
            "train", "--out-dir", str(tmp_path / "o"), "--synth", "--synth-count", "2",
            "--lr", "1e9", "--stop-lr", "1e3", "--max-epochs", "4", "--hidden", "8,8",
            "--boxes-per-gt", "8",
        ])
        assert code == 3

    @pytest.mark.parametrize("command", ["refine", "propose"])
    def test_refine_overflow_exit_code(self, tmp_path, capsys, command):
        # Finite weights whose width offset overflows exp on every box.
        model = init_model(3, 7, (8, 8), init_std=0.001, rng=np.random.default_rng(0))
        model.b3[2] = 800.0
        path = str(tmp_path / "big.ubbr")
        save_model(path, model)
        boxes = tmp_path / "boxes.csv"
        boxes.write_text("synth-0000,10,10,30,30\n")
        extra = ["--boxes", str(boxes)] if command == "refine" else []
        code = run_cli([
            command, "--out-dir", str(tmp_path / "o"), "--synth", "--synth-count", "1", "--model", path,
        ] + extra)
        assert code == 3
        assert "numeric range" in one_line_error(capsys, "numeric failure: ")

    def test_propose_collapsed_boxes_exit_code(self, tmp_path, capsys):
        # A width offset of -60 keeps every side positive but below the
        # resolution of its center, so no refined box overlaps itself.
        model = init_model(3, 7, (8, 8), init_std=0.001, rng=np.random.default_rng(0))
        model.b3[2] = -60.0
        path = str(tmp_path / "tiny.ubbr")
        save_model(path, model)
        code = run_cli(["propose", "--out-dir", str(tmp_path / "o"), "--synth", "--synth-count", "1", "--model", path])
        assert code == 3
        assert "floating-point resolution" in one_line_error(capsys, "numeric failure: ")


class TestConfigFile:
    def test_config_applies_and_flags_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("synth_count = 4\nseed = 11  # comment\nmax_epochs = 2\nhidden = 8,8\nboxes_per_gt = 8\n")
        out = str(tmp_path / "o")
        code = run_cli(["train", "--out-dir", out, "--synth", "--config", str(cfg), "--seed", "12"])
        assert code == 0
        text = open(os.path.join(out, "config.txt")).read()
        assert "seed = 12" in text          # flag wins
        assert "synth_count = 4" in text    # config applied

    def test_bad_value_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# comment\nnms_iou = abc\n")
        code = run_cli([
            "propose", "--out-dir", str(tmp_path / "o"), "--synth", "--config", str(cfg),
            "--model", str(tmp_path / "missing.ubbr"),
        ])
        assert code == 1
        msg = one_line_error(capsys, "error: ")
        assert str(cfg) in msg and "line 2" in msg and "nms_iou" in msg

    def test_bad_boolean_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("synth_count = 2\nadjacent_pairs = ture\n")
        code = run_cli(["train", "--out-dir", str(tmp_path / "o"), "--synth", "--config", str(cfg)])
        assert code == 1
        msg = one_line_error(capsys, "error: ")
        assert str(cfg) in msg and "line 2" in msg and "adjacent_pairs" in msg
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("value,flag", [
        ("true", True), ("Yes", True), ("1", True), ("FALSE", False), ("no", False), ("0", False),
    ])
    def test_boolean_spellings(self, tmp_path, monkeypatch, value, flag):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"adjacent_pairs = {value}\n")
        seen = []
        monkeypatch.setattr(cli, "cmd_train", lambda args, *settings: seen.append(args) or 0)
        assert run_cli(["train", "--out-dir", str(tmp_path / "o"), "--synth", "--config", str(cfg)]) == 0
        args = seen[0]
        assert args.adjacent_pairs is flag

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("not_a_real_key = 5\n")
        assert run_cli(["train", "--out-dir", str(tmp_path / "o"), "--synth", "--config", str(cfg)]) == 1


class TestTrainArtifacts:
    def test_outputs_exist(self, trained_dir):
        assert os.path.exists(os.path.join(trained_dir, "model.ubbr"))
        assert os.path.exists(os.path.join(trained_dir, "config.txt"))
        log = open(os.path.join(trained_dir, "train-log.csv")).read().splitlines()
        assert log[0] == "epoch,lr,train_loss,val_loss,val_mean_iou"
        assert len(log) == 4  # header + 3 epochs

    def test_smooth_l1_selectable(self, tmp_path):
        out = str(tmp_path / "o")
        code = run_cli(["train", "--out-dir", out, "--loss", "smooth_l1"] + TINY_TRAIN)
        assert code == 0
        assert "loss = 'smooth_l1'" in open(os.path.join(out, "config.txt")).read()


class TestPipeline:
    def test_refine_outputs(self, tmp_path, trained_dir):
        scenes = synth_scenes(SynthConfig(seed=3), 2)
        boxes = tmp_path / "boxes.csv"
        lines = []
        for s in scenes:
            for x, y, w, h in s.boxes.tolist():
                lines.append(f"{s.id},{x - w / 2},{y - h / 2},{x + w / 2},{y + h / 2}")
        boxes.write_text("\n".join(lines) + "\n")
        out = str(tmp_path / "r")
        code = run_cli([
            "refine", "--out-dir", out, "--synth", "--synth-count", "2", "--seed", "3",
            "--model", os.path.join(trained_dir, "model.ubbr"), "--boxes", str(boxes), "--iters", "3",
        ])
        assert code == 0
        for k in (1, 2, 3):
            assert os.path.exists(os.path.join(out, f"refined.iter{k}.csv"))
        traj = open(os.path.join(out, "trajectory.csv")).read().splitlines()
        assert traj[0] == "stage,mean_iou"
        assert [row.split(",")[0] for row in traj[1:]] == ["input", "iter1", "iter2", "iter3"]

    def test_refine_reads_interleaved_boxes_across_blocks(self, tmp_path, trained_dir, monkeypatch):
        # The images' lines alternate and a block holds one or two of them,
        # so the reader groups each image's rows across blocks at its end.
        scenes = synth_scenes(SynthConfig(seed=3), 3)
        cache = str(tmp_path / "scenes.bin")
        save_scenes(cache, scenes)
        rng = np.random.default_rng(5)
        lines = []
        for k in range(4):
            for s in scenes[::-1]:
                x, y, w, h = (s.boxes[k % len(s.boxes)] * rng.uniform(0.9, 1.1, 4)).tolist()
                lines.append(f"{s.id},{x - w / 2!r},{y - h / 2!r},{x + w / 2!r},{y + h / 2!r}")
        boxes = tmp_path / "boxes.csv"
        boxes.write_text("\n".join(lines) + "\n")
        model_path = os.path.join(trained_dir, "model.ubbr")
        out = tmp_path / "r"
        monkeypatch.setattr(proposals, "_READ_BYTES", 150)
        code = run_cli(["refine", "--out-dir", str(out), "--scene-cache", cache, "--model", model_path,
                        "--boxes", str(boxes), "--iters", "2"])
        assert code == 0
        by_id = {s.id: s for s in scenes}
        model = load_model(model_path)
        trajectories = {
            image_id: refine(model, by_id[image_id], np.array([[b.x, b.y, b.w, b.h] for b in rows]), iterations=2)
            for image_id, rows in oracle_load_boxes(str(boxes)).items()
        }
        assert list(trajectories) == [s.id for s in scenes[::-1]]
        for k in (1, 2):
            want = tmp_path / f"want.iter{k}.csv"
            write_corner_csv(str(want), {image_id: traj[k - 1] for image_id, traj in trajectories.items()})
            assert (out / f"refined.iter{k}.csv").read_bytes() == want.read_bytes()

    def test_propose_then_eval(self, tmp_path, trained_dir):
        p_out = str(tmp_path / "p")
        code = run_cli([
            "propose", "--out-dir", p_out, "--synth", "--synth-count", "2", "--seed", "3",
            "--model", os.path.join(trained_dir, "model.ubbr"),
            "--scales", "0.25,0.5", "--ratios", "1.0", "--stride", "0.25",
        ])
        assert code == 0
        e_out = str(tmp_path / "e")
        code = run_cli([
            "eval", "--out-dir", e_out, "--synth", "--synth-count", "2", "--seed", "3",
            "--proposals", os.path.join(p_out, "proposals.csv"), "--ks", "1,10,100",
        ])
        assert code == 0
        recall = open(os.path.join(e_out, "recall.csv")).read().splitlines()
        assert recall[0] == "k,iou,recall"
        assert len(recall) == 4
        assert os.path.exists(os.path.join(e_out, "recall-curve.svg"))
        assert os.path.exists(os.path.join(e_out, "corloc.csv"))

    def test_scene_cache_roundtrip_through_cli(self, tmp_path, trained_dir):
        cache = str(tmp_path / "scenes.bin")
        p1 = str(tmp_path / "p1")
        code = run_cli([
            "propose", "--out-dir", p1, "--synth", "--synth-count", "2", "--seed", "3",
            "--model", os.path.join(trained_dir, "model.ubbr"),
            "--scales", "0.5", "--ratios", "1.0", "--stride", "0.5",
            "--save-scene-cache", cache,
        ])
        assert code == 0
        p2 = str(tmp_path / "p2")
        code = run_cli([
            "propose", "--out-dir", p2, "--scene-cache", cache,
            "--model", os.path.join(trained_dir, "model.ubbr"),
            "--scales", "0.5", "--ratios", "1.0", "--stride", "0.5",
        ])
        assert code == 0
        assert open(os.path.join(p1, "proposals.csv")).read() == open(os.path.join(p2, "proposals.csv")).read()


def command_parsers():
    """Each command's own parser, as build_parser() makes it."""
    parser = cli.build_parser()
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def missing_inputs(tmp_path, command):
    """Flags naming an input file that does not exist, which the command loads before doing any work.

    The scene flags take effect: refine, propose and eval generate one
    synthetic scene before they load the missing file.
    """
    return {
        "train": ["--annotations", str(tmp_path / "missing.json")],
        "refine": ["--model", str(tmp_path / "missing.ubbr"), "--boxes", str(tmp_path / "missing.csv")],
        "propose": ["--model", str(tmp_path / "missing.ubbr")],
        "eval": ["--proposals", str(tmp_path / "missing.csv")],
    }[command] + ([] if command == "train" else ["--synth", "--synth-count", "1"])


SWEEP = [
    (command, action.option_strings[-1], value)
    for command, sub in command_parsers().items()
    for action in sub._actions
    if action.type in (int, float)
    for value in ({int: ("0", "-1"), float: ("nan", "inf", "-inf")}[action.type])
]


@pytest.fixture
def no_work(monkeypatch):
    """Fail a test that reaches training or refinement: its flags should have been refused first."""
    for name in ("train", "refine", "generate_proposals"):
        monkeypatch.setattr(cli, name, lambda *a, **k: pytest.fail("flags passed validation"))


class TestFlagSweep:
    def test_sweep_covers_every_command(self):
        assert {command for command, _, _ in SWEEP} == {"train", "refine", "propose", "eval"}
        flags = {flag for _, flag, _ in SWEEP}
        assert {"--seed", "--synth-seed", "--noise", "--short-side", "--lr", "--iters", "--stride", "--iou"} <= flags

    @pytest.mark.parametrize("command,flag,value", SWEEP, ids=lambda v: str(v))
    def test_refused_before_any_load_or_stopped_by_the_missing_input(self, tmp_path, capsys, no_work,
                                                                     command, flag, value):
        out = tmp_path / "o"
        code = run_cli([command, "--out-dir", str(out)] + missing_inputs(tmp_path, command) + [f"{flag}={value}"])
        assert code in (1, 2)
        msg = one_line_error(capsys, "error: " if code == 1 else "data error: ")
        if code == 2:
            assert "missing." in msg
        assert not out.exists()


class TestValidation:
    @pytest.mark.parametrize("flag", [
        ["--noise", "nan"], ["--noise", "inf"], ["--short-side", "nan"], ["--short-side", "inf"],
        ["--short-side", "-1"], ["--seed", "-1"], ["--synth-seed", "-5"],
    ], ids="=".join)
    @pytest.mark.parametrize("command", ["train", "propose"])
    def test_bad_scene_value_exits_1(self, tmp_path, capsys, no_work, command, flag):
        extra = [] if command == "train" else ["--model", str(tmp_path / "missing.ubbr")]
        code = run_cli([command, "--out-dir", str(tmp_path / "o"), "--synth", "--synth-count", "1"]
                       + extra + [f"{flag[0]}={flag[1]}"])
        assert code == 1
        one_line_error(capsys, "error: ")
        assert not (tmp_path / "o").exists()

    def test_short_side_zero_disables_rescaling(self, tmp_path, capsys):
        ann = tmp_path / "one.json"
        ann.write_text(json.dumps({
            "images": [{"id": 1, "width": 100, "height": 50}],
            "annotations": [{"image_id": 1, "bbox": [10, 10, 30, 20]}],
        }))
        code = run_cli(["eval", "--out-dir", str(tmp_path / "o"), "--annotations", str(ann), "--short-side", "0",
                        "--proposals", str(tmp_path / "missing.csv")])
        assert code == 2
        assert "missing.csv" in one_line_error(capsys, "data error: ")

    def test_short_side_box_at_the_bound_is_judged_rescaled(self, tmp_path, capsys):
        # The first box's left edge is exactly the slack bound in the file's
        # coordinates, and just beyond it once scaled by 600 / 375.
        x, y, w, h = -187.5, 150, 18.395431757345897, 100
        scale = 600 / 375
        assert x == -0.5 * 375 and (x + 0.5 * w) * scale - 0.5 * (w * scale) < -0.5 * 600
        ann = tmp_path / "edge.json"
        ann.write_text(json.dumps({
            "images": [{"id": 1, "width": 375, "height": 443}],
            "annotations": [{"image_id": 1, "bbox": [x, y, w, h]}, {"image_id": 1, "bbox": [100, 100, 50, 60]}],
        }))
        with pytest.warns(UserWarning, match=r"annotations\[0\] lies too far outside its image; skipped"):
            assert [len(s.boxes) for s in load_annotations(str(ann), short_side=600)] == [1]
            code = run_cli(["train", "--out-dir", str(tmp_path / "o"), "--annotations", str(ann),
                            "--max-epochs", "1", "--hidden", "4,4", "--boxes-per-gt", "4"])
        assert code == 0
        assert "Traceback" not in capsys.readouterr().err
        assert (tmp_path / "o" / "model.ubbr").exists()

    def test_short_side_that_scales_a_side_to_inf_is_a_data_error(self, tmp_path, capsys):
        ann = tmp_path / "huge.json"
        ann.write_text(json.dumps({"images": [{"id": 1, "width": 1e-300, "height": 1e308}], "annotations": []}))
        code = run_cli(["train", "--out-dir", str(tmp_path / "o"), "--annotations", str(ann)])
        assert code == 2
        msg = one_line_error(capsys, "data error: ")
        assert msg.endswith("images[0]: scene 1: image dims must be finite and positive, got 600.0 x inf")
        assert not (tmp_path / "o").exists()

    def test_negative_seed_in_config_file(self, tmp_path, capsys, no_work):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("synth_count = 1\nseed = -1\n")
        code = run_cli(["train", "--out-dir", str(tmp_path / "o"), "--synth", "--config", str(cfg)])
        assert code == 1
        assert "seed must be" in one_line_error(capsys, "error: ")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command,flag,kind", [
        ("propose", ["--scales", "a,b"], "floats"),
        ("propose", ["--ratios", "1,x"], "floats"),
        ("eval", ["--ks", "a,b"], "ints"),
        ("train", ["--hidden", "8,x"], "ints"),
        ("train", ["--exclude-categories", "1,x"], "ints"),
    ], ids=lambda v: "=".join(v) if isinstance(v, list) else v)
    def test_list_flag_names_itself(self, tmp_path, capsys, command, flag, kind):
        code = run_cli([command, "--out-dir", str(tmp_path / "o")] + missing_inputs(tmp_path, command) + flag)
        assert code == 1
        msg = one_line_error(capsys, "error: ")
        assert f"{flag[0]} must be a comma-separated list of {kind}, got {flag[1]!r}" in msg


class TestSizeCaps:
    # Every case names a missing scene cache: a value within the caps passes
    # validation and stops there with exit 2, so no grid is ever allocated.
    @pytest.mark.parametrize("command,flags,code", [
        ("train", ["--image-size", "100000"], 1),
        ("train", ["--image-size", str(MAX_IMAGE_SIDE + 1)], 1),
        ("train", ["--image-size", str(MAX_IMAGE_SIDE)], 2),
        ("eval", ["--short-side", "100000"], 1),
        ("eval", ["--short-side", str(MAX_IMAGE_SIDE + 0.5)], 1),
        ("eval", ["--short-side", str(MAX_IMAGE_SIDE)], 2),
        ("propose", ["--stride", "1e-4"], 1),
        ("propose", ["--stride", "5e-324"], 1),
        # One scale and ratio: ceil(1 / stride)^2 seeds, at most 256^2 = MAX_SEEDS.
        ("propose", ["--scales", "0.5", "--ratios", "1", "--stride", "0.0039"], 1),
        ("propose", ["--scales", "0.5", "--ratios", "1", "--stride", "0.00390625"], 2),
        # The default 12 scale/ratio pairs allow up to 73 positions a side.
        ("propose", ["--stride", "0.0135"], 1),
        ("propose", ["--stride", "0.0137"], 2),
        # Head and sampler sizes, refused before a weight or an offset is drawn.
        ("train", ["--hidden", "100000,100000"], 1),
        ("train", ["--hidden", f"8,{MAX_HIDDEN + 1}"], 1),
        ("train", ["--hidden", f"{MAX_HIDDEN},{MAX_HIDDEN}"], 2),
        ("train", ["--pool-size", str(MAX_POOL_SIZE + 1)], 1),
        ("train", ["--pool-size", str(MAX_POOL_SIZE)], 2),
        ("train", ["--boxes-per-gt", "1000000"], 1),
        ("train", ["--boxes-per-gt", str(MAX_BOXES_PER_GT + 1)], 1),
        ("train", ["--boxes-per-gt", str(MAX_BOXES_PER_GT)], 2),
    ], ids=lambda v: "=".join(v) if isinstance(v, list) else str(v))
    def test_cap(self, tmp_path, capsys, no_work, command, flags, code):
        extra = {"train": [], "propose": ["--model", str(tmp_path / "m.ubbr")],
                 "eval": ["--proposals", str(tmp_path / "p.csv")]}[command]
        got = run_cli([command, "--out-dir", str(tmp_path / "o"), "--scene-cache", str(tmp_path / "missing.bin")]
                      + extra + flags)
        assert got == code
        msg = one_line_error(capsys, "error: " if code == 1 else "data error: ")
        assert ("missing.bin" in msg) == (code == 2)
        assert not (tmp_path / "o").exists()

    def test_caps_are_the_documented_values(self):
        assert MAX_SEEDS == 65536 and MAX_IMAGE_SIDE == 1024
        assert (MAX_HIDDEN, MAX_POOL_SIZE, MAX_BOXES_PER_GT) == (2048, 16, 32768)


class TestOutDir:
    @pytest.mark.parametrize("under", [False, True], ids=["a-file", "under-a-file"])
    def test_refused_before_any_load(self, tmp_path, capsys, no_work, under):
        # The scene cache is missing: a check after the load would exit 2.
        afile = write_file(tmp_path / "afile", "text")
        out = os.path.join(afile, "sub", "o") if under else afile
        code = run_cli(["train", "--out-dir", out, "--scene-cache", str(tmp_path / "missing.bin")])
        assert code == 1
        assert f"{afile} is not a directory" in one_line_error(capsys, "error: ")
        assert (tmp_path / "afile").read_text() == "text"


# sha256 of each command's config.txt at default flags, without its path
# lines: the defaults the parser reads from the config classes, as the
# resolved flags every run echoes.
CONFIG_DIGESTS = {
    "train": "47ce55af21b5ffc2893d2916691933dc62c290d43db7d3cbf432bd9aff314520",
    "refine": "c0abb9373d1b2a02d913f4a060e66cb1e251c4c24d57e85f67adee5f63ef1cd5",
    "propose": "be81a86f229527f6c017069dfb5c00d28ba33b091b61d63f97fb855139a6ee23",
    "eval": "9d3810fd9396584150bed0464af4523d7f11589d4fa1cab9010f5c11ea38b109",
}
PATH_KEYS = {"out_dir", "model", "boxes", "proposals"}


class TestDefaultConfigDigest:
    @pytest.mark.parametrize("argv", [
        ["train", "--synth"], ["refine", "--synth", "--model", "m", "--boxes", "b"],
        ["propose", "--synth", "--model", "m"], ["eval", "--synth", "--proposals", "p"],
    ], ids=lambda v: v[0])
    def test_config_txt(self, tmp_path, argv):
        args = cli.build_parser().parse_args(argv + ["--out-dir", str(tmp_path / "o")])
        args.check(args)
        cli._make_out_dir(args)
        lines = (tmp_path / "o" / "config.txt").read_bytes().splitlines(keepends=True)
        kept = b"".join(line for line in lines if line.split(b" = ")[0].decode() not in PATH_KEYS)
        assert hashlib.sha256(kept).hexdigest() == CONFIG_DIGESTS[argv[0]], kept.decode()


# Golden eval tables. Ground truths are corner boxes on 64 x 64 images. A
# proposals file gives each image a row count and the rows at some ranks:
# a hit (IoU 15/17 with its ground truth) or a near miss (IoU 0.6, a CorLoc
# hit only). Every other row misses everything. Rows of the images
# interleave in the file. All values are dyadic, so the IoUs, recalls and
# percentages are correctly rounded IEEE results on any CPU.
EVAL_GTS = {"i0": [(8, 8, 24, 24), (40, 40, 56, 56)], "i1": [(0, 0, 32, 32)], "i2": [(16, 16, 48, 32)], "i3": []}


def shifted(image_id, g, frac):
    x0, y0, x1, y1 = EVAL_GTS[image_id][g]
    d = frac * (x1 - x0)
    return x0 + d, y0, x1 + d, y1


def hit(image_id, g):
    return shifted(image_id, g, 1 / 16)


def near(image_id, g):
    return shifted(image_id, g, 1 / 4)


# One case per --ks grid; a rank-(max(ks) - 1) hit decides its last recall.
EVAL_CASES = {
    "default-ks": ([], {
        "i0": (1000, {0: near("i0", 0), 1: hit("i0", 0), 999: hit("i0", 1)}),
        "i1": (1001, {9: hit("i1", 0), 1000: hit("i1", 0)}),
        "i2": (3, {0: hit("i2", 0)}),
        "i3": (2, {}),
    }, None),
    "ks-past-row-counts": (["--ks", "1,3,7"], {
        "i0": (7, {0: hit("i0", 0), 6: hit("i0", 1)}),
        "i1": (2, {1: hit("i1", 0)}),
        "i2": (5, {4: near("i2", 0)}),
    }, None),
    "baseline": (["--ks", "1,4"], {
        "i0": (4, {3: hit("i0", 0)}),
        "i1": (6, {0: hit("i1", 0)}),
        "i2": (4, {}),
    }, {
        "i0": (4, {2: hit("i0", 0), 3: hit("i0", 1)}),
        "i1": (1, {}),
        "i2": (4, {3: near("i2", 0), 0: near("i2", 0)}),
    }),
}

# sha256 of (recall.csv, corloc.csv) per case.
EVAL_DIGESTS = {
    "default-ks": ("899c0b02875fcb8c7a1c3b2a3e86a048b76a83b8f945dc6f6bcfff708e66b117",
                   "4f6590378f40f86f31c79029193d83f616fde69cd3c3a2ab2d0926283f08a8c2"),
    "ks-past-row-counts": ("7ce023fc725953344597e518c4a258fbf16f85c55f5f41ee38f79d2fb5310290",
                           "2c70f77abf68267778c5e6eaa56b4bc75dbf2279edc42417963b31227f37f53e"),
    "baseline": ("cc5d2444c737e4c56c0bfe2f2d584373df2897b62d23c1abce48f364a0506026",
                 "2c70f77abf68267778c5e6eaa56b4bc75dbf2279edc42417963b31227f37f53e"),
}


def write_eval_proposals(path, spec):
    """One row per image in turn, ranks ascending, scores falling by 1/8."""
    lines = []
    for rank in range(max(n for n, _ in spec.values())):
        for image_id, (n, rows) in spec.items():
            if rank < n:
                fields = map(repr, map(float, (*rows.get(rank, (60, 0, 64, 4)), (n - rank) / 8)))
                lines.append(f"{image_id},{','.join(fields)}")
    write_file(path, "\n".join(lines) + "\n")
    return str(path)


class TestEvalTableDigest:
    @pytest.mark.parametrize("case", sorted(EVAL_CASES))
    def test_eval_tables(self, tmp_path, case):
        flags, spec, baseline = EVAL_CASES[case]
        doc = {
            "images": [{"id": i, "width": 64, "height": 64} for i in EVAL_GTS],
            "annotations": [{"image_id": i, "bbox": [x0, y0, x1 - x0, y1 - y0]}
                            for i, boxes in EVAL_GTS.items() for x0, y0, x1, y1 in boxes],
        }
        ann = write_file(tmp_path / "ann.json", json.dumps(doc))
        argv = ["eval", "--out-dir", str(tmp_path / "o"), "--annotations", ann, "--short-side", "0",
                "--proposals", write_eval_proposals(tmp_path / "p.csv", spec)] + flags
        if baseline:
            argv += ["--baseline-proposals", write_eval_proposals(tmp_path / "b.csv", baseline)]
        assert run_cli(argv) == 0
        tables = [(tmp_path / "o" / name).read_bytes() for name in ("recall.csv", "corloc.csv")]
        assert tuple(hashlib.sha256(t).hexdigest() for t in tables) == EVAL_DIGESTS[case], b"".join(tables).decode()


class TestConfigTokens:
    FLAGS = ["--synth", "--synth-count", "2", "--hidden", "4,4", "--boxes-per-gt", "4", "--max-epochs", "1"]

    def test_config_file_equals_flags(self, tmp_path):
        by_flags = tmp_path / "flags"
        assert run_cli(["train", "--out-dir", str(by_flags)] + self.FLAGS) == 0
        by_config = tmp_path / "config"
        cfg = tmp_path / "run.cfg"
        # --out-dir is required and may come from the file too.
        cfg.write_text(f"out_dir = {by_config}\nsynth = yes\nsynth-count = 2\nhidden = 4,4\n"
                       "boxes_per_gt = 4\nmax_epochs = 1\nadjacent_pairs = no\n")
        assert run_cli(["train", "--config", str(cfg)]) == 0

        def config_lines(d):
            return [line for line in (d / "config.txt").read_text().splitlines() if not line.startswith("out_dir =")]

        assert config_lines(by_flags) == config_lines(by_config)
        assert (by_flags / "model.ubbr").read_bytes() == (by_config / "model.ubbr").read_bytes()

    @pytest.mark.parametrize("text,words", [
        ("loss = foo\n", ["line 1", "'loss'", "invalid choice"]),
        ("synth_c = 5\n", ["line 1", "unknown key 'synth_c'"]),
        ("func = x\n", ["line 1", "unknown key 'func'"]),
        ("help = x\n", ["line 1", "bad value for 'help'"]),
        ("\n# only a comment\nsynth\n", ["line 3", "expected 'key = value'"]),
    ], ids=["choice", "abbreviation", "internal-default", "help", "no-equals"])
    def test_bad_line_names_file_and_line(self, tmp_path, capsys, no_work, text, words):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        code = run_cli(["train", "--out-dir", str(tmp_path / "o"), "--synth", "--config", str(cfg)])
        assert code == 1
        msg = one_line_error(capsys, "error: ")
        assert str(cfg) in msg and all(w in msg for w in words), msg
        assert not (tmp_path / "o").exists()

    def test_missing_config_file(self, tmp_path, capsys):
        code = run_cli(["train", "--out-dir", str(tmp_path / "o"), "--synth", "--config", str(tmp_path / "no.cfg")])
        assert code == 2
        assert "no.cfg" in one_line_error(capsys, "data error: ")


def write_file(path, text):
    path.write_text(text)
    return str(path)


def no_gts_annotations(d):
    return write_file(d / "empty.json", json.dumps({"images": [{"id": 1, "width": 64, "height": 64}], "annotations": []}))


def saved_model(d, channels=3):
    path = str(d / f"m{channels}.ubbr")
    save_model(path, init_model(channels, 7, (8, 8), init_std=0.001, rng=np.random.default_rng(0)))
    return path


def config_run(d, text):
    return ["train", "--out-dir", str(d / "o"), "--synth", "--config", write_file(d / "run.cfg", text)]


# Every raise in cli.py, keyed by (function, exception, longest literal part of
# its message), with a command line that reaches it: (argv of a directory,
# exit code, text the one stderr line must also hold).
EXIT_PATHS = {
    ("error", "UsageError", None): (
        lambda d: ["train", "--out-dir", str(d / "o"), "--synth", "--bogus"], 1, "unrecognized arguments: --bogus"),
    ("main", "UsageError", None): (
        lambda d: ["train", "--out-dir", str(d / "o"), "--synth", "--t", "1.5"], 1, "t must be in [0, 1)"),
    ("_list", "ValueError", " must be a comma-separated list of "): (
        lambda d: ["propose", "--out-dir", str(d / "o"), "--synth", "--model", "m", "--scales", "a"], 1, "--scales"),
    ("_check_scenes", "UsageError", "the following arguments are required: "): (
        lambda d: ["refine", "--synth", "--boxes", "b.csv"], 1, "--out-dir, --model"),
    ("_check_scenes", "UsageError", "exactly one of --synth, --annotations, --scene-cache is required"): (
        lambda d: ["train", "--out-dir", str(d / "o")], 1, ""),
    ("_check_scenes", "ValueError", "--synth-count must be >= 1, got "): (
        lambda d: ["train", "--out-dir", str(d / "o"), "--synth", "--synth-count", "0"], 1, "got 0"),
    ("_check_scenes", "ValueError", " is not a directory"): (
        lambda d: ["eval", "--out-dir", write_file(d / "afile", ""), "--synth", "--proposals", "p.csv"], 1, "afile"),
    ("_check_scenes", "ValueError", "--short-side must be in [0, "): (
        lambda d: ["train", "--out-dir", str(d / "o"), "--synth", "--short-side", "nan"], 1, "got nan"),
    ("_check_eval", "ValueError", " must be in [0, 1], got "): (
        lambda d: ["eval", "--out-dir", str(d / "o"), "--synth", "--proposals", "p.csv", "--corloc-iou", "2"], 1,
        "--corloc-iou"),
    ("_config_tokens", "UsageError", ": expected 'key = value'"): (
        lambda d: config_run(d, "synth\n"), 1, "line 1"),
    ("_config_tokens", "UsageError", " (expected true/false/yes/no/1/0)"): (
        lambda d: config_run(d, "adjacent_pairs = 2\n"), 1, "'adjacent_pairs'"),
    ("_config_tokens", "UsageError", ": bad value for "): (
        lambda d: config_run(d, "max_epochs = 1.5\n"), 1, "'max_epochs'"),
    ("_config_tokens", "UsageError", ": unknown key "): (
        lambda d: config_run(d, "epochs = 2\n"), 1, "'epochs'"),
    ("cmd_train", "DataFormatError", "no scenes with ground truths to train on"): (
        lambda d: ["train", "--out-dir", str(d / "o"), "--annotations", no_gts_annotations(d)], 2, ""),
    ("cmd_refine", "DataFormatError", ": unknown image ids: "): (
        lambda d: ["refine", "--out-dir", str(d / "o"), "--synth", "--synth-count", "1", "--model", saved_model(d),
                   "--boxes", write_file(d / "b.csv", "nowhere,1,1,5,5\n")], 2, "nowhere"),
    ("_check_channels", "DataFormatError", " feature channels, scene "): (
        lambda d: ["propose", "--out-dir", str(d / "o"), "--synth", "--synth-count", "1",
                   "--model", saved_model(d, channels=5)], 2, "model expects 5"),
    ("cmd_eval", "DataFormatError", "no scenes with ground truths to evaluate"): (
        lambda d: ["eval", "--out-dir", str(d / "o"), "--annotations", no_gts_annotations(d),
                   "--proposals", write_file(d / "p.csv", "")], 2, ""),
}


def cli_raise_sites():
    """(innermost function, exception, longest literal part of the message) of each raise in cli.py."""
    tree = ast.parse(inspect.getsource(cli))
    functions = [n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)]
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call):
            func = min((f for f in functions if f.lineno <= node.lineno <= f.end_lineno),
                       key=lambda f: f.end_lineno - f.lineno)
            parts = [c.value for c in ast.walk(node.exc) if isinstance(c, ast.Constant) and isinstance(c.value, str)]
            yield func.name, node.exc.func.id, max(parts, key=len) if parts else None


class TestExitPaths:
    def test_every_raise_has_a_case(self):
        sites = list(cli_raise_sites())
        assert len(sites) == len(set(sites))
        assert set(sites) == set(EXIT_PATHS)

    @pytest.mark.parametrize("site", sorted(EXIT_PATHS, key=str), ids=lambda s: f"{s[0]}:{s[2]}")
    def test_case_reaches_its_raise(self, tmp_path, capsys, no_work, site):
        argv, code, text = EXIT_PATHS[site]
        assert run_cli(argv(tmp_path)) == code
        msg = one_line_error(capsys, "error: " if code == 1 else "data error: ")
        assert (site[2] or "") in msg and text in msg, msg
        assert not (tmp_path / "o").exists()
