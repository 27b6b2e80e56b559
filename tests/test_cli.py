import os
import struct

import numpy as np
import pytest

from boxregress import cli
from boxregress.boxes import Box
from boxregress.model import init_model, save_model
from boxregress.scenes import SCENE_CACHE_MAGIC, SynthConfig, save_scenes, synth_scenes


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


class TestDataErrors:
    def test_bad_annotations(self, tmp_path):
        ann = tmp_path / "broken.json"
        ann.write_text("{not json")
        assert run_cli(["train", "--out-dir", str(tmp_path / "o"), "--annotations", str(ann)]) == 2

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
        assert scenes[0].id == "synth-0000" and scenes[0].gts
        assert scenes[0].feature_map().data.shape == (3, 32, 32)
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

    def test_nonfinite_model_weights(self, tmp_path, capsys):
        model = init_model(3, 7, (8, 8), rng=np.random.default_rng(0))
        model.w2[1, 2] = np.nan
        path = str(tmp_path / "nan.ubbr")
        save_model(path, model)
        code = run_cli([
            "propose", "--out-dir", str(tmp_path / "o"), "--synth", "--synth-count", "1", "--model", path,
        ])
        assert code == 2
        assert "not finite" in one_line_error(capsys, "data error: ")


    @pytest.mark.parametrize("command", ["refine", "propose"])
    def test_model_channel_mismatch(self, tmp_path, capsys, command):
        # Synthetic scenes have 3 feature channels; the model expects 5.
        path = str(tmp_path / "five.ubbr")
        save_model(path, init_model(5, 7, (8, 8), rng=np.random.default_rng(0)))
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
        model = init_model(3, 7, (8, 8), rng=np.random.default_rng(0))
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
            for g in s.gts:
                lines.append(f"{s.id},{g.x - g.w / 2},{g.y - g.h / 2},{g.x + g.w / 2},{g.y + g.h / 2}")
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
