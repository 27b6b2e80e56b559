import os

import numpy as np
import pytest

from boxregress import cli
from boxregress.boxes import Box
from boxregress.scenes import SynthConfig, synth_scenes


def run_cli(args):
    try:
        return cli.main(args)
    except SystemExit as e:
        return e.code


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


class TestNumericErrors:
    def test_divergence_exit_code(self, tmp_path):
        code = run_cli([
            "train", "--out-dir", str(tmp_path / "o"), "--synth", "--synth-count", "2",
            "--lr", "1e9", "--stop-lr", "1e3", "--max-epochs", "4", "--hidden", "8,8",
            "--boxes-per-gt", "8",
        ])
        assert code == 3


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
