"""Command-line pipeline: train, refine, propose, eval.

Every command takes an output directory, echoes its fully resolved
configuration there, and is deterministic given (config, seed). Exit
codes: 0 success, 1 usage, 2 data error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from .boxes import boxes_to_array
from .errors import DataFormatError
from .ioutil import atomic_write
from .losses import LossConfig
from .metrics import (
    EvalRecord,
    corloc,
    mean_iou_trajectory,
    recall_curve,
    write_recall_curve_svg,
    write_table,
)
from .model import TrainConfig, TrainingDiverged, load_model, refine, save_model, train
from .proposals import SeedGridConfig, generate_proposals, read_corner_csv, write_corner_csv
from .sampling import SamplerConfig
from .scenes import SynthConfig, filter_categories, load_annotations, load_scenes, save_scenes, synth_scenes

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        sys.exit(EXIT_USAGE)


def _int_list(text: str, flag: str) -> list[int]:
    try:
        return [int(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise UsageError(f"{flag} must be a comma-separated list of integers, got {text!r}") from None


def _float_list(text: str) -> list[float]:
    return [float(v) for v in text.split(",") if v.strip()]


def _add_scene_options(p: _Parser):
    src = p.add_argument_group("scene source")
    src.add_argument("--synth", action="store_true", help="generate synthetic scenes")
    src.add_argument("--annotations", help="COCO-style annotation file")
    src.add_argument("--scene-cache", help="binary scene cache file")
    src.add_argument("--synth-count", type=int, default=200)
    src.add_argument("--synth-seed", type=int, default=None, help="defaults to --seed")
    src.add_argument("--image-size", type=int, default=128)
    src.add_argument("--min-objects", type=int, default=1)
    src.add_argument("--max-objects", type=int, default=3)
    src.add_argument("--min-size-frac", type=float, default=0.15)
    src.add_argument("--max-size-frac", type=float, default=0.55)
    src.add_argument("--noise", type=float, default=0.0)
    src.add_argument("--adjacent-pairs", action="store_true")
    src.add_argument("--short-side", type=float, default=600.0,
                     help="rescale annotation scenes to this short side; 0 disables")
    src.add_argument("--exclude-categories", default="",
                     help="category ids; images containing any are dropped")
    src.add_argument("--save-scene-cache", help="also write the scenes to this cache file")


def _build_scenes(args):
    sources = sum(1 for v in (args.synth, args.annotations, args.scene_cache) if v)
    if sources != 1:
        raise UsageError("exactly one of --synth, --annotations, --scene-cache is required")
    if args.synth:
        if args.synth_count < 1:
            raise UsageError(f"--synth-count must be >= 1, got {args.synth_count}")
        try:
            cfg = SynthConfig(
                image_size=args.image_size,
                min_objects=args.min_objects,
                max_objects=args.max_objects,
                min_size_frac=args.min_size_frac,
                max_size_frac=args.max_size_frac,
                adjacent_pairs=args.adjacent_pairs,
                noise=args.noise,
                seed=args.synth_seed if args.synth_seed is not None else args.seed,
            )
        except ValueError as e:
            raise UsageError(str(e)) from None
        scenes = synth_scenes(cfg, args.synth_count)
    elif args.annotations:
        short = args.short_side if args.short_side > 0 else None
        scenes = load_annotations(args.annotations, short_side=short)
    else:
        scenes = load_scenes(args.scene_cache)
    excluded = set(_int_list(args.exclude_categories, "--exclude-categories"))
    if excluded:
        scenes = filter_categories(scenes, excluded)
    if args.save_scene_cache:
        save_scenes(args.save_scene_cache, scenes)
    return scenes


def _write_resolved_config(args, out_dir: str):
    skip = {"func", "config"}
    with atomic_write(os.path.join(out_dir, "config.txt")) as f:
        for key in sorted(vars(args)):
            if key in skip:
                continue
            f.write(f"{key} = {getattr(args, key)!r}\n")


class UsageError(Exception):
    pass


def _check_channels(model, model_path: str, scenes) -> None:
    """Refuse a model whose input channels differ from a scene's feature map."""
    for s in scenes:
        channels = s.feature_map().channels
        if channels != model.channels:
            raise DataFormatError(
                f"{model_path}: model expects {model.channels} feature channels, scene {s.id} provides {channels}"
            )


def cmd_train(args) -> int:
    hidden = _int_list(args.hidden, "--hidden")
    if len(hidden) != 2:
        raise UsageError("--hidden must name two widths, e.g. 256,256")
    try:
        sampler_cfg = SamplerConfig(alpha=args.alpha, beta=args.beta, t=args.t, boxes_per_gt=args.boxes_per_gt)
        train_cfg = TrainConfig(
            momentum=args.momentum,
            weight_decay=args.weight_decay,
            initial_lr=args.lr,
            plateau_patience=args.patience,
            stop_lr=args.stop_lr,
            minibatch_size=args.minibatch,
            init_std=args.init_std,
            seed=args.seed,
            hidden=(hidden[0], hidden[1]),
            pool_size=args.pool_size,
            max_epochs=args.max_epochs,
        )
        loss_cfg = LossConfig(epsilon=args.epsilon)
    except ValueError as e:
        raise UsageError(str(e)) from None
    scenes = [s for s in _build_scenes(args) if s.gts]
    if not scenes:
        raise DataFormatError("no scenes with ground truths to train on")
    channels = scenes[0].feature_map().channels
    for s in scenes:
        if s.feature_map().channels != channels:
            raise DataFormatError(
                f"scene {s.id} has {s.feature_map().channels} feature channels, scene {scenes[0].id} has {channels}"
            )
    model, log = train(scenes, train_cfg, sampler_cfg, loss_cfg, loss=args.loss)
    os.makedirs(args.out_dir, exist_ok=True)
    _write_resolved_config(args, args.out_dir)
    model_path = os.path.join(args.out_dir, "model.ubbr")
    save_model(model_path, model)
    write_table(
        os.path.join(args.out_dir, "train-log.csv"),
        ["epoch", "lr", "train_loss", "val_loss", "val_mean_iou"],
        [(r.epoch, r.lr, r.train_loss, r.val_loss, r.val_mean_iou) for r in log],
    )
    print(f"trained {len(log)} epochs; model written to {model_path}")
    return EXIT_OK


def cmd_refine(args) -> int:
    if args.iters < 1:
        raise UsageError(f"--iters must be >= 1, got {args.iters}")
    scenes = {s.id: s for s in _build_scenes(args)}
    model = load_model(args.model)
    boxes_by_image = read_corner_csv(args.boxes, scored=False)
    unknown = sorted(set(boxes_by_image) - set(scenes))
    if unknown:
        raise DataFormatError(f"{args.boxes}: unknown image ids: {', '.join(unknown[:5])}")
    _check_channels(model, args.model, (scenes[i] for i in boxes_by_image))
    os.makedirs(args.out_dir, exist_ok=True)
    _write_resolved_config(args, args.out_dir)

    trajectories = {
        image_id: refine(model, scenes[image_id], boxes, iterations=args.iters)
        for image_id, boxes in boxes_by_image.items()
    }
    for k in range(args.iters):
        write_corner_csv(
            os.path.join(args.out_dir, f"refined.iter{k + 1}.csv"),
            {image_id: traj[k] for image_id, traj in trajectories.items()},
        )

    with_gts = [i for i in boxes_by_image if scenes[i].gts]
    if with_gts:
        stages = ["input"] + [f"iter{k + 1}" for k in range(args.iters)]
        pooled = np.zeros(args.iters + 1)
        count = 0
        for image_id in with_gts:
            means = mean_iou_trajectory(
                boxes_by_image[image_id], trajectories[image_id], boxes_to_array(scenes[image_id].gts)
            )
            n = len(boxes_by_image[image_id])
            pooled += np.array(means) * n
            count += n
        write_table(
            os.path.join(args.out_dir, "trajectory.csv"),
            ["stage", "mean_iou"],
            list(zip(stages, (pooled / count).tolist())),
        )
    print(f"wrote {args.iters} refined box files to {args.out_dir}")
    return EXIT_OK


def cmd_propose(args) -> int:
    if args.iters < 1:
        raise UsageError(f"--iters must be >= 1, got {args.iters}")
    if not 0.0 <= args.nms_iou <= 1.0:
        raise UsageError(f"--nms-iou must be in [0, 1], got {args.nms_iou}")
    if not (math.isfinite(args.decay) and args.decay > 1.0):
        raise UsageError(f"--decay must be finite and > 1, got {args.decay}")
    try:
        grid = SeedGridConfig(
            scales=tuple(_float_list(args.scales)),
            aspect_ratios=tuple(_float_list(args.ratios)),
            stride=args.stride,
        )
    except ValueError as e:
        raise UsageError(str(e)) from None
    scenes = _build_scenes(args)
    model = load_model(args.model)
    _check_channels(model, args.model, scenes)
    by_image = {
        s.id: generate_proposals(model, s, grid, iterations=args.iters, nms_iou=args.nms_iou, decay=args.decay)
        for s in scenes
    }
    os.makedirs(args.out_dir, exist_ok=True)
    _write_resolved_config(args, args.out_dir)
    out_path = os.path.join(args.out_dir, "proposals.csv")
    write_corner_csv(out_path, by_image)
    total = sum(len(v) for v in by_image.values())
    print(f"wrote {total} proposals for {len(by_image)} scenes to {out_path}")
    return EXIT_OK


def cmd_eval(args) -> int:
    ks = _int_list(args.ks, "--ks")
    if not ks or min(ks) < 1:
        raise UsageError(f"--ks must list at least one budget, each >= 1, got {args.ks!r}")
    for flag, value in (("--iou", args.iou), ("--corloc-iou", args.corloc_iou)):
        if not 0.0 <= value <= 1.0:
            raise UsageError(f"{flag} must be in [0, 1], got {value}")
    gts = [(s.id, boxes_to_array(s.gts)) for s in _build_scenes(args) if s.gts]
    no_rows = np.zeros((0, 5))

    def load_records(path: str) -> list[EvalRecord]:
        by_image = read_corner_csv(path)
        return [EvalRecord(image_id, by_image.get(image_id, no_rows)[:, :4], g) for image_id, g in gts]

    records = load_records(args.proposals)
    if not records:
        raise DataFormatError("no scenes with ground truths to evaluate")
    base_records = load_records(args.baseline_proposals) if args.baseline_proposals else None
    os.makedirs(args.out_dir, exist_ok=True)
    _write_resolved_config(args, args.out_dir)

    curve = recall_curve(records, args.iou, ks)
    series = [("refined", curve)]
    rows = [(k, args.iou, r) for k, r in curve]
    if base_records is not None:
        base_curve = recall_curve(base_records, args.iou, ks)
        series.append(("baseline", base_curve))
        rows += [(k, args.iou, r) for k, r in base_curve]
    write_table(os.path.join(args.out_dir, "recall.csv"), ["k", "iou", "recall"], rows)
    write_recall_curve_svg(os.path.join(args.out_dir, "recall-curve.svg"), series, args.iou)
    cl = corloc(records, args.corloc_iou)
    write_table(os.path.join(args.out_dir, "corloc.csv"), ["iou", "corloc_percent"], [(args.corloc_iou, cl)])
    print(f"recall@{args.iou:g} at k={ks}: " + ", ".join(f"{r:.4f}" for _, r in curve))
    print(f"corloc (top-1, IoU > {args.corloc_iou:g}): {cl:.3f}%")
    return EXIT_OK


_BOOLEANS = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}


def _apply_config_file(parser: _Parser, argv: list[str]) -> list[str]:
    """Pull --config out of argv and install its values as defaults."""
    pre = _Parser(add_help=False)
    pre.add_argument("--config")
    known, _ = pre.parse_known_args(argv)
    if not known.config:
        return argv
    try:
        with open(known.config, "r", encoding="utf-8") as f:
            lines = f.readlines()
    except OSError as e:
        raise DataFormatError(f"{known.config}: {e}") from None
    valid = {a.dest for a in parser._actions}
    overrides = {}
    for lineno, line in enumerate(lines, start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{known.config}: line {lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        dest = key.replace("-", "_")
        if dest not in valid:
            raise UsageError(f"{known.config}: line {lineno}: unknown key {key!r}")
        action = next(a for a in parser._actions if a.dest == dest)
        if isinstance(action, argparse._StoreTrueAction):
            flag = _BOOLEANS.get(value.lower())
            if flag is None:
                raise UsageError(
                    f"{known.config}: line {lineno}: bad value for {key!r}: {value!r} (expected true/false/yes/no/1/0)"
                )
            overrides[dest] = flag
        elif action.type is not None:
            try:
                overrides[dest] = action.type(value)
            except ValueError:
                raise UsageError(f"{known.config}: line {lineno}: bad value for {key!r}: {value!r}") from None
        else:
            overrides[dest] = value
    parser.set_defaults(**overrides)
    return argv


def build_parser() -> _Parser:
    parser = _Parser(prog="boxregress", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: _Parser):
        p.add_argument("--config", help="key = value config file; flags override")
        p.add_argument("--out-dir", required=True)
        p.add_argument("--seed", type=int, default=0)
        _add_scene_options(p)

    p_train = sub.add_parser("train", help="train a regression head")
    common(p_train)
    p_train.add_argument("--loss", choices=("iou", "smooth_l1"), default="iou")
    p_train.add_argument("--alpha", type=float, default=0.35)
    p_train.add_argument("--beta", type=float, default=0.5)
    p_train.add_argument("--t", type=float, default=0.3)
    p_train.add_argument("--boxes-per-gt", type=int, default=50)
    p_train.add_argument("--epsilon", type=float, default=1e-6)
    p_train.add_argument("--momentum", type=float, default=0.9)
    p_train.add_argument("--weight-decay", type=float, default=0.0005)
    p_train.add_argument("--lr", type=float, default=1e-3)
    p_train.add_argument("--patience", type=int, default=3)
    p_train.add_argument("--stop-lr", type=float, default=1e-6)
    p_train.add_argument("--minibatch", type=int, default=128)
    p_train.add_argument("--init-std", type=float, default=0.001)
    p_train.add_argument("--hidden", default="256,256")
    p_train.add_argument("--pool-size", type=int, default=7)
    p_train.add_argument("--max-epochs", type=int, default=200)
    p_train.set_defaults(func=cmd_train)

    p_refine = sub.add_parser("refine", help="iteratively refine boxes from a file")
    common(p_refine)
    p_refine.add_argument("--model", required=True)
    p_refine.add_argument("--boxes", required=True, help="csv: id,xmin,ymin,xmax,ymax[,score]")
    p_refine.add_argument("--iters", type=int, default=3)
    p_refine.set_defaults(func=cmd_refine)

    p_prop = sub.add_parser("propose", help="generate ranked proposals")
    common(p_prop)
    p_prop.add_argument("--model", required=True)
    p_prop.add_argument("--iters", type=int, default=1)
    p_prop.add_argument("--scales", default="0.125,0.25,0.5,0.75")
    p_prop.add_argument("--ratios", default="0.5,1.0,2.0")
    p_prop.add_argument("--stride", type=float, default=0.0625)
    p_prop.add_argument("--nms-iou", type=float, default=0.6)
    p_prop.add_argument("--decay", type=float, default=10.0)
    p_prop.set_defaults(func=cmd_propose)

    p_eval = sub.add_parser("eval", help="score a proposals file against ground truth")
    common(p_eval)
    p_eval.add_argument("--proposals", required=True)
    p_eval.add_argument("--baseline-proposals", help="second proposals file for curve comparison")
    p_eval.add_argument("--iou", type=float, default=0.7)
    p_eval.add_argument("--ks", default="1,2,5,10,20,50,100,200,500,1000")
    p_eval.add_argument("--corloc-iou", type=float, default=0.5)
    p_eval.set_defaults(func=cmd_eval)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        # Resolve the subcommand first so config keys validate against it.
        if argv and argv[0] in ("train", "refine", "propose", "eval"):
            sub = next(
                a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
            ).choices[argv[0]]
            _apply_config_file(sub, argv[1:])
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except DataFormatError as e:
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA
    except TrainingDiverged as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    except OverflowError as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
