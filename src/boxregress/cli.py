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

from .errors import DataFormatError
from .ioutil import atomic_write, open_input
from .losses import LOSS_KINDS, LossConfig
from .metrics import (
    CORLOC_IOU,
    DEFAULT_K_GRID,
    EvalRecord,
    check_budgets,
    corloc,
    mean_iou_trajectory,
    recall_curve,
    write_recall_curve_svg,
    write_table,
)
from .model import (PROPOSE_ITERATIONS, TrainConfig, TrainingDiverged, check_iterations, load_model, refine, save_model,
                    train)
from .proposals import (NMS_DECAY, NMS_IOU, SeedGridConfig, check_nms_args, generate_proposals, read_corner_csv,
                        write_corner_csv)
from .sampling import SamplerConfig
from .scenes import (MAX_IMAGE_SIDE, SynthConfig, filter_categories, load_annotations, load_scenes, save_scenes,
                     synth_scenes)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _list(text: str, flag: str, kind: type) -> list:
    """The values of a comma-separated list flag; empty items are skipped."""
    try:
        return [kind(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise ValueError(f"{flag} must be a comma-separated list of {kind.__name__}s, got {text!r}") from None


def _joined(values) -> str:
    """A list flag's text for a default tuple: its values, comma-separated."""
    return ",".join(map(str, values))


def _add_scene_options(p: _Parser):
    src = p.add_argument_group("scene source")
    src.add_argument("--synth", action="store_true", help="generate synthetic scenes")
    src.add_argument("--annotations", help="COCO-style annotation file")
    src.add_argument("--scene-cache", help="binary scene cache file")
    src.add_argument("--synth-count", type=int, default=200)
    src.add_argument("--synth-seed", type=int, default=None, help="defaults to --seed")
    src.add_argument("--image-size", type=int, default=SynthConfig.image_size)
    src.add_argument("--min-objects", type=int, default=SynthConfig.min_objects)
    # The acceptance recipe's objects per scene, on purpose below SynthConfig's 4.
    src.add_argument("--max-objects", type=int, default=3)
    src.add_argument("--min-size-frac", type=float, default=SynthConfig.min_size_frac)
    src.add_argument("--max-size-frac", type=float, default=SynthConfig.max_size_frac)
    src.add_argument("--noise", type=float, default=SynthConfig.noise)
    src.add_argument("--adjacent-pairs", action="store_true")
    src.add_argument("--short-side", type=float, default=600.0,
                     help="rescale annotation scenes to this short side; 0 disables")
    src.add_argument("--exclude-categories", default="",
                     help="category ids; images containing any are dropped")
    src.add_argument("--save-scene-cache", help="also write the scenes to this cache file")


def _check_scenes(args, *required: str) -> tuple[SynthConfig, set[int]]:
    """Check the flags every command has; return the synthetic-scene config and excluded categories."""
    # Argparse does not check required flags, so that a config file line parses on its own.
    missing = [flag for flag in ("--out-dir", *required) if not getattr(args, flag[2:].replace("-", "_"))]
    if missing:
        raise UsageError(f"the following arguments are required: {', '.join(missing)}")
    # Refuse an out-dir that could not be made once the work is done.
    existing = os.path.abspath(args.out_dir)
    while not os.path.lexists(existing):
        existing = os.path.dirname(existing)
    if not os.path.isdir(existing):
        raise ValueError(f"--out-dir {args.out_dir}: {existing} is not a directory")
    if sum(1 for v in (args.synth, args.annotations, args.scene_cache) if v) != 1:
        raise UsageError("exactly one of --synth, --annotations, --scene-cache is required")
    if args.synth_count < 1:
        raise ValueError(f"--synth-count must be >= 1, got {args.synth_count}")
    if not (math.isfinite(args.short_side) and 0 <= args.short_side <= MAX_IMAGE_SIDE):
        raise ValueError(f"--short-side must be in [0, {MAX_IMAGE_SIDE}], got {args.short_side}")
    synth = SynthConfig(
        image_size=args.image_size,
        min_objects=args.min_objects,
        max_objects=args.max_objects,
        min_size_frac=args.min_size_frac,
        max_size_frac=args.max_size_frac,
        adjacent_pairs=args.adjacent_pairs,
        noise=args.noise,
        seed=args.synth_seed if args.synth_seed is not None else args.seed,
    )
    return synth, set(_list(args.exclude_categories, "--exclude-categories", int))


def _build_scenes(args, synth: SynthConfig, excluded: set[int]):
    if args.synth:
        scenes = synth_scenes(synth, args.synth_count)
    elif args.annotations:
        scenes = load_annotations(args.annotations, short_side=args.short_side or None)
    else:
        scenes = load_scenes(args.scene_cache)
    if excluded:
        scenes = filter_categories(scenes, excluded)
    if args.save_scene_cache:
        save_scenes(args.save_scene_cache, scenes)
    return scenes


def _make_out_dir(args) -> None:
    """Create the out-dir and echo the resolved flags to its config.txt."""
    os.makedirs(args.out_dir, exist_ok=True)
    with atomic_write(os.path.join(args.out_dir, "config.txt")) as f:
        for key in sorted(vars(args).keys() - {"func", "check", "config"}):
            f.write(f"{key} = {getattr(args, key)!r}\n")


def _check_channels(scenes, channels: int, source: str) -> None:
    """Refuse a scene whose feature map has other than the `channels` channels that `source` states."""
    for s in scenes:
        got = s.channels
        if got != channels:
            raise DataFormatError(f"{source} {channels} feature channels, scene {s.id} provides {got}")


def _check_train(args):
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
        hidden=tuple(_list(args.hidden, "--hidden", int)),
        pool_size=args.pool_size,
        max_epochs=args.max_epochs,
    )
    return _check_scenes(args), sampler_cfg, train_cfg, LossConfig(kind=args.loss, epsilon=args.epsilon)


def cmd_train(args, scene_source, sampler_cfg, train_cfg, loss_cfg) -> int:
    scenes = [s for s in _build_scenes(args, *scene_source) if len(s.boxes)]
    if not scenes:
        raise DataFormatError("no scenes with ground truths to train on")
    _check_channels(scenes, scenes[0].channels, f"scene {scenes[0].id} provides")
    model, log = train(scenes, train_cfg, sampler_cfg, loss_cfg)
    _make_out_dir(args)
    model_path = os.path.join(args.out_dir, "model.ubbr")
    save_model(model_path, model)
    write_table(
        os.path.join(args.out_dir, "train-log.csv"),
        ["epoch", "lr", "train_loss", "val_loss", "val_mean_iou"],
        [(r.epoch, r.lr, r.train_loss, r.val_loss, r.val_mean_iou) for r in log],
    )
    print(f"trained {len(log)} epochs; model written to {model_path}")
    return EXIT_OK


def _check_refine(args):
    check_iterations(args.iters, "--iters")
    return (_check_scenes(args, "--model", "--boxes"),)


def cmd_refine(args, scene_source) -> int:
    scenes = {s.id: s for s in _build_scenes(args, *scene_source)}
    model = load_model(args.model)
    boxes_by_image = read_corner_csv(args.boxes, scored=False)
    unknown = sorted(set(boxes_by_image) - set(scenes))
    if unknown:
        raise DataFormatError(f"{args.boxes}: unknown image ids: {', '.join(unknown[:5])}")
    _check_channels((scenes[i] for i in boxes_by_image), model.channels, f"{args.model}: model expects")
    _make_out_dir(args)

    trajectories = {
        image_id: refine(model, scenes[image_id], boxes, iterations=args.iters)
        for image_id, boxes in boxes_by_image.items()
    }
    for k in range(args.iters):
        write_corner_csv(
            os.path.join(args.out_dir, f"refined.iter{k + 1}.csv"),
            {image_id: traj[k] for image_id, traj in trajectories.items()},
        )

    with_gts = [i for i in boxes_by_image if len(scenes[i].boxes)]
    if with_gts:
        # Each image's mean IoUs, weighted by its box count.
        pooled = sum(
            np.array(mean_iou_trajectory(boxes_by_image[i], trajectories[i], scenes[i].boxes))
            * len(boxes_by_image[i])
            for i in with_gts
        )
        stages = ["input"] + [f"iter{k + 1}" for k in range(args.iters)]
        count = sum(len(boxes_by_image[i]) for i in with_gts)
        rows = list(zip(stages, (pooled / count).tolist()))
        write_table(os.path.join(args.out_dir, "trajectory.csv"), ["stage", "mean_iou"], rows)
    print(f"wrote {args.iters} refined box files to {args.out_dir}")
    return EXIT_OK


def _check_propose(args):
    check_iterations(args.iters, "--iters")
    check_nms_args(args.nms_iou, args.decay, ("--nms-iou", "--decay"))
    return _check_scenes(args, "--model"), SeedGridConfig(
        scales=tuple(_list(args.scales, "--scales", float)),
        aspect_ratios=tuple(_list(args.ratios, "--ratios", float)),
        stride=args.stride,
    )


def cmd_propose(args, scene_source, grid) -> int:
    scenes = _build_scenes(args, *scene_source)
    model = load_model(args.model)
    _check_channels(scenes, model.channels, f"{args.model}: model expects")
    by_image = {
        s.id: generate_proposals(model, s, grid, iterations=args.iters, nms_iou=args.nms_iou, decay=args.decay)
        for s in scenes
    }
    _make_out_dir(args)
    out_path = os.path.join(args.out_dir, "proposals.csv")
    write_corner_csv(out_path, by_image)
    total = sum(len(v) for v in by_image.values())
    print(f"wrote {total} proposals for {len(by_image)} scenes to {out_path}")
    return EXIT_OK


def _check_eval(args):
    ks = _list(args.ks, "--ks", int)
    check_budgets(ks, "--ks")
    for flag, value in (("--iou", args.iou), ("--corloc-iou", args.corloc_iou)):
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"{flag} must be in [0, 1], got {value}")
    return _check_scenes(args, "--proposals"), ks


def cmd_eval(args, scene_source, ks) -> int:
    gts = [(s.id, s.boxes) for s in _build_scenes(args, *scene_source) if len(s.boxes)]
    no_rows = np.zeros((0, 5))

    def load_records(path: str) -> list[EvalRecord]:
        # recall_at scores an image's first k rows and corloc its first, so no more are kept.
        by_image = read_corner_csv(path, limit=max(ks))
        return [EvalRecord(image_id, by_image.get(image_id, no_rows)[:, :4], g) for image_id, g in gts]

    records = load_records(args.proposals)
    if not records:
        raise DataFormatError("no scenes with ground truths to evaluate")
    base_records = load_records(args.baseline_proposals) if args.baseline_proposals else None
    _make_out_dir(args)

    series = [("refined", recall_curve(records, args.iou, ks))]
    if base_records is not None:
        series.append(("baseline", recall_curve(base_records, args.iou, ks)))
    rows = [(k, args.iou, r) for _, curve in series for k, r in curve]
    write_table(os.path.join(args.out_dir, "recall.csv"), ["k", "iou", "recall"], rows)
    write_recall_curve_svg(os.path.join(args.out_dir, "recall-curve.svg"), series, args.iou)
    cl = corloc(records, args.corloc_iou)
    write_table(os.path.join(args.out_dir, "corloc.csv"), ["iou", "corloc_percent"], [(args.corloc_iou, cl)])
    print(f"recall@{args.iou:g} at k={ks}: " + ", ".join(f"{r:.4f}" for _, r in series[0][1]))
    print(f"corloc (top-1, IoU > {args.corloc_iou:g}): {cl:.3f}%")
    return EXIT_OK


_BOOLEANS = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}


def _config_tokens(parser: _Parser, args) -> list[str]:
    """Flag tokens for the `key = value` lines of args.config, each line checked on its own.

    A line gives `--key=value`; a switch (a flag with a bool value) `--key` if true, nothing if false.
    """
    with open_input(args.config) as f:
        lines = f.readlines()
    tokens = []
    for lineno, line in enumerate(lines, start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        where = f"{args.config}: line {lineno}"
        if "=" not in line:
            raise UsageError(f"{where}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        dest = key.replace("-", "_")
        flag = "--" + dest.replace("_", "-")
        if isinstance(getattr(args, dest, None), bool):
            if value.lower() not in _BOOLEANS:
                raise UsageError(f"{where}: bad value for {key!r}: {value!r} (expected true/false/yes/no/1/0)")
            tokens += [flag] if _BOOLEANS[value.lower()] else []
            continue
        try:
            _, unknown = parser.parse_known_args([args.command, f"{flag}={value}"])
        except UsageError as e:
            raise UsageError(f"{where}: bad value for {key!r}: {e}") from None
        if unknown or dest not in vars(args):
            raise UsageError(f"{where}: unknown key {key!r}")
        tokens.append(f"{flag}={value}")
    return tokens


def build_parser() -> _Parser:
    parser = _Parser(prog="boxregress", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: _Parser):
        p.add_argument("--config", help="key = value config file; flags override")
        p.add_argument("--out-dir", help="required")
        p.add_argument("--seed", type=int, default=SynthConfig.seed)
        _add_scene_options(p)

    p_train = sub.add_parser("train", help="train a regression head")
    common(p_train)
    p_train.add_argument("--loss", choices=LOSS_KINDS, default=LossConfig.kind)
    p_train.add_argument("--alpha", type=float, default=SamplerConfig.alpha)
    p_train.add_argument("--beta", type=float, default=SamplerConfig.beta)
    p_train.add_argument("--t", type=float, default=SamplerConfig.t)
    p_train.add_argument("--boxes-per-gt", type=int, default=SamplerConfig.boxes_per_gt)
    p_train.add_argument("--epsilon", type=float, default=LossConfig.epsilon)
    p_train.add_argument("--momentum", type=float, default=TrainConfig.momentum)
    p_train.add_argument("--weight-decay", type=float, default=TrainConfig.weight_decay)
    p_train.add_argument("--lr", type=float, default=TrainConfig.initial_lr)
    p_train.add_argument("--patience", type=int, default=TrainConfig.plateau_patience)
    p_train.add_argument("--stop-lr", type=float, default=TrainConfig.stop_lr)
    p_train.add_argument("--minibatch", type=int, default=TrainConfig.minibatch_size)
    p_train.add_argument("--init-std", type=float, default=TrainConfig.init_std)
    p_train.add_argument("--hidden", default=_joined(TrainConfig.hidden))
    p_train.add_argument("--pool-size", type=int, default=TrainConfig.pool_size)
    p_train.add_argument("--max-epochs", type=int, default=TrainConfig.max_epochs)
    p_train.set_defaults(check=_check_train, func=cmd_train)

    p_refine = sub.add_parser("refine", help="iteratively refine boxes from a file")
    common(p_refine)
    p_refine.add_argument("--model", help="required")
    p_refine.add_argument("--boxes", help="required; csv: id,xmin,ymin,xmax,ymax[,score]")
    p_refine.add_argument("--iters", type=int, default=3)
    p_refine.set_defaults(check=_check_refine, func=cmd_refine)

    p_prop = sub.add_parser("propose", help="generate ranked proposals")
    common(p_prop)
    p_prop.add_argument("--model", help="required")
    p_prop.add_argument("--iters", type=int, default=PROPOSE_ITERATIONS)
    p_prop.add_argument("--scales", default=_joined(SeedGridConfig.scales))
    p_prop.add_argument("--ratios", default=_joined(SeedGridConfig.aspect_ratios))
    p_prop.add_argument("--stride", type=float, default=SeedGridConfig.stride)
    p_prop.add_argument("--nms-iou", type=float, default=NMS_IOU)
    p_prop.add_argument("--decay", type=float, default=NMS_DECAY)
    p_prop.set_defaults(check=_check_propose, func=cmd_propose)

    p_eval = sub.add_parser("eval", help="score a proposals file against ground truth")
    common(p_eval)
    p_eval.add_argument("--proposals", help="required")
    p_eval.add_argument("--baseline-proposals", help="second proposals file for curve comparison")
    p_eval.add_argument("--iou", type=float, default=0.7)
    p_eval.add_argument("--ks", default=_joined(DEFAULT_K_GRID))
    p_eval.add_argument("--corloc-iou", type=float, default=CORLOC_IOU)
    p_eval.set_defaults(check=_check_eval, func=cmd_eval)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:
            # Config lines go before the command line's flags, which thus win.
            at = argv.index(args.command) + 1
            args = parser.parse_args(argv[:at] + _config_tokens(parser, args) + argv[at:])
        try:
            settings = args.check(args)
        except ValueError as e:
            raise UsageError(str(e)) from None
        return args.func(args, *settings)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except DataFormatError as e:
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA
    except (TrainingDiverged, OverflowError) as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
