"""boxregress benchmark: three workloads that drive the CLI like a user.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a boxregress source tree; the library is imported
from ./src. Each workload builds its inputs from --seed (set-up, timed
and repeated), then runs CLI commands, each in a fresh single-threaded
process (bench/op.py), until S seconds have passed and at least one full
pass over the inputs is done. Outputs are checked against an independent
oracle (bench/oracle.py); a non-zero exit or a failed check counts as a
failed operation.

The last line of stdout is the result: {"correct", "attempted",
"failed", "metrics"}. With --trace 0 the metrics are the end-to-end ones
(setup_s, peak_rss_mb, throughput, quality); with --trace 1 they are the
per-layer ones from a traced pass, plus the tracing overhead measured
against untraced runs of the same operations. The line before it is a
record with the environment, every operation's figures, the workload's
properties and the metric names each workload stands for.
"""

from __future__ import annotations

import os

# Thread pins must be in place before numpy is first imported, here and
# in every operation process (which inherits this environment).
THREAD_PINS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
os.environ.update(THREAD_PINS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

import oracle  # noqa: E402
import reference  # noqa: E402
from spans import Tracer  # noqa: E402

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(BENCH, ".work")

OP_TIMEOUT_S = 120.0
RUN_BUDGET_S = 150.0  # no operation starts after this much time in the run

# The acceptance recipe's scene generator settings.
SYNTH_MAX_OBJECTS = 3
# train() holds out the tail round(0.04 * scenes) of its scenes.
VAL_FRACTION = 0.04
# Synth seed of the acceptance suite's held-out scenes.
VAL_SYNTH_SEED = 12


def fail(msg: str, code: int = 2):
    print(f"bench: {msg}", file=sys.stderr)
    sys.exit(code)


def sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def gt_corners(scene) -> np.ndarray:
    return np.array([[g.x - 0.5 * g.w, g.y - 0.5 * g.h, g.x + 0.5 * g.w, g.y + 0.5 * g.h] for g in scene.gts])


class Op:
    """One CLI command: its arguments, its work units and its output check.

    check() raises oracle.CheckFailed or returns (digest of the outputs,
    what the workload's summarize() needs from them).
    """

    def __init__(self, name: str, argv: list[str], units: float, check):
        self.name, self.argv, self.units, self.check = name, argv, units, check


# --------------------------------------------------------------------------
# Workloads. Each has setup(seed) -> state (timed, run setup_repeats
# times), ops(state) -> the operations of one pass, and
# summarize(state, firsts) -> (quality, named metrics, properties) from
# the first pass's checked outputs. reference names the kernel its
# timings are scaled by (bench/reference.py), or None for none.


class TrainFixed:
    """`train` on the acceptance recipe, capped at a fixed epoch budget."""

    name = "train-fixed"
    # Matrix products and RoI gathers dominate, like the numpy kernel;
    # scaling by it cut the run-to-run spread from 0.19 to 0.04-0.07.
    reference = "numpy"
    setup_repeats = 9
    scenes = 200
    epochs = 6
    unit = "training boxes"
    throughput_name = "train.boxes_per_s"

    def __init__(self, lib, work):
        self.lib, self.work = lib, work

    def setup(self, seed):
        # train() validates on the tail round(0.04 * scenes) of its scenes.
        # That tail is one fixed set for every seed (the last scenes of
        # VAL_SYNTH_SEED's stream, so never among the training scenes), and
        # the logged held-out IoU moves with the training scenes, not with
        # which eight scenes happen to be held out.
        n_val = max(1, round(VAL_FRACTION * self.scenes))
        scenes = self.lib.synth_scenes(self.lib.SynthConfig(seed=seed, max_objects=SYNTH_MAX_OBJECTS),
                                       self.scenes - n_val)
        held_cfg = self.lib.SynthConfig(seed=VAL_SYNTH_SEED, max_objects=SYNTH_MAX_OBJECTS)
        held = self.lib.synth_scenes(held_cfg, self.scenes)[-n_val:]
        cache = os.path.join(self.work, "train.scenes")
        self.lib.save_scenes(cache, scenes + held)
        train_gts = sum(len(s.gts) for s in scenes)
        return {"cache": cache, "train_gts": train_gts, "boxes_per_epoch": 50 * train_gts}

    def ops(self, state):
        out = os.path.join(self.work, "train-out")
        argv = ["train", "--out-dir", out, "--scene-cache", state["cache"], "--seed", "7",
                "--patience", "5", "--max-epochs", str(self.epochs)]

        def check():
            oracle.check_model(os.path.join(out, "model.ubbr"))
            log = oracle.read_table(os.path.join(out, "train-log.csv"),
                                    ["epoch", "lr", "train_loss", "val_loss", "val_mean_iou"])
            if [int(r[0]) for r in log] != list(range(self.epochs)):
                raise oracle.CheckFailed(f"train-log.csv: expected epochs 0..{self.epochs - 1}")
            if not 0.0 < log[-1][4] <= 1.0:
                raise oracle.CheckFailed(f"train-log.csv: val_mean_iou {log[-1][4]} outside (0, 1]")
            digest = sha256(os.path.join(out, "model.ubbr")) + sha256(os.path.join(out, "train-log.csv"))
            return digest, log[-1][4]

        return [Op("train", argv, self.epochs * state["boxes_per_epoch"], check)]

    def summarize(self, state, firsts):
        val_miou = firsts[0]
        props = {"scenes": self.scenes, "epochs": self.epochs, "train_ground_truths": state["train_gts"],
                 "boxes_per_epoch": state["boxes_per_epoch"]}
        return val_miou, {"train.val_mean_iou": val_miou}, props


class ProposeGrid:
    """`propose` with the default seed grid and the pinned model."""

    name = "propose-grid"
    # Thousands of small numpy calls driven from Python loops (decay NMS);
    # the numpy kernel doubled the run-to-run spread.
    reference = "loop"
    setup_repeats = 9
    scenes = 30
    chunk = 5
    unit = "scenes"
    throughput_name = "propose.scenes_per_s"
    # Scene indices below this are the pinned model's training range for
    # its synth seed, so held-out scenes start here whatever --seed is.
    first_index = 200

    def __init__(self, lib, work):
        self.lib, self.work = lib, work
        with open(os.path.join(BENCH, "pinned", "recipe.json"), "r", encoding="utf-8") as f:
            self.recipe = json.load(f)
        self.model = os.path.join(BENCH, "pinned", self.recipe["file"])

    def setup(self, seed):
        if sha256(self.model) != self.recipe["sha256"]:
            raise oracle.CheckFailed(f"{self.model}: sha256 does not match pinned/recipe.json")
        cfg = self.lib.SynthConfig(seed=seed, max_objects=SYNTH_MAX_OBJECTS)
        scenes = self.lib.synth_scenes(cfg, self.first_index + self.scenes)[self.first_index:]
        chunks = []
        for i in range(0, len(scenes), self.chunk):
            path = os.path.join(self.work, f"propose-{i // self.chunk}.scenes")
            self.lib.save_scenes(path, scenes[i : i + self.chunk])
            chunks.append((path, scenes[i : i + self.chunk]))
        return {"chunks": chunks}

    @staticmethod
    def grid_seeds(width: float, height: float) -> int:
        # The CLI's default grid: 4 scales x 3 ratios on a lattice with a
        # stride of 1/16 of the short side, starting half a stride in.
        step = 0.0625 * min(width, height)
        return 12 * len(np.arange(0.5 * step, width, step)) * len(np.arange(0.5 * step, height, step))

    def ops(self, state):
        ops = []
        for i, (cache, scenes) in enumerate(state["chunks"]):
            out = os.path.join(self.work, f"propose-out-{i}")
            argv = ["propose", "--out-dir", out, "--scene-cache", cache, "--model", self.model]

            def check(out=out, scenes=scenes):
                path = os.path.join(out, "proposals.csv")
                ranked = oracle.read_proposals(path)
                if sorted(ranked) != sorted(s.id for s in scenes):
                    raise oracle.CheckFailed(f"{path}: image ids do not match the scenes")
                for s in scenes:
                    oracle.check_ranked(s.id, ranked[s.id], s.width, s.height, self.grid_seeds(s.width, s.height))
                return sha256(path), ranked

            ops.append(Op(f"propose-{i}", argv, len(scenes), check))
        return ops

    def summarize(self, state, firsts):
        ranked = {}
        for part in firsts:
            ranked.update(part)
        scenes = [s for _, chunk in state["chunks"] for s in chunk]
        gts = {s.id: gt_corners(s) for s in scenes}
        r10 = oracle.coverage(ranked, gts, 0.7, 10)
        r100 = oracle.coverage(ranked, gts, 0.7, 100)
        top1 = oracle.top1_hits(ranked, gts, 0.5)
        first = state["chunks"][0][1]
        means = [oracle.neighbor_means(ranked[s.id]) for s in first]
        named = {
            "propose.recall_at_10": r10[0] / r10[2],
            "propose.recall_at_100": r100[0] / r100[2],
            "propose.corloc": 100.0 * top1[0] / top1[2],
        }
        props = {
            "scenes": len(scenes),
            "ground_truths": r10[2],
            "seeds_per_scene": sorted({len(v) for v in ranked.values()}),
            "emitted_neighbors_above_0.6": statistics.fmean(m[0] for m in means),
            "emitted_neighbors_above_0.7": statistics.fmean(m[1] for m in means),
            "neighbor_scenes": len(first),
            "iou_ties_in_tolerance": (r10[1] - r10[0]) + (r100[1] - r100[0]) + (top1[1] - top1[0]),
        }
        return named["propose.recall_at_10"], named, props


class EvalRead:
    """`eval --scene-cache` over large generated proposals files."""

    name = "eval-read"
    # Parsing and first-touch allocation dominate: the numpy kernel
    # doubled the spread, the parse kernel cut it by a third.
    reference = "parse"
    setup_repeats = 3
    scenes = 200
    parts = 2  # one command per 100 scenes: more, shorter samples per run
    rows_per_scene = 3072
    ks = (1, 10, 100, 1000)
    unit = "proposal rows"
    throughput_name = "eval.rows_per_s"

    def __init__(self, lib, work):
        self.lib, self.work = lib, work

    def setup(self, seed):
        scenes = self.lib.synth_scenes(self.lib.SynthConfig(seed=seed, max_objects=SYNTH_MAX_OBJECTS), self.scenes)
        rng = np.random.default_rng([seed, 1])
        n = self.rows_per_scene
        per_part = len(scenes) // self.parts
        parts = []
        for p in range(self.parts):
            chunk = scenes[p * per_part : (p + 1) * per_part]
            cache = os.path.join(self.work, f"eval-{p}.scenes")
            self.lib.save_scenes(cache, chunk)
            csv = os.path.join(self.work, f"eval-{p}-proposals.csv")
            ranked = {}
            with open(csv, "w", encoding="utf-8") as f:
                for s in chunk:
                    g = np.array([[b.x, b.y, b.w, b.h] for b in s.gts])
                    src = g[rng.integers(len(g), size=n)]
                    # Perturbation grows with rank, so recall rises with the budget.
                    sigma = (0.02 + 0.4 * np.linspace(0.0, 1.0, n) ** 0.5) * rng.uniform(0.2, 1.0, n)
                    cx = src[:, 0] + sigma * src[:, 2] * rng.standard_normal(n)
                    cy = src[:, 1] + sigma * src[:, 3] * rng.standard_normal(n)
                    w = src[:, 2] * np.exp(sigma * rng.standard_normal(n))
                    h = src[:, 3] * np.exp(sigma * rng.standard_normal(n))
                    rows = np.column_stack([cx - 0.5 * w, cy - 0.5 * h, cx + 0.5 * w, cy + 0.5 * h,
                                            np.sort(rng.uniform(0.0, 1000.0, n))[::-1]])
                    ranked[s.id] = rows
                    sid = s.id
                    f.write("".join(f"{sid},{a!r},{b!r},{c!r},{d!r},{e!r}\n" for a, b, c, d, e in rows.tolist()))
            parts.append({"cache": cache, "csv": csv, "ranked": ranked, "gts": {s.id: gt_corners(s) for s in chunk},
                          "bytes": os.path.getsize(csv), "rows": n * len(chunk)})
        return {"parts": parts}

    def ops(self, state):
        ops = []
        for p, part in enumerate(state["parts"]):
            out = os.path.join(self.work, f"eval-out-{p}")
            argv = ["eval", "--out-dir", out, "--scene-cache", part["cache"], "--proposals", part["csv"],
                    "--iou", "0.7", "--ks", ",".join(map(str, self.ks)), "--corloc-iou", "0.5"]

            def check(out=out, ranked=part["ranked"], gts=part["gts"]):
                recall = oracle.read_table(os.path.join(out, "recall.csv"), ["k", "iou", "recall"])
                if [int(r[0]) for r in recall] != list(self.ks) or any(r[1] != 0.7 for r in recall):
                    raise oracle.CheckFailed("recall.csv: wrong k grid or IoU column")
                for k, _, r in recall:
                    sure, possible, total = oracle.coverage(ranked, gts, 0.7, int(k))
                    oracle.check_count(f"recall.csv k={int(k)}", r, total, sure, possible)
                cl = oracle.read_table(os.path.join(out, "corloc.csv"), ["iou", "corloc_percent"])
                sure, possible, images = oracle.top1_hits(ranked, gts, 0.5)
                if len(cl) != 1 or cl[0][0] != 0.5:
                    raise oracle.CheckFailed("corloc.csv: expected one row at IoU 0.5")
                oracle.check_count("corloc.csv", cl[0][1] / 100.0, images, sure, possible)
                if os.path.getsize(os.path.join(out, "recall-curve.svg")) == 0:
                    raise oracle.CheckFailed("recall-curve.svg is empty")
                return sha256(os.path.join(out, "recall.csv")) + sha256(os.path.join(out, "corloc.csv")), None

            ops.append(Op(f"eval-{p}", argv, part["rows"], check))
        return ops

    def summarize(self, state, firsts):
        ranked = {k: v for part in state["parts"] for k, v in part["ranked"].items()}
        gts = {k: v for part in state["parts"] for k, v in part["gts"].items()}
        r10 = oracle.coverage(ranked, gts, 0.7, 10)
        props = {"scenes": self.scenes, "files": self.parts,
                 "rows": sum(p["rows"] for p in state["parts"]),
                 "bytes": sum(p["bytes"] for p in state["parts"]), "ground_truths": r10[2]}
        return r10[0] / r10[2], {"eval.recall_at_10": r10[0] / r10[2]}, props


WORKLOADS = {w.name: w for w in (TrainFixed, ProposeGrid, EvalRead)}


# --------------------------------------------------------------------------
# Per-layer metrics: "<module>.<function>.<quantity>". ".s" is self time
# (span time minus traced callees, so leaves report their span time);
# quantities other than s/self_s are totals over the traced pass.

PER_LAYER = [
    "sampling.generate_training_boxes.s", "sampling.generate_training_boxes.calls",
    "sampling.generate_training_boxes.boxes", "sampling.underfills",
    "features.roi_align_many.s", "features.roi_align_many.rows",
    "losses.iou_loss_terms_batch.s", "losses.iou_loss_terms_batch.rows", "losses.fallback_frac",
    "model.loss_and_weight_grads.s", "model.loss_and_weight_grads.calls",
    "model.train.self_s", "model.train.epochs", "model.refine.s", "model.refine.rows",
    "model.load_model.s", "model.save_model.s",
    "boxes.iou_pairwise.s", "boxes.iou_pairwise.calls", "boxes.iou_pairwise.pairs",
    "boxes.boxes_to_array.s", "boxes.boxes_to_array.rows",
    "boxes.boxes_from_array.s", "boxes.boxes_from_array.rows", "boxes.Box.inits",
    "proposals.seed_grid.s", "proposals.seed_grid.seeds", "proposals.clip_box.s", "proposals.clip_box.calls",
    "proposals.score_proposals.s", "proposals.decay_nms.s", "proposals.decay_nms.rows",
    "proposals.save_proposals.s", "proposals.save_proposals.bytes",
    "proposals.load_proposals.s", "proposals.load_proposals.rows", "proposals.load_proposals.bytes",
    "metrics.make_record.s", "metrics.recall_curve.s", "metrics.recall_at.s", "metrics.corloc.s",
    "metrics.write_table.s",
    "metrics.write_recall_curve_svg.s",
    "scenes.synth_scenes.s", "scenes.load_scenes.s", "scenes.load_scenes.bytes", "scenes.save_scenes.s",
    "cli.main.s", "cli.main.self_s",
    "trace.overhead_frac", "trace.absent",
]
# boxes.iou_pairwise split by its nearest traced caller.
IOU_CALLERS = {
    "generate_training_boxes": "sampling.generate_training_boxes",
    "train": "model.train",
    "score_proposals": "proposals.score_proposals",
    "decay_nms": "proposals.decay_nms",
    "recall_at": "metrics.recall_at",
    "corloc": "metrics.corloc",
}
PER_LAYER += [f"boxes.iou_pairwise.under_{c}.{q}" for c in IOU_CALLERS for q in ("s", "calls", "pairs")]


def traced_names(metric: str) -> list[str]:
    """The traced functions (or counted methods) a per-layer metric reads."""
    if metric.startswith("trace.") or metric == "sampling.underfills":
        return []
    if metric == "losses.fallback_frac":
        return ["model.loss_and_weight_grads"]
    if metric == "boxes.Box.inits":
        return [metric]
    if ".under_" in metric:
        return ["boxes.iou_pairwise", IOU_CALLERS[metric.rsplit(".", 1)[0].split(".under_", 1)[1]]]
    return [metric.rsplit(".", 1)[0]]


def layer_unit(name: str) -> str:
    q = name.rsplit(".", 1)[1]
    if q in ("s", "self_s"):
        return "s"
    if q.endswith("_frac"):
        return "frac"
    return "bytes" if q == "bytes" else "count"


def merge_summaries(parts: list[dict]) -> dict:
    merged = {"functions": {}, "by_caller": {}, "counts": {}, "warnings": {}, "quantity_errors": {}, "traced": set()}
    for part in parts:
        for name, stats in part["functions"].items():
            into = merged["functions"].setdefault(name, {})
            for q, v in stats.items():
                into[q] = into.get(q, 0) + v
        for name, callers in part["by_caller"].items():
            for caller, stats in callers.items():
                into = merged["by_caller"].setdefault(name, {}).setdefault(caller, {})
                for q, v in stats.items():
                    into[q] = into.get(q, 0) + v
        for key in ("counts", "warnings", "quantity_errors"):
            for q, v in part[key].items():
                merged[key][q] = merged[key].get(q, 0) + v
        merged["traced"].update(part["traced"])
    return merged


def layer_metrics(summary: dict, overhead: float) -> tuple[dict, list[str]]:
    funcs = summary["functions"]
    absent = sorted({fn for name in PER_LAYER for fn in traced_names(name)} - summary["traced"])

    def stat(fn: str, q: str, stats=None) -> float:
        stats = funcs.get(fn, {}) if stats is None else stats
        return float(stats.get("self_s" if q in ("s", "self_s") else q, 0))

    values = {}
    for name in PER_LAYER:
        if name == "trace.overhead_frac":
            v = overhead
        elif name == "trace.absent":
            v = len(absent)
        elif name == "sampling.underfills":
            v = summary["warnings"].get("SampleBudgetWarning", 0)
        elif name == "losses.fallback_frac":
            lw = funcs.get("model.loss_and_weight_grads", {})
            v = lw.get("fallbacks", 0) / lw["rows"] if lw.get("rows") else 0.0
        elif name == "boxes.Box.inits":
            v = summary["counts"].get(name, 0)
        elif name == "cli.main.s":
            v = float(funcs.get("cli.main", {}).get("s", 0))
        elif name == "cli.main.self_s":
            # The CLI layer's own share: main, the cmd_* handlers and helpers.
            v = sum(stat(fn, "s") for fn in funcs if fn.startswith("cli."))
        elif ".under_" in name:
            head, q = name.rsplit(".", 1)
            caller = IOU_CALLERS[head.split(".under_", 1)[1]]
            v = stat("", q, summary["by_caller"].get("boxes.iou_pairwise", {}).get(caller, {}))
        else:
            fn, q = name.rsplit(".", 1)
            v = stat(fn, q)
        values[name] = {"value": v, "unit": layer_unit(name)}
    return values, absent


# --------------------------------------------------------------------------


def environment() -> dict:
    cfg = np.show_config(mode="dicts")
    blas = cfg.get("Build Dependencies", {}).get("blas", {})
    cpu = None
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    src = hashlib.sha256()
    pkg = os.path.join(SRC, "boxregress")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as f:
                src.update(name.encode() + b"\0" + f.read())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "git_commit": commit,
        "source_sha256": src.hexdigest(),
        "thread_pins": {k: os.environ.get(k) for k in THREAD_PINS},
    }


def run_op(op: Op, trace: bool, result_path: str) -> dict:
    """Run one operation in a fresh process and check its outputs."""
    if os.path.exists(result_path):
        os.unlink(result_path)
    cmd = [sys.executable, os.path.join(BENCH, "op.py"), SRC, result_path, "1" if trace else "0", "--", *op.argv]
    rec = {"op": op.name, "trace": trace, "units": op.units, "ok": False}
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=OP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        rec["error"] = f"timed out after {OP_TIMEOUT_S:g} s"
        return rec
    if proc.returncode != 0 or not os.path.exists(result_path):
        rec["error"] = f"op process exited {proc.returncode}: {proc.stderr.strip()[-500:]}"
        return rec
    with open(result_path, "r", encoding="utf-8") as f:
        res = json.load(f)
    rec.update(wall_s=res["wall_s"], peak_rss_mb=res["peak_rss_mb"], code=res["code"])
    if "trace" in res:
        rec["summary"] = res["trace"]
    if res["code"] != 0:
        rec["error"] = f"exit code {res['code']}: {proc.stderr.strip()[-500:]}"
        return rec
    try:
        rec["digest"], rec["output"] = op.check()
    except (oracle.CheckFailed, OSError, ValueError) as e:
        rec["error"] = f"check failed: {e}"
        return rec
    rec["ok"] = True
    return rec


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if args.seed < 0:
        fail("--seed must be >= 0", 1)
    if not os.path.isfile(os.path.join(SRC, "boxregress", "cli.py")):
        fail(f"no boxregress sources under {SRC}; run from the root of a boxregress tree")
    run_start = time.perf_counter()

    sys.path.insert(0, SRC)
    import boxregress
    import boxregress.scenes as lib

    if not os.path.abspath(boxregress.__file__).startswith(SRC + os.sep):
        fail(f"imported boxregress from {boxregress.__file__}, not from {SRC}")

    env = environment()
    work = os.path.join(WORK_ROOT, f"{args.workload}-{os.getpid()}")
    os.makedirs(work)
    try:
        return run(args, lib, work, env, run_start)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run(args, lib, work, env, run_start) -> int:
    wl = WORKLOADS[args.workload](lib, work)
    trace = bool(args.trace)

    setup_tracer = None
    if trace:
        setup_tracer = Tracer()
        setup_tracer.install()
    # Timed steps sit between two runs of the workload's reference kernel
    # and are scaled to reference speed by the mean of the two.
    if wl.reference:
        speed, ref_s = reference.KERNELS[wl.reference]
        speed()  # warm-up
    else:
        ref_s = 1.0
        speed = lambda: ref_s  # noqa: E731
    ref = speed()
    setup_times = []
    for _ in range(wl.setup_repeats):
        t0 = time.perf_counter()
        state = wl.setup(args.seed)
        setup_times.append(time.perf_counter() - t0)
    ref_before, ref = ref, speed()
    setup_ref = 0.5 * (ref_before + ref)

    ops = wl.ops(state)
    records: list[dict] = []
    deadline = time.perf_counter() + args.seconds
    budget_end = run_start + RUN_BUDGET_S
    i = 0
    while i < len(ops) or time.perf_counter() < deadline:
        if time.perf_counter() > budget_end:
            break
        op = ops[i % len(ops)]
        pair = [run_op(op, False, os.path.join(work, f"result-{i}-u.json"))]
        if trace:
            pair.append(run_op(op, True, os.path.join(work, f"result-{i}-t.json")))
        ref_before, ref = ref, speed()
        for rec in pair:
            rec["ref_s"] = 0.5 * (ref_before + ref)
        records += pair
        i += 1

    # Every operation's outputs must repeat its first run's bit for bit.
    first: dict[str, dict] = {}
    for rec in records:
        if not rec["ok"]:
            continue
        seen = first.setdefault(rec["op"], rec)
        if rec["digest"] != seen["digest"]:
            rec["ok"] = False
            rec["error"] = "outputs differ from the first run of this operation"

    failed = sum(not r["ok"] for r in records)
    first_pass = [first.get(op.name) for op in ops]
    quality, named, props = 0.0, {}, {}
    if all(first_pass):
        quality, named, props = wl.summarize(state, [r["output"] for r in first_pass])

    # Throughput is all the run's work over all its scaled time: steadier
    # than the median of a handful of per-operation rates.
    timed = [r for r in records if r["ok"] and not r["trace"]]
    units = sum(r["units"] for r in timed)
    scaled_s = sum(r["wall_s"] * ref_s / r["ref_s"] for r in timed)
    throughput = units / scaled_s if timed else 0.0
    named[wl.throughput_name] = throughput
    named[wl.throughput_name + ".unscaled"] = units / sum(r["wall_s"] for r in timed) if timed else 0.0
    record = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "environment": env,
        "setup_s_each": setup_times,
        "setup_ref_s": setup_ref,
        "throughput_unit": f"{wl.unit} per second",
        "named_metrics": named,
        "fail_frac": failed / max(len(records), 1),
        "properties": props,
        "operations": [{k: v for k, v in r.items() if k not in ("summary", "output")} for r in records],
    }

    if trace:
        traced = [r for r in records if r["trace"] and r["ok"]]
        pairs = [(u, t) for u, t in zip(records[0::2], records[1::2]) if u["ok"] and t["ok"]]
        overhead = (sum(t["wall_s"] for _, t in pairs) / sum(u["wall_s"] for u, _ in pairs) - 1.0) if pairs else 0.0
        # Per-layer figures cover one pass: the first traced run of each op,
        # plus one set-up (the set-up ran setup_repeats times under the tracer).
        firsts = []
        for op in ops:
            rec = next((r for r in traced if r["op"] == op.name), None)
            if rec is not None:
                firsts.append(rec["summary"])
        setup_summary = setup_tracer.summary()
        for stats in list(setup_summary["functions"].values()) + [
            s for callers in setup_summary["by_caller"].values() for s in callers.values()
        ]:
            for q in stats:
                stats[q] /= wl.setup_repeats
        summary = merge_summaries(firsts + [setup_summary])
        metrics, absent = layer_metrics(summary, overhead)
        lw = summary["functions"].get("proposals.score_proposals", {})
        if lw.get("rows"):
            props["refined_neighbors_above_0.7"] = lw["neighbors"] / lw["rows"]
        record.update(trace_overhead_frac=overhead, absent=absent, quantity_errors=summary["quantity_errors"],
                      functions={k: summary["functions"][k] for k in sorted(summary["functions"])})
    else:
        median_rss = statistics.median(r["peak_rss_mb"] for r in timed) if timed else 0.0
        metrics = {
            "setup_s": {"value": statistics.median(setup_times) * ref_s / setup_ref, "unit": "s"},
            "peak_rss_mb": {"value": median_rss, "unit": "MB"},
            "throughput": {"value": throughput, "unit": "1/s"},
            "quality": {"value": quality, "unit": "frac"},
        }

    print(json.dumps(record))
    print(json.dumps({"correct": failed == 0, "attempted": len(records), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
