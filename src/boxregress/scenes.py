"""Scene construction: annotation ingestion and synthetic scene generation.

A scene is one image's ground-truth boxes plus a feature map standing in
for a backbone network. Feature maps are synthesized from the geometry:
channel 0 is object occupancy, channels 1 and 2 are signed per-axis
distances to the nearest object center, normalized by that object's
side length and clamped to [-2, 2]. No pixels are ever read.
"""

from __future__ import annotations

import json
import math
import struct
import warnings
from dataclasses import dataclass, field

import numpy as np

from .boxes import Box, boxes_to_array, iou
from .errors import DataFormatError
from .features import FEATURE_STRIDE, FeatureMap

SCENE_CACHE_MAGIC = b"UBBRSCN1"

# The scene cache stores labels as int32 and a missing label as this value.
NO_LABEL = -1

# Ground-truth boxes may stick out of the image by at most this fraction
# of the image side.
BOUNDS_SLACK = 0.5


class SceneBudgetWarning(RuntimeWarning):
    """Object placement ran out of attempts and the scene was simplified."""


@dataclass
class Scene:
    """One image: identifier, extents, ground truths, cached features."""

    id: str
    width: float
    height: float
    gts: list[Box]
    labels: list[int | None] | None = None
    _fm: FeatureMap | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if not (math.isfinite(self.width) and math.isfinite(self.height) and self.width > 0 and self.height > 0):
            raise ValueError(f"scene {self.id}: image dims must be finite and positive, got {self.width} x {self.height}")
        for g in self.gts:
            if not _within_slack(g, self.width, self.height):
                raise ValueError(f"scene {self.id}: ground truth {g} too far outside image bounds")
        if self.labels is not None and len(self.labels) != len(self.gts):
            raise ValueError(f"scene {self.id}: labels and ground truths misaligned")

    def feature_map(self) -> FeatureMap:
        """Noise-free feature map, computed on first use and cached."""
        if self._fm is None:
            self._fm = build_feature_map(self.width, self.height, self.gts)
        return self._fm


def _within_slack(g: Box, width: float, height: float) -> bool:
    return (
        g.x - 0.5 * g.w >= -BOUNDS_SLACK * width
        and g.x + 0.5 * g.w <= (1 + BOUNDS_SLACK) * width
        and g.y - 0.5 * g.h >= -BOUNDS_SLACK * height
        and g.y + 0.5 * g.h <= (1 + BOUNDS_SLACK) * height
    )


def _feature_grid_shape(width: float, height: float) -> tuple[int, int]:
    """(rows, columns) of the feature map of a width x height image."""
    return max(1, math.ceil(height / FEATURE_STRIDE)), max(1, math.ceil(width / FEATURE_STRIDE))


def build_feature_map(
    width: float,
    height: float,
    gts: list[Box],
    noise: float = 0.0,
    rng: np.random.Generator | None = None,
) -> FeatureMap:
    """Synthesize the 3-channel backbone stand-in for a set of boxes.

    Cells sample their center point. With no ground truths all channels
    are zero. Gaussian noise of the given standard deviation is added to
    every channel when noise > 0.
    """
    cells_h, cells_w = _feature_grid_shape(width, height)
    data = np.zeros((3, cells_h, cells_w), dtype=np.float64)

    if gts:
        cx = (np.arange(cells_w, dtype=np.float64) + 0.5) * FEATURE_STRIDE
        cy = (np.arange(cells_h, dtype=np.float64) + 0.5) * FEATURE_STRIDE
        px, py = np.meshgrid(cx, cy)  # (H, W) each

        centers = np.array([[g.x, g.y] for g in gts])
        sides = np.array([[g.w, g.h] for g in gts])
        dx = px[None, :, :] - centers[:, 0, None, None]
        dy = py[None, :, :] - centers[:, 1, None, None]

        inside = (np.abs(dx) <= 0.5 * sides[:, 0, None, None]) & (
            np.abs(dy) <= 0.5 * sides[:, 1, None, None]
        )
        data[0] = inside.any(axis=0).astype(np.float64)

        nearest = np.argmin(dx * dx + dy * dy, axis=0)  # (H, W)
        sel_dx = np.take_along_axis(dx, nearest[None], axis=0)[0]
        sel_dy = np.take_along_axis(dy, nearest[None], axis=0)[0]
        data[1] = np.clip(sel_dx / sides[nearest, 0], -2.0, 2.0)
        data[2] = np.clip(sel_dy / sides[nearest, 1], -2.0, 2.0)

    if noise > 0.0:
        if rng is None:
            raise ValueError("noise > 0 requires an rng")
        data += rng.normal(0.0, noise, size=data.shape)
    return FeatureMap(data)


def load_annotations(path: str, short_side: float | None = None) -> list[Scene]:
    """Read a COCO-style annotation file into scenes.

    Expects top-level "images" (id, width, height) and "annotations"
    (image_id, bbox as top-left [x, y, w, h], optional category_id)
    arrays. Boxes are converted to center form and grouped by image.
    Annotations referencing unknown images, with non-positive extents,
    or placed too far outside their image are skipped with a warning.
    With short_side set, each scene's coordinates are rescaled so the
    shorter image side matches it.
    """
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except json.JSONDecodeError as e:
        raise DataFormatError(f"{path}: line {e.lineno}, column {e.colno}: {e.msg}") from None
    except OSError as e:
        raise DataFormatError(f"{path}: {e}") from None

    if not isinstance(doc, dict) or "images" not in doc or "annotations" not in doc:
        raise DataFormatError(f"{path}: missing 'images' or 'annotations' array")

    scenes: dict[object, Scene] = {}
    for i, img in enumerate(doc["images"]):
        try:
            scenes[img["id"]] = Scene(
                id=str(img["id"]),
                width=float(img["width"]),
                height=float(img["height"]),
                gts=[],
                labels=[],
            )
        except (KeyError, TypeError, ValueError) as e:
            raise DataFormatError(f"{path}: images[{i}]: {e}") from None

    for i, ann in enumerate(doc["annotations"]):
        try:
            image_id = ann["image_id"]
            x, y, w, h = (float(v) for v in ann["bbox"])
            label = ann.get("category_id")
        except (KeyError, TypeError, ValueError) as e:
            raise DataFormatError(f"{path}: annotations[{i}]: {e}") from None
        if label is not None and type(label) is not int:
            raise DataFormatError(
                f"{path}: annotations[{i}]: category_id must be an integer or null, got {label!r}"
            )
        if not all(map(math.isfinite, (x, y, w, h))):
            raise DataFormatError(f"{path}: annotations[{i}]: bbox values must be finite, got {[x, y, w, h]}")
        scene = scenes.get(image_id)
        if scene is None:
            warnings.warn(f"{path}: annotations[{i}] references unknown image {image_id!r}; skipped", stacklevel=2)
            continue
        if w <= 0 or h <= 0:
            warnings.warn(f"{path}: annotations[{i}] has non-positive box dims; skipped", stacklevel=2)
            continue
        g = Box(x + 0.5 * w, y + 0.5 * h, w, h)
        if not _within_slack(g, scene.width, scene.height):
            warnings.warn(f"{path}: annotations[{i}] lies too far outside its image; skipped", stacklevel=2)
            continue
        scene.gts.append(g)
        scene.labels.append(label)

    out = list(scenes.values())
    if short_side is not None:
        out = [_rescale_scene(s, short_side) for s in out]
    return out


def _rescale_scene(s: Scene, short_side: float) -> Scene:
    f = short_side / min(s.width, s.height)
    return Scene(
        id=s.id,
        width=s.width * f,
        height=s.height * f,
        gts=[Box(g.x * f, g.y * f, g.w * f, g.h * f) for g in s.gts],
        labels=s.labels,
    )


def filter_categories(scenes: list[Scene], excluded: set[int]) -> list[Scene]:
    """Drop every scene containing at least one excluded-category box.

    Removal is image-level: one excluded annotation removes the whole
    scene. Surviving scenes pass through untouched.
    """
    if not excluded:
        return list(scenes)
    kept = []
    for s in scenes:
        labels = s.labels or []
        if any(lbl in excluded for lbl in labels):
            continue
        kept.append(s)
    return kept


@dataclass(frozen=True)
class SynthConfig:
    """Synthetic scene generator parameters."""

    image_size: int = 128
    min_objects: int = 1
    max_objects: int = 4
    min_size_frac: float = 0.15
    max_size_frac: float = 0.55
    max_gt_iou: float = 0.3       # pairwise separation between ground truths
    adjacent_pairs: bool = False  # two abutting objects per scene
    noise: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.image_size < int(FEATURE_STRIDE):
            raise ValueError(f"image_size must be >= {int(FEATURE_STRIDE)}, got {self.image_size}")
        if not 1 <= self.min_objects <= self.max_objects:
            raise ValueError("object count range must satisfy 1 <= min <= max")
        if not 0 < self.min_size_frac <= self.max_size_frac < 1:
            raise ValueError("object size fractions must satisfy 0 < min <= max < 1")
        if self.noise < 0:
            raise ValueError(f"noise must be >= 0, got {self.noise}")


def synth_scenes(cfg: SynthConfig, count: int) -> list[Scene]:
    """Generate scenes with randomly placed rectangles, deterministically.

    Each scene draws from its own (seed, index) stream, so the result
    does not depend on generation order or batching.
    """
    return [_synth_scene(cfg, i) for i in range(count)]


def _synth_scene(cfg: SynthConfig, index: int) -> Scene:
    size = float(cfg.image_size)
    rng = np.random.default_rng([cfg.seed, index, 0])
    if cfg.adjacent_pairs:
        n_initial = 2
    else:
        n_initial = int(rng.integers(cfg.min_objects, cfg.max_objects + 1))
    retry = 0
    while True:
        if retry:
            rng = np.random.default_rng([cfg.seed, index, retry])
        n_target = max(1, n_initial - retry)
        if cfg.adjacent_pairs and n_target >= 2:
            gts = _place_adjacent_pair(cfg, rng)
        else:
            gts = _place_objects(cfg, rng, n_target)
        if gts is not None:
            if retry:
                warnings.warn(
                    f"scene {index}: placement budget exhausted, regenerated with {len(gts)} objects",
                    SceneBudgetWarning,
                    stacklevel=3,
                )
            fm = build_feature_map(size, size, gts, cfg.noise, rng)
            return Scene(id=f"synth-{index:04d}", width=size, height=size, gts=gts, _fm=fm)
        retry += 1  # a single object always places, so this terminates


def _place_objects(cfg: SynthConfig, rng: np.random.Generator, n_target: int) -> list[Box] | None:
    size = float(cfg.image_size)
    placed: list[Box] = []
    for _ in range(n_target):
        ok = None
        for _ in range(40):
            w = rng.uniform(cfg.min_size_frac, cfg.max_size_frac) * size
            h = rng.uniform(cfg.min_size_frac, cfg.max_size_frac) * size
            cand = Box(rng.uniform(0.5 * w, size - 0.5 * w), rng.uniform(0.5 * h, size - 0.5 * h), w, h)
            if not placed or (iou(boxes_to_array([cand]), boxes_to_array(placed)) < cfg.max_gt_iou).all():
                ok = cand
                break
        if ok is None:
            return None
        placed.append(ok)
    return placed


def _place_adjacent_pair(cfg: SynthConfig, rng: np.random.Generator) -> list[Box] | None:
    # Two boxes sharing a vertical edge, jointly centered at random.
    size = float(cfg.image_size)
    for _ in range(40):
        wa = rng.uniform(cfg.min_size_frac, cfg.max_size_frac) * size
        ha = rng.uniform(cfg.min_size_frac, cfg.max_size_frac) * size
        wb = rng.uniform(cfg.min_size_frac, cfg.max_size_frac) * size
        hb = rng.uniform(cfg.min_size_frac, cfg.max_size_frac) * size
        if wa + wb >= size:
            continue
        x_left = rng.uniform(0.0, size - wa - wb)
        cy = rng.uniform(0.5 * max(ha, hb), size - 0.5 * max(ha, hb))
        a = Box(x_left + 0.5 * wa, cy, wa, ha)
        b = Box(x_left + wa + 0.5 * wb, cy, wb, hb)
        return [a, b]
    return None


def _cacheable(label) -> bool:
    return label is None or (type(label) is int and label != NO_LABEL and -(2**31) <= label < 2**31)


def save_scenes(path: str, scenes: list[Scene]) -> None:
    """Write scenes to the versioned binary cache format.

    Raises DataFormatError for a label the cache cannot read back: one
    that is not an int32, or that equals NO_LABEL.
    """
    from .ioutil import atomic_write

    with atomic_write(path, "wb") as f:
        f.write(SCENE_CACHE_MAGIC)
        f.write(struct.pack("<I", len(scenes)))
        for s in scenes:
            ident = s.id.encode("utf-8")
            f.write(struct.pack("<H", len(ident)))
            f.write(ident)
            f.write(struct.pack("<ddI", s.width, s.height, len(s.gts)))
            for g in s.gts:
                f.write(struct.pack("<dddd", g.x, g.y, g.w, g.h))
            if s.labels is None:
                f.write(struct.pack("<B", 0))
            else:
                bad = [lbl for lbl in s.labels if not _cacheable(lbl)]
                if bad:
                    raise DataFormatError(
                        f"{path}: scene {s.id}: label {bad[0]!r} cannot be cached: "
                        f"labels are int32 and {NO_LABEL} stands for none"
                    )
                f.write(struct.pack("<B", 1))
                for lbl in s.labels:
                    f.write(struct.pack("<i", NO_LABEL if lbl is None else lbl))
            if s._fm is None:
                f.write(struct.pack("<B", 0))
            else:
                f.write(struct.pack("<B", 1))
                c, h, w = s._fm.data.shape
                f.write(struct.pack("<III", c, h, w))
                f.write(s._fm.data.astype("<f8").tobytes())


def load_scenes(path: str) -> list[Scene]:
    """Read a scene cache written by save_scenes."""
    try:
        with open(path, "rb") as f:
            blob = f.read()
    except OSError as e:
        raise DataFormatError(f"{path}: {e}") from None

    view = memoryview(blob)
    pos = 0

    def take(n: int) -> memoryview:
        nonlocal pos
        if pos + n > len(view):
            raise DataFormatError(f"{path}: truncated at byte {pos}")
        chunk = view[pos : pos + n]
        pos += n
        return chunk

    if bytes(take(len(SCENE_CACHE_MAGIC))) != SCENE_CACHE_MAGIC:
        raise DataFormatError(f"{path}: bad magic, not a scene cache")
    (count,) = struct.unpack("<I", take(4))
    scenes = []
    for _ in range(count):
        start = pos
        (id_len,) = struct.unpack("<H", take(2))
        try:
            ident = bytes(take(id_len)).decode("utf-8")
        except UnicodeDecodeError:
            raise DataFormatError(f"{path}: byte {start + 2}: scene id is not valid UTF-8") from None
        width, height, n_gts = struct.unpack("<ddI", take(20))
        gts = []
        for _ in range(n_gts):
            at = pos
            x, y, w, h = struct.unpack("<dddd", take(32))
            try:
                gts.append(Box(x, y, w, h))
            except ValueError as e:
                raise DataFormatError(f"{path}: byte {at}: scene {ident}: {e}") from None
        (has_labels,) = struct.unpack("<B", take(1))
        labels = None
        if has_labels:
            raw = struct.unpack(f"<{n_gts}i", take(4 * n_gts))
            labels = [None if v == NO_LABEL else v for v in raw]
        (has_fm,) = struct.unpack("<B", take(1))
        fm = None
        if has_fm:
            at = pos
            c, h, w = struct.unpack("<III", take(12))
            data = np.frombuffer(take(8 * c * h * w), dtype="<f8").reshape(c, h, w).copy()
            try:
                fm = FeatureMap(data)
            except ValueError as e:
                raise DataFormatError(f"{path}: byte {at}: scene {ident}: {e}") from None
            # A non-finite or non-positive extent is refused with the scene below.
            if math.isfinite(width) and math.isfinite(height) and width > 0 and height > 0:
                expect = _feature_grid_shape(width, height)
                if (h, w) != expect:
                    raise DataFormatError(
                        f"{path}: byte {at}: scene {ident}: feature map is {h} x {w} cells, "
                        f"a {width:g} x {height:g} image has {expect[0]} x {expect[1]}"
                    )
        try:
            scenes.append(Scene(id=ident, width=width, height=height, gts=gts, labels=labels, _fm=fm))
        except ValueError as e:
            raise DataFormatError(f"{path}: byte {start}: {e}") from None
    if pos != len(view):
        raise DataFormatError(f"{path}: {len(view) - pos} trailing bytes")
    return scenes
