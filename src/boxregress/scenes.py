"""Scene construction: annotation ingestion and synthetic scene generation.

A scene is one image's ground-truth boxes, a (G, 4) center-form array,
and the feature map that stands in for a backbone network: its own, if
it carries one, else one that `scene_map` synthesizes from the geometry.
Channel 0 is object occupancy, channels 1 and 2 are signed per-axis
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

from .boxes import Box, iou
from .errors import DataFormatError
from .features import FEATURE_STRIDE, FeatureMap
from .ioutil import BinaryReader, atomic_write, check_id, open_input

SCENE_CACHE_MAGIC = b"UBBRSCN1"

# The scene cache stores labels as int32 and a missing label as this value.
NO_LABEL = -1

# Ground-truth boxes may stick out of the image by at most this fraction
# of the image side.
BOUNDS_SLACK = 0.5

# Largest square image side flags may ask for: a 256 x 256-cell feature grid.
MAX_IMAGE_SIDE = 1024


class SceneBudgetWarning(RuntimeWarning):
    """Object placement ran out of attempts and the scene was simplified."""


@dataclass(frozen=True, eq=False)
class Scene:
    """One image: identifier, extents, (G, 4) center-form ground truths, and its own feature map if it has one."""

    id: str
    width: float
    height: float
    boxes: np.ndarray
    labels: list[int | None] | None = None
    features: FeatureMap | None = field(default=None, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "boxes", np.asarray(self.boxes, dtype=np.float64))
        self._check()

    def _check(self) -> None:
        """Refuse a bad extent, ground truth or label count: run on creation and again by save_scenes."""
        _check_extent(self.id, self.width, self.height)
        if self.boxes.shape[1:] != (4,):
            raise ValueError(f"scene {self.id}: boxes must be a (G, 4) array, got shape {self.boxes.shape}")
        for row in self.boxes.tolist():
            if not _within_slack(*row, self.width, self.height):
                raise ValueError(f"scene {self.id}: ground truth {Box(*row)} too far outside image bounds")
        if self.labels is not None and len(self.labels) != len(self.boxes):
            raise ValueError(f"scene {self.id}: labels and ground truths misaligned")

    @property
    def gts(self) -> list[Box]:
        """The ground truths as Box values, for callers outside the library."""
        return [Box(*row) for row in self.boxes.tolist()]

    @property
    def channels(self) -> int:
        """Channels of scene_map(self), found without making it: 3 unless the scene carries its own map."""
        return 3 if self.features is None else self.features.channels


def _check_extent(scene_id: str, width: float, height: float) -> None:
    check_id(scene_id)
    if not (math.isfinite(width) and math.isfinite(height) and width > 0 and height > 0):
        raise ValueError(f"scene {scene_id}: image dims must be finite and positive, got {width} x {height}")


def _within_slack(x: float, y: float, w: float, h: float, width: float, height: float) -> bool:
    """Whether (x, y, w, h) has positive sides and sticks out of a width x height image by at most BOUNDS_SLACK."""
    return (w > 0 and h > 0 and x - 0.5 * w >= -BOUNDS_SLACK * width and x + 0.5 * w <= (1 + BOUNDS_SLACK) * width
            and y - 0.5 * h >= -BOUNDS_SLACK * height and y + 0.5 * h <= (1 + BOUNDS_SLACK) * height)


def _feature_grid_shape(width: float, height: float) -> tuple[int, int]:
    """(rows, columns) of the feature map of a width x height image."""
    return max(1, math.ceil(height / FEATURE_STRIDE)), max(1, math.ceil(width / FEATURE_STRIDE))


def scene_map(scene: Scene) -> FeatureMap:
    """The scene's own feature map, or else its noise-free 3-channel map, made on each call.

    Cells sample their center point. With no ground truths all channels
    are zero.
    """
    if scene.features is not None:
        return scene.features
    if len(scene.boxes):
        return FeatureMap(_feature_data(scene.width, scene.height, [scene.boxes])[0])
    return FeatureMap(np.zeros((3, *_feature_grid_shape(scene.width, scene.height))))


def _feature_data(width: float, height: float, gts: list[np.ndarray]) -> np.ndarray:
    """(S, 3, H, W) noise-free feature data of S scenes of one size, from their (G, 4) ground truths.

    Every scene has at least one ground truth. Scenes with fewer than the
    most are padded with boxes at infinity of zero size, which are never
    nearest and never contain a cell.
    """
    cells_h, cells_w = _feature_grid_shape(width, height)
    g = np.zeros((len(gts), max(map(len, gts)), 4))
    g[:, :, :2] = np.inf
    for k, rows in enumerate(gts):
        g[k, : len(rows)] = rows
    # Signed offsets from each center along each axis: (S, G, W) and (S, G, H).
    # A cell's 2-D offset is one entry of each, so only the occupancy test
    # and the squared distance are built per cell and object.
    dx = ((np.arange(cells_w, dtype=np.float64) + 0.5) * FEATURE_STRIDE) - g[:, :, 0, None]
    dy = ((np.arange(cells_h, dtype=np.float64) + 0.5) * FEATURE_STRIDE) - g[:, :, 1, None]
    in_x = np.abs(dx) <= 0.5 * g[:, :, 2, None]
    in_y = np.abs(dy) <= 0.5 * g[:, :, 3, None]
    data = np.empty((len(gts), 3, cells_h, cells_w), dtype=np.float64)
    data[:, 0] = (in_y[:, :, :, None] & in_x[:, :, None, :]).any(axis=1)

    nearest = np.argmin((dy * dy)[:, :, :, None] + (dx * dx)[:, :, None, :], axis=1)  # (S, H, W)
    scene = np.arange(len(gts))[:, None, None]
    data[:, 1] = np.clip(dx[scene, nearest, np.arange(cells_w)] / g[scene, nearest, 2], -2.0, 2.0)
    data[:, 2] = np.clip(dy[scene, nearest, np.arange(cells_h)[:, None]] / g[scene, nearest, 3], -2.0, 2.0)
    return data


def load_annotations(path: str, short_side: float | None = None) -> list[Scene]:
    """Read a COCO-style annotation file into scenes.

    Expects top-level "images" (id, width, height) and "annotations"
    (image_id, bbox as top-left [x, y, w, h], optional category_id)
    arrays. Boxes are converted to center form and grouped by image. An
    id that is not a JSON string or integer, an image id listed twice,
    or two ids with one text (1 and "1"), is a DataFormatError.
    Annotations referencing unknown images, with non-positive extents,
    or placed too far outside their image are skipped with a warning.
    With short_side set, each scene's coordinates are rescaled so the
    shorter image side matches it, and every check reads rescaled values.
    """
    try:
        with open_input(path) as f:
            doc = json.load(f)
    except json.JSONDecodeError as e:
        raise DataFormatError(f"{path}: line {e.lineno}, column {e.colno}: {e.msg}") from None
    except RecursionError:
        raise DataFormatError(f"{path}: arrays or objects nested too deeply") from None

    if not isinstance(doc, dict) or "images" not in doc or "annotations" not in doc:
        raise DataFormatError(f"{path}: missing 'images' or 'annotations' array")
    for key in ("images", "annotations"):
        if not isinstance(doc[key], list):
            raise DataFormatError(f"{path}: {key} must be an array, got {type(doc[key]).__name__}")

    images: dict[object, tuple] = {}  # JSON id -> (scene id, width, height, scale, rows, labels), all scaled
    names: set[str] = set()  # scene ids: ids 1 and "1" are distinct keys but one scene id
    for i, img in enumerate(doc["images"]):
        try:
            width, height = _json_numbers([img["width"], img["height"]], 2, "width and height must be JSON numbers")
            name = str(_json_id(img["id"], "id"))
            _check_extent(name, width, height)
            scale = 1.0 if short_side is None else short_side / min(width, height)
            _check_extent(name, width * scale, height * scale)
            if img["id"] in images or name in names:
                raise ValueError(f"duplicate image id {img['id']!r}")
            names.add(name)
            images[img["id"]] = (name, width * scale, height * scale, scale, [], [])
        except (KeyError, TypeError, ValueError, OverflowError) as e:
            raise DataFormatError(f"{path}: images[{i}]: {e}") from None

    for i, ann in enumerate(doc["annotations"]):
        try:
            image_id = _json_id(ann["image_id"], "image_id")
            image = images.get(image_id)
            x, y, w, h = _json_numbers(ann["bbox"], 4, "bbox must be an array of 4 JSON numbers")
            label = ann.get("category_id")
        except (KeyError, TypeError, ValueError, OverflowError) as e:
            raise DataFormatError(f"{path}: annotations[{i}]: {e}") from None
        if label is not None and type(label) is not int:
            raise DataFormatError(
                f"{path}: annotations[{i}]: category_id must be an integer or null, got {label!r}"
            )
        if not all(map(math.isfinite, (x, y, w, h))):
            raise DataFormatError(f"{path}: annotations[{i}]: bbox values must be finite, got {[x, y, w, h]}")
        if image is None:
            warnings.warn(f"{path}: annotations[{i}] references unknown image {image_id!r}; skipped", stacklevel=2)
            continue
        if w <= 0 or h <= 0:
            warnings.warn(f"{path}: annotations[{i}] has non-positive box dims; skipped", stacklevel=2)
            continue
        _, width, height, scale, rows, labels = image
        row = [(x + 0.5 * w) * scale, (y + 0.5 * h) * scale, w * scale, h * scale]
        if not _within_slack(*row, width, height):
            warnings.warn(f"{path}: annotations[{i}] lies too far outside its image; skipped", stacklevel=2)
            continue
        rows.append(row)
        labels.append(label)

    return [Scene(id=name, width=width, height=height, boxes=np.array(rows).reshape(-1, 4), labels=labels)
            for name, width, height, _, rows, labels in images.values()]


def _json_numbers(values, n: int, what: str) -> list[float]:
    """values as floats, if they are a list of n JSON numbers: ints or floats, not bools or strings."""
    if type(values) is not list or len(values) != n or any(type(v) not in (int, float) for v in values):
        raise ValueError(f"{what}, got {values!r}")
    return [float(v) for v in values]


def _json_id(value, what: str):
    """value, if it is a JSON string or integer: not a bool, a float or null."""
    if type(value) not in (str, int):
        raise ValueError(f"{what} must be a JSON string or integer, got {value!r}")
    return value


def filter_categories(scenes: list[Scene], excluded: set[int]) -> list[Scene]:
    """Drop every scene containing at least one excluded-category box.

    Removal is image-level: one excluded annotation removes the whole
    scene. Surviving scenes pass through untouched.
    """
    return [s for s in scenes if not any(lbl in excluded for lbl in s.labels or ())]


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
        if not int(FEATURE_STRIDE) <= self.image_size <= MAX_IMAGE_SIDE:
            raise ValueError(f"image_size must be in [{int(FEATURE_STRIDE)}, {MAX_IMAGE_SIDE}], got {self.image_size}")
        if not 1 <= self.min_objects <= self.max_objects:
            raise ValueError("object count range must satisfy 1 <= min <= max")
        if not 0 < self.min_size_frac <= self.max_size_frac < 1:
            raise ValueError("object size fractions must satisfy 0 < min <= max < 1")
        if not (math.isfinite(self.noise) and self.noise >= 0):
            raise ValueError(f"noise must be finite and >= 0, got {self.noise}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


# Feature cells per feature-data batch in synth_scenes: bounds its (S, G, H, W)
# temporaries at any image size. 256 scenes of 128 x 128 pixels (32 x 32 cells).
_SYNTH_CELLS = 1 << 18


def synth_scenes(cfg: SynthConfig, count: int) -> list[Scene]:
    """Generate scenes with randomly placed rectangles, deterministically.

    Each scene draws from its own (seed, index) stream, so the result
    does not depend on generation order or batching. Feature maps are
    computed for a batch of scenes at once, of at most _SYNTH_CELLS cells
    in all (one scene at least).
    """
    size = float(cfg.image_size)
    cells_h, cells_w = _feature_grid_shape(size, size)
    batch = max(1, _SYNTH_CELLS // (cells_h * cells_w))
    scenes = []
    for start in range(0, count, batch):
        placed = [_synth_gts(cfg, i) for i in range(start, min(start + batch, count))]
        maps = _feature_data(size, size, [gts for gts, _ in placed])
        for index, ((gts, rng), data) in enumerate(zip(placed, maps), start):
            if cfg.noise > 0.0:
                data += rng.normal(0.0, cfg.noise, size=data.shape)
            scenes.append(Scene(id=f"synth-{index:04d}", width=size, height=size, boxes=gts, features=FeatureMap(data)))
    return scenes


def _synth_gts(cfg: SynthConfig, index: int) -> tuple[np.ndarray, np.random.Generator]:
    """A scene's (G, 4) ground truths and its stream, positioned for the feature-map noise."""
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
            return gts, rng
        retry += 1  # a single object always places, so this terminates


def _place_objects(cfg: SynthConfig, rng: np.random.Generator, n_target: int) -> np.ndarray | None:
    size = float(cfg.image_size)
    placed = np.empty((n_target, 4))
    for k in range(n_target):
        for _ in range(40):
            w = rng.uniform(cfg.min_size_frac, cfg.max_size_frac) * size
            h = rng.uniform(cfg.min_size_frac, cfg.max_size_frac) * size
            placed[k] = (rng.uniform(0.5 * w, size - 0.5 * w), rng.uniform(0.5 * h, size - 0.5 * h), w, h)
            if not k or (iou(placed[k], placed[:k]) < cfg.max_gt_iou).all():
                break
        else:
            return None
    return placed


def _place_adjacent_pair(cfg: SynthConfig, rng: np.random.Generator) -> np.ndarray | None:
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
        return np.array([[x_left + 0.5 * wa, cy, wa, ha], [x_left + wa + 0.5 * wb, cy, wb, hb]])
    return None


def _cacheable(label) -> bool:
    return label is None or (type(label) is int and label != NO_LABEL and -(2**31) <= label < 2**31)


def save_scenes(path: str, scenes: list[Scene]) -> None:
    """Write scenes to the versioned binary cache format.

    A scene's feature map is written exactly when it carries one
    (`Scene.features`): synth scenes always do, annotation scenes never.
    Raises DataFormatError, before anything is written, for what the
    cache cannot read back: a scene id listed twice, which load_scenes
    refuses, an id of more than 65,535 UTF-8 bytes, a label that is
    not an int32 or that equals NO_LABEL, or a scene whose arrays were
    changed in place so that Scene or FeatureMap would now refuse it.
    """
    seen = set()
    for i, s in enumerate(scenes):
        try:
            s._check()
            if s.features is not None:
                FeatureMap(s.features.data)
        except ValueError as e:
            raise DataFormatError(f"{path}: scenes[{i}]: {e}") from None
        if s.id in seen:
            raise DataFormatError(f"{path}: scenes[{i}]: duplicate scene id {s.id!r}")
        seen.add(s.id)
        if len(s.id.encode("utf-8")) > 0xFFFF:
            raise DataFormatError(f"{path}: scenes[{i}]: scene id is longer than 65535 UTF-8 bytes")
        bad = [lbl for lbl in s.labels or () if not _cacheable(lbl)]
        if bad:
            raise DataFormatError(f"{path}: scene {s.id}: label {bad[0]!r} cannot be cached: "
                                  f"labels are int32 and {NO_LABEL} stands for none")
    with atomic_write(path, "wb") as f:
        f.write(SCENE_CACHE_MAGIC + struct.pack("<I", len(scenes)))
        for s in scenes:
            ident = s.id.encode("utf-8")
            f.write(struct.pack(f"<H{len(ident)}sddI", len(ident), ident, s.width, s.height, len(s.boxes)))
            f.write(s.boxes.astype("<f8").tobytes())
            f.write(struct.pack("<B", s.labels is not None))
            if s.labels is not None:
                f.write(np.array([NO_LABEL if lbl is None else lbl for lbl in s.labels], dtype="<i4").tobytes())
            f.write(struct.pack("<B", s.features is not None))
            if s.features is not None:
                f.write(struct.pack("<III", *s.features.data.shape))
                f.write(s.features.data.astype("<f8").tobytes())


def load_scenes(path: str) -> list[Scene]:
    """Read a scene cache written by save_scenes; a scene id listed twice is a DataFormatError."""
    r = BinaryReader(path)
    if r.take(len(SCENE_CACHE_MAGIC)) != SCENE_CACHE_MAGIC:
        raise r.error("bad magic, not a scene cache")
    scenes, seen = [], set()
    for _ in range(r.unpack("<I")[0]):
        start = r.pos
        (id_len,) = r.unpack("<H")
        try:
            ident = bytes(r.take(id_len)).decode("utf-8")
        except UnicodeDecodeError:
            raise r.error("scene id is not valid UTF-8", start + 2) from None
        if ident in seen:
            raise r.error(f"duplicate scene id {ident!r}", start)
        seen.add(ident)
        width, height, n_gts = r.unpack("<ddI")
        # The whole boxes come first, each checked, so a cut inside the
        # block is reported at the first incomplete box. A row that is a
        # box but lies outside the image is refused with the scene below.
        at = r.pos
        boxes = r.array("<f8", (min(n_gts, r.left() // 32), 4))
        for i, row in enumerate(boxes.tolist()):
            if not _within_slack(*row, width, height):
                try:
                    Box(*row)
                except ValueError as e:
                    raise r.error(f"scene {ident}: {e}", at + 32 * i) from None
        if len(boxes) < n_gts:
            r.take(32)
        labels = None
        if r.flag(f"scene {ident}: has-labels"):
            labels = [None if v == NO_LABEL else v for v in r.array("<i4", (n_gts,)).tolist()]
        fm = None
        if r.flag(f"scene {ident}: has-feature-map"):
            at = r.pos
            c, h, w = r.unpack("<III")
            if 0 in (c, h, w):
                raise r.error(f"scene {ident}: feature map has 0 {['channels', 'rows', 'columns'][(c, h, w).index(0)]}", at)
            try:
                fm = FeatureMap(r.array("<f8", (c, h, w)))
            except ValueError as e:
                raise r.error(f"scene {ident}: {e}", at) from None
            # A non-finite or non-positive extent is refused with the scene below.
            if math.isfinite(width) and math.isfinite(height) and width > 0 and height > 0:
                expect = _feature_grid_shape(width, height)
                if (h, w) != expect:
                    raise r.error(f"scene {ident}: feature map is {h} x {w} cells, a {width:g} x {height:g} image "
                                  f"has {expect[0]} x {expect[1]}", at)
        try:
            scenes.append(Scene(id=ident, width=width, height=height, boxes=boxes, labels=labels, features=fm))
        except ValueError as e:
            raise r.error(str(e), start) from None
    r.end()
    return scenes
