"""Byte-level gates for the two binary formats, model.ubbr and the scene cache.

Every load either refuses the file with a DataFormatError or returns
values that save back to the same bytes; no other exception escapes.
"""

import struct
import tracemalloc
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxregress.errors import DataFormatError
from boxregress.ioutil import check_id
from boxregress.model import MODEL_MAGIC, init_model, load_model, save_model
from boxregress.proposals import read_corner_csv, write_corner_csv
from boxregress.scenes import SCENE_CACHE_MAGIC, Scene, SynthConfig, load_scenes, save_scenes, scene_map, synth_scenes


def saved(path, save, value):
    save(str(path), value)
    return path.read_bytes()


def small_model():
    # 29 header bytes and 59 weights: 501 bytes in all.
    return init_model(2, 1, (5, 4), init_std=0.1, rng=np.random.default_rng(0))


def small_scenes():
    """Synth scenes with maps, a labelled scene with a None label and a map, one without labels or a map."""
    scenes = synth_scenes(SynthConfig(image_size=8, seed=1, max_objects=2), 2)
    labelled = Scene(id="lab", width=12, height=8, boxes=np.array([[3, 3, 2, 2], [8, 4, 3, 2]]), labels=[7, None])
    labelled = replace(labelled, features=scene_map(labelled))
    return scenes + [labelled, Scene(id="nomap", width=20, height=10, boxes=np.array([[5, 5, 4, 4]]))]


FORMATS = {
    "model": (load_model, save_model, small_model),
    "cache": (load_scenes, save_scenes, small_scenes),
}


def corruptions(blob: bytes, rng: np.random.Generator):
    """Every truncation, 1-3 flipped bytes, spliced-in bytes and 1-9-byte extensions of blob."""
    n = len(blob)
    for k in range(n):
        yield blob[:k]
    for _ in range(1000):
        b = bytearray(blob)
        for _ in range(int(rng.integers(1, 4))):
            b[int(rng.integers(n))] ^= int(rng.integers(1, 256))
        yield bytes(b)
    for i in range(200):
        at = int(rng.integers(n + 1))
        if i % 2:
            piece = rng.integers(0, 256, int(rng.integers(1, 10)), dtype=np.uint8).tobytes()
        else:  # a piece of the file itself, so headers and records repeat
            start = int(rng.integers(n))
            piece = blob[start : start + int(rng.integers(1, 40))]
        yield blob[:at] + piece + blob[at:]
    for extra in range(1, 10):
        for _ in range(30):
            yield blob + rng.integers(0, 256, extra, dtype=np.uint8).tobytes()


@pytest.mark.parametrize("kind", sorted(FORMATS))
def test_corrupt_file_is_refused_or_saves_back_the_same(tmp_path, kind):
    load, save, make = FORMATS[kind]
    blob = saved(tmp_path / "orig", save, make())
    path, again = tmp_path / "in", tmp_path / "again"
    outcomes = {"refused": 0, "loaded": 0}
    for data in corruptions(blob, np.random.default_rng(7)):
        path.write_bytes(data)
        try:
            value = load(str(path))
        except DataFormatError as e:
            assert str(e).startswith(f"{path}: ") and "\n" not in str(e)
            outcomes["refused"] += 1
            continue
        assert saved(again, save, value) == data
        outcomes["loaded"] += 1
    # Every truncation, splice and extension is refused; some flips land in values.
    assert outcomes["refused"] >= len(blob) + 200 + 270
    assert outcomes["loaded"] > 0


def test_model_body_cut_mid_weight_names_the_weight_count(tmp_path):
    blob = saved(tmp_path / "m.ubbr", save_model, small_model())
    path = tmp_path / "cut.ubbr"
    path.write_bytes(blob[:-3])
    with pytest.raises(DataFormatError, match=r"expected 59 weights, found 58 and a 5-byte remainder$"):
        load_model(str(path))
    path.write_bytes(blob + b"\0" * 8)
    with pytest.raises(DataFormatError, match=r"expected 59 weights, found 60$"):
        load_model(str(path))


def test_loaded_arrays_own_aligned_writable_memory(tmp_path):
    # The model body starts at byte 29, so views of the file's bytes would be misaligned.
    save_model(str(tmp_path / "m.ubbr"), small_model())
    save_scenes(str(tmp_path / "c.bin"), small_scenes())
    model, scenes = load_model(str(tmp_path / "m.ubbr")), load_scenes(str(tmp_path / "c.bin"))
    arrays = list(model.params().values()) + [s.features.data for s in scenes if s.features is not None]
    arrays += [s.boxes for s in scenes]
    for a in arrays:
        assert a.flags.owndata and a.flags.aligned and a.flags.writeable and a.flags.c_contiguous
        assert a.dtype == np.float64


def test_cut_inside_the_boxes_is_reported_at_the_first_incomplete_box(tmp_path):
    # Boxes before the cut are checked first, so a bad box before it is what is reported.
    scene = Scene(id="s", width=64, height=64, boxes=np.array([[20, 20, 10, 10], [30, 30, 10, 10], [9, 9, 4, 4]]))
    blob = saved(tmp_path / "c.bin", save_scenes, [scene])
    first_box = len(SCENE_CACHE_MAGIC) + 4 + 2 + 1 + 20
    path = tmp_path / "cut.bin"
    path.write_bytes(blob[: first_box + 32 + 17])
    with pytest.raises(DataFormatError, match=f"truncated at byte {first_box + 32}$"):
        load_scenes(str(path))
    bad = bytearray(blob[: first_box + 32 + 17])
    bad[first_box : first_box + 8] = np.float64(np.inf).tobytes()
    path.write_bytes(bytes(bad))
    with pytest.raises(DataFormatError, match=f"byte {first_box}: scene s: box fields must be finite"):
        load_scenes(str(path))


def traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    return peak


def cache_header(n_gts: int) -> bytes:
    """A one-scene cache up to its ground truths: id "a", 64 x 64, n_gts boxes declared."""
    return SCENE_CACHE_MAGIC + struct.pack("<IH1sddI", 1, 1, b"a", 64.0, 64.0, n_gts)


@pytest.mark.parametrize("case", ["gts", "feature-map", "hidden"])
def test_huge_declared_array_is_refused_without_allocating_it(tmp_path, case):
    path = tmp_path / "huge"
    if case == "gts":
        path.write_bytes(cache_header(2**32 - 1) + np.array([[1.0, 1.0, 1.0, 1.0]], "<f8").tobytes())
        load, match = load_scenes, f"truncated at byte {len(cache_header(0)) + 32}$"
    elif case == "feature-map":
        fm_at = len(cache_header(0)) + 2
        path.write_bytes(cache_header(0) + b"\x00\x01" + np.array([65535] * 3, "<u4").tobytes() + b"\0" * 64)
        load, match = load_scenes, f"truncated at byte {fm_at + 12}$"
    else:
        header = np.array([1, 1, 1, 2**31 - 1, 2**31 - 1, 4], "<i4").tobytes()
        path.write_bytes(MODEL_MAGIC + header + b"\0" * 64)
        load, match = load_model, "expected .* weights, found 8$"

    def refuse():
        with pytest.raises(DataFormatError, match=match):
            load(str(path))

    assert traced_peak(refuse) < 1e6



@pytest.mark.parametrize("shape, name", [((0, 2**31, 2**31), "channels"), ((3, 0, 2**31), "rows"),
                                         ((3, 2**31, 0), "columns"), ((0, 0, 0), "channels")])
def test_zero_sized_feature_map_dimension_is_named(tmp_path, shape, name):
    # The other sides' product overflows numpy's size, so reshaping the 0 bytes would fail with numpy's own text.
    path = tmp_path / "zero"
    fm_at = len(cache_header(0)) + 2
    path.write_bytes(cache_header(0) + b"\x00\x01" + np.array(shape, "<u4").tobytes())
    with pytest.raises(DataFormatError, match=f"^{path}: byte {fm_at}: scene a: feature map has 0 {name}$"):
        load_scenes(str(path))


def valid_id(image_id: str) -> bool:
    try:
        check_id(image_id)
    except ValueError:
        return False
    return True


def cache_with_id(ident: bytes) -> bytes:
    """A one-scene cache: the raw id bytes, a 64 x 64 image, no boxes, labels or map."""
    return SCENE_CACHE_MAGIC + struct.pack(f"<IH{len(ident)}sddIBB", 1, len(ident), ident, 64.0, 64.0, 0, 0, 0)


# Ids near every rule: commas, line breaks, Unicode whitespace at either end, inner spaces, and the empty id.
IDS = st.one_of(st.text(st.sampled_from(" ,\r\n\t\x85\u3000ab\u00e9"), max_size=5), st.text(max_size=5))


@settings(max_examples=300, deadline=None, database=None)
@given(IDS)
def test_image_id_round_trips_or_is_refused_everywhere(tmp_path_factory, image_id):
    d = tmp_path_factory.mktemp("ids")
    rows = np.array([[2.0, 2.0, 2.0, 2.0, 1.0]])
    cache, csv = d / "c.bin", str(d / "p.csv")
    if valid_id(image_id):
        write_corner_csv(csv, {image_id: rows})
        assert list(read_corner_csv(csv)) == [image_id]
        cache.write_bytes(cache_with_id(image_id.encode("utf-8")))
        assert [s.id for s in load_scenes(str(cache))] == [image_id]
        return
    with pytest.raises(ValueError):
        write_corner_csv(csv, {image_id: rows})
    assert not (d / "p.csv").exists()
    with pytest.raises(ValueError, match="image id"):
        Scene(id=image_id, width=64, height=64, boxes=np.empty((0, 4)))
    # A scene's id is checked once and cannot be set again, so save_scenes never sees a bad one.
    scene = Scene(id="a", width=64, height=64, boxes=np.empty((0, 4)))
    with pytest.raises(FrozenInstanceError):
        scene.id = image_id
    with pytest.raises(ValueError, match="image id"):
        replace(scene, id=image_id)
    assert not cache.exists()
    cache.write_bytes(cache_with_id(image_id.encode("utf-8", "surrogatepass")))
    with pytest.raises(DataFormatError, match="image id|not valid UTF-8"):
        load_scenes(str(cache))


FINITE = st.floats(allow_nan=False, allow_infinity=False, width=64)


@st.composite
def models(draw):
    channels, pool = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    hidden = (draw(st.integers(1, 6)), draw(st.integers(1, 6)))
    model = init_model(channels, pool, hidden, init_std=1.0, rng=np.random.default_rng(draw(st.integers(0, 2**32))))
    # A few drawn weights stand in for the edges: -0.0, subnormals, huge values.
    for p in model.params().values():
        for _ in range(draw(st.integers(0, 2))):
            p.flat[draw(st.integers(0, p.size - 1))] = draw(FINITE)
    return model


@st.composite
def scene_lists(draw):
    scenes = []
    for k in range(draw(st.integers(0, 4))):
        width, height = draw(st.floats(1.0, 40.0)), draw(st.floats(1.0, 40.0))
        gts = [
            [draw(st.floats(0.0, width)), draw(st.floats(0.0, height)),
             draw(st.floats(0.01, width)), draw(st.floats(0.01, height))]
            for _ in range(draw(st.integers(0, 3)))
        ]
        labels = draw(st.none() | st.lists(st.none() | st.integers(0, 2**31 - 1), min_size=len(gts), max_size=len(gts)))
        # A leading index keeps ids distinct; st.text draws no lone surrogates.
        ident = f"{k}{draw(st.text(max_size=6).filter(lambda t: valid_id(f'{k}{t}')))}"
        scene = Scene(id=ident, width=width, height=height, boxes=np.array(gts).reshape(-1, 4), labels=labels)
        if draw(st.booleans()):
            fm = scene_map(scene)
            fm.data.flat[0] = draw(FINITE)
            scene = replace(scene, features=fm)
        scenes.append(scene)
    return scenes


@settings(max_examples=60, deadline=None, database=None)
@given(models())
def test_model_round_trip_is_byte_identical(tmp_path_factory, model):
    d = tmp_path_factory.mktemp("m")
    blob = saved(d / "a.ubbr", save_model, model)
    assert saved(d / "b.ubbr", save_model, load_model(str(d / "a.ubbr"))) == blob


@settings(max_examples=60, deadline=None, database=None)
@given(scene_lists())
def test_scene_cache_round_trip_is_byte_identical(tmp_path_factory, scenes):
    d = tmp_path_factory.mktemp("c")
    blob = saved(d / "a.bin", save_scenes, scenes)
    loaded = load_scenes(str(d / "a.bin"))
    assert [(s.id, s.width, s.height, s.boxes.tolist(), s.labels) for s in loaded] == \
        [(s.id, s.width, s.height, s.boxes.tolist(), s.labels) for s in scenes]
    assert saved(d / "b.bin", save_scenes, loaded) == blob
