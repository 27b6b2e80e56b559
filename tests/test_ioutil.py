import os
import re
import struct
import tracemalloc

import numpy as np
import pytest

from boxregress.errors import DataFormatError
from boxregress.ioutil import BinaryReader, atomic_write, open_input


def test_success_creates_file(tmp_path):
    path = str(tmp_path / "out.txt")
    with atomic_write(path) as f:
        f.write("hello")
    assert open(path).read() == "hello"


def test_failure_leaves_no_output(tmp_path):
    path = str(tmp_path / "out.txt")
    with pytest.raises(RuntimeError):
        with atomic_write(path) as f:
            f.write("partial")
            raise RuntimeError("interrupted")
    assert not os.path.exists(path)
    assert os.listdir(str(tmp_path)) == []  # temp file cleaned up


def test_failure_preserves_previous_content(tmp_path):
    path = str(tmp_path / "out.txt")
    with atomic_write(path) as f:
        f.write("first")
    with pytest.raises(RuntimeError):
        with atomic_write(path) as f:
            f.write("second-partial")
            raise RuntimeError("interrupted")
    assert open(path).read() == "first"


def test_creates_parent_directories(tmp_path):
    path = str(tmp_path / "a" / "b" / "out.txt")
    with atomic_write(path) as f:
        f.write("x")
    assert open(path).read() == "x"


class TestOpenInput:
    def test_missing_file_names_the_path(self, tmp_path):
        path = str(tmp_path / "missing.txt")
        with pytest.raises(DataFormatError, match=f"^{re.escape(path)}: .*No such file"):
            with open_input(path) as f:
                f.read()

    def test_text_that_is_not_utf8(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_bytes(b"ok\n\xff\n")
        with pytest.raises(DataFormatError, match=f"^{re.escape(str(path))}: not valid UTF-8: invalid start byte$"):
            with open_input(str(path)) as f:
                f.read()

    def test_other_errors_pass_through(self, tmp_path):
        path = tmp_path / "ok.txt"
        path.write_text("x")
        with pytest.raises(KeyError):
            with open_input(str(path)):
                raise KeyError("not an input error")


class TestBinaryReader:
    def reader(self, tmp_path, data: bytes) -> BinaryReader:
        path = tmp_path / "in.bin"
        path.write_bytes(data)
        return BinaryReader(str(path))

    def test_reads_advance_and_end(self, tmp_path):
        r = self.reader(tmp_path, b"AB" + struct.pack("<Hd", 7, 1.5) + b"\x01" + np.arange(6, dtype="<i4").tobytes())
        assert bytes(r.take(2)) == b"AB"
        assert r.unpack("<Hd") == (7, 1.5)
        assert r.flag("f") is True
        assert r.array("<i4", (2, 3)).tolist() == [[0, 1, 2], [3, 4, 5]]
        assert r.left() == 0
        r.end()

    def test_refusals_give_byte_offsets(self, tmp_path):
        r = self.reader(tmp_path, b"\x00\x02abc")
        assert r.flag("first") is False
        with pytest.raises(DataFormatError, match=r"in\.bin: byte 1: second flag must be 0 or 1, got 2$"):
            r.flag("second")
        with pytest.raises(DataFormatError, match=r"in\.bin: truncated at byte 2$"):
            r.unpack("<I")
        assert r.pos == 2  # a refused read takes nothing
        with pytest.raises(DataFormatError, match=r"in\.bin: 3 trailing bytes$"):
            r.end()
        assert str(r.error("bad", at=9)).endswith("in.bin: byte 9: bad")

    def test_array_is_aligned_owned_and_writable(self, tmp_path):
        # One byte in, as a model's body starts at byte 29: a view would be misaligned.
        r = self.reader(tmp_path, b"\x00" + np.arange(4, dtype="<f8").tobytes())
        r.take(1)
        a = r.array("<f8", (2, 2))
        assert a.flags.owndata and a.flags.aligned and a.flags.writeable and a.flags.c_contiguous
        assert a.tolist() == [[0.0, 1.0], [2.0, 3.0]]

    def test_huge_array_is_refused_before_allocating(self, tmp_path):
        r = self.reader(tmp_path, b"\x00" * 64)
        tracemalloc.start()
        try:
            with pytest.raises(DataFormatError, match="truncated at byte 0"):
                r.array("<f8", (65535, 65535, 65535))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6
