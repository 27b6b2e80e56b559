"""File edges: atomic writes, and the one path from an input file's bytes to values.

Every input reader opens its file through `open_input`, so a file that
cannot be opened or read, or a text file that is not UTF-8, is a
DataFormatError naming the path. The binary loaders parse through
`BinaryReader`, which checks each read against the bytes left before
anything is allocated and gives the byte offset of what it refuses.
"""

from __future__ import annotations

import contextlib
import math
import os
import struct
import tempfile

import numpy as np

from .errors import DataFormatError


@contextlib.contextmanager
def atomic_write(path: str, mode: str = "w"):
    """Open a temp file for writing; on success move it onto path.

    Interrupted writes never leave a truncated file at the destination.
    """
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=os.path.basename(path) + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, mode) as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def check_id(image_id: str) -> None:
    """Refuse (ValueError) an image id a corner-CSV field cannot carry unchanged, since the reader strips it."""
    if not image_id.encode("utf-8") or image_id != image_id.strip() or any(c in image_id for c in ",\r\n"):
        raise ValueError(f"image id {image_id!r} is empty or has a comma, a line break or whitespace at an end")


@contextlib.contextmanager
def open_input(path: str, mode: str = "r"):
    """Open an input file, as UTF-8 text unless mode is binary.

    An OSError or UnicodeDecodeError raised in the block becomes a
    DataFormatError naming the path. A reader that can say more about
    bad text catches UnicodeDecodeError inside the block itself.
    """
    try:
        with open(path, mode, encoding=None if "b" in mode else "utf-8") as f:
            yield f
    except OSError as e:
        raise DataFormatError(f"{path}: {e}") from None
    except UnicodeDecodeError as e:
        raise DataFormatError(f"{path}: not valid UTF-8: {e.reason}") from None


class BinaryReader:
    """A cursor over the bytes of one binary input file; each read is checked against the bytes left."""

    def __init__(self, path: str):
        with open_input(path, "rb") as f:
            self.view = memoryview(f.read())
        self.path, self.pos = path, 0

    def left(self) -> int:
        return len(self.view) - self.pos

    def error(self, message: str, at: int | None = None) -> DataFormatError:
        """A refusal naming the path and, if given, the byte offset `at`."""
        return DataFormatError(f"{self.path}: {'' if at is None else f'byte {at}: '}{message}")

    def take(self, n: int) -> memoryview:
        """The next n bytes, without a copy."""
        if n > self.left():
            raise self.error(f"truncated at byte {self.pos}")
        self.pos += n
        return self.view[self.pos - n : self.pos]

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def flag(self, what: str) -> bool:
        """One byte that must be 0 or 1, since no other value would be written back the same."""
        (value,) = self.take(1)
        if value > 1:
            raise self.error(f"{what} flag must be 0 or 1, got {value}", self.pos - 1)
        return value == 1

    def array(self, dtype: str, shape: tuple[int, ...]) -> np.ndarray:
        """The next values of a shape as a new aligned, writable, C-contiguous array.

        The byte count is a Python int, so a huge shape is refused as truncated before anything is allocated.
        """
        data = self.take(math.prod(shape) * np.dtype(dtype).itemsize)
        return np.frombuffer(data, dtype=dtype).reshape(shape).copy()

    def end(self) -> None:
        if self.left():
            raise self.error(f"{self.left()} trailing bytes")
