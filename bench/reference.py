"""Fixed CPU kernels that measure how fast this machine is right now.

    python3 bench/reference.py parse   # prints the parse kernel's seconds

On a shared host the speed of one core drifts by a quarter or more over
a few minutes, and memory-heavy work drifts more than arithmetic. That
swamps the differences the benchmark exists to see. A workload whose
time goes into the same kind of work as one of these kernels has that
kernel timed right before and after every operation, and the
operation's time is scaled to the speed at which the kernel takes its
reference seconds:

- numpy_seconds(): broadcast elementwise arithmetic, gathers from a
  small feature grid and small matrix products, in this process (the
  training loop's kind of work).
- loop_seconds(): a greedy pick-and-decay loop of small numpy calls
  over 3072 boxes, in this process (decay NMS's kind of work).
- parse_seconds(): in a fresh process, split and parse 150,000
  proposal-style CSV lines into fresh validated objects (reading a
  proposals file, where first-touch allocation costs as much as parsing).

The kernels do not use boxregress, so no change to the library can
move them.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
import time

import numpy as np

_rng = np.random.default_rng(0)
_BOXES = _rng.uniform(0.0, 128.0, (3072, 4))
_GRID = _rng.random((3, 32, 32))
_IDX = _rng.integers(0, 32, (2, 1024, 7, 7))
_X = _rng.random((128, 147))
_W = _rng.random((147, 256))


def numpy_seconds() -> float:
    """Run the numpy kernel once; returns seconds."""
    start = time.perf_counter()
    acc = 0.0
    for row in range(0, 4096, 256):
        a = _BOXES[row % 1024 : row % 1024 + 256]
        iw = np.minimum(a[:, None, 2], _BOXES[None, :, 2]) - np.maximum(a[:, None, 0], _BOXES[None, :, 0])
        acc += float((np.maximum(iw, 0.0) > 1.0).sum())
    for _ in range(90):
        acc += float(_GRID[:, _IDX[0], _IDX[1]].sum())
    for _ in range(350):
        acc += float(np.maximum(_X @ _W, 0.0).sum())
    return time.perf_counter() - start


def loop_seconds() -> float:
    """A greedy decay loop over 3072 boxes, like decay NMS; returns seconds.

    Each of 1500 steps picks the best remaining score, computes one row
    of IoU against every box and divides the overlapping scores.
    """
    lo = _BOXES[:, :2]
    hi = lo + 1.0 + _BOXES[:, 2:] / 4.0
    area = np.prod(hi - lo, axis=1)
    scores = np.arange(3072, dtype=np.float64) % 97
    remaining = np.ones(3072, dtype=bool)
    start = time.perf_counter()
    for _ in range(1500):
        pick = int(np.argmax(np.where(remaining, scores, -np.inf)))
        remaining[pick] = False
        wh = np.clip(np.minimum(hi[pick], hi) - np.maximum(lo[pick], lo), 0.0, None)
        inter = wh[:, 0] * wh[:, 1]
        overlaps = inter / (area[pick] + area - inter)
        scores[remaining & (overlaps > 0.6)] /= 10.0
    return time.perf_counter() - start


class _Box:
    __slots__ = ("x", "y", "w", "h")

    def __init__(self, x, y, w, h):
        if not all(map(math.isfinite, (x, y, w, h))) or w <= 0 or h <= 0:
            raise ValueError("bad box")
        self.x, self.y, self.w, self.h = x, y, w, h


def _parse_kernel() -> float:
    """Parse 150,000 proposal-style CSV lines into fresh objects; returns seconds.

    Only the parse is timed: strip, split, float(), a validated box object
    and a (box, score) pair per line, grouped per image id.
    """
    rng = np.random.default_rng(1)
    values = rng.uniform(0.0, 128.0, (150_000, 5)).tolist()
    lines = [f"img-{i % 200:04d},{a!r},{b!r},{a + c!r},{b + d!r},{e!r}\n" for i, (a, b, c, d, e) in enumerate(values)]
    start = time.perf_counter()
    out: dict = {}
    for line in lines:
        parts = line.strip().split(",")
        xmin, ymin, xmax, ymax, score = (float(v) for v in parts[1:])
        box = _Box(0.5 * (xmin + xmax), 0.5 * (ymin + ymax), xmax - xmin, ymax - ymin)
        out.setdefault(parts[0], []).append((box, score))
    return time.perf_counter() - start


def parse_seconds() -> float:
    proc = subprocess.run([sys.executable, os.path.abspath(__file__), "parse"],
                          capture_output=True, text=True, timeout=60, check=True)
    return float(proc.stdout)


# name -> (function timing the kernel once, seconds it takes at the
# reference speed); scaled timings are reported as if measured at that
# speed.
KERNELS = {
    "numpy": (numpy_seconds, 0.25),
    "loop": (loop_seconds, 0.2),
    "parse": (parse_seconds, 0.75),
}


if __name__ == "__main__" and sys.argv[1:] == ["parse"]:
    print(repr(_parse_kernel()))
