"""Run one boxregress CLI command in this fresh process and report on it.

    python3 bench/op.py SRC_DIR RESULT_JSON TRACE -- CLI_ARGS...

Imports boxregress from SRC_DIR, optionally installs the tracer, calls
`boxregress.cli.main(CLI_ARGS)` and writes its exit code, wall seconds,
peak resident set and (when TRACE is 1) the span summary to RESULT_JSON.
The caller sets the thread-pin variables in the environment, so they
are in force before numpy is first imported here.
"""

from __future__ import annotations

import json
import sys
import time


def peak_rss_mb() -> float:
    # VmHWM belongs to this process's own address space; getrusage's
    # maxrss can carry over the parent's size across fork and exec.
    with open("/proc/self/status", "r", encoding="ascii") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


def main() -> int:
    src, result_path, trace = sys.argv[1], sys.argv[2], sys.argv[3] == "1"
    argv = sys.argv[sys.argv.index("--") + 1 :]
    sys.path.insert(0, src)
    import boxregress.cli

    tracer = None
    if trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    start = time.perf_counter()
    code = boxregress.cli.main(argv)
    wall = time.perf_counter() - start
    result = {"code": code, "wall_s": wall, "peak_rss_mb": peak_rss_mb()}
    if tracer is not None:
        result["trace"] = tracer.summary()
    with open(result_path, "w", encoding="utf-8") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
