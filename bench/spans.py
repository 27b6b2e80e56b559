"""Per-layer tracing of boxregress from outside the library.

`Tracer.install()` imports every `boxregress.*` module, wraps each public
function defined there and rebinds the wrapper under every name that
refers to the original in any `boxregress.*` module, so calls made
through `from .boxes import iou_pairwise` are traced as well. Each call
records a span (name, start, end, parent) in memory. `summary()` turns
the spans into per-function calls, inclusive seconds and self seconds
(inclusive minus the time covered by traced callees), both in total and
split by the nearest traced caller.

Functions the benchmark expects but the library no longer has are
reported as absent rather than failing the run.
"""

from __future__ import annotations

import importlib
import inspect
import os
import pkgutil
import time
import warnings
from collections import Counter, defaultdict


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _size(args, kwargs, pos, name):
    return os.path.getsize(_arg(args, kwargs, pos, name))


# Work counts recorded per call, beyond calls and seconds: each maps the
# call's (args, kwargs, result) to a number.
QUANTITIES = {
    "sampling.generate_training_boxes": {"boxes": lambda a, k, r: len(r)},
    "features.roi_align_many": {"rows": lambda a, k, r: len(r)},
    "losses.iou_loss_terms_batch": {"rows": lambda a, k, r: len(r[0])},
    "model.loss_and_weight_grads": {
        "rows": lambda a, k, r: len(_arg(a, k, 1, "x")),
        "fallbacks": lambda a, k, r: r[2],
    },
    "model.train": {"epochs": lambda a, k, r: len(r[1])},
    "model.refine": {"rows": lambda a, k, r: len(_arg(a, k, 2, "boxes"))},
    "boxes.iou_pairwise": {"pairs": lambda a, k, r: r.size},
    "boxes.boxes_to_array": {"rows": lambda a, k, r: len(r)},
    "boxes.boxes_from_array": {"rows": lambda a, k, r: len(r)},
    "proposals.seed_grid": {"seeds": lambda a, k, r: len(r)},
    "proposals.score_proposals": {"rows": lambda a, k, r: len(r), "neighbors": lambda a, k, r: sum(r)},
    "proposals.decay_nms": {"rows": lambda a, k, r: len(r)},
    "proposals.save_proposals": {"bytes": lambda a, k, r: _size(a, k, 0, "path")},
    "proposals.load_proposals": {
        "rows": lambda a, k, r: sum(map(len, r.values())),
        "bytes": lambda a, k, r: _size(a, k, 0, "path"),
    },
    "scenes.load_scenes": {"bytes": lambda a, k, r: _size(a, k, 0, "path")},
}

# Methods counted per call without a span: (module, class, method).
COUNTED_METHODS = {"boxes.Box.inits": ("boxes", "Box", "__post_init__")}


class Tracer:
    def __init__(self):
        self.spans: list = []  # [name, start, end, parent index or -1], in call order
        self._stack: list[int] = []
        self.quantities: dict = defaultdict(Counter)  # (name, parent name) -> quantity -> total
        self.counts: Counter = Counter()
        self.warnings: Counter = Counter()
        self.traced: set[str] = set()
        self.quantity_errors: Counter = Counter()

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        quantities = QUANTITIES.get(name, {})
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            span = [name, 0.0, 0.0, parent]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if quantities:
                key = (name, spans[parent][0] if parent >= 0 else None)
                for q, measure in quantities.items():
                    try:
                        self.quantities[key][q] += measure(args, kwargs, result)
                    except (TypeError, IndexError, KeyError, AttributeError, OSError):
                        self.quantity_errors[f"{name}.{q}"] += 1
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, package: str = "boxregress"):
        pkg = importlib.import_module(package)
        modules = [pkg] + [
            importlib.import_module(f"{package}.{info.name}")
            for info in pkgutil.iter_modules(pkg.__path__)
        ]
        wrappers = {}
        for mod in modules:
            short = mod.__name__[len(package) + 1 :]
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                wrappers[obj] = self._wrap(f"{short}.{attr}", obj)
                self.traced.add(f"{short}.{attr}")
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(mod, attr, wrappers[obj])

        for metric, (mod_name, cls_name, method) in COUNTED_METHODS.items():
            cls = getattr(importlib.import_module(f"{package}.{mod_name}"), cls_name, None)
            orig = getattr(cls, method, None)
            if orig is None:
                continue
            self.traced.add(metric)
            setattr(cls, method, self._counted(metric, orig))

        def count_warning(message, category, filename, lineno, file=None, line=None):
            self.warnings[category.__name__] += 1

        warnings.simplefilter("always")
        warnings.showwarning = count_warning

    def _counted(self, metric: str, orig):
        counts = self.counts

        def counted(obj, *args, **kwargs):
            counts[metric] += 1
            return orig(obj, *args, **kwargs)

        return counted

    def summary(self) -> dict:
        """Per-function and per-(function, caller) calls, seconds and quantities.

        Returns {"functions": {name: stats}, "by_caller": {name: {caller: stats}},
        "counts": {...}, "warnings": {...}} where stats hold calls, s (inclusive),
        self_s and any recorded quantities.
        """
        covered = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        functions: dict = defaultdict(Counter)
        by_caller: dict = defaultdict(lambda: defaultdict(Counter))
        for idx, (name, start, end, parent) in enumerate(self.spans):
            caller = self.spans[parent][0] if parent >= 0 else None
            for stats in (functions[name], by_caller[name][caller]):
                stats["calls"] += 1
                stats["s"] += end - start
                stats["self_s"] += end - start - covered[idx]
        for (name, caller), qs in self.quantities.items():
            for q, v in qs.items():
                functions[name][q] += v
                by_caller[name][caller][q] += v
        return {
            "functions": {k: dict(v) for k, v in functions.items()},
            "by_caller": {k: {str(c): dict(s) for c, s in v.items()} for k, v in by_caller.items()},
            "counts": dict(self.counts),
            "warnings": dict(self.warnings),
            "quantity_errors": dict(self.quantity_errors),
            "traced": sorted(self.traced),
        }
