"""Spans and counts around library calls, recorded from outside the library.

`Tracer` replaces each target function with a wrapper in every `quatnil`
module namespace that holds it (methods are replaced on their class), and
puts the originals back on exit. Nothing in `src/` knows about it.

A span is (name, start_ns, end_ns, parent index, instance id). A layer's
self time is its span's duration minus the time its child spans cover.
`Quaternion.__mul__` runs millions of times, so it only gets a call count
and a summed timer, not spans; its time stays inside the caller's self time.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
import types
from collections import Counter

from quatnil.errors import SearchBudgetExceeded

# layer name -> (module, attribute path); two targets may share one layer name
SPAN_TARGETS = [
    ("qcore.sqrt_pure", "quatnil.qcore", "sqrt_pure"),
    ("qcore.conjugator", "quatnil.qcore", "conjugator"),
    ("ratlin.rref", "quatnil.ratlin", "rref"),
    ("qlinalg.matmul", "quatnil.qlinalg", "QMatrix.__mul__"),
    ("qlinalg.row_reduce", "quatnil.qlinalg", "row_reduce"),
    ("qlinalg.witness_check", "quatnil.qlinalg", "SimilarityWitness.__post_init__"),
    ("qlinalg.is_nilpotent", "quatnil.qlinalg", "is_nilpotent"),
    ("spectral.unispectral", "quatnil.spectral", "unispectral_diagonalizable"),
    ("spectral.eigenvectors_for", "quatnil.spectral", "eigenvectors_for"),
    ("classify.decide", "quatnil.classify", "is_sum_of_two_nilpotents"),
    ("classify.classify", "quatnil.classify", "classify"),
    ("classify.detect_type_II", "quatnil.classify", "detect_type_II"),
    ("decompose.path.2x2", "quatnil.decompose", "_diag_zero_2x2"),
    ("decompose.path.type_ii", "quatnil.decompose", "_diag_zero_type_ii"),
    ("decompose.path.3x3", "quatnil.decompose", "_diag_zero_3x3"),
    ("decompose.path.large", "quatnil.decompose", "_diag_zero_large"),
    ("decompose.verify", "quatnil.decompose", "verify_decomposition"),
    ("jsonio.dump", "quatnil.jsonio", "decomposition_to_json"),
    ("jsonio.load", "quatnil.jsonio", "decomposition_from_json"),
    ("jsonio.load", "quatnil.jsonio", "matrix_from_json"),
    ("cli.check", "quatnil.cli", "cmd_check"),
]
HOT_TARGETS = [("qcore.qmul", "quatnil.qcore", "Quaternion.__mul__")]
# generator functions: count what they yield and how many searches they serve
SEARCH_TARGETS = [
    ("decompose.vector_candidates", "quatnil.decompose", "_vector_candidates"),
    ("decompose.perturbations", "quatnil.decompose", "_perturbation_lists"),
]

_now = time.perf_counter_ns


def _resolve(module: str, path: str):
    """(owner, attribute, original) for `path` inside `module`."""
    owner = importlib.import_module(module)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr, getattr(owner, attr)


def _holders(owner, attr, original):
    """Every namespace that must see the wrapper: the class, or each module holding it."""
    if isinstance(owner, type):
        return [owner]
    mods = [m for n, m in list(sys.modules.items()) if n == "quatnil" or n.startswith("quatnil.")]
    return [m for m in mods if m is not None and m.__dict__.get(attr) is original]


def _observe(tracer: "Tracer", layer: str, args, result, exc) -> None:
    """Per-layer counts that need a call's arguments or outcome."""
    counts = tracer.counts
    if layer == "qcore.sqrt_pure":
        if isinstance(exc, SearchBudgetExceeded):
            counts["qcore.sqrt_pure.exhausted"] += 1
        elif exc is None and result is None:
            counts["qcore.sqrt_pure.none"] += 1
    elif layer == "spectral.unispectral" and exc is None and result is not None:
        counts["spectral.unispectral.certified"] += 1
    elif layer == "ratlin.rref":
        rows = args[0]
        counts["ratlin.rref.max_cols"] = max(counts["ratlin.rref.max_cols"], len(rows[0]) if rows else 0)


class Tracer:
    """Installs wrappers on enter, restores the originals on exit."""

    def __init__(self):
        self.spans: list = []
        self.calls: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.hot_ns: Counter = Counter()
        self.counts: Counter = Counter()
        self.depth_max: Counter = Counter()
        self.instance = None
        self._stack: list = []
        self._active: Counter = Counter()
        self._patches: list = []

    # -- wrappers ---------------------------------------------------------

    def _span_wrapper(self, layer, fn):
        spans, stack, calls, self_ns = self.spans, self._stack, self.calls, self.self_ns
        active, depth_max = self._active, self.depth_max

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            frame = [idx, 0]
            parent = stack[-1][0] if stack else -1
            stack.append(frame)
            active[layer] += 1
            depth_max[layer] = max(depth_max[layer], active[layer])
            start = _now()
            exc = result = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                raise
            finally:
                end = _now()
                stack.pop()
                active[layer] -= 1
                duration = end - start
                self_ns[layer] += duration - frame[1]
                calls[layer] += 1
                if stack:
                    stack[-1][1] += duration
                spans[idx] = (layer, start, end, parent, self.instance)
                _observe(self, layer, args, result, exc)

        return wrapper

    def _hot_wrapper(self, layer, fn):
        calls, hot_ns = self.calls, self.hot_ns

        @functools.wraps(fn)
        def wrapper(*args):
            start = _now()
            result = fn(*args)
            hot_ns[layer] += _now() - start
            calls[layer] += 1
            return result

        return wrapper

    def _search_wrapper(self, layer, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[layer + ".searches"] += 1
            for item in fn(*args, **kwargs):
                counts[layer + ".tried"] += 1
                yield item

        return wrapper

    # -- install / restore ------------------------------------------------

    def __enter__(self) -> "Tracer":
        plan = []
        for targets, make in (
            (SPAN_TARGETS, self._span_wrapper),
            (HOT_TARGETS, self._hot_wrapper),
            (SEARCH_TARGETS, self._search_wrapper),
        ):
            for layer, module, path in targets:
                owner, attr, original = _resolve(module, path)
                plan.append((layer, make, owner, attr, original))
        try:
            for layer, make, owner, attr, original in plan:
                wrapper = make(layer, original)
                wrapper.traced_layer = layer
                for holder in _holders(owner, attr, original):
                    self._patches.append((holder, attr, original))
                    setattr(holder, attr, wrapper)
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc_info) -> None:
        self.restore()

    def restore(self) -> None:
        while self._patches:
            holder, attr, original = self._patches.pop()
            setattr(holder, attr, original)

    # -- results ----------------------------------------------------------

    def self_ms(self, layer: str) -> float:
        return self.self_ns[layer] / 1e6

    def write_spans(self, path, phase: str) -> None:
        with open(path, "a") as fh:
            for name, start, end, parent, instance in self.spans:
                fh.write(json.dumps([phase, name, start, end, parent, instance]) + "\n")


def assert_untraced() -> None:
    """Raise if a wrapper is left in any `quatnil` module namespace or class."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "quatnil" or name.startswith("quatnil.")):
            continue
        for attr, value in vars(module).items():
            found = [(attr, value)]
            if isinstance(value, type):
                found += [(f"{attr}.{key}", item) for key, item in vars(value).items()]
            for where, item in found:
                if isinstance(item, types.FunctionType) and hasattr(item, "traced_layer"):
                    raise RuntimeError(f"{name}.{where} is still wrapped")
