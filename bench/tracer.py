"""Per-layer tracing of derlab from outside the library.

`Tracer.install()` wraps the public functions of each layer module (and
the public methods of the classes defined there) and rebinds every
`derlab.*` namespace that imported the original, because the library
imports by name (`from .field import rref`): patching `derlab.field`
alone would miss most calls.  `uninstall()` restores every binding.

Each wrapped call records a span (name, parent, start, end) tagged with the
id of the benchmark item that caused it.  Spans stay in memory until the
run ends; self time per layer is computed from them afterwards (span
duration minus the duration of its direct children).  Counters are kept at
the same boundaries:

- calls per wrapped function;
- field eliminations, counted only at the outermost field span, with the
  number of matrix cells handed to that call;
- content-keyed repeat counts for `modules.hom_space`,
  `modules.free_cover` and `gorenstein.is_gproj`, scoped to one item;
- iso-search candidates: `is_stable_iso_map` calls made under
  `modules.is_stable_iso`, and how many of them found a stable inverse.

Wrappers do nothing but call through while `enabled` is false, so set-up
and input generation between items are not traced.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from typing import Callable, Dict, List, Tuple

LAYERS = ("field", "modules", "cats", "diagrams", "gorenstein", "homotopy", "complexes", "dgkan", "cli")

# Class methods wrapped besides the public ones: construction and arithmetic.
WRAPPED_DUNDERS = {"__init__", "__matmul__", "__add__", "__sub__", "__neg__"}

ELIMINATIONS = {
    "rref",
    "rank",
    "solve",
    "solve_left",
    "kernel_basis",
    "column_space_basis",
    "in_column_span",
    "subspaces_equal",
    "invert",
}

SMALL_ELIMINATION_CELLS = 256


def _alg_key(alg) -> Tuple:
    return (alg.p, alg.mul.shape, alg.mul.tobytes(), alg.unit.tobytes())


def _module_key(m) -> Tuple:
    return (_alg_key(m.alg), m.dim, tuple(a.a.tobytes() for a in m.action))


def _diagram_key(x) -> Tuple:
    shape = x.shape
    return (
        tuple(shape.objects),
        tuple(sorted(shape.morphisms.items())),
        tuple(_module_key(x.at(o)) for o in shape.objects),
        tuple((f, x.mats[f].a.tobytes()) for f in sorted(x.mats)),
    )


# Content keys for the calls whose repeat share is reported.
REPEAT_KEYS: Dict[str, Callable[..., Tuple]] = {
    "modules.hom_space": lambda m, n, *a, **k: (_module_key(m), _module_key(n)),
    "modules.free_cover": lambda m, *a, **k: _module_key(m),
    "gorenstein.is_gproj": lambda x, *a, **k: _diagram_key(x),
}


class Tracer:
    def __init__(self) -> None:
        self.enabled = False
        self.item = -1
        self.names: List[str] = []
        self.name_index: Dict[str, int] = {}
        self.layer_of: List[int] = []
        # span storage, one entry per span
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_item = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: List[int] = []
        self.calls: Dict[str, int] = {}
        self.field_depth = 0
        self.iso_search_depth = 0
        self.elim_cells: List[int] = []
        self.repeat_seen: Dict[str, set] = {k: set() for k in REPEAT_KEYS}
        self.repeats: Dict[str, int] = {k: 0 for k in REPEAT_KEYS}
        self.iso_candidates = 0
        self.iso_hits = 0
        self._patches: List[Tuple[object, str, object]] = []
        self._mat = None  # derlab.field.Mat, bound by install()

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer's public callables and rebind all references."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        self._mat = importlib.import_module("derlab.field").Mat
        originals: Dict[int, object] = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"derlab.{layer}")
            for attr, value in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if callable(value) and not isinstance(value, type) and getattr(value, "__module__", None) == mod.__name__:
                    originals[id(value)] = self._wrap(value, f"{layer}.{attr}", layer)
                elif isinstance(value, type) and value.__module__ == mod.__name__:
                    self._wrap_class(value, layer)
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "derlab" or name.startswith("derlab.")):
                continue
            for attr, value in list(vars(mod).items()):
                wrapper = originals.get(id(value))
                if wrapper is not None:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def _wrap_class(self, cls: type, layer: str) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr not in WRAPPED_DUNDERS:
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(raw, staticmethod):
                wrapped = staticmethod(self._wrap(raw.__func__, name, layer))
            elif isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(raw.__func__, name, layer))
            elif callable(raw) and not isinstance(raw, type):
                wrapped = self._wrap(raw, name, layer)
            else:
                continue  # properties and plain attributes
            self._patches.append((cls, attr, raw))
            setattr(cls, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def _intern(self, name: str, layer: str) -> int:
        if name not in self.name_index:
            self.name_index[name] = len(self.names)
            self.names.append(name)
            self.layer_of.append(LAYERS.index(layer))
            self.calls[name] = 0
        return self.name_index[name]

    def _wrap(self, fn: Callable, name: str, layer: str) -> Callable:
        sid = self._intern(name, layer)
        is_field = layer == "field"
        is_elim = is_field and name.split(".")[-1] in ELIMINATIONS
        repeat_key = REPEAT_KEYS.get(name)
        is_iso_search = name == "modules.is_stable_iso"
        is_iso_candidate = name == "modules.is_stable_iso_map"
        tracer = self
        perf = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            tracer.calls[name] += 1
            if is_elim and tracer.field_depth == 0:
                tracer.elim_cells.append(sum(a.a.size for a in args if isinstance(a, tracer._mat)))
            if repeat_key is not None:
                key = repeat_key(*args, **kwargs)
                seen = tracer.repeat_seen[name]
                if key in seen:
                    tracer.repeats[name] += 1
                else:
                    seen.add(key)
            stack = tracer.stack
            idx = len(tracer.span_start)
            tracer.span_name.append(sid)
            tracer.span_parent.append(stack[-1] if stack else -1)
            tracer.span_item.append(tracer.item)
            tracer.span_start.append(0.0)
            tracer.span_end.append(0.0)
            stack.append(idx)
            if is_field:
                tracer.field_depth += 1
            if is_iso_search:
                tracer.iso_search_depth += 1
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                tracer.span_start[idx] = t0
                tracer.span_end[idx] = t1
                if is_field:
                    tracer.field_depth -= 1
                if is_iso_search:
                    tracer.iso_search_depth -= 1
            if is_iso_candidate and tracer.iso_search_depth:
                tracer.iso_candidates += 1
                tracer.iso_hits += bool(result[0])
            return result

        return wrapper

    # -- items ---------------------------------------------------------------

    def begin_item(self, item: int) -> None:
        """Tag later spans with this item and reset the per-item repeat scope."""
        self.item = item
        for seen in self.repeat_seen.values():
            seen.clear()

    # -- summary -------------------------------------------------------------

    def layer_self_times(self) -> Dict[str, float]:
        import numpy as np

        n = len(self.span_start)
        out = {layer: 0.0 for layer in LAYERS}
        if n == 0:
            return out
        start = np.frombuffer(self.span_start, dtype=np.float64)
        end = np.frombuffer(self.span_end, dtype=np.float64)
        parent = np.frombuffer(self.span_parent, dtype=np.int64)
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        layer = np.asarray(self.layer_of, dtype=np.int64)[np.frombuffer(self.span_name, dtype=np.int32)]
        per_layer = np.bincount(layer, weights=dur - child, minlength=len(LAYERS))
        for i, name in enumerate(LAYERS):
            out[name] = float(per_layer[i])
        return out

    def span_count(self) -> int:
        return len(self.span_start)

    def item_count(self) -> int:
        return len(set(self.span_item))
