"""Span tracer that wraps z2torus functions where their callers look them up.

Modules import each other's functions by name (`from .model import
formality_verdict`), so a function is wrapped in every z2torus module
namespace that holds it, and a method on its class.  Nested calls then
become child spans.  A span is (request, id, parent id, name, start,
end); a name's self time is its spans' durations minus the parts their
child spans cover.

A wrapped name that no longer exists, say after a refactor removed it,
is recorded as absent: its metrics read 0 and `trace.absent` counts it.
"""

from __future__ import annotations

import os
import sys
import time
from collections import defaultdict

# layer (module) -> public functions traced in it; "Class.method" for methods
TRACED = {
    "instance": ("load_instance", "save_instance"),
    "poset": ("validate", "order_complex", "fh_vectors"),
    "charfunc": ("validate_lambda", "axial_function"),
    "complexes": ("validate_carriers", "is_face_acyclic", "betti_mod2"),
    "model": ("formality_verdict", "build_quotient"),
    "gf2": ("Matrix.rank",),
    "gkm": ("equivariant_hilbert",),
    "codes": ("facet_code", "is_self_dual", "min_distance"),
    "blowup": ("cut_face",),
    "cli": ("main",),
}


def _rank_sizes(args, result):
    m = args[0]
    width = (m.ncols + 7) // 8
    return {
        "gf2.rank.rows": m.nrows,
        "gf2.rank.nnz": sum(r.bit_count() for r in m.rows),
        "gf2.rank.dense_bytes": m.nrows * width,
    }


def _path_bytes(path) -> dict:
    return {"instance.json_bytes": os.path.getsize(path)}


# name -> sizes read off a call's arguments and result
SIZES = {
    "poset.validate": lambda a, r: {"poset.faces": len(a[0].codims)},
    "poset.order_complex": lambda a, r: {"poset.order_complex.simplices": len(r.simplices)},
    "model.build_quotient": lambda a, r: {"model.cells": r.cell_count()},
    "gf2.Matrix.rank": _rank_sizes,
    "gkm.equivariant_hilbert": lambda a, r: {
        "gkm.edges": len(a[0].edges),
        "gkm.distinct_axial": len(set(a[0].axial.values())),
    },
    "blowup.cut_face": lambda a, r: {"blowup.faces_out": len(r.poset.codims)},
    "instance.load_instance": lambda a, r: _path_bytes(a[0]),
    "instance.save_instance": lambda a, r: _path_bytes(a[1]),
}
# sizes summed over a pass, except these, which keep the largest call
PEAK_SIZES = {"gf2.rank.dense_bytes"}

SIZE_UNITS = {
    "poset.faces": "count",
    "poset.order_complex.simplices": "count",
    "model.cells": "count",
    "gf2.rank.rows": "count",
    "gf2.rank.nnz": "count",
    "gf2.rank.dense_bytes": "B_computed",
    "gkm.edges": "count",
    "gkm.distinct_axial": "count",
    "blowup.faces_out": "count",
    "instance.json_bytes": "B",
}


def traced_names() -> list[str]:
    return [f"{layer}.{fn}" for layer, fns in TRACED.items() for fn in fns]


class Tracer:
    """Installs wrappers into the z2torus modules loaded in this process."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, int, str, float, float]] = []
        self.sizes: dict[str, int] = defaultdict(int)
        self.absent: list[str] = []
        self.request = 0
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        self.absent = []
        mods = {
            name: mod
            for name, mod in sys.modules.items()
            if mod is not None and (name == "z2torus" or name.startswith("z2torus."))
        }
        for name in traced_names():
            layer, _, fn = name.partition(".")
            owner = mods.get(f"z2torus.{layer}")
            *cls_path, attr = fn.split(".")
            for part in cls_path:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None)
            if not callable(original):
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original)
            if cls_path:
                self._patch(owner, attr, original, wrapper)
                continue
            for mod in mods.values():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, wrapper)

    def _patch(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched = []

    def _wrap(self, name: str, fn):
        sizes = SIZES.get(name)
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            sid = len(spans)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            spans.append(None)  # reserve the id; filled in on exit
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (self.request, sid, parent, name, start, end)
            if sizes is not None:
                self._record_sizes(sizes, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _record_sizes(self, sizes, args, result) -> None:
        try:
            found = sizes(args, result)
        except (AttributeError, TypeError, IndexError, KeyError, OSError):
            return  # the program changed shape; the size reads as 0
        for key, value in found.items():
            if key in PEAK_SIZES:
                self.sizes[key] = max(self.sizes[key], value)
            else:
                self.sizes[key] += value

    def reset(self) -> None:
        self.spans.clear()
        self.sizes.clear()

    def metrics(self) -> dict[str, tuple[float, str]]:
        """(value, unit) of per-name calls, total_ms and self_ms, of the
        sizes, and of the summed self time of all spans (which equals the
        top-level spans' total duration)."""
        calls: dict[str, int] = defaultdict(int)
        total: dict[str, float] = defaultdict(float)
        child: dict[int, float] = defaultdict(float)
        for _, sid, parent, name, start, end in self.spans:
            calls[name] += 1
            total[name] += end - start
            if parent >= 0:
                child[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        for _, sid, parent, name, start, end in self.spans:
            self_s[name] += end - start - child[sid]
        out: dict[str, tuple[float, str]] = {}
        for name in traced_names():
            out[f"{name}.calls"] = (calls[name], "count")
            out[f"{name}.total_ms"] = (total[name] * 1e3, "ms")
            out[f"{name}.self_ms"] = (self_s[name] * 1e3, "ms")
        for key, unit in SIZE_UNITS.items():
            out[key] = (self.sizes.get(key, 0), unit)
        out["trace.spans_s"] = (sum(self_s.values()), "s")
        out["trace.absent"] = (len(self.absent), "count")
        return out
