"""In-memory span tracer that wraps breedkit's public functions from outside.

``Tracer.install`` replaces every public module-level function of the layer
modules with a timing wrapper and rebinds the wrapper wherever a breedkit
module holds a reference to the original (module attributes are the
functions' globals, so in-module calls and ``from .x import f`` calls are
timed too). No breedkit source changes. Spans are kept in flat arrays and
written out once at the end.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array

import numpy as np

LAYER_MODULES = ("geodata", "spectral", "structural", "fusion", "prefopt", "bench", "kb")


def _count_pip(args, kwargs, result):
    return {"points_tested": int(np.size(args[0])), "points_inside": int(np.count_nonzero(result))}


# Work counted at the boundary where it happens: qualified name -> counter.
COUNTERS = {
    "geodata.point_in_polygon": _count_pip,
    "geodata.load_raster": lambda a, k, r: {"cells": int(r.values.size)},
    "geodata.load_point_cloud": lambda a, k, r: {"points": len(r)},
    "spectral.plot_statistic": lambda a, k, r: {"cells": int(r.n_cells)},
}


class Tracer:
    """Records (name, start, end, parent, run) spans; parent -1 marks a root."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.run = array("i")
        self.counts: dict[str, dict[str, int]] = {}
        self.run_id = 0
        self._stack = [-1]

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _enter(self, name_id: int) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1])
        self.run.append(self.run_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _exit(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span called ``name``."""
        idx = self._enter(self._name_id(name))
        try:
            return fn(*args, **kwargs)
        finally:
            self._exit(idx)

    def _wrap(self, qualname: str, fn):
        name_id = self._name_id(qualname)
        counter = COUNTERS.get(qualname)
        counts = self.counts.setdefault(qualname, {}) if counter else None
        enter, exit_ = self._enter, self._exit

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = enter(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                exit_(idx)
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    counts[key] = counts.get(key, 0) + value
            return result

        return wrapper

    def install(self, package: str = "breedkit") -> list[str]:
        """Wrap the layer modules' public functions; return the wrapped names."""
        wrappers = {}
        for short in LAYER_MODULES:
            module = sys.modules[f"{package}.{short}"]
            for attr, obj in list(vars(module).items()):
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == module.__name__):
                    wrappers[obj] = self._wrap(f"{short}.{attr}", obj)
        for mod_name, module in list(sys.modules.items()):
            if mod_name == package or mod_name.startswith(package + "."):
                for attr, obj in list(vars(module).items()):
                    if inspect.isfunction(obj) and obj in wrappers:
                        setattr(module, attr, wrappers[obj])
        return sorted(self.names)

    def arrays(self) -> dict:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "run": np.frombuffer(self.run, dtype=np.int32).copy(),
        }

    def save(self, path: str) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())

    def stats(self, runs: int) -> dict:
        """Per span name: calls, total_s, self_s (per run), p50_ms, p90_ms."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent], minlength=dur.size)
        self_time = dur - child
        out = {}
        order = np.argsort(a["name"], kind="stable")
        bounds = np.flatnonzero(np.diff(a["name"][order])) + 1
        for group in np.split(order, bounds) if order.size else []:
            name = self.names[a["name"][group[0]]]
            d = dur[group]
            out[name] = {
                "calls": group.size / runs,
                "total_s": float(d.sum()) / runs,
                "self_s": float(self_time[group].sum()) / runs,
                "p50_ms": float(np.percentile(d, 50)) * 1e3,
                "p90_ms": float(np.percentile(d, 90)) * 1e3,
            }
        return out
