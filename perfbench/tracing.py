"""Spans around calls into the public functions of each dicond layer.

The tracer rebinds every module attribute of the ``dicond`` package that
refers to a traced function, so existing call sites (including
``from .graph import weak_components`` copies and calls within a
module) go through the wrapper. Nothing inside the package is
instrumented. Spans are kept in memory as (name, start, end, parent,
instance) and written out once, when the run ends.
"""

from __future__ import annotations

import functools
import sys
import time
from pathlib import Path

import numpy as np

LAYERS = {
    "graph": ("load_edge_list", "build_graph", "cut_values", "conductance_set",
              "prefix_cut_profile", "weak_components", "induced_subgraph"),
    "functionals": ("r_obj", "n_med"),
    "subgrad": ("classify", "bounds", "boundary_indicator", "select_subgradient"),
    "solver": ("dsi_solve", "dsi_run", "subproblem_argmin", "extract_partition",
               "verify_local_opt", "flip_conductances"),
    "baselines": ("spectral_embedding", "sweep_cut", "spectral_sweep"),
    "oracle": ("brute_conductance",),
}
TRACED = tuple(f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns)


def _dicond_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "dicond" or name.startswith("dicond."))]


class Tracer:
    """Records a span per call of each traced function while installed."""

    def __init__(self, observe=None, names=TRACED):
        """``observe`` maps a traced name to a function of its return
        value; the results are kept in ``self.results[name]``."""
        self.names = tuple(names)
        self.instance = -1
        self.spans: list = []
        self._observe = dict(observe or {})
        self.results: dict[str, list] = {name: [] for name in self._observe}
        self.absent: list[str] = []
        self._stack = [-1]
        self._sites = []
        modules = _dicond_modules()
        for idx, name in enumerate(self.names):
            mod_name, fn_name = name.split(".")
            home = sys.modules.get(f"dicond.{mod_name}")
            orig = getattr(home, fn_name, None)
            if orig is None:
                self.absent.append(name)
                continue
            wrapper = self._wrap(idx, name, orig)
            for mod in modules:
                for attr, value in vars(mod).items():
                    if value is orig:
                        self._sites.append((mod, attr, orig, wrapper))

    def _wrap(self, idx, name, fn):
        spans, stack = self.spans, self._stack
        observe, results = self._observe.get(name), self.results.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (idx, start, end, parent, self.instance)
            if observe is not None:
                results.append(observe(out))
            return out

        return wrapper

    def __enter__(self):
        """Rebind every binding site to its wrapper."""
        for mod, attr, _, wrapper in self._sites:
            setattr(mod, attr, wrapper)
        return self

    def __exit__(self, *exc):
        """Restore the original functions."""
        for mod, attr, orig, _ in self._sites:
            setattr(mod, attr, orig)

    def arrays(self) -> dict[str, np.ndarray]:
        """Spans as parallel arrays; self time is the span's duration
        minus the durations of its direct children."""
        rows = np.array(self.spans, dtype=float).reshape(-1, 5)
        name, start, end = rows[:, 0].astype(np.int64), rows[:, 1], rows[:, 2]
        parent, instance = rows[:, 3].astype(np.int64), rows[:, 4].astype(np.int64)
        dur = end - start
        child = parent >= 0
        covered = np.bincount(parent[child], weights=dur[child], minlength=dur.size)
        return {"name": name, "start": start, "end": end, "parent": parent,
                "instance": instance, "self": dur - covered}

    def totals(self, arr: dict[str, np.ndarray]) -> dict[str, dict[str, float]]:
        """Calls, self seconds and inclusive seconds per traced name;
        names that were never called or are absent read 0."""
        k = len(self.names)
        calls = np.bincount(arr["name"], minlength=k)
        self_s = np.bincount(arr["name"], weights=arr["self"], minlength=k)
        incl_s = np.bincount(arr["name"], weights=arr["end"] - arr["start"], minlength=k)
        return {name: {"calls": int(calls[i]), "self_s": float(self_s[i]),
                       "incl_s": float(incl_s[i])}
                for i, name in enumerate(self.names)}

    def write(self, path: Path, arr: dict[str, np.ndarray]) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, names=np.array(self.names), **arr)
