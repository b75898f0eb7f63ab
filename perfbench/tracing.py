"""Spans around tet4d's layer boundaries, recorded from outside the package.

A traced run replaces each public function listed below, in every tet4d
module that binds it (for example both ``rangetree.orient5`` and
``oracle.seg_tetra_hit`` point at ``kernel4d``'s functions), by a wrapper
that records a span: name, start, end and parent.  The two preprocessing
classes are traced through their ``__init__``.  Spans live in flat arrays in
memory and are written out once, when the run ends.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from typing import Dict, List

import numpy as np

KERNEL_FUNCTIONS = (
    # sign predicates
    "orient5", "seg_tetra_hit", "tri_tri_hit",
    # direct solvers, fallbacks and witnesses
    "segment_tetra_direct", "tri_tri_any", "tri_tri_direct", "line_2flat_meet",
    "linsolve", "tetra_tetra_intersect",
    # preprocessing
    "hyperplane_of", "twoplane_param", "line_param", "generic_shear",
)
KERNEL_CLASSES = ("TetraPre", "TrianglePre")

LAYER_FUNCTIONS = {
    "scenes": ("load_scene", "decode_objects"),
    "rangetree": ("prepare_scene", "build", "query_batch", "query", "_batched"),
    "oracle": ("seg_tetra_query", "tetra_seg_query", "tri_tri_query",
               "line_2flat_query", "arrangement_k_counts"),
    "ccd": ("lift", "prism_pair_intersect", "detect_collisions", "ccd_oracle_pairs"),
    "arrangement": ("pairwise", "intersection_polygon", "per_tetra_reduction", "k_counts"),
}


def _package_modules():
    return [m for k, m in sorted(sys.modules.items())
            if m is not None and (k == "tet4d" or k.startswith("tet4d."))]


class Tracer:
    def __init__(self):
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_ids = array("H")
        self.parents = array("q")
        self.starts = array("q")
        self.ends = array("q")
        self._stack: List[int] = []
        self._undo = []

    def wrap(self, name: str, fn):
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)
        name_ids, parents, starts, ends = self.name_ids, self.parents, self.starts, self.ends
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    # -- installing and removing the wrappers

    def _patch(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        import tet4d.kernel4d as k4

        modules = _package_modules()
        targets = [(k4, name, f"kernel4d.{name}") for name in KERNEL_FUNCTIONS]
        for mod_name, names in LAYER_FUNCTIONS.items():
            mod = sys.modules[f"tet4d.{mod_name}"]
            targets += [(mod, name, f"{mod_name}.{name}") for name in names]
        for home, name, span in targets:
            original = getattr(home, name)
            wrapper = self.wrap(span, original)
            for mod in modules:
                if getattr(mod, name, None) is original:
                    self._patch(mod, name, wrapper)
        for name in KERNEL_CLASSES:
            cls = getattr(k4, name)
            self._patch(cls, "__init__", self.wrap(f"kernel4d.{name}", cls.__init__))

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- reading the spans

    def _arrays(self):
        dur = np.frombuffer(self.ends, dtype=np.int64) - np.frombuffer(self.starts, dtype=np.int64)
        parents = np.frombuffer(self.parents, dtype=np.int64)
        names = np.frombuffer(self.name_ids, dtype=np.uint16)
        return dur, parents, names

    def summary(self) -> Dict[str, dict]:
        """Per span name: calls, total (inclusive) ns and self ns, where
        self time is a span's duration minus the time its children cover."""
        dur, parents, names = self._arrays()
        n = len(dur)
        has_parent = parents >= 0
        child = np.bincount(parents[has_parent], weights=dur[has_parent], minlength=n)
        own = dur - child
        k = len(self.names)
        calls = np.bincount(names, minlength=k)
        total = np.bincount(names, weights=dur, minlength=k)
        self_ns = np.bincount(names, weights=own, minlength=k)
        return {name: {"calls": int(calls[i]), "total_ns": float(total[i]),
                       "self_ns": float(self_ns[i])}
                for i, name in enumerate(self.names)}

    def count_under(self, name: str, ancestor_prefix: str) -> int:
        """Spans called `name` that have an ancestor whose name starts with
        `ancestor_prefix`."""
        if name not in self._ids:
            return 0
        _dur, _parents, names = self._arrays()
        count = 0
        for idx in np.flatnonzero(names == self._ids[name]):
            p = self.parents[idx]
            while p >= 0:
                if self.names[self.name_ids[p]].startswith(ancestor_prefix):
                    count += 1
                    break
                p = self.parents[p]
        return count

    def write(self, path: str):
        dur, parents, names = self._arrays()
        np.savez(path, names=np.array(self.names), name_ids=names,
                 parents=parents, start_ns=np.frombuffer(self.starts, dtype=np.int64),
                 end_ns=np.frombuffer(self.ends, dtype=np.int64))


class Recorder:
    """Records (duration ns, args, result) of each call of module.attr while
    active; used on the answer path for per-query latency and for outputs the
    checks need."""

    def __init__(self, module, attr: str):
        self.module, self.attr = module, attr
        self.calls = []

    def __enter__(self):
        original = self._original = getattr(self.module, self.attr)
        calls = self.calls
        clock = time.perf_counter_ns

        def recorded(*args, **kwargs):
            t = clock()
            out = original(*args, **kwargs)
            calls.append((clock() - t, args, out))
            return out

        setattr(self.module, self.attr, recorded)
        return self

    def __exit__(self, *exc):
        setattr(self.module, self.attr, self._original)
        return False
