"""Span recorder installed around irreplab's public functions from outside.

`Tracer.install()` replaces each traced function in every irreplab module
namespace that holds it (the name is patched where callers look it up,
e.g. ``irreplab.su2.substream`` and ``irreplab.rng.substream``), plus the
two methods on the hot path and ``numpy.linalg.eigvalsh``.  `uninstall()`
puts every original back.  No library file is modified.

A span is ``[name, parent_index, start_ns, end_ns]``; spans live in memory
and are summarised by `Tracer.summary()`.  A span's self time is its
duration minus the durations of its direct children.  The recorder keeps a
single stack, so it is only valid for single-threaded runs.

Counts recorded beside the spans (all exact, so they repeat run to run):

* ``rng.normals.drawn``: deviates requested from ``SubStream.normals``;
* ``linalg.eigvalsh.flops_computed``: 4 n^3 / 3 per n x n matrix, the
  Householder tridiagonalisation cost, computed from the argument shape
  (the O(n^2) tridiagonal solve is not counted);
* ``linalg.write_matrix_text.bytes`` / ``linalg.read_matrix_text.bytes``:
  size of the matrix file written or read.
"""

from __future__ import annotations

import functools
import inspect
import os
import time
from collections import Counter, defaultdict

import numpy as np

# span names that differ from "<layer>.<function name>"
ALIASES = {
    "ground_state_irrep_census": "irreps.census",
    "write_census_csv": "cli.write",
    "write_distribution_csv": "cli.write",
    "write_width_csv": "cli.write",
    "_write_rows": "cli.write",
    "_write_manifest": "cli.write",
}


def _eigvalsh_flops(a) -> int:
    shape = np.shape(a)
    n = shape[-1]
    batch = int(np.prod(shape[:-2], dtype=np.int64)) if len(shape) > 2 else 1
    return batch * (4 * n ** 3) // 3


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------

    def _wrap(self, name: str, fn, after=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, stack[-1] if stack else -1, 0, 0]
            spans.append(span)
            stack.append(index)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs)
            return result

        return traced

    def _wrap_run_trials(self, fn):
        """Also time each trial: the per-trial worker is a closure of the
        caller (census or gs_distribution), so its spans take the caller's
        name and its body counts as the caller's self time."""
        run_trials = self._wrap("rng.run_trials", fn)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(worker, *args, **kwargs):
            caller = spans[stack[-1]][0] if stack else "trial"
            return run_trials(self._wrap(caller, worker), *args, **kwargs)

        return traced

    # -- installation --------------------------------------------------

    def _patch(self, owner, attr: str, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        from irreplab import cli, groups, irreps, linalg, rng, su2

        modules = {"rng": rng, "groups": groups, "irreps": irreps,
                   "linalg": linalg, "su2": su2, "cli": cli}
        counts = self.counts

        def count_drawn(args, kwargs):
            counts["rng.normals.drawn"] += args[1] if len(args) > 1 else kwargs["count"]

        def count_flops(args, kwargs):
            counts["linalg.eigvalsh.flops_computed"] += _eigvalsh_flops(args[0])

        def count_written(args, kwargs):
            counts["linalg.write_matrix_text.bytes"] += os.path.getsize(args[1])

        def count_read(args, kwargs):
            counts["linalg.read_matrix_text.bytes"] += os.path.getsize(args[0])

        after = {
            "linalg.write_matrix_text": count_written,
            "linalg.read_matrix_text": count_read,
        }
        traced_by_original = {}
        for layer, module in modules.items():
            public = getattr(module, "__all__", ["main"])
            names = list(public) + [n for n in ALIASES if n.startswith("_") and hasattr(module, n)]
            for attr in names:
                fn = getattr(module, attr)
                if not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                name = ALIASES.get(attr, f"{layer}.{attr}")
                if attr == "run_trials":
                    traced_by_original[fn] = self._wrap_run_trials(fn)
                else:
                    traced_by_original[fn] = self._wrap(name, fn, after.get(name))
        for ns in modules.values():
            for attr, value in list(vars(ns).items()):
                if inspect.isfunction(value) and value in traced_by_original:
                    self._patch(ns, attr, traced_by_original[value])

        self._patch(rng.SubStream, "normals",
                    self._wrap("rng.normals", rng.SubStream.normals, count_drawn))
        self._patch(irreps.IrrepBlockSpec, "combination",
                    self._wrap("irreps.combination", irreps.IrrepBlockSpec.combination))
        self._patch(np.linalg, "eigvalsh",
                    self._wrap("linalg.eigvalsh", np.linalg.eigvalsh, count_flops))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- summary -------------------------------------------------------

    def self_times_ns(self) -> list[int]:
        """Self time of every span, in span order."""
        child = [0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - child[i] for i, (_, _, start, end) in enumerate(self.spans)]

    def summary(self) -> dict[str, float]:
        """``<span>.calls`` and ``<span>.self_s`` for every span name, plus
        the recorded counts."""
        calls = Counter()
        self_ns = defaultdict(int)
        for (name, *_), own in zip(self.spans, self.self_times_ns()):
            calls[name] += 1
            self_ns[name] += own
        out: dict[str, float] = {}
        for name in calls:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_ns[name] * 1e-9
        out.update(self.counts)
        return out
