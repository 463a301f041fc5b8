"""Spans around calls into the package's public functions, recorded from outside.

``Tracer.installed()`` replaces each traced function with a wrapper in every
``unlabeled_sensing`` module that bound it at import time (``solver`` binds
``solve_lap`` and ``pinv_solve``, ``cli`` binds ``solve`` and the ``data``
functions, and so on), wraps ``Permutation.__init__`` (construction plus the
bijection check) and the theory checks reached through ``cli.CHECK_FUNCS``, and
restores every original on exit. Nothing under ``src/`` is changed.

Spans are kept in memory as parallel lists and written out at the end. The
recorder assumes one thread, so it must not be installed while ``bench
--threads 2`` runs.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

PACKAGE = "unlabeled_sensing"
THEORY_CHECKS = ("lemma1", "theorem1", "lemma2", "theorem2",
                 "lemma4", "theorem3", "chi2", "worst_case")


def _shape(a) -> tuple[int, ...]:
    return tuple(getattr(a, "shape", ()))


def _count_lap(counts, args, kwargs, result) -> None:
    size = _shape(args[0] if args else kwargs["C"])[0]
    counts["assignment.solve_lap.ops"] += size ** 3
    counts["assignment.solve_lap.bytes"] += 8 * size * size


def _count_svd(counts, args, kwargs, result) -> None:
    rows, cols = _shape(args[0] if args else kwargs["A"])
    counts["linalg.svd.ops"] += rows * cols * min(rows, cols)


def _count_load(counts, args, kwargs, result) -> None:
    for arr in (result.B, result.Y, result.y_star):
        if arr is not None:
            counts["data.load_bundle.bytes"] += int(arr.nbytes)


def _count_iters(counts, args, kwargs, result) -> None:
    counts["solver.iters"] += int(result.iters)


# (module, public function, counter run on each call).
FUNCTIONS = (
    ("data", "load_bundle", _count_load),
    ("data", "oracle_and_naive", None),
    ("data", "evaluate", None),
    ("data", "write_matrix_csv", None),
    ("data", "generate", None),
    ("collapse", "build_collapsed", None),
    ("collapse", "init_rlocal", None),
    ("assignment", "solve_lap", _count_lap),
    ("assignment", "solve_blockwise", None),
    ("linalg", "svd", _count_svd),
    ("linalg", "pinv_solve", None),
    ("solver", "solve", _count_iters),
)

# Per-op statistics reported for each span name: wall seconds inside the call,
# self seconds (minus wrapped children), calls. Computed counts are listed
# separately and are exact integers.
SPAN_STATS = {
    "cli.main": ("s", "self_s"),
    "data.load_bundle": ("s",),
    "data.oracle_and_naive": ("s",),
    "data.evaluate": ("s",),
    "data.write_matrix_csv": ("s",),
    "data.generate": ("s",),
    "collapse.build_collapsed": ("s",),
    "collapse.init_rlocal": ("s",),
    "assignment.solve_lap": ("s", "calls"),
    "assignment.solve_blockwise": ("s", "self_s"),
    "linalg.svd": ("s", "calls"),
    "linalg.pinv_solve": ("s", "calls"),
    "permutation.Permutation": ("s", "calls"),
    "solver.solve": ("s", "self_s"),
    **{f"theory.{name}": ("s",) for name in THEORY_CHECKS},
}
COUNTS = ("assignment.solve_lap.ops", "assignment.solve_lap.bytes", "linalg.svd.ops",
          "data.load_bundle.bytes", "solver.iters")


class Tracer:
    """Span recorder: name, start, end, parent span and op id for every wrapped call."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.op_ids: list[int] = []
        self.child_s: list[float] = []  # time covered by direct children
        self.counts: dict[str, int] = defaultdict(int)
        self.stack = [-1]
        self.op_id = -1

    def wrap(self, name: str, fn, counter=None):
        names, starts, ends, parents = self.names, self.starts, self.ends, self.parents
        op_ids, child_s, stack = self.op_ids, self.child_s, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1])
            op_ids.append(self.op_id)
            child_s.append(0.0)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                starts[idx], ends[idx] = t0, t1
                if stack[-1] >= 0:
                    child_s[stack[-1]] += t1 - t0
            if counter is not None:
                counter(self.counts, args, kwargs, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Install every wrapper where its callers look the name up; restore on exit."""
        modules = [m for key, m in list(sys.modules.items())
                   if key == PACKAGE or key.startswith(PACKAGE + ".")]
        restore: list[tuple[object, str, object]] = []
        for module_name, attr, counter in FUNCTIONS:
            original = getattr(importlib.import_module(f"{PACKAGE}.{module_name}"), attr)
            wrapper = self.wrap(f"{module_name}.{attr}", original, counter)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        restore.append((module, key, value))
                        setattr(module, key, wrapper)
        perm_cls = importlib.import_module(f"{PACKAGE}.permutation").Permutation
        restore.append((perm_cls, "__init__", perm_cls.__init__))
        perm_cls.__init__ = self.wrap("permutation.Permutation", perm_cls.__init__)
        check_funcs = importlib.import_module(f"{PACKAGE}.cli").CHECK_FUNCS
        saved_checks = dict(check_funcs)
        for name, fn in saved_checks.items():
            check_funcs[name] = self.wrap(f"theory.{name}", fn)
        try:
            yield self
        finally:
            check_funcs.update(saved_checks)
            for owner, key, value in reversed(restore):
                setattr(owner, key, value)

    def per_op(self, ops: int) -> dict[str, float | int]:
        """Per-op statistics for every span name in SPAN_STATS and every count in COUNTS."""
        total: dict[str, float] = defaultdict(float)
        self_total: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for name, t0, t1, child in zip(self.names, self.starts, self.ends, self.child_s):
            total[name] += t1 - t0
            self_total[name] += t1 - t0 - child
            calls[name] += 1
        out: dict[str, float | int] = {}
        for name, stats in SPAN_STATS.items():
            values = {"s": total[name] / ops, "self_s": self_total[name] / ops,
                      "calls": _exact(calls[name], ops)}
            for stat in stats:
                out[f"{name}.{stat}"] = values[stat]
        for name in COUNTS:
            out[name] = _exact(self.counts[name], ops)
        return out

    def write(self, path) -> None:
        """Spans as JSON lines: [name, start_s, end_s, parent index, op id]."""
        with open(path, "w") as fh:
            for row in zip(self.names, self.starts, self.ends, self.parents, self.op_ids):
                fh.write(json.dumps(row) + "\n")


def _exact(total: int, ops: int) -> int | float:
    """Per-op value of a count; an exact integer when every op did the same work."""
    return total // ops if total % ops == 0 else total / ops
