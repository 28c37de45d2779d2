"""In-memory spans and counters around the calls into each gaussmarkov layer.

The tracer wraps module attributes from the outside: every public function
defined in a layer module is replaced by a wrapper that records a span, and
every other module of the package that bound the same function by
``from ... import`` gets the wrapper too.  Nothing inside ``src/`` changes.

A span is ``[name, start_ns, end_ns, parent_index, task_id]``.  All calls
are synchronous in one thread, so a span's children lie inside it and no
waiting time exists to record.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import time
from collections import defaultdict

#: Modules of the package that do work, in dependency order.
LAYERS = ("kernels", "gaussian", "transform", "simulate", "spectral", "serialize", "cli")

NAME, START, END, PARENT, TASK = range(5)


class Tracer:
    """Span and counter store for one process."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.task = None
        #: Oracles run with the tracer paused, so they add no spans or counts.
        self.active = True
        self._stack: list[int] = []

    # -- recording ---------------------------------------------------------

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] += amount

    def inside(self, name: str) -> bool:
        return any(self.spans[i][NAME] == name for i in self._stack)

    def wrap(self, name: str, fn, after=None):
        """Span-recording wrapper.

        ``after(args, kwargs, result, exc)`` runs once the span has ended; on
        success its return value replaces the result.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append([name, time.perf_counter_ns(), 0, parent, self.task])
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._close(idx)
                if after is not None:
                    after(args, kwargs, None, exc)
                raise
            self._close(idx)
            return result if after is None else after(args, kwargs, result, None)

        return wrapper

    def _close(self, idx: int) -> None:
        self.spans[idx][END] = time.perf_counter_ns()
        self._stack.pop()

    def counting(self, name: str, fn):
        """Call-counting wrapper, for callables too hot to carry a span."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.active:
                self.counters[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- kernels and rates the benchmark builds ----------------------------

    def count_kernel(self, kernel):
        return dataclasses.replace(kernel, eval=self.counting("kernels.eval.calls", kernel.eval))

    def count_rate(self, rate):
        if rate.func is None:
            return rate
        return dataclasses.replace(rate, func=self.counting("kernels.rate.calls", rate.func))

    # -- installation --------------------------------------------------------

    def install(self):
        """Wrap every layer's public functions; returns a function that undoes it."""
        package = importlib.import_module("gaussmarkov")
        modules = {layer: importlib.import_module(f"gaussmarkov.{layer}") for layer in LAYERS}
        hooks = self._after_hooks()
        wrapped = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__:
                    continue
                wrapped[obj] = self.wrap(f"{layer}.{attr}", obj, hooks.get(f"{layer}.{attr}"))
        undo = []
        for mod in (package, *modules.values()):
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(mod, attr, wrapped[obj])
                    undo.append((mod, attr, obj))

        # Methods and the command table are not module functions.
        vector = modules["gaussian"].GaussianVector
        batch = modules["simulate"].TrajectoryBatch
        commands = modules["cli"]._COMMANDS
        originals = (vector.__post_init__, batch.to_csv, dict(commands))
        vector.__post_init__ = self.counting("gaussian.vector.builds", vector.__post_init__)
        batch.to_csv = self.wrap("simulate.to_csv", batch.to_csv)
        for sub, fn in commands.items():
            commands[sub] = self.wrap(f"cli.{sub}", fn)

        def uninstall():
            for mod, attr, obj in undo:
                setattr(mod, attr, obj)
            vector.__post_init__, batch.to_csv = originals[0], originals[1]
            commands.clear()
            commands.update(originals[2])

        return uninstall

    def _after_hooks(self):
        def em_steps(args, kwargs, result, exc):
            spec, grid, n_paths = _bind(args, kwargs, ("spec", "t_grid", "n_paths"))
            times = [float(t) for t in grid]
            substeps = sum(max(1, round((b - a) / spec.step)) for a, b in zip(times, times[1:]))
            self.count("simulate.em_path_steps", substeps * int(n_paths))
            return result

        def indices_found(args, kwargs, result, exc):
            found = result.indices if exc is None else getattr(exc, "indices", [])
            self.count("spectral.index_search.found", len(found))
            return result

        # Kernels and rates a command parses are the ones whose callables
        # it evaluates; only the outermost spec is the one the command uses.
        def counted_kernel(args, kwargs, result, exc):
            if exc is None and not self.inside("serialize.kernel_from_spec"):
                return self.count_kernel(result)
            return result

        def counted_rate(args, kwargs, result, exc):
            if exc is None and not self.inside("serialize.rate_from_spec"):
                return self.count_rate(result)
            return result

        return {
            "simulate.euler_maruyama": em_steps,
            "spectral.weierstrass_indices": indices_found,
            "serialize.kernel_from_spec": counted_kernel,
            "serialize.rate_from_spec": counted_rate,
        }


def _bind(args, kwargs, names):
    values = dict(zip(names, args))
    values.update({k: v for k, v in kwargs.items() if k in names})
    return [values[n] for n in names]


# ---------------------------------------------------------------------------
# Span arithmetic
# ---------------------------------------------------------------------------


def self_times_ns(spans) -> list[int]:
    """Per-span duration minus the part of its interval that child spans cover."""
    children = defaultdict(list)
    for i, span in enumerate(spans):
        if span[PARENT] >= 0:
            children[span[PARENT]].append((span[START], span[END]))
    out = []
    for i, span in enumerate(spans):
        covered = 0
        cursor = span[START]
        for start, end in sorted(children.get(i, ())):
            start, end = max(start, cursor), min(end, span[END])
            if end > start:
                covered += end - start
                cursor = end
        out.append(span[END] - span[START] - covered)
    return out


def summarize(spans, key=lambda span: span[NAME]) -> dict[str, dict[str, float]]:
    """Per key (default: span name): calls, busy seconds and self seconds.

    Busy time counts a recursive call once, through its outermost span.
    """
    selfs = self_times_ns(spans)
    out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
    for i, span in enumerate(spans):
        row = out[key(span)]
        row["calls"] += 1
        row["self_s"] += selfs[i] * 1e-9
        if not _has_ancestor_named(spans, i, span[NAME]):
            row["s"] += (span[END] - span[START]) * 1e-9
    return dict(out)


def _has_ancestor_named(spans, i, name) -> bool:
    parent = spans[i][PARENT]
    while parent >= 0:
        if spans[parent][NAME] == name:
            return True
        parent = spans[parent][PARENT]
    return False
