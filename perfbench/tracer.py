"""Span tracer that wraps the package's public functions from outside.

The tracer finds each traced function by identity and replaces every
binding of it in every loaded ``cthmm_subtyping`` module namespace, so
calls through ``from .x import f`` aliases, module attributes and the
package's re-exports are all seen.  The ``scipy.linalg.expm`` binding is
traced the same way, under the name ``ctmc.expm``.  Leaving the context
restores every original binding.

Spans are kept in memory as parallel lists (name, parent, start, end)
and summarised at the end: a span's self time is its duration minus the
durations of its direct children.  Counters derived from arguments or
results (matrices passed to ``expm``, trajectory lengths, distinct gaps,
EM iterations, ...) are accumulated per call, outside the timed part of
the span.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from pathlib import Path

import numpy as np
import scipy.linalg

PACKAGE = "cthmm_subtyping"

#: Modules whose public functions are traced, by short name.
LAYERS = ("ctmc", "emissions", "inference", "learning", "mixture", "evaluation",
          "cohort_io", "cli")

EXPM = "ctmc.expm"


def _arg(args, kwargs, position, name):
    return kwargs[name] if name in kwargs else args[position]


def _count_expm(args, kwargs, result):
    a = np.asarray(_arg(args, kwargs, 0, "A"))
    n = a.shape[-1]
    matrices = int(np.prod(a.shape[:-2], dtype=np.int64)) if a.ndim > 2 else 1
    return {"matrices": matrices, "n3": matrices * n**3}


def _count_forward_backward(args, kwargs, result):
    return {"timesteps": _arg(args, kwargs, 1, "trajectory").length}


def _count_e_step(args, kwargs, result):
    trajectories = _arg(args, kwargs, 1, "trajectories")
    gaps = np.concatenate([np.diff(t.times) for t in trajectories])
    return {"distinct_gaps": int(np.unique(gaps).size)}


def _count_load_cohort(args, kwargs, result):
    return {"rows": sum(t.length for t in result)}


def _count_fit_disease_model(args, kwargs, result):
    return {"em_iterations": result[1].iterations}


def _count_fit_mixture(args, kwargs, result):
    return {"rounds": len(result.objective_trace) // 2}


#: Per-call counters, keyed by span name.  Each returns numbers to add up.
COUNTERS = {
    EXPM: _count_expm,
    "inference.forward_backward": _count_forward_backward,
    "learning.e_step": _count_e_step,
    "cohort_io.load_cohort": _count_load_cohort,
    "learning.fit_disease_model": _count_fit_disease_model,
    "mixture.fit_mixture": _count_fit_mixture,
}


def public_functions(module) -> dict[str, object]:
    """Functions defined in ``module`` whose names do not start with ``_``."""
    return {
        name: obj
        for name, obj in vars(module).items()
        if inspect.isfunction(obj)
        and obj.__module__ == module.__name__
        and not name.startswith("_")
    }


class Tracer:
    """Context manager that records spans for every traced call."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_index: dict[str, int] = {}
        self.span_name: list[int] = []
        self.span_parent: list[int] = []
        self.span_start: list[float] = []
        self.span_end: list[float] = []
        self.counters: dict[str, dict[str, float]] = {}
        self.broken_counters: set[str] = set()
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def targets(self) -> dict[str, object]:
        """Span name -> original function, for every function to trace."""
        found = {}
        for layer in LAYERS:
            module = sys.modules.get(f"{PACKAGE}.{layer}")
            if module is None:
                continue
            for name, fn in public_functions(module).items():
                found[f"{layer}.{name}"] = fn
        found[EXPM] = scipy.linalg.expm
        return found

    def __enter__(self) -> "Tracer":
        by_identity = {id(fn): (name, fn) for name, fn in self.targets().items()}
        wrappers: dict[int, object] = {}
        namespaces = [
            module for key, module in list(sys.modules.items())
            if key == PACKAGE or key.startswith(PACKAGE + ".")
        ]
        for module in namespaces:
            for attr, value in list(vars(module).items()):
                hit = by_identity.get(id(value))
                if hit is None:
                    continue
                if id(value) not in wrappers:
                    wrappers[id(value)] = self._wrap(*hit)
                setattr(module, attr, wrappers[id(value)])
                self._patched.append((module, attr, value))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _wrap(self, name: str, fn):
        nid = self._name_index.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        counter = COUNTERS.get(name)
        span_name, span_parent = self.span_name, self.span_parent
        span_start, span_end, stack = self.span_start, self.span_end, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(span_name)
            span_name.append(nid)
            span_parent.append(stack[-1] if stack else -1)
            span_start.append(0.0)
            span_end.append(0.0)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                span_start[idx] = start
                span_end[idx] = end
            if counter is not None:
                self._count(name, counter, args, kwargs, result)
            return result

        return traced

    def _count(self, name, counter, args, kwargs, result) -> None:
        if name in self.broken_counters:
            return
        try:
            values = counter(args, kwargs, result)
        except (AttributeError, IndexError, KeyError, TypeError, ValueError):
            # The function's signature changed; report its counters as absent.
            self.broken_counters.add(name)
            self.counters.pop(name, None)
            return
        totals = self.counters.setdefault(name, {})
        for key, value in values.items():
            totals[key] = totals.get(key, 0) + value

    # -- results -------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.asarray(self.span_name, dtype=np.int32),
            "parent": np.asarray(self.span_parent, dtype=np.int64),
            "start": np.asarray(self.span_start, dtype=float),
            "end": np.asarray(self.span_end, dtype=float),
        }

    def write(self, path: Path) -> None:
        """Save every span, plus the name table, as one ``.npz`` file."""
        np.savez(path, names=np.asarray(self.names), **self.arrays())

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total and self seconds, and its counters.

        Only traced functions appear; one that no longer exists in the
        package is simply missing, never reported as zero.
        """
        spans = self.arrays()
        n_names = len(self.names)
        duration = spans["end"] - spans["start"]
        has_parent = spans["parent"] >= 0
        child_time = np.bincount(
            spans["parent"][has_parent], weights=duration[has_parent],
            minlength=duration.size,
        )
        self_time = duration - child_time
        calls = np.bincount(spans["name"], minlength=n_names)
        total = np.bincount(spans["name"], weights=duration, minlength=n_names)
        own = np.bincount(spans["name"], weights=self_time, minlength=n_names)
        out = {}
        for nid, name in enumerate(self.names):
            entry = {"calls": int(calls[nid]), "s": float(total[nid]),
                     "self_s": float(own[nid])}
            if name not in self.broken_counters:
                entry.update(self.counters.get(name, {}))
            out[name] = entry
        return out

    def child_spans(self, child: str, parent: str) -> tuple[int, float] | None:
        """Number and total seconds of ``child`` spans directly under ``parent``.

        None when either function is not traced (no longer exists).
        """
        if child not in self._name_index or parent not in self._name_index:
            return None
        spans = self.arrays()
        parents = spans["parent"]
        parent_name = np.where(parents >= 0, spans["name"][np.maximum(parents, 0)], -1)
        hit = (spans["name"] == self._name_index[child]) & (
            parent_name == self._name_index[parent]
        )
        return int(hit.sum()), float((spans["end"] - spans["start"])[hit].sum())
