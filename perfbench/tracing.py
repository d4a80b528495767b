"""Spans around summa's public functions, installed from outside the package.

``Tracer.install`` wraps every function a summa module lists in ``__all__``
and rebinds the wrapper under every name that refers to the original in any
loaded summa module, so ``from .accumulation import compensated_cumsum`` in
``cesaro``, ``checker`` and ``functionals`` records too.  Private helpers are
not wrapped: their time is the self time of the public caller.

A span is ``[name, start, end, parent, work]``; ``parent`` is the index of the
enclosing span (-1 for a root) and ``work`` an element count derived from the
arguments before the clock starts.  Spans stay in memory until written.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from contextlib import contextmanager

MODULES = ("accumulation", "cesaro", "functionals", "monotonicity", "checker",
           "sequences", "experiment", "rendering", "oracle")


def _fractional_terms(length: int, alpha: float) -> int:
    # the O(N^2) kernel runs only off alpha = 1: out[m] sums m + 1 products
    return 0 if alpha == 1.0 else length * (length + 1) // 2


# element counts per call, computed from argument sizes
WORK = {
    "accumulation.compensated_cumsum": lambda values: len(values),
    "cesaro.cesaro_t": lambda a, alpha: _fractional_terms(a.end_index, alpha),
    "cesaro.cesaro_sigma": lambda a, alpha: _fractional_terms(len(a), alpha),
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def _open(self, name: str, work: int) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, work])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self._stack.pop()
        self.spans[idx][2] = time.perf_counter()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name, 0)
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, name: str, fn):
        work = WORK.get(name)

        def traced(*args, **kwargs):
            idx = self._open(name, work(*args, **kwargs) if work else 0)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def install(self) -> list[str]:
        """Wrap every public summa function; return the traced names."""
        wrappers = {}
        names = []
        for mod in MODULES:
            module = importlib.import_module(f"summa.{mod}")
            for attr in module.__all__:
                fn = getattr(module, attr)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    names.append(f"{mod}.{attr}")
                    wrappers[fn] = self._wrap(names[-1], fn)
        for modname, module in list(sys.modules.items()):
            if modname != "summa" and not modname.startswith("summa."):
                continue
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    setattr(module, attr, wrappers[value])
        return names


def summarize(spans: list[list]) -> dict:
    """Self time, inclusive time, calls and work per span name.

    Self time is a span's duration minus the durations of its direct
    children; calls are single-threaded, so children never overlap.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, dict] = {}
    for i, (name, start, end, _, work) in enumerate(spans):
        row = out.setdefault(name, {"self_s": 0.0, "total_s": 0.0,
                                    "calls": 0, "work": 0})
        row["self_s"] += (end - start) - child_time[i]
        row["total_s"] += end - start
        row["calls"] += 1
        row["work"] += work
    return out


def nesting_errors(spans: list[list]) -> list[str]:
    """Spans that leave their parent's interval or overlap an earlier sibling."""
    errors = []
    last_end: dict[int, float] = {}
    for i, (name, start, end, parent, _) in enumerate(spans):
        if end < start:
            errors.append(f"span {i} ({name}) ends before it starts")
        if parent >= i:
            errors.append(f"span {i} ({name}) has a later parent {parent}")
            continue
        if parent >= 0:
            _, p_start, p_end, _, _ = spans[parent]
            if start < p_start or end > p_end:
                errors.append(f"span {i} ({name}) leaves parent {parent}")
        if start < last_end.get(parent, float("-inf")):
            errors.append(f"span {i} ({name}) overlaps its previous sibling")
        last_end[parent] = end
    return errors
