"""Span tracing of the ``roma`` package from outside it.

``Tracer.install`` wraps every function named in a ``roma`` module's
``__all__`` and the constructor of every dataclass named there, then
rebinds each wrapper wherever the original is bound in a ``roma`` module
namespace (``roma.detector`` imports the ``angles`` helpers by name, and
``roma.experiments``/``roma.cli`` import ``roma`` and ``roma_n`` by name).
A span is attributed to the module that defines the function.  Spans are
kept in memory as ``[id, parent, layer, name, start, end, work]`` and the
caller writes them out when the run ends.  Nothing in the package changes
on disk, and ``uninstall`` restores every binding.

The span stack is a plain list: the workloads run one operation at a time
on one thread, which is what makes parent links and self times exact.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import inspect
import sys
import time
import tracemalloc
from collections import defaultdict

PACKAGE = "roma"

ID, PARENT, LAYER, NAME, START, END, WORK = range(7)


def package_modules() -> list:
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


def rebind(original, replacement) -> list:
    """Point every ``roma`` module-level binding of ``original`` at ``replacement``.

    Returns ``(namespace, attribute)`` pairs so the caller can undo it.
    """
    undo = []
    for mod in package_modules():
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                undo.append((mod, attr))
    return undo


def _targets():
    """(layer, name, owner, attribute, original) for everything to wrap."""
    out = []
    for mod in package_modules():
        layer = mod.__name__.rpartition(".")[2]
        for name in getattr(mod, "__all__", ()):
            obj = getattr(mod, name, None)
            if getattr(obj, "__module__", None) != mod.__name__:
                continue  # re-export; wrapped where it is defined
            if inspect.isfunction(obj):
                out.append((layer, name, mod, name, obj))
            elif inspect.isclass(obj) and dataclasses.is_dataclass(obj):
                out.append((layer, name, obj, "__init__", obj.__init__))
    return out


class Tracer:
    """Records one span per call of a wrapped ``roma`` callable.

    ``work`` maps ``"<layer>.<name>"`` to a function of the call's
    arguments that returns the amount of work the call does (columns
    generated, bytes parsed); it is stored on the span.  When
    ``memory_layer`` is set and tracemalloc is running, the allocation peak
    inside each outermost span of that layer is kept in ``peak_bytes``.
    """

    def __init__(self, work: dict | None = None, memory_layer: str | None = None):
        self.work = dict(work or {})
        self.memory_layer = memory_layer
        self.spans: list = []
        self.peak_bytes = 0
        self._stack: list = []
        self._undo: list = []
        self._memory_depth = 0
        self._memory_base = 0

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        for layer, name, owner, attr, original in _targets():
            wrapper = self._wrap(original, layer, name)
            if inspect.isclass(owner):
                setattr(owner, attr, wrapper)
                self._undo.append((owner, attr, original))
            else:
                self._undo += [(ns, a, original) for ns, a in rebind(original, wrapper)]

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo = []

    def take(self) -> list:
        """Return the spans recorded so far and start a fresh list."""
        spans, self.spans = self.spans, []
        return spans

    @contextlib.contextmanager
    def bench_span(self, name: str):
        """A span of the benchmark's own (layer ``bench``), e.g. one operation."""
        rec = [len(self.spans), self._stack[-1] if self._stack else None,
               "bench", name, 0.0, 0.0, 0]
        self.spans.append(rec)
        self._stack.append(rec[ID])
        rec[START] = time.perf_counter()
        try:
            yield
        finally:
            rec[END] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, fn, layer: str, name: str):
        stack = self._stack
        clock = time.perf_counter
        measure = self.work.get(f"{layer}.{name}")
        tracked = layer == self.memory_layer

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            work = measure(*args, **kwargs) if measure else 0
            rec = [len(self.spans), stack[-1] if stack else None, layer, name,
                   0.0, 0.0, work]
            self.spans.append(rec)
            stack.append(rec[ID])
            if tracked:
                self._enter_memory()
            rec[START] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
                if tracked:
                    self._exit_memory()

        return wrapper

    def _enter_memory(self) -> None:
        self._memory_depth += 1
        if self._memory_depth == 1 and tracemalloc.is_tracing():
            tracemalloc.reset_peak()
            self._memory_base = tracemalloc.get_traced_memory()[0]

    def _exit_memory(self) -> None:
        self._memory_depth -= 1
        if self._memory_depth == 0 and tracemalloc.is_tracing():
            peak = tracemalloc.get_traced_memory()[1] - self._memory_base
            self.peak_bytes = max(self.peak_bytes, peak)


def self_times(spans: list) -> tuple[dict, dict]:
    """Per-layer self seconds and call counts.

    Self time is a span's duration minus the time its child spans cover.
    Children of one span run one after another inside it, so what they
    cover is the sum of their durations.
    """
    covered = defaultdict(float)
    for rec in spans:
        if rec[PARENT] is not None:
            covered[rec[PARENT]] += rec[END] - rec[START]
    self_s = defaultdict(float)
    calls = defaultdict(int)
    for rec in spans:
        self_s[rec[LAYER]] += rec[END] - rec[START] - covered[rec[ID]]
        calls[rec[LAYER]] += 1
    return dict(self_s), dict(calls)
