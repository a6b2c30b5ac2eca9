"""Host-clock layer timing of the ``repro`` package, applied from outside.

:meth:`HostClock.install` wraps every plain function and method defined
in the loaded ``repro.*`` modules, so each call that crosses from one
layer into another opens a span. A layer is the subpackage that defines
the function (``repro.serving.queue`` → ``serving``,
``repro.tensor.sparse`` → ``tensor``). Calls that stay inside the
caller's layer pass straight through, so a span covers a whole visit to a
layer.

Each span reads both clocks of its thread: wall time (kept for the trace
and for ``run_batch`` service times) and CPU time
(``time.thread_time_ns``). A layer's *self* CPU time is its spans' CPU
time minus that of the spans nested in them, so the self times of all
layers partition the CPU spent inside the package. It is the layer's
busy time: a thread blocked on a lock, a condition or I/O adds wall time
but no CPU time.

Stacks and totals are per thread, so recording takes no lock; the totals
of every thread are summed when read. Nothing here changes what the
wrapped code computes, only how long it takes.
"""

from __future__ import annotations

import enum
import functools
import inspect
import itertools
import sys
import threading
import time
from collections import defaultdict

PACKAGE = "repro"

#: The engine's batch entry point: each of its spans' wall time is kept.
SERVICE_FN = "run_batch"


def layer_of(module_name: str) -> str:
    """``repro.<layer>[.…]`` → ``<layer>``; the package itself → ``top``."""
    parts = module_name.split(".")
    return parts[1] if len(parts) > 1 else "top"


class _ThreadState(threading.local):
    def __init__(self) -> None:
        self.stack: list[list] = []
        self.totals: dict | None = None


class HostClock:
    """Per-layer self time and call counts, summed over every thread."""

    def __init__(self, max_spans: int = 20_000) -> None:
        self.max_spans = max_spans
        self._ids = itertools.count(1)
        self._state = _ThreadState()
        self._lock = threading.Lock()
        self._threads: list[dict] = []
        self._restore: list[tuple] = []
        self.spans: list[tuple] = []
        self.recording = False

    # -- recording ------------------------------------------------------------

    def _totals(self) -> dict:
        totals = self._state.totals
        if totals is None:
            totals = {"cpu": defaultdict(int), "calls": defaultdict(int),
                      "service_ms": []}
            with self._lock:
                self._threads.append(totals)
            self._state.totals = totals
        return totals

    def _wrap(self, fn, layer: str):
        state = self._state
        name = fn.__qualname__
        service = fn.__name__ == SERVICE_FN
        wall_ns, cpu_ns = time.perf_counter_ns, time.thread_time_ns
        ids = self._ids

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = state.stack
            if not self.recording or (stack and stack[-1][0] == layer):
                return fn(*args, **kwargs)
            # frame: layer, child cpu ns, span id
            frame = [layer, 0, next(ids)]
            parent = stack[-1][2] if stack else 0
            stack.append(frame)
            w0, c0 = wall_ns(), cpu_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                w1, c1 = wall_ns(), cpu_ns()
                stack.pop()
                dw, dc = w1 - w0, c1 - c0
                if stack:
                    stack[-1][1] += dc
                totals = state.totals or self._totals()
                totals["cpu"][layer] += dc - frame[1]
                totals["calls"][layer] += 1
                if service:
                    totals["service_ms"].append(dw / 1e6)
                if len(self.spans) < self.max_spans:
                    self.spans.append((frame[2], parent, name, layer, w0, dw,
                                       threading.get_ident()))

        return wrapper

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        """Wrap every function of the loaded ``repro`` modules."""
        modules = {name: mod for name, mod in list(sys.modules.items())
                   if mod is not None and (name == PACKAGE
                                           or name.startswith(PACKAGE + "."))}
        wrapped: dict[int, object] = {}
        for name, mod in modules.items():
            layer = layer_of(name)
            for attr, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != name:
                    continue
                if inspect.isfunction(obj) and _wrappable(obj):
                    wrapped[id(obj)] = self._wrap(obj, layer)
                elif inspect.isclass(obj) and _patchable_class(obj):
                    self._wrap_class(obj, layer)
        # Re-point every module-level reference (``from x import f``) and
        # every function held in a module-level dict at the wrappers.
        for mod in modules.values():
            space = vars(mod)
            for attr, obj in list(space.items()):
                if id(obj) in wrapped:
                    self._restore.append((space, attr, obj))
                    space[attr] = wrapped[id(obj)]
                elif isinstance(obj, dict):
                    for key, val in list(obj.items()):
                        if id(val) in wrapped:
                            self._restore.append((obj, key, val))
                            obj[key] = wrapped[id(val)]

    def _wrap_class(self, cls: type, layer: str) -> None:
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("__"):
                continue
            if isinstance(obj, (staticmethod, classmethod)):
                if not _wrappable(obj.__func__):
                    continue
                new = type(obj)(self._wrap(obj.__func__, layer))
            elif inspect.isfunction(obj) and _wrappable(obj):
                new = self._wrap(obj, layer)
            else:
                continue
            self._restore.append((cls, attr, obj))
            setattr(cls, attr, new)

    def uninstall(self) -> None:
        """Put every original function back."""
        for target, key, obj in reversed(self._restore):
            if isinstance(target, type):
                setattr(target, key, obj)
            else:
                target[key] = obj
        self._restore.clear()

    # -- reading --------------------------------------------------------------

    def reset(self) -> None:
        """Zero every total and drop recorded spans (stacks stay intact)."""
        with self._lock:
            for totals in self._threads:
                for series in totals.values():
                    series.clear()
        self.spans.clear()

    def snapshot(self) -> dict:
        """Summed totals: ``cpu_ms`` and ``calls`` per layer, and the wall
        ms of every ``run_batch`` span as ``service_ms``."""
        cpu, calls = defaultdict(float), defaultdict(int)
        service: list[float] = []
        with self._lock:
            threads = list(self._threads)
        for totals in threads:
            for layer, ns in list(totals["cpu"].items()):
                cpu[layer] += ns / 1e6
            for layer, n in list(totals["calls"].items()):
                calls[layer] += n
            service.extend(totals["service_ms"])
        return {"cpu_ms": dict(cpu), "calls": dict(calls),
                "service_ms": service}

    def chrome_trace(self, requests=()) -> dict:
        """Recorded spans as a Chrome trace (``chrome://tracing``).

        ``requests`` adds the client's view: ``(rid, start_ns, end_ns)``
        per request on the ``perf_counter_ns`` clock, one track of its own.
        """
        events = [
            {"name": name, "cat": layer, "ph": "X", "pid": 0, "tid": tid,
             "ts": w0 / 1e3, "dur": dw / 1e3,
             "args": {"span": span, "parent": parent}}
            for span, parent, name, layer, w0, dw, tid in self.spans]
        events += [
            {"name": "request", "cat": "client", "ph": "X", "pid": 1,
             "tid": 0, "ts": t0 / 1e3, "dur": (t1 - t0) / 1e3,
             "args": {"rid": rid}}
            for rid, t0, t1 in requests]
        return {"traceEvents": events, "displayTimeUnit": "ms"}


def _wrappable(fn) -> bool:
    """Plain synchronous functions only: a generator or coroutine body runs
    after the call returns, so a span around the call would miss it."""
    target = inspect.unwrap(fn)
    return not (inspect.isgeneratorfunction(target)
                or inspect.iscoroutinefunction(target)
                or inspect.isasyncgenfunction(target))


def _patchable_class(cls: type) -> bool:
    return not issubclass(cls, (BaseException, enum.Enum))
