"""Per-layer tracing installed from outside the package.

`Tracer.install` replaces every binding of each traced callable (module
globals in every loaded `orbicurve` module, class attributes and entries of
module-level dicts) with a timing wrapper, and `uninstall` puts the originals back.  The traced
callables are the public module-level functions of each layer module plus a
few named methods.  Nothing under `src/` is edited.

Each wrapped call is one span: (id, parent id, name, start ns, end ns, unit
id).  Self time is computed online: a span's duration minus the durations
of the traced calls directly inside it.  Spans are kept in memory up to
`max_spans` and written out at the end by the caller.

Pool workers: `suites` runs chunks in a `ProcessPoolExecutor`.  Workers are
forked from the traced process and so inherit the wrappers.  The chunk
functions are wrapped so that, inside a worker, each chunk starts a fresh
trace state and returns its calls, self times, spans and cache counters in
the chunk's tally dict under `WORKER_KEY`.  The wrapper around
`suites._run_chunks` removes that entry in the parent, merges it, and counts
the union of the worker chunk intervals as child time of the enclosing suite
span.  If the pool were started without fork, workers would import an
untraced package: their spans would be missing and `trace.worker_spans`
would read 0.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time
from collections import Counter

MODULES = (
    "cli",
    "foundation",
    "curves",
    "bundles",
    "cohomology",
    "convexity",
    "sectors",
    "wps",
    "series",
    "linalg",
    "suites",
)

# Methods traced besides the public module-level functions:
# (module, class, method, span name).
METHODS = (
    ("foundation", "Phase", "__mul__", "foundation.Phase.__mul__"),
    ("foundation", "PhasedScalar", "__mul__", "foundation.PhasedScalar.__mul__"),
    ("series", "LOperator", "substitute_novikov", "series.substitute_novikov"),
)

WORKER_KEY = "__perfbench_trace__"

_now = time.perf_counter_ns


def cache_counts(suites) -> dict[str, int]:
    """Hits and misses of the suites' component caches, where they exist."""
    out = {}
    for key, attr in (("h0", "_h0"), ("h1", "_h1")):
        info = getattr(getattr(suites, attr, None), "cache_info", None)
        if info is not None:
            ci = info()
            out[key + ".hits"] = ci.hits
            out[key + ".misses"] = ci.misses
    return out


def _union_ns(intervals: list[tuple[int, int]]) -> int:
    total = 0
    end_max = None
    for start, end in sorted(intervals):
        if end_max is None or start > end_max:
            total += end - start
            end_max = end
        elif end > end_max:
            total += end - end_max
            end_max = end
    return total


class Tracer:
    def __init__(self, max_spans: int = 100_000):
        self.max_spans = max_spans
        self.root_pid = os.getpid()
        self.unit = None
        self._installed: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        """Forget everything recorded (wrappers stay installed)."""
        self.stack: list[list[int]] = []  # [span id, child ns]
        self.next_id = 0
        self.calls: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.spans: list[tuple] = []
        self.dropped = 0
        self.cells = 0
        self.worker_spans = 0
        self.worker_cache: Counter = Counter()

    # -- recording ---------------------------------------------------------

    def _enter(self) -> tuple[list[int], list[int] | None]:
        parent = self.stack[-1] if self.stack else None
        frame = [self.next_id, 0]
        self.next_id += 1
        self.stack.append(frame)
        return frame, parent

    def _exit(self, name: str, frame, parent, start: int, end: int) -> None:
        self.stack.pop()
        dur = end - start
        self.calls[name] += 1
        self.self_ns[name] += dur - frame[1]
        if parent is not None:
            parent[1] += dur
        if len(self.spans) < self.max_spans:
            self.spans.append((frame[0], parent[0] if parent else None, name, start, end, self.unit))
        else:
            self.dropped += 1

    def wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame, parent = tracer._enter()
            start = _now()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._exit(name, frame, parent, start, _now())

        return traced

    def span(self, name: str, unit, fn, *args):
        """Run fn(*args) as a root span of one benchmark unit."""
        self.unit = unit
        return self.wrap(name, fn)(*args)

    # -- pool workers --------------------------------------------------------

    def _wrap_chunk(self, name: str, fn, suites):
        tracer = self
        traced = self.wrap(name, fn)

        @functools.wraps(fn)
        def chunk(args):
            if os.getpid() == tracer.root_pid:
                return traced(args)
            tracer.reset()
            before = cache_counts(suites)
            start = _now()
            tally = traced(args)
            interval = (start, _now())
            after = cache_counts(suites)
            tally[WORKER_KEY] = {
                "interval": interval,
                "next_id": tracer.next_id,
                "calls": dict(tracer.calls),
                "self_ns": dict(tracer.self_ns),
                "spans": tracer.spans,
                "dropped": tracer.dropped,
                "cells": tracer.cells,
                "cache": {k: after[k] - before.get(k, 0) for k in after},
            }
            tracer.reset()
            return tally

        return chunk

    def _wrap_run_chunks(self, fn):
        tracer = self

        @functools.wraps(fn)
        def run_chunks(*args, **kwargs):
            intervals = []
            for tally in fn(*args, **kwargs):
                if isinstance(tally, dict) and WORKER_KEY in tally:
                    intervals.append(tracer._merge(tally.pop(WORKER_KEY)))
                yield tally
            if intervals and tracer.stack:
                tracer.stack[-1][1] += _union_ns(intervals)

        return run_chunks

    def _merge(self, w: dict) -> tuple[int, int]:
        """Fold one worker chunk's record into this trace; return its interval."""
        self.calls.update(w["calls"])
        self.self_ns.update(w["self_ns"])
        self.cells += w["cells"]
        self.dropped += w["dropped"]
        self.worker_cache.update(w["cache"])
        parent = self.stack[-1][0] if self.stack else None
        offset = self.next_id
        for sid, pid, name, start, end, _ in w["spans"]:
            if len(self.spans) < self.max_spans:
                self.spans.append(
                    (sid + offset, parent if pid is None else pid + offset, name, start, end, self.unit)
                )
            else:
                self.dropped += 1
        self.next_id = offset + w["next_id"]
        self.worker_spans += len(w["spans"])
        return w["interval"]

    # -- installation ----------------------------------------------------------

    def targets(self) -> list[tuple[str, object, object]]:
        """(span name, original callable, wrapper) for every traced callable."""
        out = []
        for m in MODULES:
            mod = importlib.import_module(f"orbicurve.{m}")
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__:
                    continue
                wrapper = self.wrap(f"{m}.{attr}", obj)
                if f"{m}.{attr}" == "linalg.mat_rank":
                    wrapper = self._count_cells(wrapper)
                out.append((f"{m}.{attr}", obj, wrapper))
        for m, cls_name, meth, name in METHODS:
            cls = getattr(importlib.import_module(f"orbicurve.{m}"), cls_name, None)
            fn = vars(cls).get(meth) if cls is not None else None
            if inspect.isfunction(fn):
                out.append((name, fn, self.wrap(name, fn)))
        suites = importlib.import_module("orbicurve.suites")
        for attr, obj in vars(suites).items():
            if attr.startswith("_") and attr.endswith("_chunk") and inspect.isfunction(obj):
                out.append((f"suites.{attr}", obj, self._wrap_chunk(f"suites.{attr}", obj, suites)))
        run_chunks = getattr(suites, "_run_chunks", None)
        if inspect.isfunction(run_chunks):
            out.append(("suites._run_chunks", run_chunks, self._wrap_run_chunks(run_chunks)))
        return out

    def _count_cells(self, wrapper):
        tracer = self

        @functools.wraps(wrapper)
        def counted(rows, *args, **kwargs):
            tracer.cells += len(rows) * (len(rows[0]) if rows else 0)
            return wrapper(rows, *args, **kwargs)

        return counted

    def install(self) -> None:
        """Replace every binding of every traced callable with its wrapper.

        Bindings are module globals, class attributes and entries of
        module-level dicts (such as `cli.COMMANDS` and `suites.SUITES`).
        """
        if self._installed:
            raise RuntimeError("tracer already installed")
        by_id = {id(orig): wrapper for _, orig, wrapper in self.targets()}
        holders = []
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "orbicurve" or name.startswith("orbicurve.")):
                continue
            holders.append(vars(mod))
            for obj in vars(mod).values():
                if inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    holders.append(obj)
                elif isinstance(obj, dict):
                    holders.append(obj)
        for holder in holders:
            items = holder if isinstance(holder, dict) else vars(holder)
            for key, value in list(items.items()):
                wrapper = by_id.get(id(value))
                if wrapper is not None:
                    self._set(holder, key, wrapper)
                    self._installed.append((holder, key, value))

    @staticmethod
    def _set(holder, key, value) -> None:
        if isinstance(holder, dict):
            holder[key] = value
        else:
            setattr(holder, key, value)

    def uninstall(self) -> None:
        for holder, key, value in reversed(self._installed):
            self._set(holder, key, value)
        self._installed.clear()

    # -- results ------------------------------------------------------------------

    def snapshot(self) -> dict:
        """Per-name calls and self seconds recorded since the last reset."""
        return {
            "calls": dict(self.calls),
            "self_s": {k: v / 1e9 for k, v in self.self_ns.items()},
            "cells": self.cells,
            "worker_spans": self.worker_spans,
            "worker_cache": dict(self.worker_cache),
        }
