"""Span tracing and exact counters for the traced (``--trace 1``) run.

Nothing here changes the program: the workloads install these wrappers
on public functions of each layer for the duration of one traced phase
and remove them afterwards, so the untraced phases run the unmodified
code.

A span is ``(id, parent, op, name, start, end)``.  Two contextvars
carry the current span and the current client operation: tasks created
inside a span (``asyncio.gather`` fans chunk writes out as tasks) copy
the context, so their spans name the right parent and op.  Self time is
a span's duration minus the union of its children's intervals.  Spans
of coroutines (``cluster.*``, ``node.*``) are wall time including waits
on other tasks; the descriptions of the metrics built from them say so.
"""

from __future__ import annotations

import asyncio
import contextvars
import functools
import json
import time
from contextlib import asynccontextmanager
from pathlib import Path

_SPAN = contextvars.ContextVar("perfbench_span", default=0)
OP = contextvars.ContextVar("perfbench_op", default=0)


class Tracer:
    """In-memory span recorder plus call counters for one traced phase."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, int, str, float, float]] = []
        self.calls: dict[str, int] = {}
        self.lock_waits: list[float] = []
        self.lock_contended = 0
        self._next = 1
        self._undo: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #
    def _open(self, name: str):
        span_id = self._next
        self._next += 1
        self.calls[name] = self.calls.get(name, 0) + 1
        return span_id, _SPAN.set(span_id)

    def _close(self, span_id, token, parent, name, start) -> None:
        end = time.perf_counter()
        _SPAN.reset(token)
        self.spans.append((span_id, parent, OP.get(), name, start, end))

    def wrap_sync(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = _SPAN.get()
            span_id, token = self._open(name)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(span_id, token, parent, name, start)
        return traced

    def wrap_async(self, fn, name: str):
        @functools.wraps(fn)
        async def traced(*args, **kwargs):
            parent = _SPAN.get()
            span_id, token = self._open(name)
            start = time.perf_counter()
            try:
                return await fn(*args, **kwargs)
            finally:
                self._close(span_id, token, parent, name, start)
        return traced

    def wrap_lock(self, lock_cm):
        """Wrap ``KeyShards.lock``: wait time and contention.

        The ``cluster.lock`` span covers only the wait, entry to
        acquisition, so the critical section stays in the caller's self
        time.  A key's lock is contended when another task holds it at
        entry (read from the shard's lock table).
        """
        tracer = self

        @asynccontextmanager
        async def traced(shards, key):
            entry = shards._locks[shards.shard_of(key)].get(key)
            if entry is not None and entry[0].locked():
                tracer.lock_contended += 1
            parent = _SPAN.get()
            span_id, token = tracer._open("cluster.lock")
            start = time.perf_counter()
            waiting = True
            try:
                async with lock_cm(shards, key):
                    tracer._close(span_id, token, parent, "cluster.lock",
                                  start)
                    waiting = False
                    tracer.lock_waits.append(time.perf_counter() - start)
                    yield
            finally:
                if waiting:
                    tracer._close(span_id, token, parent, "cluster.lock",
                                  start)
        return traced

    # ------------------------------------------------------------------ #
    # Installation
    # ------------------------------------------------------------------ #
    def patch(self, owner, attr: str, name: str, kind: str = "sync") -> None:
        original = getattr(owner, attr)
        if kind == "async":
            replacement = self.wrap_async(original, name)
        elif kind == "lock":
            replacement = self.wrap_lock(original)
        else:
            replacement = self.wrap_sync(original, name)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def unpatch(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------ #
    # Analysis
    # ------------------------------------------------------------------ #
    def totals(self) -> tuple[dict[str, float], dict[str, float]]:
        """``(duration, self time)`` in seconds, summed per span name."""
        children: dict[int, list[tuple[float, float]]] = {}
        for _, parent, _, _, start, end in self.spans:
            if parent:
                children.setdefault(parent, []).append((start, end))
        duration: dict[str, float] = {}
        self_time: dict[str, float] = {}
        for span_id, _, _, name, start, end in self.spans:
            covered = _covered(children.get(span_id, ()), start, end)
            duration[name] = duration.get(name, 0.0) + (end - start)
            self_time[name] = (self_time.get(name, 0.0)
                               + (end - start) - covered)
        return duration, self_time

    def under(self, ancestor: str, name: str) -> float:
        """Total duration of ``name`` spans nested anywhere below an
        ``ancestor`` span."""
        by_id = {span[0]: span for span in self.spans}
        total = 0.0
        for span in self.spans:
            if span[3] != name:
                continue
            parent = span[1]
            while parent:
                if by_id[parent][3] == ancestor:
                    total += span[5] - span[4]
                    break
                parent = by_id[parent][1]
        return total

    def dump(self, path: Path) -> None:
        """Write the spans out as JSON lines (once, at the end)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for span_id, parent, op, name, start, end in self.spans:
                out.write(json.dumps(
                    {"id": span_id, "parent": parent, "op": op,
                     "name": name, "start": start, "end": end}) + "\n")


def _covered(intervals, start: float, end: float) -> float:
    """Length of ``[start, end]`` covered by the union of intervals."""
    total, reach = 0.0, start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


class CountingLoop(asyncio.SelectorEventLoop):
    """An event loop that counts scheduled callbacks and created tasks.

    Both counts are exact for a fixed sequence of operations on the
    in-process backend, which neither sleeps nor does I/O.
    """

    def __init__(self) -> None:
        super().__init__()
        self.callbacks = 0
        self.tasks = 0

    def call_soon(self, callback, *args, context=None):
        self.callbacks += 1
        return super().call_soon(callback, *args, context=context)

    def create_task(self, coro, *, name=None, context=None):
        self.tasks += 1
        return super().create_task(coro, name=name, context=context)
