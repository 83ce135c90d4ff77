"""Benchmark-side spans around calls into the program's layers.

Spans are kept in memory and written out once, as Chrome Trace Event
JSON (loadable in Perfetto or ``chrome://tracing``).  Each span records
its parent: the enclosing span on the same thread, or the current root
span (one served pass) for calls made on the program's own threads.
Wrappers are installed once and record only while the tracer is
``active``, so untraced passes run through them at the cost of one
attribute check.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


#: ``next()`` default marking an exhausted iterator.
_END = object()


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float
    tid: int
    args: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.active = False
        self.root: int | None = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._t0 = time.perf_counter()
        self._threads: dict[int, str] = {}

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            with self._lock:
                self._threads[threading.get_ident()] = (
                    threading.current_thread().name
                )
        return stack

    @contextmanager
    def span(self, name: str, **args):
        """Time the body as one span; yields the span id."""
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else self.root
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield sid
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(Span(
                    sid, parent, name, start, end, threading.get_ident(), args
                ))

    @contextmanager
    def root_span(self, name: str, **args):
        """An active span that parents calls made on other threads."""
        self.active = True
        with self.span(name, **args) as sid:
            self.root = sid
            try:
                yield sid
            finally:
                self.root = None
                self.active = False

    def wrap(self, name: str, fn, args_of=None):
        """``fn`` timed as a span named ``name`` while active."""

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            extra = args_of(*args, **kwargs) if args_of else {}
            with self.span(name, **extra):
                return fn(*args, **kwargs)

        return traced

    def iterate(self, name: str, iterable, on_item=None):
        """Yield from ``iterable``, timing each ``next()`` as a span."""
        it = iter(iterable)
        try:
            while True:
                if self.active:
                    with self.span(name):
                        item = next(it, _END)
                else:
                    item = next(it, _END)
                if item is _END:
                    return
                if on_item is not None:
                    on_item(item)
                yield item
        finally:
            close = getattr(it, "close", None)
            if close is not None:
                close()

    # -- reading ---------------------------------------------------------
    def within(self, root: int) -> list[Span]:
        """Every span descended from ``root``."""
        by_parent: dict[int | None, list[Span]] = {}
        for s in self.spans:
            by_parent.setdefault(s.parent, []).append(s)
        out: list[Span] = []
        todo = [root]
        while todo:
            for child in by_parent.get(todo.pop(), []):
                out.append(child)
                todo.append(child.id)
        return out

    def export_chrome(self, path: str, metadata: dict) -> None:
        pid = os.getpid()
        events = [
            {
                "name": "thread_name", "ph": "M", "pid": pid, "tid": tid,
                "args": {"name": tname},
            }
            for tid, tname in self._threads.items()
        ]
        for s in sorted(self.spans, key=lambda s: s.start):
            events.append({
                "name": s.name,
                "cat": s.name.split(".", 1)[0],
                "ph": "X",
                "ts": round((s.start - self._t0) * 1e6, 3),
                "dur": round(s.duration * 1e6, 3),
                "pid": pid,
                "tid": s.tid,
                "args": {"id": s.id, "parent": s.parent, **s.args},
            })
        tmp = f"{path}.tmp{pid}"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(
                {"traceEvents": events, "displayTimeUnit": "ms",
                 "otherData": metadata},
                fh,
            )
        os.replace(tmp, path)


class ForkCounter:
    """Counts ``os.fork`` calls made by this process (pool workers)."""

    def __init__(self) -> None:
        self.count = 0
        os.register_at_fork(after_in_parent=self._forked)

    def _forked(self) -> None:
        self.count += 1
