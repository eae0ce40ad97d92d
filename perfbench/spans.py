"""Spans recorded from outside the program, at its module boundaries.

A :class:`Tracer` replaces chosen module or class attributes of the
program with thin wrappers that record one span per call -- name, start,
end, parent span and epoch id -- and restores the originals when the
traced run ends.  Nothing is installed unless a traced run asks for it,
so the untraced run executes the program's own attributes untouched.

The current span lives in a :class:`contextvars.ContextVar`, so spans
opened by concurrent asyncio tasks get the parent of their own task,
not whichever span another task happens to have open.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import json
import pathlib
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

#: ``after(tracer, result, args, kwargs)`` records counters from a call.
After = Callable[["Tracer", Any, tuple, dict], None]


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    epoch: Optional[str]

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered(interval: Tuple[float, float], parts: Sequence[Tuple[float, float]]) -> float:
    """Length of ``interval`` covered by the union of ``parts``.

    Parts may nest or overlap each other and may stick out of the
    interval; each point of the interval counts once.
    """
    lo, hi = interval
    clipped = sorted(
        (max(lo, a), min(hi, b)) for a, b in parts if b > lo and a < hi
    )
    total = 0.0
    cur_a: Optional[float] = None
    cur_b = 0.0
    for a, b in clipped:
        if cur_a is None or a > cur_b:
            if cur_a is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_a is not None:
        total += cur_b - cur_a
    return total


def self_time(span: Span, children: Sequence[Span]) -> float:
    """The span's duration minus the part of it its children cover."""
    return span.duration - covered(
        (span.start, span.end), [(c.start, c.end) for c in children]
    )


class Tracer:
    """In-memory spans and per-epoch counters, written out at the end."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counters: Dict[str, Dict[str, float]] = defaultdict(dict)
        self.epoch: Optional[str] = None
        self._current: contextvars.ContextVar[Optional[int]] = contextvars.ContextVar(
            "perfbench_span", default=None
        )
        self._installed: List[Tuple[Any, str, Any]] = []

    # -- spans ---------------------------------------------------------

    @contextmanager
    def span(self, name: str) -> Iterator[int]:
        span_id = len(self.spans)
        parent = self._current.get()
        span = Span(span_id, name, time.perf_counter(), 0.0, parent, self.epoch)
        self.spans.append(span)
        token = self._current.set(span_id)
        try:
            yield span_id
        finally:
            span.end = time.perf_counter()
            self._current.reset(token)

    def count(self, name: str, value: float) -> None:
        """Add ``value`` to counter ``name`` of the current epoch."""
        per_epoch = self.counters[name]
        key = str(self.epoch)
        per_epoch[key] = per_epoch.get(key, 0.0) + value

    def gauge(self, name: str, value: float) -> None:
        """Keep the largest ``value`` of counter ``name`` this epoch."""
        per_epoch = self.counters[name]
        key = str(self.epoch)
        per_epoch[key] = max(per_epoch.get(key, value), value)

    # -- installing wrappers -------------------------------------------

    def wrap(
        self, owner: Any, attr: str, name: str, after: Optional[After] = None
    ) -> None:
        """Record a span named ``name`` around every call of ``owner.attr``.

        ``owner`` is a module or a class; class-, static- and instance
        methods and coroutine functions are all handled.  ``after`` reads
        counters off the call's result and arguments.
        """
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        func = raw.__func__ if kind is not None else raw
        tracer = self

        if inspect.iscoroutinefunction(func):

            @functools.wraps(func)
            async def wrapper(*args: Any, **kwargs: Any) -> Any:
                with tracer.span(name):
                    result = await func(*args, **kwargs)
                if after is not None:
                    after(tracer, result, args, kwargs)
                return result

        else:

            @functools.wraps(func)
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                with tracer.span(name):
                    result = func(*args, **kwargs)
                if after is not None:
                    after(tracer, result, args, kwargs)
                return result

        setattr(owner, attr, kind(wrapper) if kind is not None else wrapper)
        self._installed.append((owner, attr, raw))

    def restore(self) -> None:
        """Put every wrapped attribute back, newest first."""
        while self._installed:
            owner, attr, raw = self._installed.pop()
            setattr(owner, attr, raw)

    @contextmanager
    def installed(self, install: Callable[["Tracer"], None]) -> Iterator["Tracer"]:
        install(self)
        try:
            yield self
        finally:
            self.restore()

    # -- reading spans back --------------------------------------------

    def children(self) -> Dict[Optional[int], List[Span]]:
        out: Dict[Optional[int], List[Span]] = defaultdict(list)
        for s in self.spans:
            out[s.parent].append(s)
        return out

    def per_epoch(self, name: str, use_self_time: bool = False) -> Dict[str, float]:
        """Seconds spent in spans called ``name``, summed per epoch."""
        kids = self.children() if use_self_time else {}
        out: Dict[str, float] = defaultdict(float)
        for s in self.spans:
            if s.name == name:
                d = self_time(s, kids.get(s.id, [])) if use_self_time else s.duration
                out[str(s.epoch)] += d
        return out

    def coverage(self, name: str) -> Dict[str, float]:
        """Per epoch, the share of span ``name`` its direct children cover."""
        kids = self.children()
        return {
            str(s.epoch): covered(
                (s.start, s.end), [(c.start, c.end) for c in kids.get(s.id, [])]
            )
            / s.duration
            for s in self.spans
            if s.name == name and s.duration > 0
        }

    def dump(self, path: pathlib.Path, meta: Dict[str, Any]) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump(
                {
                    "meta": meta,
                    "spans": [asdict(s) for s in self.spans],
                    "counters": self.counters,
                },
                fh,
            )
