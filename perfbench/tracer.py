"""In-memory spans around the package's public functions.

A traced child process installs wrappers with :meth:`Tracer.wrap` before
it calls into the package, so the package itself is unchanged.  Spans
stay in memory until the child ends and dumps them.  Timestamps are
``time.monotonic_ns()``, the system-wide CLOCK_MONOTONIC on Linux, so a
server span and a client request can be compared across processes.
"""

from __future__ import annotations

import functools
import threading
import time
from typing import Any, Callable

Note = Callable[[tuple, dict, Any], dict]


class Tracer:
    """Collects ``(name, start_ns, end_ns, thread id, attrs)`` spans."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, int, int, int, dict]] = []
        self._lock = threading.Lock()

    def record(self, name: str, start: int, end: int,
               attrs: dict | None = None) -> None:
        with self._lock:
            self.spans.append(
                (name, start, end, threading.get_ident(), attrs or {}))

    def wrap(self, owner: Any, attr: str, name: str, *,
             note: Note | None = None,
             enter: Callable[[tuple, dict, int], None] | None = None) -> None:
        """Replace ``owner.attr`` by a wrapper that records one span per
        call.  ``enter(args, kwargs, start_ns)`` runs before the call;
        ``note(args, kwargs, result)`` returns the span's attributes."""
        raw = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        is_classmethod = isinstance(raw, classmethod)
        func = raw.__func__ if is_classmethod else raw

        @functools.wraps(func)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            start = time.monotonic_ns()
            if enter is not None:
                enter(args, kwargs, start)
            result = func(*args, **kwargs)
            end = time.monotonic_ns()
            self.record(name, start, end,
                        note(args, kwargs, result) if note else None)
            return result

        setattr(owner, attr, classmethod(wrapper) if is_classmethod
                else wrapper)

    def wrap_generator(self, owner: Any, attr: str, name: str) -> None:
        """Like :meth:`wrap` for a function returning an iterator: the
        span covers the call plus every ``next()``, not the consumer's
        time between items."""
        func = getattr(owner, attr)

        @functools.wraps(func)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            start = time.monotonic_ns()
            iterator = iter(func(*args, **kwargs))
            busy = time.monotonic_ns() - start
            try:
                while True:
                    t0 = time.monotonic_ns()
                    try:
                        item = next(iterator)
                    except StopIteration:
                        busy += time.monotonic_ns() - t0
                        return
                    busy += time.monotonic_ns() - t0
                    yield item
            finally:
                self.record(name, start, start + busy)

        setattr(owner, attr, wrapper)

    def total_s(self, name: str) -> float:
        return sum(end - start for n, start, end, _, _ in self.spans
                   if n == name) / 1e9

    def count(self, name: str) -> int:
        return sum(1 for n, *_ in self.spans if n == name)

    def dump(self) -> list[list]:
        return [list(span) for span in self.spans]
