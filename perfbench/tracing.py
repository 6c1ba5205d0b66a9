"""In-memory spans recorded around calls into each layer.

Spans are opened only by the benchmark's own code, around public
calls.  A span's parent is the innermost open span of the same thread,
so a layer's self time is its duration minus what its children cover.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, List, Optional


@dataclass
class Span:
    name: str
    parent: Optional["Span"]
    start: float
    end: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        """Time one call under the innermost open span of this thread."""
        stack = self._stack()
        sp = Span(name, stack[-1] if stack else None, time.perf_counter())
        stack.append(sp)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(sp)

    def named(self, name: str) -> List[Span]:
        return [s for s in self.spans if s.name == name]

    def children(self, span: Span) -> List[Span]:
        return [s for s in self.spans if s.parent is span]

    def self_time(self, span: Span) -> float:
        return span.duration - sum(c.duration for c in self.children(span))
