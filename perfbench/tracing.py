"""Spans and counters for the traced benchmark run.

Spans are recorded from the benchmark's own code, around each call it makes
into a public discordium function; nothing inside the library is touched
except that the traced run counts ``numpy.linalg.eigh``/``eigvalsh`` calls
made while a span that asks for it is open.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager, nullcontext

_NULL = nullcontext()


class NullTracer:
    """Tracing off: every span is one shared no-op context manager."""

    def begin_op(self, op_id: int) -> None:
        pass

    def span(self, name: str, count_eig: bool = False):
        return _NULL


class Tracer:
    """In-memory span recorder with eigensolver call counters.

    Each span is ``(op_id, name, parent, start, end)``; spans of one
    operation share ``op_id``. ``eig_calls`` and ``eig_matrices`` grow only
    while a span opened with ``count_eig=True`` is active.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self.op_id = -1
        self._stack: list[str] = []
        self._counting = 0
        self.eig_calls = 0
        self.eig_matrices = 0
        self.op_eig = (0, 0)

    def begin_op(self, op_id: int) -> None:
        """Start a new operation: spans and eigensolver counts are per op."""
        self.op_id = op_id
        self.op_eig = (self.eig_calls, self.eig_matrices)

    @contextmanager
    def span(self, name: str, count_eig: bool = False):
        parent = self._stack[-1] if self._stack else None
        self._stack.append(name)
        self._counting += count_eig
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._counting -= count_eig
            self._stack.pop()
            self.spans.append((self.op_id, name, parent, start, end))

    def install_eig_counter(self) -> None:
        """Wrap numpy's Hermitian eigensolvers with counting shims.

        discordium looks ``np.linalg.eigh`` up at call time, so replacing the
        module attributes is enough. Only the traced run calls this.
        """
        import numpy as np
        import numpy.linalg as la

        def counted(fn):
            def wrapper(a, *args, **kwargs):
                if self._counting:
                    self.eig_calls += 1
                    self.eig_matrices += math.prod(np.shape(a)[:-2])
                return fn(a, *args, **kwargs)
            return wrapper

        la.eigh = counted(la.eigh)
        la.eigvalsh = counted(la.eigvalsh)

    def summary(self) -> dict:
        """Per span name: calls, total ms, and self ms (minus child spans)."""
        out: dict[str, dict] = {}
        # A child span ends before its parent, so children are seen first.
        open_children: dict[tuple, float] = {}
        for op_id, name, parent, start, end in self.spans:
            dur = end - start
            own = dur - open_children.pop((op_id, name), 0.0)
            if parent is not None:
                key = (op_id, parent)
                open_children[key] = open_children.get(key, 0.0) + dur
            rec = out.setdefault(name, {"calls": 0, "total_ms": 0.0, "self_ms": 0.0})
            rec["calls"] += 1
            rec["total_ms"] += dur * 1e3
            rec["self_ms"] += own * 1e3
        return out

    def total_ms(self, name: str) -> float:
        return sum((e - s) for _, n, _, s, e in self.spans if n == name) * 1e3
