"""In-memory span recorder for the benchmark's traced runs.

Spans are recorded from the benchmark's own code: ``Tracer.wrap``
replaces a public callable on its module or class with a wrapper that
opens a span around every call, and ``Tracer.restore`` puts the
originals back.  Nothing under ``src/`` knows it is being traced.

Each span carries a name, start and end (``time.perf_counter``), its
parent span, the thread it ran on, and the run id.  Spans stay in
memory and are written once, as Chrome trace-event JSON, when the run
ends.

Self time is a span's duration minus the time its direct children
cover.  On the thread that opened the traced window, the self times of
all spans plus an explicit ``(unattributed)`` row (traced wall minus
the top-level spans) add up to the traced wall exactly; spans on other
threads (the daemon's HTTP and dispatcher threads) run concurrently
with it and are reported as busy time of their own.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from dataclasses import dataclass

UNATTRIBUTED = "(unattributed)"


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: str
    run_id: str

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans; thread-safe, one stack per thread."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0
        self._patched: list[tuple[object, str, object]] = []
        self.window: tuple[float, float] | None = None
        self._window_thread = threading.current_thread().name

    # -- recording -----------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str):
        """A span context; a no-op outside the traced window."""
        if self.window is None or self.window[1]:
            return _NULL_CONTEXT
        return _SpanContext(self, name)

    def wrap(self, owner, attr: str, name: str, *, label=None) -> None:
        """Patch ``owner.attr`` with a span-recording wrapper.

        ``label(args, kwargs)``, when given, returns a suffix appended
        to the span name for that call (e.g. the tool a ``run_tools``
        call runs)."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        target = original.__func__ if isinstance(original, staticmethod) else original

        @functools.wraps(target)
        def wrapper(*args, **kwargs):
            span_name = name if label is None else f"{name}.{label(args, kwargs)}"
            with self.span(span_name):
                return target(*args, **kwargs)

        replacement = staticmethod(wrapper) if isinstance(original, staticmethod) else wrapper
        setattr(owner, attr, replacement)
        self._patched.append((owner, attr, original))

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def open_window(self) -> None:
        self._window_thread = threading.current_thread().name
        self.window = (time.perf_counter(), 0.0)

    def close_window(self) -> None:
        start, _ = self.window
        self.window = (start, time.perf_counter())

    # -- analysis ------------------------------------------------------

    @property
    def wall(self) -> float:
        start, end = self.window
        return end - start

    def self_times(self) -> dict[int, float]:
        """Span id → duration minus the time its direct children
        cover (children of one span on one thread never overlap)."""
        child_time: dict[int, float] = {}
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] = child_time.get(span.parent, 0.0) + span.duration
        return {
            span.id: span.duration - child_time.get(span.id, 0.0)
            for span in self.spans
        }

    def table(self) -> list[dict]:
        """Per-name rows on the window thread (count, total, self)
        plus ``(unattributed)``; then rows of the other threads."""
        selfs = self.self_times()
        rows: dict[tuple[bool, str], dict] = {}
        top_level = 0.0
        for span in self.spans:
            main = span.thread == self._window_thread
            if main and span.parent is None:
                top_level += span.duration
            row = rows.setdefault(
                (main, span.name),
                {"name": span.name, "main": main, "count": 0, "total_s": 0.0, "self_s": 0.0},
            )
            row["count"] += 1
            row["total_s"] += span.duration
            row["self_s"] += selfs[span.id]
        ordered = sorted(rows.values(), key=lambda r: (not r["main"], -r["self_s"]))
        ordered.insert(
            sum(1 for r in ordered if r["main"]),
            {
                "name": UNATTRIBUTED,
                "main": True,
                "count": 1,
                "total_s": self.wall - top_level,
                "self_s": self.wall - top_level,
            },
        )
        return ordered

    def unattributed(self) -> float:
        return next(r["self_s"] for r in self.table() if r["name"] == UNATTRIBUTED)

    def total(self, name: str) -> float:
        """Summed duration of every span called ``name`` (any thread)."""
        return sum(s.duration for s in self.spans if s.name == name)

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s.name == name)

    def render(self) -> str:
        lines = [f"{'span':<44}{'thread':>8}{'count':>7}{'total_s':>11}{'self_s':>11}"]
        for row in self.table():
            lines.append(
                f"{row['name']:<44}{'main' if row['main'] else 'other':>8}"
                f"{row['count']:>7}{row['total_s']:>11.4f}{row['self_s']:>11.4f}"
            )
        lines.append(f"{'traced wall':<44}{'main':>8}{'':>7}{self.wall:>11.4f}")
        return "\n".join(lines)

    def chrome_trace(self) -> dict:
        """Chrome trace-event JSON (``X`` complete events, µs)."""
        origin = self.window[0]
        events = [
            {
                "name": span.name,
                "ph": "X",
                "ts": (span.start - origin) * 1e6,
                "dur": span.duration * 1e6,
                "pid": 1,
                "tid": span.thread,
                "args": {"id": span.id, "parent": span.parent, "run": span.run_id},
            }
            for span in self.spans
        ]
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {"run": self.run_id, "wall_s": self.wall, "table": self.table()},
        }

    def write(self, path) -> None:
        with open(path, "w") as handle:
            json.dump(self.chrome_trace(), handle)


class _SpanContext:
    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tracer = self.tracer
        stack = tracer._stack()
        with tracer._lock:
            self.id = tracer._next_id
            tracer._next_id += 1
        self.parent = stack[-1] if stack else None
        stack.append(self.id)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        end = time.perf_counter()
        tracer = self.tracer
        tracer._stack().pop()
        span = Span(
            id=self.id,
            name=self.name,
            start=self.start,
            end=end,
            parent=self.parent,
            thread=threading.current_thread().name,
            run_id=tracer.run_id,
        )
        with tracer._lock:
            tracer.spans.append(span)


class NullTracer:
    """Tracing off: spans cost one attribute lookup and a no-op."""

    def span(self, name: str):
        return _NULL_CONTEXT


class _NullContext:
    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        pass


_NULL_CONTEXT = _NullContext()
