"""Request tracing: span trees with cross-process context propagation.

A *trace* is the story of one request; a *span* is one named stage of
it (``admission``, ``batch``, ``dispatch``, ``execute``, ``reply``,
``lane_execute``...).  Spans carry ``trace_id`` / ``span_id`` /
``parent_id``, wall-clock start, duration, and an attrs dict for the
numbers that explain *where* an inference went: queue wait, service
and serialization time, shm-copy time, engine cycles / energy /
spike counts.

Context crosses every boundary the fabric has as a two-key dict
(:meth:`Span.context` → ``{"trace_id", "span_id"}``): it rides the
serve TCP protocol and the worker protocol as a ``trace`` field of the
request payload — which means it rides natively in the JSON header of
every ``RBF1`` frame, so remote lanes and ``--join`` workers land in
the same trace.
Worker-side spans return in the reply (``spans`` field /
``WorkResult.spans``) and are merged into the caller's recorder.

The disabled path is free by construction: ``Tracer.span(...)``
returns the shared :data:`NULL_SPAN` singleton — no object is
allocated per request, nothing is recorded, and ``spans_started``
stays 0 (the overhead guard in ``tests/test_telemetry.py``).

Finished spans land in a bounded :class:`FlightRecorder` (newest-wins
ring), queryable live over the TCP ``op: "traces"`` surface and the
``/traces`` endpoint of the metrics HTTP server.
"""

from __future__ import annotations

import os
import secrets
import threading
import time
from collections import deque

__all__ = [
    "Span",
    "NULL_SPAN",
    "Tracer",
    "FlightRecorder",
    "configure",
    "get_tracer",
    "tracing_enabled",
    "reset_telemetry",
    "telemetry_summary",
]


def _new_trace_id() -> str:
    return secrets.token_hex(8)


def _new_span_id() -> str:
    return secrets.token_hex(4)


class Span:
    """One named, timed stage of a trace.

    ``start`` is wall-clock (``time.time()``) so spans from different
    hosts line up roughly; ``duration_ms`` is measured with
    ``perf_counter`` so within one process stage durations are exact.
    Stage boundaries can be supplied explicitly (``started_at`` /
    ``finish(at=...)`` in perf-counter seconds), which is how the serve
    layer emits *contiguous* stage spans whose durations sum to the
    end-to-end latency by construction.
    """

    __slots__ = ("trace_id", "span_id", "parent_id", "name", "attrs",
                 "start", "duration_ms", "ok", "_t0", "_tracer")

    def __init__(self, name: str, trace_id: str | None = None,
                 parent_id: str | None = None, attrs: dict | None = None,
                 started_at: float | None = None, tracer=None) -> None:
        self.name = name
        self.trace_id = trace_id or _new_trace_id()
        self.span_id = _new_span_id()
        self.parent_id = parent_id
        self.attrs = attrs or {}
        self.ok = True
        self._t0 = time.perf_counter() if started_at is None else started_at
        self.start = time.time() - (time.perf_counter() - self._t0)
        self.duration_ms: float | None = None
        self._tracer = tracer

    @classmethod
    def child_of(cls, context: dict | None, name: str,
                 attrs: dict | None = None, tracer=None) -> "Span":
        """A span continuing a wire context (new root if ``context`` is
        falsy) — used by workers that trace on request, regardless of
        their own process-wide tracer state."""
        ctx = context or {}
        return cls(name, trace_id=ctx.get("trace_id"),
                   parent_id=ctx.get("span_id"), attrs=attrs, tracer=tracer)

    def context(self) -> dict:
        """The propagation dict to put on the wire (``trace`` field)."""
        return {"trace_id": self.trace_id, "span_id": self.span_id}

    def set(self, **attrs) -> None:
        self.attrs.update(attrs)

    def finish(self, at: float | None = None, ok: bool = True) -> "Span":
        if self.duration_ms is None:
            end = time.perf_counter() if at is None else at
            self.duration_ms = max(0.0, (end - self._t0) * 1e3)
            self.ok = ok
            if self._tracer is not None:
                self._tracer._record(self)
        return self

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.finish(ok=exc_type is None)

    def to_dict(self) -> dict:
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start": self.start,
            "duration_ms": self.duration_ms,
            "ok": self.ok,
            "attrs": dict(self.attrs),
            "pid": os.getpid(),
        }


class _NullSpan:
    """Shared do-nothing span: the whole disabled-tracing hot path."""

    __slots__ = ()
    trace_id = None
    span_id = None
    parent_id = None
    name = "null"
    duration_ms = None
    ok = True

    def context(self) -> None:
        return None

    def set(self, **attrs) -> None:
        pass

    def finish(self, at=None, ok=True) -> "_NullSpan":
        return self

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass

    def __bool__(self) -> bool:
        return False


#: The singleton handed out whenever tracing is disabled.
NULL_SPAN = _NullSpan()


class FlightRecorder:
    """Bounded newest-wins ring of finished span/event dicts."""

    def __init__(self, capacity: int = 2048) -> None:
        self.capacity = int(capacity)
        self._spans: deque = deque(maxlen=self.capacity)
        self._events: deque = deque(maxlen=256)
        self._lock = threading.Lock()

    def record(self, span_dict: dict) -> None:
        with self._lock:
            self._spans.append(span_dict)

    def record_event(self, kind: str, **attrs) -> None:
        with self._lock:
            self._events.append(
                {"kind": kind, "time": time.time(), **attrs})

    def spans(self, limit: int = 0) -> list[dict]:
        with self._lock:
            out = list(self._spans)
        return out[-limit:] if limit else out

    def events(self, limit: int = 0) -> list[dict]:
        with self._lock:
            out = list(self._events)
        return out[-limit:] if limit else out

    def trace(self, trace_id: str) -> list[dict]:
        """Every recorded span of one trace, oldest first."""
        return [s for s in self.spans() if s.get("trace_id") == trace_id]

    def traces(self, limit: int = 16) -> list[dict]:
        """Recent traces, newest first: grouped spans plus rollups."""
        grouped: dict[str, list[dict]] = {}
        order: list[str] = []
        for span in self.spans():
            tid = span.get("trace_id")
            if tid not in grouped:
                grouped[tid] = []
                order.append(tid)
            grouped[tid].append(span)
        out = []
        for tid in reversed(order[-limit:] if limit else order):
            spans = grouped[tid]
            roots = [s for s in spans if not s.get("parent_id")]
            out.append({
                "trace_id": tid,
                "num_spans": len(spans),
                "root": roots[0]["name"] if roots else None,
                "duration_ms": roots[0]["duration_ms"] if roots else None,
                "spans": spans,
            })
        return out

    def clear(self) -> None:
        with self._lock:
            self._spans.clear()
            self._events.clear()


class Tracer:
    """Hands out spans; when disabled, hands out :data:`NULL_SPAN`."""

    def __init__(self, enabled: bool = False,
                 recorder: FlightRecorder | None = None) -> None:
        self.enabled = bool(enabled)
        self.recorder = recorder or FlightRecorder()
        self.spans_started = 0
        self.spans_finished = 0

    def span(self, name: str, parent=None, context: dict | None = None,
             attrs: dict | None = None, started_at: float | None = None):
        """A new span, child of ``parent`` (a live span) or of a wire
        ``context``; the :data:`NULL_SPAN` singleton when disabled."""
        if not self.enabled:
            return NULL_SPAN
        self.spans_started += 1
        if parent is not None and parent is not NULL_SPAN:
            return Span(name, trace_id=parent.trace_id,
                        parent_id=parent.span_id, attrs=attrs,
                        started_at=started_at, tracer=self)
        ctx = context or {}
        return Span(name, trace_id=ctx.get("trace_id"),
                    parent_id=ctx.get("span_id"), attrs=attrs,
                    started_at=started_at, tracer=self)

    def _record(self, span: Span) -> None:
        self.spans_finished += 1
        self.recorder.record(span.to_dict())

    def record_foreign(self, span_dicts) -> None:
        """Merge spans produced in another process/host (reply ``spans``
        field) into this recorder, so the trace tree is whole here."""
        if not self.enabled or not span_dicts:
            return
        for d in span_dicts:
            if isinstance(d, dict) and d.get("trace_id"):
                self.recorder.record(d)

    def event(self, kind: str, **attrs) -> None:
        if self.enabled:
            self.recorder.record_event(kind, **attrs)


_TRACER = Tracer(enabled=False)


def get_tracer() -> Tracer:
    """The process-wide default tracer."""
    return _TRACER


def tracing_enabled() -> bool:
    return _TRACER.enabled


def configure(tracing: bool | None = None,
              recorder_capacity: int | None = None) -> Tracer:
    """Switch the process-wide telemetry plane on/off."""
    if recorder_capacity is not None:
        _TRACER.recorder = FlightRecorder(recorder_capacity)
    if tracing is not None:
        _TRACER.enabled = bool(tracing)
    return _TRACER


def reset_telemetry() -> None:
    """Back to the boot state: tracing off, recorder and registry empty
    (test isolation — also re-registers nothing; samplers re-attach on
    first use of their subsystem)."""
    from repro.telemetry.metrics import get_registry
    _TRACER.enabled = False
    _TRACER.recorder.clear()
    _TRACER.spans_started = 0
    _TRACER.spans_finished = 0
    get_registry().reset()
    # Registry children cached by other modules go stale when their
    # families are dropped; clear those caches so the next use
    # re-registers against the fresh registry.
    try:
        from repro.runtime import codec
        codec._BYTE_COUNTERS.clear()
    except ImportError:  # pragma: no cover - partial installs
        pass


def telemetry_summary() -> dict:
    """Rollup for benchmark artifacts: span totals plus per-stage time.

    ``per_stage_ms`` sums recorded span durations by span name, so a
    ``bench_*.json`` stamped with it records *where* the run's time
    went (admission vs batch wait vs execute ...), not just totals.
    """
    stages: dict[str, float] = {}
    counts: dict[str, int] = {}
    for span in _TRACER.recorder.spans():
        name = span.get("name", "?")
        dur = span.get("duration_ms")
        if dur is not None:
            stages[name] = stages.get(name, 0.0) + dur
            counts[name] = counts.get(name, 0) + 1
    return {
        "tracing_enabled": _TRACER.enabled,
        "spans_total": _TRACER.spans_finished,
        "per_stage_ms": {k: round(v, 3) for k, v in sorted(stages.items())},
        "per_stage_spans": dict(sorted(counts.items())),
    }
