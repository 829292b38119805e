"""Nested spans over the paper's phase structure.

A :class:`Tracer` produces a tree of :class:`Span` records::

    fit
    ├─ tree_construction
    ├─ finding_reachable_groups
    ├─ clustering
    └─ post_processing

    mu_dbscan_d
    ├─ rank (rank=0)
    │  ├─ partitioning
    │  ├─ ... local μDBSCAN phases ...
    │  └─ merging
    └─ rank (rank=1) ...

    serving.predict
    ├─ route
    └─ score

Span parentage is tracked per thread (each rank thread / worker builds
its own chain), and a tracer can be *re-rooted* under a remote parent
via :meth:`Tracer.context` / :meth:`Tracer.from_context` — that is the
``trace_context`` the process backend pickles to its workers so every
rank's spans land in the driver's tree.  Finished spans serialize to
JSON-lines (:meth:`Tracer.export_jsonl`) and round-trip losslessly, so
a trace file is both a debugging artifact and the input to the
run-report renderer (:func:`repro.instrumentation.report.run_report_from_trace`).

Instrumented code does not hold a tracer; it calls :func:`maybe_span`,
which resolves the *active* tracer (installed with
:meth:`Tracer.activate`) and falls back to a shared no-op context
manager — one thread-local read and one ``is None`` check when tracing
is off.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
import uuid
from pathlib import Path
from typing import Any, Iterator

__all__ = [
    "NOOP_SPAN",
    "Span",
    "Tracer",
    "current_tracer",
    "finish_span",
    "load_jsonl",
    "maybe_span",
    "new_trace_id",
    "span_children",
]


# span ids: a per-process random prefix plus a process-wide counter.
# uuid4-per-span showed up in the enabled-mode overhead profile (one
# getrandom syscall per span); the prefix keeps ids unique across rank
# processes while next() on the counter is a single atomic bump.
_ID_PREFIX = uuid.uuid4().hex[:8]
_id_counter = itertools.count()


def _new_id() -> str:
    return f"{_ID_PREFIX}{next(_id_counter):08x}"


def new_trace_id() -> str:
    """A fresh process-unique id — trace ids, fleet request ids."""
    return _new_id()


def finish_span(span: Span) -> dict[str, Any]:
    """Close a hand-managed span (built without a tracer) and return
    its dict — for callers that time an operation across callbacks
    where a context manager cannot bracket the lifetime (the fleet's
    dispatch-to-merge window)."""
    span.duration = time.perf_counter() - span._t0
    return span.to_dict()


class Span:
    """One timed, named, attributed node of a trace tree."""

    __slots__ = (
        "name", "trace_id", "span_id", "parent_id",
        "start_unix", "duration", "attrs", "_t0",
    )

    def __init__(
        self,
        name: str,
        trace_id: str,
        parent_id: str | None,
        attrs: dict[str, Any],
    ) -> None:
        self.name = name
        self.trace_id = trace_id
        self.span_id = _new_id()
        self.parent_id = parent_id
        self.start_unix = time.time()
        self.duration: float | None = None
        self.attrs = attrs
        self._t0 = time.perf_counter()

    def set_attr(self, key: str, value: Any) -> None:
        """Attach/overwrite one attribute on an open span."""
        self.attrs[key] = value

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start_unix": self.start_unix,
            "duration_s": self.duration,
            "attrs": self.attrs,
        }


class _NoopSpan:
    """Shared do-nothing span context (tracing off / tracer disabled)."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        pass

    def set_attr(self, key: str, value: Any) -> None:
        pass


NOOP_SPAN = _NoopSpan()


class _SpanContext:
    """Context manager that opens/closes one span on its tracer."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span:
        self._tracer._push(self._span)
        return self._span

    def __exit__(self, *exc_info) -> None:
        self._tracer._pop(self._span)


class Tracer:
    """Span factory + finished-span sink for one logical trace.

    ``enabled=False`` builds a tracer whose :meth:`span` always returns
    the shared no-op context — useful for measuring the disabled-mode
    overhead with every call site still exercised.
    """

    def __init__(
        self,
        service: str = "repro",
        *,
        enabled: bool = True,
        trace_id: str | None = None,
        parent_id: str | None = None,
    ) -> None:
        self.service = service
        self.enabled = bool(enabled)
        self.trace_id = trace_id or _new_id()
        #: remote parent for this tracer's root spans (rank tracers)
        self.root_parent_id = parent_id
        self._stack = threading.local()
        self._finished: list[Span] = []
        self._adopted: list[dict[str, Any]] = []
        self._lock = threading.Lock()

    # -- span lifecycle -------------------------------------------------

    def _top(self) -> Span | None:
        stack = getattr(self._stack, "spans", None)
        return stack[-1] if stack else None

    def _push(self, span: Span) -> None:
        stack = getattr(self._stack, "spans", None)
        if stack is None:
            stack = []
            self._stack.spans = stack
        stack.append(span)

    def _pop(self, span: Span) -> None:
        span.duration = time.perf_counter() - span._t0
        stack = self._stack.spans
        assert stack and stack[-1] is span, "span exit order violated"
        stack.pop()
        with self._lock:
            self._finished.append(span)

    def span(self, name: str, **attrs: Any):
        """Open a span nested under this thread's current span."""
        if not self.enabled:
            return NOOP_SPAN
        parent = self._top()
        parent_id = parent.span_id if parent is not None else self.root_parent_id
        return _SpanContext(self, Span(name, self.trace_id, parent_id, attrs))

    # -- activation (what maybe_span resolves) --------------------------

    def activate(self) -> "_Activation":
        """Context manager installing this tracer as the thread's active one."""
        return _Activation(self)

    # -- cross-process propagation --------------------------------------

    def context(self) -> dict[str, str | None]:
        """Serializable ``trace_context`` for a child tracer.

        The child's root spans become children of the caller's current
        span (or of this tracer's own remote parent at top level).
        """
        parent = self._top()
        return {
            "trace_id": self.trace_id,
            "parent_id": parent.span_id if parent is not None else self.root_parent_id,
            "service": self.service,
        }

    @classmethod
    def from_context(cls, ctx: dict[str, str | None] | None) -> "Tracer":
        """Build a child tracer re-rooted under ``ctx`` (disabled if None)."""
        if ctx is None:
            return cls(enabled=False)
        return cls(
            str(ctx.get("service") or "repro"),
            trace_id=str(ctx["trace_id"]),
            parent_id=ctx.get("parent_id"),
        )

    def adopt(self, span_dicts: list[dict[str, Any]]) -> None:
        """Merge serialized spans (a child tracer's export) into this trace."""
        with self._lock:
            self._adopted.extend(span_dicts)

    # -- export ---------------------------------------------------------

    def finished(self) -> list[dict[str, Any]]:
        """Every closed span (adopted ones included), start-ordered."""
        with self._lock:
            out = [span.to_dict() for span in self._finished] + list(self._adopted)
        return sorted(out, key=lambda d: d["start_unix"])

    def export_jsonl(self, path: str | Path) -> Path:
        """Write one JSON object per span; returns the path."""
        path = Path(path)
        lines = [json.dumps(d, sort_keys=True) for d in self.finished()]
        path.write_text("\n".join(lines) + ("\n" if lines else ""))
        return path


class _Activation:
    __slots__ = ("_tracer", "_previous")

    def __init__(self, tracer: Tracer) -> None:
        self._tracer = tracer
        self._previous: Tracer | None = None

    def __enter__(self) -> Tracer:
        self._previous = getattr(_active, "tracer", None)
        _active.tracer = self._tracer
        return self._tracer

    def __exit__(self, *exc_info) -> None:
        _active.tracer = self._previous


_active = threading.local()


def current_tracer() -> Tracer | None:
    """The tracer activated on this thread, if any."""
    return getattr(_active, "tracer", None)


def maybe_span(name: str, **attrs: Any):
    """Span on the active tracer, or the shared no-op context.

    This is the hook instrumented code calls — when no tracer is
    active (the default) the cost is one thread-local read.
    """
    tracer = getattr(_active, "tracer", None)
    if tracer is None:
        return NOOP_SPAN
    return tracer.span(name, **attrs)


def load_jsonl(path: str | Path) -> list[dict[str, Any]]:
    """Read spans back from a :meth:`Tracer.export_jsonl` file."""
    out = []
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if line:
            out.append(json.loads(line))
    return out


def span_children(
    spans: list[dict[str, Any]], parent_id: str | None
) -> Iterator[dict[str, Any]]:
    """Spans whose ``parent_id`` is ``parent_id``, start-ordered."""
    for span in sorted(spans, key=lambda d: d["start_unix"]):
        if span.get("parent_id") == parent_id:
            yield span
