"""Cross-process trace context and the worker telemetry capsule.

The process pool in :mod:`repro.engine.executor` runs tasks in child
processes, where the parent's tracer and metrics registry do not
exist: every span, counter and histogram sample recorded there would
be silently dropped.  This module closes that gap with three pieces:

* :class:`TraceContext` — the compact, picklable description of the
  parent's telemetry state that rides along with each dispatched task
  chunk: the run ID, which instruments are live, and the parent
  tracer's clock at dispatch (so worker span times can be rebased
  onto the parent's timeline);
* :class:`TelemetryCapture` / :class:`TelemetryCapsule` — the worker
  side.  ``TelemetryCapture(ctx)`` installs a fresh tracer/registry
  for the duration of a chunk; ``finish()`` uninstalls them and packs
  everything recorded — span trees, metric deltas, the worker PID —
  into a :class:`TelemetryCapsule`, which is returned to the parent
  alongside the chunk's results;
* :func:`merge_capsule` — the parent side: worker span roots are
  adopted under the currently open span (tagged with the worker's
  ``pid`` and rebased by the dispatch-time offset), counter deltas
  are summed into the parent registry, histogram buckets merged, and
  gauges applied in chunk order (which is submission order, so the
  final gauge value matches a serial run).

Run IDs name one end-to-end invocation (one CLI run, one ledger
directory).  :func:`get_run_id` mints one lazily; the CLI installs
the ledger's ID via :func:`set_run_id` so capsules, heartbeats and
artifacts all agree.
"""

from __future__ import annotations

import os
import time
import uuid
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from .metrics import MetricsRegistry, get_metrics, set_metrics
from .spans import PackedSpan, Span, pack_span, unpack_span
from .tracer import Tracer, get_tracer, set_tracer

_RUN_ID: Optional[str] = None


def new_run_id() -> str:
    """A fresh, sortable, collision-resistant run identifier."""
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    return f"{stamp}-{os.getpid():x}-{uuid.uuid4().hex[:8]}"


def get_run_id() -> str:
    """The current process-wide run ID (minted on first use)."""
    global _RUN_ID
    if _RUN_ID is None:
        _RUN_ID = new_run_id()
    return _RUN_ID


def set_run_id(run_id: Optional[str]) -> Optional[str]:
    """Install ``run_id`` globally (``None`` forgets it, so the next
    :func:`get_run_id` mints a fresh one)."""
    global _RUN_ID
    _RUN_ID = run_id
    return _RUN_ID


@dataclass(frozen=True)
class TraceContext:
    """What a dispatched task chunk needs to know about the parent's
    telemetry: whether to capture at all, and how to label/rebase it."""

    run_id: str
    trace: bool = False
    metrics: bool = False

    #: The parent tracer's clock (seconds since its epoch) when the
    #: chunk was dispatched; worker spans are shifted by this offset on
    #: merge so they land at roughly the right place on the parent's
    #: timeline (durations are exact; only the alignment is approximate).
    base: float = 0.0

    @property
    def enabled(self) -> bool:
        return self.trace or self.metrics


def current_context() -> Optional[TraceContext]:
    """A :class:`TraceContext` describing the installed tracer/metrics,
    or None when both are disabled (workers then skip capture entirely)."""
    tracer = get_tracer()
    metrics = get_metrics()
    if not tracer.enabled and not metrics.enabled:
        return None
    base = tracer.now() if isinstance(tracer, Tracer) else 0.0
    return TraceContext(
        run_id=get_run_id(),
        trace=tracer.enabled,
        metrics=metrics.enabled,
        base=base,
    )


@dataclass
class TelemetryCapsule:
    """Everything one worker recorded while executing one task chunk.

    ``packed_spans`` are the worker tracer's root spans in the compact
    columnar form of :func:`~repro.obs.spans.pack_span` — pickling
    primitives keeps the per-chunk transport cost off the sweep's
    critical path.  Times stay relative to the worker's capture epoch
    until :func:`merge_capsule` rebases them.  ``metrics`` is the
    worker registry's full state — counter values are *deltas* because
    the capture registry starts empty.
    """

    pid: int
    run_id: str
    base: float = 0.0
    packed_spans: "Tuple[PackedSpan, ...]" = ()
    metrics: "Optional[Dict[str, Any]]" = None
    span_count: int = 0

    @property
    def spans(self) -> "Tuple[Span, ...]":
        """The span trees rebuilt as :class:`Span` objects (unshifted)."""
        return tuple(unpack_span(packed) for packed in self.packed_spans)


class TelemetryCapture:
    """Worker-side capture scope: install fresh instruments, run the
    chunk, then pack a :class:`TelemetryCapsule` and restore the
    previous (usually disabled) instruments."""

    def __init__(self, ctx: TraceContext):
        self._ctx = ctx
        self._previous_tracer = get_tracer()
        self._previous_metrics = get_metrics()
        self._tracer: Optional[Tracer] = None
        self._registry: Optional[MetricsRegistry] = None
        if ctx.trace:
            self._tracer = Tracer()
            set_tracer(self._tracer)
        if ctx.metrics:
            self._registry = MetricsRegistry()
            set_metrics(self._registry)

    def finish(self) -> TelemetryCapsule:
        """Restore the previous instruments and build the capsule."""
        tracer_module_current = get_tracer()
        if self._tracer is not None and tracer_module_current is self._tracer:
            set_tracer(
                self._previous_tracer
                if isinstance(self._previous_tracer, Tracer)
                else None
            )
        if self._registry is not None and get_metrics() is self._registry:
            set_metrics(
                None
                if not self._previous_metrics.enabled
                else self._previous_metrics
            )
        packed: "Tuple[PackedSpan, ...]" = ()
        span_count = 0
        if self._tracer is not None:
            packed = tuple(pack_span(root) for root in self._tracer.roots)
            span_count = sum(1 for root in self._tracer.roots for _ in root.walk())
        return TelemetryCapsule(
            pid=os.getpid(),
            run_id=self._ctx.run_id,
            base=self._ctx.base,
            packed_spans=packed,
            metrics=self._registry.state() if self._registry is not None else None,
            span_count=span_count,
        )


def merge_capsule(
    capsule: TelemetryCapsule,
    tracer: "Optional[Tracer]" = None,
    metrics: "Optional[MetricsRegistry]" = None,
) -> None:
    """Fold one worker capsule into the parent's instruments.

    Span roots gain a ``pid`` attribute and are adopted under the
    currently open parent span; counter deltas are summed, histogram
    buckets merged, gauges applied last-write-wins.  Two bookkeeping
    counters record the merge itself: ``obs.capsules_merged`` and
    ``obs.worker_spans``.
    """
    target_tracer = tracer if tracer is not None else get_tracer()
    target_metrics = metrics if metrics is not None else get_metrics()
    if capsule.packed_spans:
        # Deferred adoption: the packed trees are anchored under the
        # open parent span now but only expanded into Span objects
        # when the trace is read (export time) — rebasing by the
        # dispatch offset and pid-stamping happen during that single
        # deferred walk, keeping the merge itself off the sweep's
        # critical path.
        target_tracer.adopt_packed(
            capsule.packed_spans, shift=capsule.base, pid=capsule.pid
        )
    if capsule.metrics:
        target_metrics.merge_state(capsule.metrics)
    if target_metrics.enabled:
        target_metrics.inc("obs.capsules_merged")
        if capsule.span_count:
            target_metrics.inc("obs.worker_spans", capsule.span_count)
