"""The span tree node: one timed operation with attributes and children.

Spans form a tree per traced request (the :class:`~repro.obs.tracer.Tracer`
holds the roots).  Times are seconds relative to the owning tracer's
epoch, taken from a monotonic clock, so durations are meaningful even
when the wall clock steps.
"""

from __future__ import annotations

from array import array
from typing import TYPE_CHECKING, Any, Dict, Iterator, List, Optional, Tuple

if TYPE_CHECKING:
    from types import TracebackType

    from .tracer import Tracer

#: The compact form of one span subtree (see :func:`pack_span`): its
#: spans in depth-first order as columns — names, ``(start, end)``
#: float64 pairs, attribute dicts (None when empty), uint32 child
#: counts, and ``(position, status, error_type, error_message)`` for
#: the spans that did not end ``"ok"``.
PackedSpan = Tuple[
    Tuple[str, ...],
    bytes,
    Tuple[Optional[Dict[str, Any]], ...],
    bytes,
    Tuple[Tuple[int, str, Optional[str], Optional[str]], ...],
]

#: The packed end time of a span still open (no clock reads NaN).
_OPEN = float("nan")


class Span:
    """One timed operation in a trace tree.

    A span is its own context manager: :meth:`~repro.obs.tracer.Tracer.span`
    constructs it bound to the tracer, ``__enter__`` stamps the start
    time and pushes it onto the tracer's open-span stack, ``__exit__``
    stamps the end (recording the exception, if any) and pops it.
    Fusing the handle and the record into one hand-rolled slotted class
    saves an allocation and two delegating calls per span — spans are
    the highest-volume telemetry object (hundreds per sweep), so
    enter/exit IS the tracing hot path.

    Spans rebuilt from the packed wire form (or constructed directly)
    have no tracer binding and must not be used as context managers.
    """

    __slots__ = (
        "name",
        "start",
        "end",
        "attributes",
        "children",
        "status",
        "error_type",
        "error_message",
        "_tracer",
    )

    def __init__(
        self,
        name: str,
        start: float = 0.0,
        end: Optional[float] = None,
        attributes: "Optional[Dict[str, Any]]" = None,
        children: "Optional[List[Span]]" = None,
        status: str = "ok",
        error_type: Optional[str] = None,
        error_message: Optional[str] = None,
        tracer: "Optional[Tracer]" = None,
    ):
        self.name = name
        self.start = start
        self.end = end
        self.attributes = {} if attributes is None else attributes
        self.children = [] if children is None else children
        self.status = status
        self.error_type = error_type
        self.error_message = error_message
        self._tracer = tracer

    def __repr__(self) -> str:
        return (
            f"Span(name={self.name!r}, start={self.start!r}, end={self.end!r}, "
            f"status={self.status!r}, children={len(self.children)})"
        )

    def __enter__(self) -> "Span":
        tracer = self._tracer
        assert tracer is not None, "span is not bound to a tracer"
        self.start = tracer._clock() - tracer._epoch
        stack = tracer._stack
        if stack:
            stack[-1].children.append(self)
        else:
            tracer.roots.append(self)
        stack.append(self)
        return self

    def __exit__(
        self,
        exc_type: "Optional[type]",
        exc: Optional[BaseException],
        _tb: "Optional[TracebackType]",
    ) -> bool:
        tracer = self._tracer
        assert tracer is not None, "span is not bound to a tracer"
        self.end = tracer._clock() - tracer._epoch
        if exc is not None:
            self.status = "error"
            self.error_type = type(exc).__name__
            self.error_message = str(exc)
            self.attributes.setdefault("error", repr(exc))
        stack = tracer._stack
        if stack and stack[-1] is self:
            stack.pop()
            return False
        # Tolerate mis-nested exits (e.g. a generator closed late) by
        # unwinding to the span being closed instead of corrupting the
        # stack for every subsequent span.
        while stack:
            if stack.pop() is self:
                break
        return False

    @property
    def finished(self) -> bool:
        """Whether the span has been closed."""
        return self.end is not None

    @property
    def failed(self) -> bool:
        """Whether the span was exited by an exception."""
        return self.status == "error"

    @property
    def duration(self) -> float:
        """Seconds from start to end (0.0 while still open)."""
        if self.end is None:
            return 0.0
        return self.end - self.start

    @property
    def duration_ms(self) -> float:
        """Milliseconds from start to end (0.0 while still open)."""
        return self.duration * 1e3

    def set(self, **attributes: Any) -> "Span":
        """Attach attributes to the span; returns the span for chaining."""
        self.attributes.update(attributes)
        return self

    def shift(self, offset: float) -> "Span":
        """Move this span (and its subtree) ``offset`` seconds later.

        Used when adopting spans recorded against another tracer's
        epoch (a worker process's) onto this tracer's timeline;
        durations are unchanged.
        """
        self.start += offset
        if self.end is not None:
            self.end += offset
        for child in self.children:
            child.shift(offset)
        return self

    def walk(self, depth: int = 0) -> "Iterator[Tuple[Span, int]]":
        """Depth-first iteration of this span and its descendants."""
        yield self, depth
        for child in self.children:
            yield from child.walk(depth + 1)

    def to_dict(self, parent: Optional[str] = None, depth: int = 0) -> "Dict[str, Any]":
        """A flat JSON-friendly record (children are *not* embedded).

        ``status`` distinguishes errored spans from completed ones;
        failed spans additionally carry ``error_type`` and
        ``error_message``.
        """
        record = {
            "name": self.name,
            "parent": parent,
            "depth": depth,
            "start_ms": round(self.start * 1e3, 6),
            "end_ms": None if self.end is None else round(self.end * 1e3, 6),
            "duration_ms": round(self.duration_ms, 6),
            "status": self.status,
            "attributes": dict(self.attributes),
        }
        if self.failed:
            record["error_type"] = self.error_type
            record["error_message"] = self.error_message
        return record


def pack_span(span: Span) -> PackedSpan:
    """The span subtree as flat columns of primitives.

    The telemetry capsule ships worker spans in this form: a tuple of
    names, two byte buffers and the attribute dicts pickle entirely in
    C with no container per span, so the capsule crossing the process
    boundary per chunk — the fabric's hottest serialization path —
    costs less to pickle, unpickle and collect than one tuple (or one
    object) per span.
    """
    names: "List[str]" = []
    times = array("d")
    attributes: "List[Optional[Dict[str, Any]]]" = []
    kids = array("I")
    failed: "List[Tuple[int, str, Optional[str], Optional[str]]]" = []
    stack = [span]
    while stack:
        node = stack.pop()
        if node.status != "ok" or node.error_type or node.error_message:
            failed.append(
                (len(names), node.status, node.error_type, node.error_message)
            )
        names.append(node.name)
        times.append(node.start)
        times.append(_OPEN if node.end is None else node.end)
        attributes.append(node.attributes or None)
        kids.append(len(node.children))
        stack.extend(reversed(node.children))
    return (
        tuple(names),
        times.tobytes(),
        tuple(attributes),
        kids.tobytes(),
        tuple(failed),
    )


def unpack_span(packed: PackedSpan, shift: float = 0.0) -> Span:
    """Rebuild a :func:`pack_span` subtree, shifting times by ``shift``.

    Folding the rebase into reconstruction saves the separate
    :meth:`Span.shift` walk when a capsule is merged.
    """
    names, times, attributes, kids, failed = packed
    stamps = array("d")
    stamps.frombytes(times)
    counts = array("I")
    counts.frombytes(kids)
    spans: "List[Span]" = []
    for position, name in enumerate(names):
        end = stamps[2 * position + 1]
        attrs = attributes[position]
        spans.append(
            Span(
                name,
                start=stamps[2 * position] + shift,
                end=None if end != end else end + shift,
                attributes=dict(attrs) if attrs else {},
            )
        )
    for position, status, error_type, error_message in failed:
        span = spans[position]
        span.status = status
        span.error_type = error_type
        span.error_message = error_message
    # Depth-first order plus child counts fix the tree: each span is the
    # next child of the nearest ancestor with children still to attach.
    parents = [spans[0]]
    remaining = [counts[0]]
    for position in range(1, len(spans)):
        while not remaining[-1]:
            parents.pop()
            remaining.pop()
        remaining[-1] -= 1
        parents[-1].children.append(spans[position])
        parents.append(spans[position])
        remaining.append(counts[position])
    return spans[0]
