"""Hierarchical span tracer with a hard zero-overhead no-op path.

The tracer records *where wall time goes* inside a PDTL run: master phases
(staging, orientation, replication, scheduling), per-chunk triangle scans,
and per-window kernel invocations.  It is deliberately kept outside the
analytic accounting layer -- recording a span never touches ``IOStats``,
modelled clocks, or triangle counts, so traced and untraced runs stay
bit-identical in every accounted quantity.

Design points:

* One ``Tracer`` instance per execution context (the master thread, or one
  per :class:`~repro.core.scheduler.ChunkTask`).  Contexts never share a
  tracer, so no locking is needed and event buffers are append-only.
* Events carry a monotonically increasing ``seq`` assigned at span *entry*;
  buffers are sorted by ``seq`` on export, which makes the merged event
  order deterministic (enter order) even though events are appended on
  span *exit*.
* :data:`NULL_TRACER` is a module-level singleton whose ``span()`` returns
  one shared, pre-allocated null span.  Tracing disabled therefore costs a
  single attribute lookup and method call per span site -- no allocations,
  no event storage.
* ``SpanEvent`` is a frozen dataclass of plain scalars/tuples so chunk
  events can ride back to the master through pickled ``ChunkOutcome``s.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field


@dataclass(frozen=True)
class SpanEvent:
    """One completed span (or instant marker) on a single track.

    ``start`` is a ``time.perf_counter()`` reading; exporters rebase it
    against the earliest event so absolute epoch does not matter.
    ``args`` is a tuple of ``(key, value)`` pairs rather than a dict so the
    event is hashable and its pickled form is deterministic.
    """

    seq: int
    name: str
    cat: str
    start: float
    duration: float
    depth: int
    track: str
    args: tuple[tuple[str, object], ...] = ()

    @property
    def args_dict(self) -> dict[str, object]:
        return dict(self.args)

    def retrack(self, track: str) -> "SpanEvent":
        """Copy of this event re-homed onto another track."""
        return SpanEvent(
            seq=self.seq,
            name=self.name,
            cat=self.cat,
            start=self.start,
            duration=self.duration,
            depth=self.depth,
            track=track,
            args=self.args,
        )


class Span:
    """An open span; close it with :meth:`end` or use it as a context manager."""

    __slots__ = ("_tracer", "name", "cat", "seq", "depth", "start", "_args", "_open")

    def __init__(self, tracer: "Tracer", name: str, cat: str, args: dict[str, object]):
        self._tracer = tracer
        self.name = name
        self.cat = cat
        self.seq = tracer._next_seq()
        self.depth = tracer._depth
        self._args = args
        self._open = True
        self.start = tracer.clock()

    def annotate(self, **args: object) -> "Span":
        """Attach extra key/value payload to the span while it is open."""
        if self._open:
            self._args.update(args)
        return self

    def end(self, **args: object) -> None:
        if not self._open:
            return
        self._open = False
        if args:
            self._args.update(args)
        self._tracer._finish(self)

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        self.end()


class _NullSpan:
    """Shared do-nothing span returned by :class:`NullTracer`."""

    __slots__ = ()

    def annotate(self, **args: object) -> "_NullSpan":
        return self

    def end(self, **args: object) -> None:
        return None

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        return None


_NULL_SPAN = _NullSpan()


class Tracer:
    """Collects :class:`SpanEvent`s for one track (one execution context)."""

    enabled = True

    __slots__ = ("track", "clock", "_events", "_seq", "_depth")

    def __init__(self, track: str = "master", clock=time.perf_counter):
        self.track = track
        self.clock = clock
        self._events: list[SpanEvent] = []
        self._seq = 0
        self._depth = 0

    def _next_seq(self) -> int:
        seq = self._seq
        self._seq += 1
        return seq

    def span(self, name: str, cat: str = "phase", **args: object) -> Span:
        span = Span(self, name, cat, args)
        self._depth += 1
        return span

    def instant(self, name: str, cat: str = "instant", **args: object) -> None:
        """Record a zero-duration marker event."""
        now = self.clock()
        self._events.append(
            SpanEvent(
                seq=self._next_seq(),
                name=name,
                cat=cat,
                start=now,
                duration=0.0,
                depth=self._depth,
                track=self.track,
                args=tuple(sorted(args.items())),
            )
        )

    def record_span(
        self, name: str, start: float, duration: float, /, cat: str = "phase", **args: object
    ) -> None:
        """Append a span timed elsewhere (a compiled kernel's memory window),
        nested in the spans open now."""
        self._events.append(
            SpanEvent(
                seq=self._next_seq(),
                name=name,
                cat=cat,
                start=start,
                duration=duration,
                depth=self._depth,
                track=self.track,
                args=tuple(sorted(args.items())),
            )
        )

    def _finish(self, span: Span) -> None:
        self._depth -= 1
        self._events.append(
            SpanEvent(
                seq=span.seq,
                name=span.name,
                cat=span.cat,
                start=span.start,
                duration=self.clock() - span.start,
                depth=span.depth,
                track=self.track,
                args=tuple(sorted(span._args.items())),
            )
        )

    @property
    def events(self) -> tuple[SpanEvent, ...]:
        """Completed events in deterministic (enter-order) sequence."""
        return tuple(sorted(self._events, key=lambda e: e.seq))


class NullTracer:
    """Zero-overhead tracer used when tracing is disabled.

    ``span()``/``instant()`` allocate nothing: every call hands back the one
    module-level :data:`_NULL_SPAN`.
    """

    enabled = False

    __slots__ = ()

    track = "null"

    def span(self, name: str, cat: str = "phase", **args: object) -> _NullSpan:
        return _NULL_SPAN

    def instant(self, name: str, cat: str = "instant", **args: object) -> None:
        return None

    @property
    def events(self) -> tuple[SpanEvent, ...]:
        return ()


NULL_TRACER = NullTracer()


def as_tracer(trace: bool, track: str = "master") -> "Tracer | NullTracer":
    """Return a live :class:`Tracer` when ``trace`` else the shared null tracer."""
    return Tracer(track=track) if trace else NULL_TRACER
