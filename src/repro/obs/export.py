"""Run telemetry container and Chrome trace-event exporters.

:class:`RunTelemetry` is the machine-readable summary attached to
``PDTLResult.telemetry`` for traced runs.  It carries the merged span
events (master + every chunk), the flat counter namespace assembled by the
runner, and the modelled per-worker timeline reconstructed from the
scheduler's deterministic replay.

Two Chrome trace variants are exported (both load in Perfetto /
``chrome://tracing``):

* ``wall`` -- measured ``perf_counter`` spans, one track per worker (chunk
  spans are homed onto the worker that owned the chunk in the modelled
  schedule) plus a master track.
* ``modelled`` -- the paper-model timeline: each worker's chunks laid out
  at their modelled start/duration, plus master phase spans sized by the
  per-phase modelled device time.  Both are held in integer picoseconds.

All timestamps are microseconds as the trace-event format requires; wall
events are rebased to the earliest event so the trace starts at ts=0.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.obs.metrics import derive_rates
from repro.obs.tracer import SpanEvent
from repro.utils import ps_seconds

_US = 1_000_000.0
_PS_PER_US = 10**6


@dataclass(frozen=True)
class ChunkSpan:
    """One chunk's placement on a worker's modelled timeline, in picoseconds."""

    index: int
    start_ps: int
    duration_ps: int
    edges: int = 0
    triangles: int = 0


@dataclass
class WorkerTrack:
    """Modelled timeline of one worker (node, proc) pair."""

    worker: int
    node: int
    proc: int
    spans: list[ChunkSpan] = field(default_factory=list)

    @property
    def busy_ps(self) -> int:
        return sum(span.duration_ps for span in self.spans)

    @property
    def finish_ps(self) -> int:
        return max((s.start_ps + s.duration_ps for s in self.spans), default=0)


@dataclass
class RunTelemetry:
    """Structured telemetry for one traced PDTL run."""

    backend: str
    scheduling: str
    num_workers: int
    procs_per_node: int
    events: list[SpanEvent] = field(default_factory=list)
    counters: dict[str, float] = field(default_factory=dict)
    worker_tracks: list[WorkerTrack] = field(default_factory=list)
    chunk_owners: dict[int, int] = field(default_factory=dict)
    phase_ps: dict[str, int] = field(default_factory=dict)

    # -- assembly ---------------------------------------------------------

    def record_span(
        self,
        name: str,
        start: float,
        duration: float,
        cat: str = "phase",
        track: str = "master",
        **args: object,
    ) -> SpanEvent:
        """Append a post-run span (used by the analytics pipeline)."""
        event = SpanEvent(
            seq=len(self.events),
            name=name,
            cat=cat,
            start=start,
            duration=duration,
            depth=0,
            track=track,
            args=tuple(sorted(args.items())),
        )
        self.events.append(event)
        return event

    def record_counter(self, name: str, value: float) -> None:
        """Accumulate a post-run counter (used by the analytics delta path).

        Counters are additive across calls, matching the metrics-registry
        convention, so repeated batches sum (``delta.touched_edges`` over a
        chain of deltas is the chain total).
        """
        self.counters[name] = self.counters.get(name, 0) + value

    # -- derived views ----------------------------------------------------

    def counters_with_rates(self) -> dict[str, float]:
        merged = dict(self.counters)
        merged.update(derive_rates(self.counters))
        return dict(sorted(merged.items()))

    def event_order(self) -> list[tuple[str, str, str]]:
        """Deterministic ``(track, cat, name)`` sequence of all events.

        Master events first (by seq), then each chunk track in chunk-index
        order; this is the ordering invariant the equivalence tests pin
        across backends and injection modes.
        """

        def sort_key(event: SpanEvent):
            track = event.track
            if track.startswith("chunk"):
                try:
                    rank = (1, int(track[len("chunk"):]))
                except ValueError:
                    rank = (2, 0)
            elif track == "master":
                rank = (0, 0)
            else:
                rank = (3, 0)
            return (*rank, track, event.seq)

        return [
            (e.track, e.cat, e.name) for e in sorted(self.events, key=sort_key)
        ]

    def summary_rows(self) -> list[dict[str, object]]:
        """Compact per-category rollup for ``analysis/report.py``."""
        by_cat: dict[str, tuple[int, float]] = {}
        for event in self.events:
            count, seconds = by_cat.get(event.cat, (0, 0.0))
            by_cat[event.cat] = (count + 1, seconds + event.duration)
        rows = [
            {
                "category": cat,
                "spans": count,
                "wall_seconds": round(seconds, 6),
            }
            for cat, (count, seconds) in sorted(by_cat.items())
        ]
        return rows

    # -- chrome trace export ---------------------------------------------

    def _worker_label(self, worker: int) -> tuple[int, int, str]:
        """(pid, tid, thread name) for a modelled worker index."""
        per_node = max(1, self.procs_per_node)
        node, proc = divmod(worker, per_node)
        return node, proc + 1, f"worker {worker} (n{node}p{proc})"

    def _track_location(self, track: str) -> tuple[int, int, str]:
        if track.startswith("chunk"):
            try:
                chunk = int(track[len("chunk"):])
            except ValueError:
                chunk = -1
            owner = self.chunk_owners.get(chunk)
            if owner is not None:
                return self._worker_label(owner)
        if track == "master" or track == "analytics":
            return 0, 0, "master"
        return 0, 0, track

    def chrome_trace(self, variant: str = "wall") -> dict[str, object]:
        """Trace-event JSON object (``{"traceEvents": [...]}``)."""
        if variant == "wall":
            trace_events = self._wall_events()
        elif variant == "modelled":
            trace_events = self._modelled_events()
        else:
            raise ValueError(
                f"unknown trace variant {variant!r}; expected 'wall' or 'modelled'"
            )
        return {
            "traceEvents": trace_events,
            "displayTimeUnit": "ms",
            "otherData": {
                "variant": variant,
                "backend": self.backend,
                "scheduling": self.scheduling,
                "num_workers": self.num_workers,
            },
        }

    def _metadata_events(
        self, locations: dict[tuple[int, int], str]
    ) -> list[dict[str, object]]:
        meta: list[dict[str, object]] = []
        nodes = sorted({pid for pid, _ in locations})
        for pid in nodes:
            meta.append(
                {
                    "name": "process_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": 0,
                    "args": {"name": "master" if pid == 0 else f"node {pid}"},
                }
            )
        for (pid, tid), label in sorted(locations.items()):
            meta.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": tid,
                    "args": {"name": label},
                }
            )
        return meta

    def _wall_events(self) -> list[dict[str, object]]:
        if not self.events:
            return []
        base = min(event.start for event in self.events)
        locations: dict[tuple[int, int], str] = {}
        body: list[dict[str, object]] = []
        for event in sorted(self.events, key=lambda e: (e.track, e.seq)):
            pid, tid, label = self._track_location(event.track)
            locations[(pid, tid)] = label
            body.append(
                {
                    "name": event.name,
                    "cat": event.cat,
                    "ph": "X",
                    "ts": (event.start - base) * _US,
                    "dur": event.duration * _US,
                    "pid": pid,
                    "tid": tid,
                    "args": event.args_dict,
                }
            )
        return self._metadata_events(locations) + body

    def _modelled_events(self) -> list[dict[str, object]]:
        locations: dict[tuple[int, int], str] = {(0, 0): "master"}
        body: list[dict[str, object]] = []
        cursor = 0
        for phase, ps in self.phase_ps.items():
            body.append(
                {
                    "name": phase,
                    "cat": "phase",
                    "ph": "X",
                    "ts": cursor / _PS_PER_US,
                    "dur": ps / _PS_PER_US,
                    "pid": 0,
                    "tid": 0,
                    "args": {"modelled_seconds": ps_seconds(ps)},
                }
            )
            cursor += ps
        scan_base = cursor
        for track in self.worker_tracks:
            pid, tid, label = self._worker_label(track.worker)
            locations[(pid, tid)] = label
            for span in track.spans:
                body.append(
                    {
                        "name": f"chunk {span.index}",
                        "cat": "chunk",
                        "ph": "X",
                        "ts": (scan_base + span.start_ps) / _PS_PER_US,
                        "dur": span.duration_ps / _PS_PER_US,
                        "pid": pid,
                        "tid": tid,
                        "args": {
                            "chunk": span.index,
                            "edges": span.edges,
                            "triangles": span.triangles,
                            "modelled_seconds": ps_seconds(span.duration_ps),
                        },
                    }
                )
        return self._metadata_events(locations) + body

    def write_chrome_trace(self, path, variant: str = "wall") -> Path:
        """Serialize :meth:`chrome_trace` to ``path``; returns the path."""
        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(
            json.dumps(self.chrome_trace(variant), indent=1, sort_keys=True)
        )
        return target
