"""Unit tests for RunTelemetry and the Chrome trace-event exporters."""

from __future__ import annotations

import json

import pytest

from repro.obs.export import ChunkSpan, RunTelemetry, WorkerTrack
from repro.obs.tracer import SpanEvent
from repro.utils import PS_PER_SECOND

PS = PS_PER_SECOND


def _event(seq, name, track, cat="phase", start=0.0, duration=1.0, **args):
    return SpanEvent(
        seq=seq, name=name, cat=cat, start=start, duration=duration,
        depth=0, track=track, args=tuple(sorted(args.items())),
    )


@pytest.fixture
def telemetry() -> RunTelemetry:
    t = RunTelemetry(
        backend="processes", scheduling="dynamic", num_workers=4,
        procs_per_node=2,
    )
    t.events = [
        _event(0, "stage_input", "master", start=10.0, duration=0.5),
        _event(1, "triangle_scan", "master", start=10.5, duration=2.0),
        _event(0, "chunk", "chunk1", cat="chunk", start=11.0, duration=0.7),
        _event(0, "chunk", "chunk0", cat="chunk", start=10.6, duration=0.9),
        _event(1, "window", "chunk0", cat="kernel", start=10.7, duration=0.4),
    ]
    t.counters = {"worker.blockio.fd_cache.hits": 6,
                  "worker.blockio.fd_cache.misses": 2}
    t.chunk_owners = {0: 0, 1: 3}
    t.phase_ps = {"orientation": 3 * PS // 2, "triangle_scan": 3 * PS}
    t.worker_tracks = [
        WorkerTrack(worker=0, node=0, proc=0,
                    spans=[ChunkSpan(0, start_ps=0, duration_ps=2 * PS, edges=10,
                                     triangles=4)]),
        WorkerTrack(worker=3, node=1, proc=1,
                    spans=[ChunkSpan(1, start_ps=0, duration_ps=PS, edges=5,
                                     triangles=1)]),
    ]
    return t


class TestDerivedViews:
    def test_counters_with_rates(self, telemetry):
        merged = telemetry.counters_with_rates()
        assert merged["worker.blockio.fd_cache.hit_rate"] == 0.75
        assert list(merged) == sorted(merged)

    def test_event_order_master_then_chunks_by_index(self, telemetry):
        order = telemetry.event_order()
        assert order == [
            ("master", "phase", "stage_input"),
            ("master", "phase", "triangle_scan"),
            ("chunk0", "chunk", "chunk"),
            ("chunk0", "kernel", "window"),
            ("chunk1", "chunk", "chunk"),
        ]

    def test_summary_rows_rollup(self, telemetry):
        rows = {row["category"]: row for row in telemetry.summary_rows()}
        assert rows["phase"]["spans"] == 2
        assert rows["phase"]["wall_seconds"] == pytest.approx(2.5)
        assert rows["chunk"]["spans"] == 2
        assert rows["kernel"]["spans"] == 1

    def test_record_span_appends(self, telemetry):
        before = len(telemetry.events)
        event = telemetry.record_span(
            "truss", 1.0, 0.25, cat="analytics", track="analytics", max_k=5
        )
        assert len(telemetry.events) == before + 1
        assert event.seq == before
        assert event.args_dict == {"max_k": 5}


class TestWorkerTrack:
    def test_busy_and_finish(self):
        track = WorkerTrack(worker=0, node=0, proc=0, spans=[
            ChunkSpan(0, start_ps=0, duration_ps=2 * PS),
            ChunkSpan(1, start_ps=2 * PS, duration_ps=3 * PS // 2),
        ])
        assert track.busy_ps == 7 * PS // 2
        assert track.finish_ps == 7 * PS // 2
        assert WorkerTrack(worker=1, node=0, proc=1).finish_ps == 0


class TestChromeTrace:
    def test_wall_variant_structure(self, telemetry):
        trace = telemetry.chrome_trace("wall")
        payload = json.loads(json.dumps(trace))  # must be JSON-serializable
        events = payload["traceEvents"]
        assert payload["displayTimeUnit"] == "ms"
        assert payload["otherData"]["variant"] == "wall"
        duration_events = [e for e in events if e["ph"] == "X"]
        meta = [e for e in events if e["ph"] == "M"]
        assert len(duration_events) == len(telemetry.events)
        # rebased: earliest event starts at ts=0
        assert min(e["ts"] for e in duration_events) == 0.0
        # chunk spans are homed onto their owning worker's (pid, tid)
        chunk1 = next(e for e in duration_events
                      if e["args"].get("chunk") is None and e["pid"] == 1)
        assert chunk1["tid"] == 2  # worker 3 = node 1, proc 1 -> tid 2
        names = {e["name"] for e in meta}
        assert names == {"process_name", "thread_name"}
        thread_labels = {e["args"]["name"] for e in meta
                         if e["name"] == "thread_name"}
        assert "worker 0 (n0p0)" in thread_labels
        assert "worker 3 (n1p1)" in thread_labels

    def test_modelled_variant_lays_out_phases_then_chunks(self, telemetry):
        events = telemetry.chrome_trace("modelled")["traceEvents"]
        duration_events = [e for e in events if e["ph"] == "X"]
        phases = [e for e in duration_events if e["cat"] == "phase"]
        chunks = [e for e in duration_events if e["cat"] == "chunk"]
        assert [p["name"] for p in phases] == ["orientation", "triangle_scan"]
        assert phases[0]["dur"] == 1.5e6  # microseconds
        assert phases[0]["args"]["modelled_seconds"] == 1.5
        # phases are laid end-to-end; chunks start after the phase prefix
        assert phases[1]["ts"] == pytest.approx(phases[0]["dur"])
        scan_base = sum(p["dur"] for p in phases)
        assert all(c["ts"] >= scan_base for c in chunks)
        assert {c["args"]["chunk"] for c in chunks} == {0, 1}

    def test_unknown_variant_raises(self, telemetry):
        with pytest.raises(ValueError, match="unknown trace variant"):
            telemetry.chrome_trace("nope")

    def test_write_chrome_trace(self, telemetry, tmp_path):
        path = telemetry.write_chrome_trace(tmp_path / "sub" / "trace.json")
        payload = json.loads(path.read_text())
        assert "traceEvents" in payload

    def test_empty_wall_trace(self):
        empty = RunTelemetry(backend="serial", scheduling="static",
                             num_workers=1, procs_per_node=1)
        assert empty.chrome_trace("wall")["traceEvents"] == []
