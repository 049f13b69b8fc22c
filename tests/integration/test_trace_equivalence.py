"""Tracing sits strictly outside the accounting layer.

``PDTLConfig(trace=True)`` may only *observe*: every modelled quantity,
count, IOStats field and support array must be bit-identical with tracing
on or off, on every execution backend, with the compiled kernel tier on or
off, and under failure/straggler/jitter injection.  On top of that the
merged event stream itself must be deterministic -- the ``(track, cat,
name)`` order is a pure function of the run shape, not of host timing.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from chunk_jitter import host_jitter

from repro.core import kernel_backend
from repro.core.config import PDTLConfig
from repro.core.pdtl import PDTLRunner
from repro.core.shm import shm_available
from repro.graph.csr import CSRGraph
from repro.graph.generators import rmat

BACKENDS = (
    ("serial", "serial", False),
    ("processes", "processes", False),
    ("processes+shm", "processes", True),
)

_SHM_OK, _SHM_REASON = shm_available()
_COMPILED_OK, _COMPILED_TIER = kernel_backend.compiled_available()

#: the modelled/accounted PDTLResult fields that must not move under tracing
ACCOUNTED_FIELDS = (
    "triangles",
    "calc_seconds",
    "total_io_seconds",
    "total_cpu_seconds",
    "modelled_setup_seconds",
    "network_bytes",
    "network_messages",
)


@pytest.fixture(scope="module")
def graph() -> CSRGraph:
    return CSRGraph.from_edgelist(rmat(7, edge_factor=8, seed=17))


def _backends():
    for label, backend, shm in BACKENDS:
        if shm and not _SHM_OK:
            continue  # pragma: no cover - shm-capable hosts run all three
        yield label, backend, shm


def _config(shm: bool, trace: bool, **overrides) -> PDTLConfig:
    defaults = dict(
        num_nodes=2,
        procs_per_node=2,
        memory_per_proc=4096,
        block_size=512,
        modelled_cpu=True,
        scheduling="dynamic",
        shm=shm,
        trace=trace,
    )
    defaults.update(overrides)
    return PDTLConfig(**defaults)


def _run(graph, backend, shm, trace, sink_kind="count", **overrides):
    config = _config(shm, trace, **overrides)
    return PDTLRunner(config, backend=backend).run(graph, sink_kind=sink_kind)


def _assert_accounting_identical(traced, untraced, label):
    for name in ACCOUNTED_FIELDS:
        assert getattr(traced, name) == getattr(untraced, name), (label, name)
    for ours, theirs in zip(traced.workers, untraced.workers):
        assert (
            ours.result.io_stats.as_dict() == theirs.result.io_stats.as_dict()
        ), label


class TestTraceOffZeroFootprint:
    def test_untraced_result_has_no_telemetry(self, graph):
        for label, backend, shm in _backends():
            result = _run(graph, backend, shm, trace=False)
            assert result.telemetry is None, label

    def test_trace_defaults_off(self, graph):
        config = PDTLConfig(
            num_nodes=1, procs_per_node=1, memory_per_proc=4096, block_size=512
        )
        assert config.trace is False
        result = PDTLRunner(config, backend="serial").run(graph)
        assert result.telemetry is None

    def test_untraced_runs_bit_identical_to_each_other(self, graph):
        """Tracing infrastructure being *present* must not perturb an
        untraced run: two untraced runs agree bit for bit."""
        first = _run(graph, "serial", False, trace=False)
        second = _run(graph, "serial", False, trace=False)
        _assert_accounting_identical(first, second, "serial repeat")


class TestTracedBitIdentity:
    @pytest.mark.parametrize("scheduling", ("static", "dynamic"))
    def test_accounting_identical_per_backend(self, graph, scheduling):
        for label, backend, shm in _backends():
            untraced = _run(graph, backend, shm, False, scheduling=scheduling)
            traced = _run(graph, backend, shm, True, scheduling=scheduling)
            _assert_accounting_identical(traced, untraced, label)
            assert traced.telemetry is not None, label

    def test_edge_supports_identical_under_injection(self, graph):
        injection = dict(
            failure_spec={0: 1, 2: 0},
            straggler_spec={1: 4.0},
        )
        for label, backend, shm in _backends():
            with host_jitter(0.005):
                untraced = _run(
                    graph, backend, shm, False, sink_kind="edge-support", **injection
                )
                traced = _run(
                    graph, backend, shm, True, sink_kind="edge-support", **injection
                )
            _assert_accounting_identical(traced, untraced, label)
            assert traced.metrics.total_chunks_retried >= 1, label
            np.testing.assert_array_equal(
                traced.edge_supports, untraced.edge_supports, err_msg=label
            )

    @pytest.mark.skipif(
        not _COMPILED_OK, reason=f"no compiled backend: {_COMPILED_TIER}"
    )
    def test_accounting_identical_with_compiled_tier(self, graph):
        for label, backend, shm in _backends():
            with kernel_backend.use(_COMPILED_TIER):
                untraced = _run(graph, backend, shm, False)
                traced = _run(graph, backend, shm, True)
            _assert_accounting_identical(traced, untraced, label)
            # each leg's scan kernel ran compiled, in the master (run.) or
            # in a pool worker (worker.)
            scan = "mgt_chunk_scan" if shm else "mgt_block_scan"
            dispatched = {
                key.split(".kernel.dispatch.", 1)[1]
                for key in traced.telemetry.counters
                if ".kernel.dispatch." in key
            }
            assert f"{scan}.{_COMPILED_TIER}" in dispatched, (label, dispatched)


class TestDeterministicEventMerge:
    def test_event_order_stable_across_runs(self, graph):
        first = _run(graph, "processes", False, True)
        second = _run(graph, "processes", False, True)
        assert first.telemetry.event_order() == second.telemetry.event_order()

    def test_event_order_identical_across_backends(self, graph):
        orders = {
            label: _run(graph, backend, shm, True).telemetry.event_order()
            for label, backend, shm in _backends()
        }
        reference = orders["serial"]
        for label, order in orders.items():
            assert order == reference, label

    def test_event_order_stable_under_injection(self, graph):
        """Failure/straggler/jitter injection changes host timing, never the
        merged event order: re-executed chunks replace the dead worker's
        attempt deterministically."""
        injection = dict(
            failure_spec={0: 1, 2: 0},
            straggler_spec={1: 4.0},
        )
        reference = None
        for label, backend, shm in _backends():
            with host_jitter(0.005):
                order = _run(
                    graph, backend, shm, True, **injection
                ).telemetry.event_order()
            if reference is None:
                reference = order
            assert order == reference, label

    def test_master_phases_lead_every_merge(self, graph):
        order = _run(graph, "serial", False, True).telemetry.event_order()
        phases = [name for track, cat, name in order if track == "master"]
        assert phases[: len(phases)] == [
            "stage_input", "orient", "plan", "replicate", "triangle_scan",
            "aggregate",
        ]
        assert order[: len(phases)] == [
            ("master", "phase", name) for name in phases
        ]


class TestTraceArtifacts:
    def test_chrome_trace_valid_on_every_backend(self, graph, tmp_path):
        for label, backend, shm in _backends():
            telemetry = _run(graph, backend, shm, True).telemetry
            for variant in ("wall", "modelled"):
                path = telemetry.write_chrome_trace(
                    tmp_path / f"{label.replace('+', '_')}-{variant}.json",
                    variant=variant,
                )
                payload = json.loads(path.read_text())
                events = payload["traceEvents"]
                assert events, (label, variant)
                assert all(
                    {"name", "ph", "pid", "tid"} <= set(e) for e in events
                ), (label, variant)
                thread_names = [
                    e for e in events
                    if e["ph"] == "M" and e["name"] == "thread_name"
                ]
                assert any(
                    e["args"]["name"].startswith("worker")
                    for e in thread_names
                ), (label, variant)

    def test_counters_and_rates_sane(self, graph):
        telemetry = _run(graph, "processes", False, True).telemetry
        counters = telemetry.counters
        assert counters["scheduler.chunks"] >= 1
        assert counters["scheduler.max_queue_depth"] >= 1
        assert any(key.startswith("io.phase.") for key in counters)
        merged = telemetry.counters_with_rates()
        for key, value in merged.items():
            if key.endswith(".hit_rate"):
                assert 0.0 <= value <= 1.0, key

    def test_worker_tracks_cover_all_chunks(self, graph):
        telemetry = _run(graph, "serial", False, True).telemetry
        placed = sorted(
            span.index for track in telemetry.worker_tracks
            for span in track.spans
        )
        chunk_tracks = sorted(
            {
                int(e.track[len("chunk"):])
                for e in telemetry.events
                if e.track.startswith("chunk")
            }
        )
        assert placed == chunk_tracks
