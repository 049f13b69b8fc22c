"""Cross-backend equivalence: serial / processes / processes+shm.

The execution backend is a host concern -- the simulated cluster's modelled
quantities must not depend on it.  With ``modelled_cpu=True`` every per-chunk
cost is a pure function of the input, and chunk→worker assignment is the
deterministic pull-protocol replay, so *every* modelled number (not just the
triangle count) must be bit-identical across backends, for both scheduling
modes and all three sink kinds.  The shared-memory variant adds a third
backend: the same persistent process pool, but with memory windows sliced
zero-copy from published segments instead of re-read from disk -- it too
must be bit-identical, because the zero-copy layer sits strictly below the
accounting.
"""

from __future__ import annotations

import numpy as np
import pytest
from chunk_jitter import host_jitter

from repro.baselines.inmemory import forward_count, forward_list
from repro.core import kernel_backend
from repro.core.config import PDTLConfig
from repro.core.pdtl import PDTLRunner
from repro.core.shm import shm_available
from repro.graph.csr import CSRGraph
from repro.graph.generators import rmat

#: (label, executor backend, shm) -- the three host execution strategies
BACKENDS = (
    ("serial", "serial", False),
    ("processes", "processes", False),
    ("processes+shm", "processes", True),
)

_SHM_OK, _SHM_REASON = shm_available()
_COMPILED_OK, _COMPILED_TIER = kernel_backend.compiled_available()


@pytest.fixture(scope="module")
def graph() -> CSRGraph:
    return CSRGraph.from_edgelist(rmat(7, edge_factor=8, seed=17))


@pytest.fixture(scope="module")
def expected(graph) -> int:
    return forward_count(graph)


def _config(scheduling: str, shm: bool, **overrides) -> PDTLConfig:
    return PDTLConfig(
        num_nodes=2,
        procs_per_node=2,
        memory_per_proc=4096,
        block_size=512,
        modelled_cpu=True,
        scheduling=scheduling,
        shm=shm,
        **overrides,
    )


def _backends():
    for label, backend, shm in BACKENDS:
        if shm and not _SHM_OK:
            continue  # pragma: no cover - shm-capable hosts run all three
        yield label, backend, shm


def _run(graph, scheduling, backend, shm, sink_kind="count", **overrides):
    config = _config(scheduling, shm, **overrides)
    result = PDTLRunner(config, backend=backend).run(graph, sink_kind=sink_kind)
    assert result.shm_used == shm
    return result


@pytest.mark.parametrize("scheduling", ("static", "dynamic"))
class TestCountsAndModelledTimes:
    def test_counts_identical_across_backends(self, graph, expected, scheduling):
        for label, backend, shm in _backends():
            result = _run(graph, scheduling, backend, shm)
            assert result.triangles == expected, label

    def test_modelled_times_identical_across_backends(self, graph, scheduling):
        results = {
            label: _run(graph, scheduling, backend, shm)
            for label, backend, shm in _backends()
        }
        reference = results["serial"]
        for label, result in results.items():
            # bit-identical, not approximately equal: the modelled numbers
            # are pure functions of the input under modelled_cpu
            assert result.calc_seconds == reference.calc_seconds, label
            assert result.total_io_seconds == reference.total_io_seconds, label
            assert result.total_cpu_seconds == reference.total_cpu_seconds, label
            per_worker = [
                (w.node_index, w.proc_index, w.calc_seconds) for w in result.workers
            ]
            reference_workers = [
                (w.node_index, w.proc_index, w.calc_seconds)
                for w in reference.workers
            ]
            assert per_worker == reference_workers, label

    def test_io_stats_identical_across_backends(self, graph, scheduling):
        results = {
            label: _run(graph, scheduling, backend, shm)
            for label, backend, shm in _backends()
        }
        reference = results["serial"]
        for label, result in results.items():
            for ours, theirs in zip(result.workers, reference.workers):
                assert (
                    ours.result.io_stats.as_dict() == theirs.result.io_stats.as_dict()
                ), label

    def test_network_traffic_identical_across_backends(self, graph, scheduling):
        results = [
            _run(graph, scheduling, backend, shm)
            for _, backend, shm in _backends()
        ]
        assert len({r.network_bytes for r in results}) == 1
        assert len({r.network_messages for r in results}) == 1


@pytest.mark.parametrize("scheduling", ("static", "dynamic"))
class TestSinkKindsAcrossBackends:
    def test_listing_identical_across_backends(self, graph, scheduling):
        reference_sets = forward_list(graph)
        lists = []
        for label, backend, shm in _backends():
            result = _run(graph, scheduling, backend, shm, sink_kind="list")
            assert {t.as_vertex_set() for t in result.triangle_list} == reference_sets
            lists.append([tuple(t) for t in result.triangle_list])
        # deterministic merge by chunk index: identical *order*, not just set
        assert all(entry == lists[0] for entry in lists[1:])

    def test_per_vertex_identical_across_backends(self, graph, scheduling):
        arrays = [
            _run(graph, scheduling, backend, shm, sink_kind="per-vertex")
            .per_vertex_counts
            for _, backend, shm in _backends()
        ]
        for array in arrays[1:]:
            np.testing.assert_array_equal(arrays[0], array)
        assert int(arrays[0].sum()) == 3 * forward_count(graph)

    def test_count_sink_matches_other_sinks(self, graph, expected, scheduling):
        for label, backend, shm in _backends():
            result = _run(graph, scheduling, backend, shm, sink_kind="count")
            assert result.triangles == expected, label

    def test_edge_supports_identical_across_backends(self, graph, expected, scheduling):
        """Per-edge triangle supports are merged by chunk index from exact
        integer partials, so every backend must report the same array bit
        for bit -- the contract the k-truss analytics build on."""
        arrays = []
        for label, backend, shm in _backends():
            result = _run(graph, scheduling, backend, shm, sink_kind="edge-support")
            assert int(result.edge_supports.sum()) == 3 * expected, label
            assert result.oriented_edges.shape == (
                result.edge_supports.shape[0],
                2,
            ), label
            arrays.append(result.edge_supports)
        for array in arrays[1:]:
            np.testing.assert_array_equal(arrays[0], array)


class TestDynamicMatchesStatic:
    def test_dynamic_equals_static_per_backend(self, graph, expected):
        for label, backend, shm in _backends():
            static = _run(graph, "static", backend, shm)
            dynamic = _run(graph, "dynamic", backend, shm)
            assert static.triangles == dynamic.triangles == expected, label

    def test_failure_injection_preserves_counts_on_all_backends(
        self, graph, expected
    ):
        for label, backend, shm in _backends():
            result = _run(
                graph, "dynamic", backend, shm, failure_spec={0: 1, 2: 0}
            )
            assert result.triangles == expected, label
            assert result.metrics.total_chunks_retried >= 1, label

    def test_host_jitter_leaves_results_bit_identical(self, graph):
        """Host-side straggler injection is wall-clock only: the chunk-seeded
        delays must not move a single modelled number on any backend."""
        reference = _run(graph, "dynamic", "serial", False)
        for label, backend, shm in _backends():
            with host_jitter(0.01):
                jittered = _run(graph, "dynamic", backend, shm)
            assert jittered.triangles == reference.triangles, label
            assert jittered.calc_seconds == reference.calc_seconds, label
            assert jittered.total_io_seconds == reference.total_io_seconds, label

    def test_edge_supports_survive_failure_and_straggler_injection(
        self, graph, expected
    ):
        """Killed workers' chunks are re-executed and modelled stragglers
        re-balance the replay -- neither may change a single support."""
        reference = _run(graph, "dynamic", "serial", False, sink_kind="edge-support")
        for label, backend, shm in _backends():
            with host_jitter(0.005):
                injected = _run(
                    graph,
                    "dynamic",
                    backend,
                    shm,
                    sink_kind="edge-support",
                    failure_spec={0: 1, 2: 0},
                    straggler_spec={1: 4.0},
                )
            assert injected.triangles == expected, label
            assert injected.metrics.total_chunks_retried >= 1, label
            np.testing.assert_array_equal(
                injected.edge_supports, reference.edge_supports, err_msg=label
            )


@pytest.mark.skipif(not _COMPILED_OK, reason=f"no compiled backend: {_COMPILED_TIER}")
class TestCompiledTierEquivalence:
    """The compiled kernel tier is a host concern strictly below the
    accounting layer: with it on or off, every modelled quantity, count,
    listing order and support array must be bit-identical -- on all three
    execution backends, with and without failure/straggler/jitter
    injection.  ``kernel_backend.use`` sets the tier on both sides of the
    seam: the master runs on it, and each chunk task carries it to the
    worker that runs it."""

    def _run_tier(self, graph, tier, backend, shm, scheduling="dynamic", **kwargs):
        with kernel_backend.use(tier):
            return _run(graph, scheduling, backend, shm, **kwargs)

    @pytest.mark.parametrize("scheduling", ("static", "dynamic"))
    def test_counts_and_modelled_times_identical(self, graph, expected, scheduling):
        for label, backend, shm in _backends():
            plain = self._run_tier(graph, "numpy", backend, shm, scheduling)
            compiled = self._run_tier(graph, _COMPILED_TIER, backend, shm, scheduling)
            assert compiled.triangles == plain.triangles == expected, label
            assert compiled.calc_seconds == plain.calc_seconds, label
            assert compiled.total_io_seconds == plain.total_io_seconds, label
            assert compiled.total_cpu_seconds == plain.total_cpu_seconds, label
            for ours, theirs in zip(compiled.workers, plain.workers):
                assert (
                    ours.result.io_stats.as_dict() == theirs.result.io_stats.as_dict()
                ), label

    def test_listing_order_identical(self, graph):
        for label, backend, shm in _backends():
            plain = self._run_tier(graph, "numpy", backend, shm, sink_kind="list")
            compiled = self._run_tier(
                graph,
                _COMPILED_TIER,
                backend,
                shm,
                sink_kind="list",
            )
            assert [tuple(t) for t in compiled.triangle_list] == [
                tuple(t) for t in plain.triangle_list
            ], label

    def test_edge_supports_identical_under_injection(self, graph, expected):
        injection = dict(
            failure_spec={0: 1, 2: 0},
            straggler_spec={1: 4.0},
        )
        for label, backend, shm in _backends():
            with host_jitter(0.005):
                plain = self._run_tier(
                    graph, "numpy", backend, shm, sink_kind="edge-support", **injection
                )
                compiled = self._run_tier(
                    graph,
                    _COMPILED_TIER,
                    backend,
                    shm,
                    sink_kind="edge-support",
                    **injection,
                )
            assert compiled.triangles == plain.triangles == expected, label
            assert compiled.metrics.total_chunks_retried >= 1, label
            np.testing.assert_array_equal(
                compiled.edge_supports, plain.edge_supports, err_msg=label
            )
            assert compiled.calc_seconds == plain.calc_seconds, label

    def test_per_vertex_counts_identical(self, graph, expected):
        for label, backend, shm in _backends():
            plain = self._run_tier(graph, "numpy", backend, shm, sink_kind="per-vertex")
            compiled = self._run_tier(
                graph, _COMPILED_TIER, backend, shm, sink_kind="per-vertex"
            )
            np.testing.assert_array_equal(
                compiled.per_vertex_counts, plain.per_vertex_counts, err_msg=label
            )
            assert int(compiled.per_vertex_counts.sum()) == 3 * expected, label
