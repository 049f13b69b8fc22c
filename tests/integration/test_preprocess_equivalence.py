"""Equivalence matrix for the master's preprocessing.

The chunked orientation (one vertex chunk per master core) must be
*bit-identical* to its reference in every observable the simulation
produces:

* the oriented graph's on-disk bytes (degree, adjacency and meta files);
* the master device's IOStats (block counts, sequential/random split,
  call counts, bytes);
* the modelled setup seconds of a full PDTL run,

and the setup accounting must not depend on the execution backend
(serial / processes, with and without shm), including under
failure, straggler and host-jitter injection.  These tests assert all of
it -- nothing here is assumed.
"""

from __future__ import annotations

import numpy as np
import pytest
from chunk_jitter import host_jitter

from repro.analysis.cost_model import estimate_setup_cost
from repro.baselines.inmemory import forward_count
from repro.core import kernel_backend
from repro.core.config import PDTLConfig
from repro.core.orientation import orient_graph
from repro.core.pdtl import PDTLRunner
from repro.core.shm import shm_available
from repro.externalmem.blockio import BlockDevice
from repro.graph.binfmt import write_graph
from repro.graph.csr import CSRGraph
from repro.graph.generators import power_law_degree_graph, rmat

pytestmark = pytest.mark.skipif(
    not shm_available()[0],
    reason=f"POSIX shared memory unavailable: {shm_available()[1]}",
)

BACKENDS = ("serial", "processes")

_COMPILED_OK, _COMPILED_TIER = kernel_backend.compiled_available()


@pytest.fixture(scope="module")
def graph() -> CSRGraph:
    return CSRGraph.from_edgelist(rmat(8, edge_factor=8, seed=3))


@pytest.fixture(scope="module")
def skewed_graph() -> CSRGraph:
    return CSRGraph.from_edgelist(
        power_law_degree_graph(800, exponent=2.2, min_degree=2, max_degree=60, seed=5)
    )


def _file_bytes(device: BlockDevice, name: str) -> bytes:
    path = device.path(name)
    return path.read_bytes() if path.exists() else b""


class TestOrientationBitIdentity:
    """Oriented file bytes + accounting, across chunk counts and kernel tiers.

    Each path runs on its own *fresh* device (zero counters), exactly like
    the fresh cluster a real run builds -- that makes the whole IOStats
    dict, device seconds included, comparable bit for bit.
    """

    def _orient_on_fresh_device(self, tmp_path, graph, label, num_chunks):
        device = BlockDevice(tmp_path / f"disk_{label}", block_size=512)
        gf = write_graph(device, "g", graph)
        staged = device.stats.snapshot()
        result = orient_graph(gf, num_chunks=num_chunks, output_name="oriented")
        return device, result, staged, device.stats.snapshot()

    def test_oriented_bytes_identical(self, tmp_path, graph):
        reference_device, *_ = self._orient_on_fresh_device(
            tmp_path, graph, "ref", num_chunks=1
        )
        reference = {
            suffix: _file_bytes(reference_device, f"oriented{suffix}")
            for suffix in (".deg", ".adj", ".meta")
        }
        assert reference[".adj"], "reference orientation produced no adjacency"
        device, result, *_ = self._orient_on_fresh_device(
            tmp_path, graph, "chunked", num_chunks=4
        )
        assert result.num_chunks == 4
        for suffix in (".deg", ".adj", ".meta"):
            assert _file_bytes(device, f"oriented{suffix}") == reference[suffix], suffix

    @pytest.mark.skipif(not _COMPILED_OK, reason=f"no compiled backend: {_COMPILED_TIER}")
    def test_accounting_bit_identical_across_kernel_tiers(self, tmp_path, graph):
        """With an identical work decomposition (4 chunks), the numpy and
        the compiled filter charge bit-identical accounting -- whole
        IOStats dict, modelled device seconds included."""
        runs = {}
        for tier in ("numpy", _COMPILED_TIER):
            with kernel_backend.use(tier):
                runs[tier] = self._orient_on_fresh_device(
                    tmp_path, graph, f"acc_{tier}", num_chunks=4
                )
        _, ref_result, ref_staged, ref_total = runs["numpy"]
        for label, (_, result, staged, total) in runs.items():
            assert staged.as_dict() == ref_staged.as_dict(), label
            assert total.as_dict() == ref_total.as_dict(), label
            assert result.modelled_io_seconds == ref_result.modelled_io_seconds, label
            np.testing.assert_array_equal(result.out_degrees, ref_result.out_degrees)
            np.testing.assert_array_equal(result.in_degrees, ref_result.in_degrees)

    def test_serial_reference_reads_same_bytes(self, tmp_path, graph):
        """The single-window serial reference moves the same bytes; only the
        read-call count differs (1 window vs 4)."""
        _, _, staged_1, total_1 = self._orient_on_fresh_device(
            tmp_path, graph, "one", num_chunks=1
        )
        _, _, staged_4, total_4 = self._orient_on_fresh_device(
            tmp_path, graph, "four", num_chunks=4
        )
        one = total_1.delta(staged_1)
        four = total_4.delta(staged_4)
        assert one.bytes_read == four.bytes_read
        assert one.bytes_written == four.bytes_written
        assert one.blocks_written == four.blocks_written
        assert one.read_calls < four.read_calls


class TestRunMatrixEquivalence:
    """Full PDTL runs: the setup accounting on every backend."""

    def _config(self, **overrides) -> PDTLConfig:
        base = dict(
            num_nodes=2,
            procs_per_node=2,
            memory_per_proc=8192,
            block_size=512,
            modelled_cpu=True,
        )
        base.update(overrides)
        return PDTLConfig(**base)

    def _assert_equivalent(self, reference, result, label):
        assert result.triangles == reference.triangles, label
        assert result.calc_seconds == reference.calc_seconds, label
        assert result.total_io_seconds == reference.total_io_seconds, label
        assert result.total_cpu_seconds == reference.total_cpu_seconds, label
        assert result.modelled_setup_seconds == reference.modelled_setup_seconds, label
        assert (
            result.metrics.setup_io_stats.as_dict()
            == reference.metrics.setup_io_stats.as_dict()
        ), label

    def test_backend_matrix(self, graph):
        expected = forward_count(graph)
        reference = PDTLRunner(self._config(), backend="serial").run(graph)
        assert reference.triangles == expected
        assert reference.modelled_setup_seconds > 0.0
        for backend in BACKENDS:
            for shm in (False, True):
                result = PDTLRunner(self._config(shm=shm), backend=backend).run(graph)
                label = f"{backend}/shm={shm}"
                assert result.shm_used == shm, label
                self._assert_equivalent(reference, result, label)

    def test_under_failure_straggler_and_jitter(self, skewed_graph):
        expected = forward_count(skewed_graph)
        injections = dict(
            scheduling="dynamic",
            failure_spec={0: 1, 2: 0},
            straggler_spec={1: 10.0},
        )
        with host_jitter(0.002):
            reference = PDTLRunner(self._config(**injections), backend="serial").run(
                skewed_graph
            )
            assert reference.triangles == expected
            assert reference.metrics.total_chunks_retried >= 1
            for backend in BACKENDS:
                result = PDTLRunner(
                    self._config(shm=True, **injections), backend=backend
                ).run(skewed_graph)
                self._assert_equivalent(reference, result, backend)

    def test_edge_support_sink_unaffected(self, skewed_graph):
        """The derived-analytics input (edge supports) does not depend on
        the backend or on shm either."""
        reference = PDTLRunner(self._config(), backend="serial").run(
            skewed_graph, sink_kind="edge-support"
        )
        assert reference.triangles == forward_count(skewed_graph)
        for backend in BACKENDS:
            for shm in (False, True):
                result = PDTLRunner(self._config(shm=shm), backend=backend).run(
                    skewed_graph, sink_kind="edge-support"
                )
                label = f"{backend}/shm={shm}"
                self._assert_equivalent(reference, result, label)
                np.testing.assert_array_equal(
                    result.edge_supports, reference.edge_supports, err_msg=label
                )
                np.testing.assert_array_equal(
                    result.oriented_edges, reference.oriented_edges, err_msg=label
                )

    def test_setup_stats_within_scan_envelope(self, graph):
        config = self._config()
        result = PDTLRunner(config, backend="serial").run(graph)
        estimate = estimate_setup_cost(graph, config)
        measured = result.metrics.setup_io_stats.total_blocks
        assert estimate.total_blocks > 0
        # the envelope ignores meta files and block-boundary rounding; the
        # measured counters must sit within a small constant of it
        assert 0.5 * estimate.total_blocks <= measured <= 2.0 * estimate.total_blocks
