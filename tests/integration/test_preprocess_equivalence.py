"""Equivalence matrix for the master's preprocessing.

The chunked orientation (one vertex chunk per master core) and the
external sort's radix-sorted run formation must be *bit-identical* to
their references in every observable the simulation produces:

* the oriented graph's on-disk bytes (degree, adjacency and meta files);
* the external sort's run windows and output file;
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

from repro.analysis.cost_model import estimate_setup_cost
from repro.baselines.inmemory import forward_count
from repro.core import kernel_backend
from repro.core.config import PDTLConfig
from repro.core.orientation import orient_graph
from repro.core.pdtl import PDTLRunner
from repro.core.shm import shm_available
from repro.externalmem import extsort as extsort_mod
from repro.externalmem.blockio import BlockDevice
from repro.externalmem.extsort import (
    _sort_window_fast,
    external_sort_edges,
    write_edge_file,
)
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


class TestExtsortFormationBitIdentity:
    """Radix run formation and the two merges against their references."""

    @pytest.fixture(scope="class")
    def edges(self) -> np.ndarray:
        rng = np.random.default_rng(11)
        return rng.integers(0, 900, size=(30000, 2)).astype(np.int64)

    def _sort(self, tmp_path, edges, merge_impl):
        device = BlockDevice(tmp_path / f"disk_{merge_impl}", block_size=512)
        write_edge_file(device, "in.bin", edges)
        baseline = device.stats.snapshot()
        result = external_sort_edges(
            device,
            "in.bin",
            "out.bin",
            memory_bytes=32 * 1024,
            merge_impl=merge_impl,
        )
        return device, result, device.stats.delta(baseline)

    def test_radix_windows_match_lexsort(self, edges):
        """Every run window the radix sort forms equals the stable lexsort
        of the same window, byte for byte, with the same extrema."""
        memory_edges = (32 * 1024) // 16
        for offset in range(0, edges.shape[0], memory_edges):
            window = edges[offset : offset + memory_edges]
            fast, max_src, max_dst, min_value = _sort_window_fast(window)
            expected = window[np.lexsort((window[:, 1], window[:, 0]))]
            assert fast.dtype == expected.dtype
            assert fast.tobytes() == np.ascontiguousarray(expected).tobytes()
            assert max_src == int(window[:, 0].max())
            assert max_dst == int(window[:, 1].max())
            assert min_value == int(window.min())

    def test_output_and_stats_identical(self, tmp_path, edges, monkeypatch):
        """Radix run formation against lexsort run formation: identical
        output bytes, run and pass counts, and the whole IOStats dict."""
        dev_r, res_r, stats_r = self._sort(tmp_path / "radix", edges, "vectorized")

        def lexsort_window(window):
            order = np.lexsort((window[:, 1], window[:, 0]))
            return (
                window[order],
                int(window[:, 0].max()),
                int(window[:, 1].max()),
                int(window.min()),
            )

        monkeypatch.setattr(extsort_mod, "_sort_window_fast", lexsort_window)
        dev_l, res_l, stats_l = self._sort(tmp_path / "lexsort", edges, "vectorized")
        assert res_r.num_runs == res_l.num_runs > 1
        assert res_r.merge_passes == res_l.merge_passes
        assert _file_bytes(dev_r, "out.bin") == _file_bytes(dev_l, "out.bin") != b""
        assert stats_r.as_dict() == stats_l.as_dict()

    def test_merge_impls_agree(self, tmp_path, edges):
        dev_v, res_v, stats_v = self._sort(tmp_path, edges, "vectorized")
        dev_h, res_h, stats_h = self._sort(tmp_path, edges, "heapq")
        assert res_v.num_runs == res_h.num_runs > 1
        assert res_v.merge_passes == res_h.merge_passes
        assert _file_bytes(dev_v, "out.bin") == _file_bytes(dev_h, "out.bin") != b""
        assert stats_v.as_dict() == stats_h.as_dict()


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
            host_jitter_seconds=0.002,
        )
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
        reference = PDTLRunner(
            self._config(sink="edge-support"), backend="serial"
        ).run(skewed_graph)
        assert reference.triangles == forward_count(skewed_graph)
        for backend in BACKENDS:
            for shm in (False, True):
                result = PDTLRunner(
                    self._config(sink="edge-support", shm=shm), backend=backend
                ).run(skewed_graph)
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
