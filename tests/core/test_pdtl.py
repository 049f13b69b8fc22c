"""Unit and integration tests for the PDTL framework (master/worker pipeline)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.inmemory import (
    forward_count,
    forward_list,
    per_vertex_triangle_counts,
)
from repro.core.config import PDTLConfig
from repro.core.load_balance import ranges_cover_exactly
from repro.core.orientation import orient_graph
from repro.core.pdtl import PDTLRunner
from repro.core.triangles import oriented_edge_array
from repro.errors import ConfigurationError
from repro.externalmem.blockio import BlockDevice
from repro.graph.binfmt import write_graph
from repro.graph.csr import CSRGraph
from repro.graph.generators import complete_graph, rmat, watts_strogatz


@pytest.fixture(scope="module")
def medium_graph() -> CSRGraph:
    return CSRGraph.from_edgelist(rmat(8, edge_factor=8, seed=21))


@pytest.fixture(scope="module")
def medium_expected(medium_graph) -> int:
    return forward_count(medium_graph)


class TestCorrectnessAcrossConfigurations:
    @pytest.mark.parametrize(
        "nodes,procs",
        [(1, 1), (1, 2), (1, 4), (2, 1), (2, 2), (3, 2), (4, 4)],
    )
    def test_count_is_configuration_independent(
        self, medium_graph, medium_expected, nodes, procs
    ):
        config = PDTLConfig(
            num_nodes=nodes, procs_per_node=procs, memory_per_proc="1MB"
        )
        result = PDTLRunner(config).run(medium_graph)
        assert result.triangles == medium_expected

    def test_small_memory_matches(self, medium_graph, medium_expected):
        config = PDTLConfig(
            num_nodes=2, procs_per_node=2, memory_per_proc=128 * 1024, block_size=1024
        )
        assert PDTLRunner(config).run(medium_graph).triangles == medium_expected

    def test_naive_split_matches_balanced(self, medium_graph, medium_expected):
        balanced = PDTLConfig(num_nodes=2, procs_per_node=2, load_balanced=True)
        naive = PDTLConfig(num_nodes=2, procs_per_node=2, load_balanced=False)
        assert PDTLRunner(balanced).run(medium_graph).triangles == medium_expected
        assert PDTLRunner(naive).run(medium_graph).triangles == medium_expected

    def test_processes_backend_matches(self, medium_graph, medium_expected):
        config = PDTLConfig(num_nodes=2, procs_per_node=2, memory_per_proc="1MB")
        result = PDTLRunner(config, backend="processes").run(medium_graph)
        assert result.triangles == medium_expected

    @pytest.mark.parametrize("procs", [1, 2, 4])
    def test_sequential_orientation_matches(self, medium_graph, tmp_path, procs):
        """The runner orients in ``procs_per_node`` chunks; its oriented
        graph equals the single-chunk orientation."""
        device = BlockDevice(tmp_path, block_size=512)
        reference = orient_graph(write_graph(device, "g", medium_graph)).oriented
        config = PDTLConfig(num_nodes=1, procs_per_node=procs)
        result = PDTLRunner(config).run(medium_graph, sink_kind="edge-support")
        np.testing.assert_array_equal(
            result.oriented_edges, oriented_edge_array(reference)
        )
        assert result.max_out_degree == reference.max_degree


class TestSinkKinds:
    def test_listing_matches_reference(self):
        graph = CSRGraph.from_edgelist(watts_strogatz(60, k=6, p=0.1, seed=2))
        config = PDTLConfig(num_nodes=2, procs_per_node=2)
        result = PDTLRunner(config).run(graph, sink_kind="list")
        listed = {t.as_vertex_set() for t in result.triangle_list}
        assert listed == forward_list(graph)
        assert len(result.triangle_list) == result.triangles

    def test_per_vertex_matches_reference(self):
        graph = CSRGraph.from_edgelist(rmat(6, edge_factor=8, seed=3))
        config = PDTLConfig(num_nodes=1, procs_per_node=3)
        result = PDTLRunner(config).run(graph, sink_kind="per-vertex")
        np.testing.assert_array_equal(
            result.per_vertex_counts, per_vertex_triangle_counts(graph)
        )
        # each triangle contributes 3 vertex participations
        assert int(result.per_vertex_counts.sum()) == 3 * result.triangles

    def test_per_vertex_results_charged_as_dense_arrays(self, k6):
        """Each result message from node 1 ships ``n`` int64 counts on top
        of the 8 bytes a counting run ships."""
        runner = PDTLRunner(PDTLConfig(num_nodes=2))
        counted = runner.run(k6, sink_kind="count")
        per_vertex = runner.run(k6, sink_kind="per-vertex")
        remote_messages = 1  # one static range on node 1
        assert (
            per_vertex.network_bytes - counted.network_bytes
            == remote_messages * 8 * k6.num_vertices
        )

    @pytest.mark.parametrize("scheduling", ["static", "dynamic"])
    @pytest.mark.parametrize("num_nodes", [2, 3])
    def test_result_payloads_follow_the_sink_kind(self, num_nodes, scheduling):
        """Against a counting run, each result message from a remote node
        adds ``8n`` bytes for per-vertex, ``8m`` for edge-support and 24
        bytes per listed triangle.  Modelled CPU keeps the dynamic replay,
        and so the chunk owners, identical across the four runs."""
        graph = CSRGraph.from_edgelist(rmat(7, edge_factor=8, seed=4))
        runner = PDTLRunner(
            PDTLConfig(
                num_nodes=num_nodes,
                procs_per_node=2,
                memory_per_proc=2048,
                block_size=256,
                scheduling=scheduling,
                modelled_cpu=True,
            )
        )
        runs = {
            kind: runner.run(graph, sink_kind=kind)
            for kind in ("count", "per-vertex", "edge-support", "list")
        }
        remote = [w for w in runs["count"].workers if w.node_index != 0]
        messages = sum(w.chunks_completed for w in remote)
        remote_triangles = sum(w.result.triangles for w in remote)
        assert messages >= 1 and remote_triangles >= 1
        extra = {
            kind: run.network_bytes - runs["count"].network_bytes
            for kind, run in runs.items()
        }
        n = graph.num_vertices
        m = runs["edge-support"].edge_supports.shape[0]
        assert extra["per-vertex"] == messages * 8 * n
        assert extra["edge-support"] == messages * 8 * m
        assert extra["list"] == 24 * remote_triangles

    def test_unknown_sink_kind_rejected(self, k6):
        # run() is the one place a kind is checked; underscore spellings
        # are not kinds
        for kind in ("bogus", "edge_support", "per_vertex", "file"):
            with pytest.raises(
                ConfigurationError, match="count, list, per-vertex, edge-support"
            ):
                PDTLRunner(PDTLConfig()).run(k6, sink_kind=kind)


class TestInputStaging:
    def test_accepts_on_disk_graph(self, device):
        graph = CSRGraph.from_edgelist(complete_graph(8))
        gf = write_graph(device, "external_input", graph)
        result = PDTLRunner(PDTLConfig()).run(gf)
        assert result.triangles == forward_count(graph)

    def test_rejects_directed_input(self, device):
        from repro.core.orientation import orient_csr

        graph = orient_csr(CSRGraph.from_edgelist(complete_graph(5)))
        with pytest.raises(ConfigurationError):
            PDTLRunner(PDTLConfig()).run(graph)


class TestResultStructure:
    @pytest.fixture(scope="class")
    def result(self):
        graph = CSRGraph.from_edgelist(rmat(7, edge_factor=8, seed=5))
        config = PDTLConfig(num_nodes=3, procs_per_node=2, memory_per_proc="1MB")
        return PDTLRunner(config).run(graph), graph, config

    def test_worker_reports_cover_all_processors(self, result):
        res, graph, config = result
        assert len(res.workers) == config.total_processors
        assert {(w.node_index, w.proc_index) for w in res.workers} == {
            (n, p)
            for n in range(config.num_nodes)
            for p in range(config.procs_per_node)
        }

    def test_edge_ranges_cover_oriented_edges(self, result):
        res, graph, _ = result
        assert ranges_cover_exactly(res.edge_ranges, graph.num_undirected_edges)

    def test_worker_triangles_sum_to_total(self, result):
        res, _, _ = result
        assert sum(w.triangles for w in res.workers) == res.triangles

    def test_per_node_metrics_present(self, result):
        res, _, config = result
        rows = res.node_breakdown()
        assert len(rows) == config.num_nodes
        assert sum(r["triangles"] for r in rows) == res.triangles

    def test_copy_time_charged_to_non_master_nodes_only(self, result):
        res, _, config = result
        assert res.metrics.nodes[0].copy_ps == 0
        for node in res.metrics.nodes[1:]:
            assert node.copy_ps > 0
        assert res.average_copy_seconds > 0.0

    def test_network_traffic_scales_with_replication(self, result):
        res, graph, config = result
        graph_bytes = 8 * (graph.num_vertices + graph.num_undirected_edges)
        # the oriented graph is shipped to N-1 machines, plus small messages
        expected_min = (config.num_nodes - 1) * graph_bytes
        assert res.network_bytes >= expected_min
        assert res.network_bytes < expected_min + graph_bytes  # not duplicated twice

    def test_timing_fields_consistent(self, result):
        res, _, _ = result
        assert res.orientation_seconds >= 0.0
        assert res.calc_seconds >= 0.0
        assert res.total_seconds >= res.calc_seconds
        assert res.wall_seconds > 0.0
        assert res.total_cpu_seconds >= 0.0
        assert res.total_io_seconds >= 0.0

    def test_max_out_degree_recorded(self, result):
        res, graph, _ = result
        from repro.core.orientation import orient_csr

        assert res.max_out_degree == orient_csr(graph).max_degree


class TestSingleNodeEquivalence:
    def test_single_core_equals_mgt_baseline(self):
        from repro.baselines.mgt_single import run_single_core_mgt

        graph = CSRGraph.from_edgelist(rmat(6, edge_factor=8, seed=9))
        pdtl = PDTLRunner(PDTLConfig()).run(graph)
        mgt = run_single_core_mgt(graph)
        assert pdtl.triangles == mgt.triangles
