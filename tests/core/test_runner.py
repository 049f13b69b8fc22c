"""Unit tests for the high-level convenience entry points."""

from __future__ import annotations

import numpy as np
import pytest

from repro import PDTLConfig, count_triangles, list_triangles, triangle_counts_per_vertex
from repro.baselines.inmemory import forward_count, per_vertex_triangle_counts
from repro.core.pdtl import PDTLRunner
from repro.graph.csr import CSRGraph
from repro.graph.generators import complete_graph, rmat


class TestCountTriangles:
    def test_with_default_config(self, k6):
        assert count_triangles(k6).triangles == 20

    def test_with_explicit_config(self, k6):
        cfg = PDTLConfig(num_nodes=2, procs_per_node=2)
        assert count_triangles(k6, config=cfg).triangles == 20

    def test_with_keyword_overrides(self, k6):
        result = count_triangles(k6, num_nodes=2, procs_per_node=3, memory_per_proc="1MB")
        assert result.triangles == 20
        assert result.config.total_processors == 6

    def test_config_and_overrides_conflict(self, k6):
        with pytest.raises(ValueError):
            count_triangles(k6, config=PDTLConfig(), num_nodes=2)

    def test_matches_reference_on_random_graph(self):
        graph = CSRGraph.from_edgelist(rmat(7, edge_factor=6, seed=1))
        assert count_triangles(graph).triangles == forward_count(graph)


class TestListTriangles:
    def test_lists_all_triangles(self, k6):
        result = list_triangles(k6)
        assert len(result.triangle_list) == 20
        assert len({t.as_vertex_set() for t in result.triangle_list}) == 20

    def test_listing_runs_charge_their_real_output(self, k6):
        """A listing run ships its triangles back to the master, so it
        moves more bytes than a counting run of the same configuration."""
        runner = PDTLRunner(PDTLConfig(num_nodes=2))
        listed = runner.run(k6, sink_kind="list")
        counted = runner.run(k6, sink_kind="count")
        assert listed.network_bytes > counted.network_bytes

    def test_triangle_free(self, triangle_free_graph):
        assert list_triangles(triangle_free_graph).triangle_list == []


class TestPerVertexCounts:
    def test_matches_reference(self):
        graph = CSRGraph.from_edgelist(rmat(6, edge_factor=8, seed=2))
        result = triangle_counts_per_vertex(graph, procs_per_node=2)
        np.testing.assert_array_equal(
            result.per_vertex_counts, per_vertex_triangle_counts(graph)
        )

    def test_complete_graph_counts(self):
        graph = CSRGraph.from_edgelist(complete_graph(5))
        result = triangle_counts_per_vertex(graph)
        # every vertex of K5 is in C(4,2) = 6 triangles
        assert result.per_vertex_counts.tolist() == [6] * 5
