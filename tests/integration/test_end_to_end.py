"""End-to-end integration tests across the whole stack.

These tests exercise realistic pipelines a downstream user would run:
text edge list on disk → binary format → PDTL over a multi-node simulated
cluster → application-level metrics (clustering coefficients), checking
every stage against independent references.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import PDTLConfig, PDTLRunner, count_triangles
from repro.baselines.inmemory import forward_count
from repro.baselines.mgt_single import run_single_core_mgt
from repro.baselines.opt import run_opt
from repro.baselines.powergraph import run_powergraph
from repro.core.orientation import orient_graph
from repro.externalmem.blockio import BlockDevice
from repro.externalmem.extsort import external_sort_edges, write_edge_file
from repro.graph.binfmt import open_graph, write_graph
from repro.graph.csr import CSRGraph
from repro.graph.datasets import load_dataset
from repro.graph.generators import rmat, watts_strogatz
from repro.graph.io import read_edgelist_text, write_edgelist_text
from repro.graph.properties import clustering_coefficient, transitivity


class TestTextToPDTLPipeline:
    def test_full_pipeline_from_text_file(self, tmp_path):
        # 1. a user has a SNAP-style text edge list
        edgelist = rmat(7, edge_factor=8, seed=30)
        text_path = write_edgelist_text(edgelist, tmp_path / "graph.txt")

        # 2. ingest + normalise + store in the binary processing format
        loaded = read_edgelist_text(text_path)
        graph = CSRGraph.from_edgelist(loaded)
        device = BlockDevice(tmp_path / "disk", block_size=1024)
        gf = write_graph(device, "ingested", graph)
        gf.validate()

        # 3. reopen from disk (fresh metadata read) and run PDTL distributed
        reopened = open_graph(device, "ingested")
        config = PDTLConfig(num_nodes=2, procs_per_node=2, memory_per_proc="1MB")
        result = PDTLRunner(config).run(reopened)

        assert result.triangles == forward_count(graph)

    def test_unsorted_edge_file_can_be_external_sorted_then_counted(self, tmp_path):
        device = BlockDevice(tmp_path / "disk", block_size=512)
        edgelist = rmat(6, edge_factor=8, seed=31).symmetrized()
        shuffled = edgelist.shuffled(seed=1)
        write_edge_file(device, "raw_edges.bin", shuffled.edges)

        # Theorem IV.2's preprocessing path: external sort before orientation
        external_sort_edges(device, "raw_edges.bin", "sorted_edges.bin", memory_bytes=4096)
        from repro.externalmem.extsort import read_edge_file
        from repro.graph.edgelist import EdgeList

        sorted_edges = EdgeList(read_edge_file(device, "sorted_edges.bin"),
                                edgelist.num_vertices)
        assert sorted_edges.is_sorted()
        graph = CSRGraph.from_edgelist(sorted_edges, symmetrize=False)
        gf = write_graph(device, "sorted_graph", graph)
        oriented = orient_graph(gf).oriented
        from repro.core.mgt import mgt_count

        assert mgt_count(oriented).triangles == forward_count(graph)


class TestDatasetsThroughTheStack:
    @pytest.mark.parametrize("name", ["rmat-10", "livejournal"])
    def test_dataset_counts_consistent_across_systems(self, name):
        graph = load_dataset(name, seed=1, scale=0.25)
        expected = forward_count(graph)
        assert count_triangles(graph, procs_per_node=2).triangles == expected
        assert run_single_core_mgt(graph).triangles == expected
        assert run_powergraph(graph, num_machines=2).triangles == expected

    def test_distributed_run_on_dataset(self):
        graph = load_dataset("rmat-10", seed=2)
        config = PDTLConfig(num_nodes=4, procs_per_node=2, memory_per_proc="512KB")
        result = PDTLRunner(config, backend="processes").run(graph)
        assert result.triangles == forward_count(graph)
        assert len(result.workers) == 8


class TestApplicationLevelMetrics:
    def test_clustering_coefficients_from_pdtl(self):
        import networkx as nx

        graph = CSRGraph.from_edgelist(watts_strogatz(120, k=6, p=0.1, seed=3))
        result = PDTLRunner(PDTLConfig(procs_per_node=2)).run(graph, sink_kind="per-vertex")
        coeffs = clustering_coefficient(graph, result.per_vertex_counts)
        expected = nx.clustering(graph.to_networkx())
        for v in range(graph.num_vertices):
            assert coeffs[v] == pytest.approx(expected[v], abs=1e-9)

    def test_transitivity_from_pdtl(self):
        import networkx as nx

        graph = CSRGraph.from_edgelist(rmat(7, edge_factor=6, seed=4))
        result = count_triangles(graph)
        assert transitivity(graph, result.triangles) == pytest.approx(
            nx.transitivity(graph.to_networkx()), rel=1e-9
        )


class TestCrossSystemShape:
    """Coarse qualitative checks of the paper's headline comparison claims."""

    def test_pdtl_memory_stays_small_while_powergraph_grows(self):
        graph = load_dataset("rmat-11", seed=5)
        pdtl = PDTLRunner(PDTLConfig(memory_per_proc="1MB", procs_per_node=2)).run(graph)
        pg = run_powergraph(graph, num_machines=2, memory_per_machine="512MB")
        pdtl_peak = max(w.result.peak_memory_bytes for w in pdtl.workers)
        assert pg.peak_memory_bytes > 2 * pdtl_peak

    def test_powergraph_fails_where_pdtl_succeeds(self):
        graph = load_dataset("rmat-11", seed=6)
        budget = 256 * 1024  # per machine / per processor
        pg = run_powergraph(graph, num_machines=2, memory_per_machine=budget)
        pdtl = PDTLRunner(
            PDTLConfig(num_nodes=2, procs_per_node=1, memory_per_proc=budget)
        ).run(graph)
        assert pg.oom
        assert pdtl.triangles == forward_count(graph)

    def test_opt_setup_rewrites_more_data_than_pdtl_orientation(self):
        graph = load_dataset("rmat-10", seed=7)
        opt = run_opt(graph)
        pdtl = PDTLRunner(PDTLConfig(procs_per_node=2)).run(graph)
        # PDTL's preprocessing writes only the oriented graph (|E| + |V| words);
        # OPT's database re-encodes the bidirectional graph plus an index and
        # a vertex map, so its on-disk footprint is strictly larger.
        oriented_bytes = 8 * (graph.num_vertices + graph.num_undirected_edges)
        assert opt.database_bytes > oriented_bytes
        assert pdtl.triangles == opt.triangles
