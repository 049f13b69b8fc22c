"""Unit tests for the Theorem IV.2 / IV.3 cost model."""

from __future__ import annotations

import pytest

from repro.analysis.cost_model import estimate_mgt_cost, estimate_pdtl_cost
from repro.core.config import PDTLConfig
from repro.graph.csr import CSRGraph
from repro.graph.generators import complete_graph, rmat


@pytest.fixture(scope="module")
def graph() -> CSRGraph:
    return CSRGraph.from_edgelist(rmat(8, edge_factor=8, seed=0))


class TestMGTEstimate:
    def test_iterations_formula(self, graph):
        config = PDTLConfig(memory_per_proc=16 * 1024, block_size=512)
        est = estimate_mgt_cost(graph, config)
        expected = -(-graph.num_undirected_edges // config.window_edges)
        assert est.iterations == expected

    def test_io_decreases_with_more_memory(self, graph):
        small = estimate_mgt_cost(graph, PDTLConfig(memory_per_proc=16 * 1024, block_size=512))
        large = estimate_mgt_cost(graph, PDTLConfig(memory_per_proc=1 << 20, block_size=512))
        assert large.io_blocks < small.io_blocks

    def test_io_decreases_with_larger_blocks(self, graph):
        small_b = estimate_mgt_cost(graph, PDTLConfig(memory_per_proc=1 << 20, block_size=512))
        large_b = estimate_mgt_cost(graph, PDTLConfig(memory_per_proc=1 << 20, block_size=8192))
        assert large_b.io_blocks < small_b.io_blocks

    def test_listing_adds_output_term(self, graph):
        config = PDTLConfig(memory_per_proc=1 << 20)
        counting = estimate_mgt_cost(graph, config, num_triangles=100_000, count_only=True)
        listing = estimate_mgt_cost(graph, config, num_triangles=100_000, count_only=False)
        assert listing.io_blocks > counting.io_blocks

    def test_cpu_scales_with_inverse_memory(self, graph):
        small = estimate_mgt_cost(graph, PDTLConfig(memory_per_proc=16 * 1024, block_size=512))
        large = estimate_mgt_cost(graph, PDTLConfig(memory_per_proc=1 << 22))
        assert small.cpu_operations > large.cpu_operations

    def test_empty_graph(self):
        est = estimate_mgt_cost(CSRGraph.empty(5), PDTLConfig())
        assert est.iterations == 0
        assert est.io_blocks == 0.0

    def test_arboricity_bound_matches_property(self, graph):
        from repro.graph.properties import arboricity_upper_bound

        est = estimate_mgt_cost(graph, PDTLConfig())
        assert est.arboricity_bound == arboricity_upper_bound(graph)


class TestPDTLEstimate:
    def test_network_traffic_formula(self, graph):
        config = PDTLConfig(num_nodes=3, procs_per_node=4)
        est = estimate_pdtl_cost(graph, config, num_triangles=1000, sink_kind="count")
        expected = 3 * (4 + graph.num_undirected_edges)  # + 0 for counting
        assert est.network_traffic_elements == expected

    def test_network_traffic_includes_triangles_when_listing(self, graph):
        config = PDTLConfig(num_nodes=2, procs_per_node=2)
        est = estimate_pdtl_cost(graph, config, num_triangles=1000, sink_kind="list")
        assert est.network_traffic_elements == 2 * (2 + graph.num_undirected_edges) + 1000

    def test_more_processors_reduce_iterations(self, graph):
        few = estimate_pdtl_cost(graph, PDTLConfig(num_nodes=1, procs_per_node=1, memory_per_proc=32 * 1024))
        many = estimate_pdtl_cost(graph, PDTLConfig(num_nodes=4, procs_per_node=8, memory_per_proc=32 * 1024))
        assert many.iterations_per_processor <= few.iterations_per_processor

    def test_io_has_np_scan_term(self, graph):
        config_small = PDTLConfig(num_nodes=1, procs_per_node=1, memory_per_proc=1 << 22)
        config_large = PDTLConfig(num_nodes=4, procs_per_node=8, memory_per_proc=1 << 22)
        small = estimate_pdtl_cost(graph, config_small)
        large = estimate_pdtl_cost(graph, config_large)
        # with memory large enough for one window, I/O grows with N*P because
        # every processor scans the whole graph at least once
        assert large.io_blocks > small.io_blocks

    def test_total_processors_recorded(self, graph):
        est = estimate_pdtl_cost(graph, PDTLConfig(num_nodes=2, procs_per_node=3))
        assert est.total_processors == 6
        assert est.num_nodes == 2


class TestModelAgainstMeasurement:
    """Coarse validation: measured I/O counters track the model's shape."""

    def test_measured_window_count_matches_model(self, device, graph):
        from repro.core.mgt import mgt_count
        from repro.core.orientation import orient_graph
        from repro.graph.binfmt import write_graph

        gf = write_graph(device, "g", graph)
        oriented = orient_graph(gf).oriented
        config = PDTLConfig(memory_per_proc=16 * 1024, block_size=512)
        measured = mgt_count(oriented, config)
        est = estimate_mgt_cost(oriented, config)
        assert measured.iterations == est.iterations

    def test_measured_io_halves_when_memory_doubles(self, device):
        from repro.core.mgt import mgt_count
        from repro.core.orientation import orient_graph
        from repro.graph.binfmt import write_graph

        graph = CSRGraph.from_edgelist(rmat(9, edge_factor=8, seed=5))
        gf = write_graph(device, "big", graph)
        oriented = orient_graph(gf).oriented
        small_cfg = PDTLConfig(memory_per_proc=32 * 1024, block_size=512)
        large_cfg = PDTLConfig(memory_per_proc=128 * 1024, block_size=512)
        small = mgt_count(oriented, small_cfg)
        large = mgt_count(oriented, large_cfg)
        assert small.io_stats.blocks_read > large.io_stats.blocks_read
        ratio_measured = small.io_stats.blocks_read / large.io_stats.blocks_read
        ratio_model = (
            estimate_mgt_cost(oriented, small_cfg).io_blocks
            / estimate_mgt_cost(oriented, large_cfg).io_blocks
        )
        # shapes agree within a factor of ~2
        assert ratio_measured == pytest.approx(ratio_model, rel=1.0)
