"""Unit tests for degree-based ordering and orientation."""

from __future__ import annotations

import re

import numpy as np
import pytest

from repro.core import kernel_backend
from repro.core.config import PDTLConfig
from repro.core.orientation import (
    degree_order_keys,
    orient_csr,
    orient_graph,
    precedes,
)
from repro.core.pdtl import PDTLRunner
from repro.errors import GraphFormatError
from repro.graph.binfmt import write_graph
from repro.graph.csr import CSRGraph
from repro.graph.edgelist import EdgeList
from repro.graph.generators import complete_graph, rmat, watts_strogatz

from format_faults import FILE_FAULTS, LIST_FAULTS, corrupt, plant, write_graph_error


class TestDegreeOrder:
    def test_lower_degree_precedes(self):
        degrees = np.array([1, 3, 2])
        assert precedes(0, 1, degrees)
        assert precedes(2, 1, degrees)
        assert not precedes(1, 0, degrees)

    def test_ties_broken_by_vertex_id(self):
        degrees = np.array([2, 2, 2])
        assert precedes(0, 1, degrees)
        assert precedes(1, 2, degrees)
        assert not precedes(2, 0, degrees)

    def test_keys_are_strict_total_order(self):
        degrees = np.array([3, 1, 3, 1, 2])
        keys = degree_order_keys(degrees)
        assert len(set(keys.tolist())) == 5
        for u in range(5):
            for v in range(5):
                if u == v:
                    continue
                assert (keys[u] < keys[v]) == precedes(u, v, degrees)

    def test_keys_monotone_in_degree(self):
        degrees = np.array([0, 5, 10, 10])
        keys = degree_order_keys(degrees)
        assert keys[0] < keys[1] < keys[2] < keys[3]


class TestOrientCSR:
    def test_each_edge_appears_once(self):
        g = CSRGraph.from_edgelist(complete_graph(6))
        oriented = orient_csr(g)
        assert oriented.directed
        assert oriented.num_edges == g.num_undirected_edges

    def test_orientation_is_acyclic(self):
        import networkx as nx

        g = CSRGraph.from_edgelist(rmat(6, edge_factor=6, seed=0))
        oriented = orient_csr(g)
        assert nx.is_directed_acyclic_graph(oriented.to_networkx())

    def test_edges_point_from_smaller_to_larger(self):
        g = CSRGraph.from_edgelist(watts_strogatz(50, k=6, p=0.2, seed=1))
        oriented = orient_csr(g)
        degrees = g.degrees
        for u, v in oriented.iter_edges():
            assert precedes(u, v, degrees)

    def test_adjacency_stays_sorted(self):
        g = CSRGraph.from_edgelist(rmat(7, edge_factor=6, seed=2))
        oriented = orient_csr(g)
        oriented.check_sorted_adjacency()

    def test_max_out_degree_bounded_by_sqrt_2m(self):
        # classic property of the degree orientation: d*(v) = O(sqrt(|E|))
        g = CSRGraph.from_edgelist(rmat(8, edge_factor=8, seed=3))
        oriented = orient_csr(g)
        bound = 2 * np.sqrt(2 * g.num_undirected_edges) + 1
        assert oriented.max_degree <= bound

    def test_rejects_directed_input(self):
        g = orient_csr(CSRGraph.from_edgelist(complete_graph(4)))
        with pytest.raises(ValueError):
            orient_csr(g)

    def test_empty_graph(self):
        oriented = orient_csr(CSRGraph.empty(5))
        assert oriented.num_edges == 0
        assert oriented.num_vertices == 5

    def test_star_graph_orientation(self):
        # star: leaves have degree 1 and the hub n-1, so all edges point to the hub
        g = CSRGraph.from_edgelist(EdgeList([(0, i) for i in range(1, 6)]))
        oriented = orient_csr(g)
        for u, v in oriented.iter_edges():
            assert v == 0


class TestOrientGraphOnDisk:
    @pytest.fixture
    def on_disk(self, device):
        g = CSRGraph.from_edgelist(rmat(7, edge_factor=6, seed=4))
        return g, write_graph(device, "g", g)

    def test_matches_in_memory_orientation(self, on_disk):
        g, gf = on_disk
        result = orient_graph(gf, num_chunks=1)
        assert result.oriented.to_csr() == orient_csr(g)

    def test_chunked_matches_single_chunk(self, on_disk):
        g, gf = on_disk
        single = orient_graph(gf, num_chunks=1, output_name="one")
        chunked = orient_graph(gf, num_chunks=4, output_name="four")
        assert single.oriented.to_csr() == chunked.oriented.to_csr()

    def test_degree_arrays_consistent(self, on_disk):
        g, gf = on_disk
        result = orient_graph(gf, num_chunks=2)
        np.testing.assert_array_equal(
            result.out_degrees + result.in_degrees, g.degrees
        )
        assert result.max_out_degree == int(result.out_degrees.max())

    def test_oriented_edge_count_is_half(self, on_disk):
        g, gf = on_disk
        result = orient_graph(gf, num_chunks=3)
        assert result.num_edges == g.num_undirected_edges

    def test_rejects_oriented_input(self, on_disk, device):
        _, gf = on_disk
        oriented = orient_graph(gf).oriented
        with pytest.raises(ValueError):
            orient_graph(oriented)

    def test_invalid_chunk_count(self, on_disk):
        _, gf = on_disk
        with pytest.raises(ValueError):
            orient_graph(gf, num_chunks=0)

    def test_output_written_to_requested_device(self, on_disk, tmp_path):
        from repro.externalmem.blockio import BlockDevice

        _, gf = on_disk
        other = BlockDevice(tmp_path / "other")
        result = orient_graph(gf, device=other, output_name="oriented_copy")
        assert other.exists("oriented_copy.adj")
        assert result.oriented.device is other

    def test_elapsed_time_recorded(self, on_disk):
        _, gf = on_disk
        assert orient_graph(gf).elapsed_seconds >= 0.0

    def test_empty_graph_on_disk(self, device):
        g = CSRGraph.empty(4)
        gf = write_graph(device, "empty", g)
        result = orient_graph(gf)
        assert result.num_edges == 0
        assert result.max_out_degree == 0


_COMPILED_OK, _COMPILED_DETAIL = kernel_backend.compiled_available()
_TIERS = [
    "numpy",
    pytest.param(
        "cffi", marks=pytest.mark.skipif(not _COMPILED_OK, reason=f"no C tier: {_COMPILED_DETAIL}")
    ),
]


class TestOutOfRangeIds:
    """An on-disk adjacency id outside ``[0, n)`` is a format error naming
    the vertex that lists it, on either tier: ``keys[adjacency]`` used to
    raise a bare IndexError for a large id and wrap a negative one silently
    to vertex n - 1, so the corrupt entry simply disappeared."""

    @pytest.mark.parametrize("tier", _TIERS)
    @pytest.mark.parametrize("bad_id", [-1, 5])
    @pytest.mark.parametrize("num_chunks", [1, 2])
    def test_corrupt_id_raises_naming_the_vertex(self, device, tier, bad_id, num_chunks):
        # vertex 4 neighbours 0-3
        graph = CSRGraph.from_edgelist(EdgeList([(4, 0), (4, 1), (4, 2), (4, 3)], 5))
        gf = write_graph(device, "g", graph)
        path = device.path(gf.adjacency_file_name)
        adjacency = np.fromfile(path, dtype=np.int64)
        adjacency[graph.indptr[4]] = bad_id
        adjacency.tofile(path)
        message = rf"^adjacency list of vertex 4 holds id {bad_id} outside the graph's vertices \[0, 5\)$"
        with kernel_backend.use(tier):
            with pytest.raises(GraphFormatError, match=message):
                orient_graph(gf, num_chunks=num_chunks)


class TestMalformedInput:
    """The filter is the one reader of the input's files and lists, so it
    refuses a malformed input on either tier, before it writes anything:
    files that disagree with their metadata with a format error, and a
    fault in a list with the error ``write_graph`` raises for the graph
    in memory -- even when the fault is in the entries orientation drops,
    so every oriented list looks clean."""

    @pytest.fixture
    def graph(self):
        return CSRGraph.from_edgelist(rmat(6, edge_factor=8, seed=5))

    @pytest.mark.parametrize("tier", _TIERS)
    @pytest.mark.parametrize("fault", FILE_FAULTS)
    def test_file_fault_raises_a_format_error(self, device, graph, tier, fault):
        gf = write_graph(device, "g", graph)
        message = corrupt(gf, fault)
        with kernel_backend.use(tier):
            with pytest.raises(GraphFormatError, match=f"^{re.escape(message)}$"):
                orient_graph(gf, num_chunks=2)
        assert not device.exists("g_oriented.adj")

    @pytest.mark.parametrize("tier", _TIERS)
    @pytest.mark.parametrize("fault", LIST_FAULTS)
    @pytest.mark.parametrize("num_chunks", [1, 2, 4])
    def test_list_fault_raises_write_graphs_error(self, device, graph, tier, fault, num_chunks):
        bad = plant(graph, fault, 0)
        message = write_graph_error(bad)
        assert message is not None and "vertex 0" in message
        gf = write_graph(device, "g", bad, check=False)
        with kernel_backend.use(tier):
            with pytest.raises(GraphFormatError) as raised:
                orient_graph(gf, num_chunks=num_chunks)
        assert str(raised.value) == message
        assert not device.exists("g_oriented.adj")
        # the oriented lists alone would pass the check
        assert write_graph_error(orient_csr_unchecked(bad)) is None

    @pytest.mark.parametrize("tier", _TIERS)
    def test_an_unsorted_list_outranks_an_earlier_loop(self, device, graph, tier):
        bad = plant(plant(graph, "loop", 0), "swap", 2)
        message = write_graph_error(bad)
        assert message == (
            "adjacency list of vertex 2 is not sorted; "
            "modified MGT requires destination-sorted lists"
        )
        gf = write_graph(device, "g", bad, check=False)
        with kernel_backend.use(tier):
            with pytest.raises(GraphFormatError) as raised:
                orient_graph(gf, num_chunks=2)
        assert str(raised.value) == message


def orient_csr_unchecked(graph: CSRGraph) -> CSRGraph:
    """The entries of ``graph`` going up the degree order, kept in storage
    order whatever the format of its lists."""
    keys = degree_order_keys(graph.degrees)
    sources = graph.edge_sources()
    keep = keys[sources] < keys[graph.indices]
    indptr = np.zeros(graph.num_vertices + 1, dtype=np.int64)
    np.cumsum(np.bincount(sources[keep], minlength=graph.num_vertices), out=indptr[1:])
    return CSRGraph(indptr, graph.indices[keep], directed=True)


class TestMasterKernelTier:
    """The master's preprocessing runs on the process's kernel tier, the one
    its chunk tasks carry to the workers' scans.  Its one format check is
    the orientation filter's: a run never walks its lists with
    ``csr_violations``."""

    @pytest.mark.parametrize("tier", _TIERS)
    def test_preprocessing_dispatches_on_the_configured_tier(self, tier):
        graph = CSRGraph.from_edgelist(rmat(6, edge_factor=6, seed=4))
        config = PDTLConfig(memory_per_proc=4096, block_size=512, shm=True)
        other = "cffi" if tier == "numpy" else "numpy"
        with kernel_backend.use(tier):
            before = kernel_backend.dispatch_counts()
            PDTLRunner(config, backend="serial").run(graph)
            after = kernel_backend.dispatch_counts()
        for kernel in ("orient_range", "in_lists"):
            key = f"{kernel}.{tier}"
            assert after.get(key, 0) > before.get(key, 0), key
            assert after.get(f"{kernel}.{other}", 0) == before.get(f"{kernel}.{other}", 0)
        for key in ("csr_violations.numpy", "csr_violations.cffi"):
            assert after.get(key, 0) == before.get(key, 0), key
