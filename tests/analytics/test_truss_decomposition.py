"""Unit tests for the vectorised k-truss decomposition."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analytics.truss import (
    TrussResult,
    _incidence,
    _peel,
    _peel_level_numpy,
    _triple_edge_ids,
    canonical_edges,
    truss_decomposition,
    trussness_reference,
    truss_summary_rows,
    undirected_edge_supports,
)
from repro.core import kernel_backend, kernels
from repro.graph.csr import CSRGraph
from repro.graph.edgelist import EdgeList
from repro.graph.generators import complete_graph, erdos_renyi, ring_graph

_COMPILED_OK, _COMPILED_DETAIL = kernel_backend.compiled_available()
TIERS = (
    "numpy",
    pytest.param("cffi", marks=pytest.mark.skipif(not _COMPILED_OK, reason=_COMPILED_DETAIL)),
)


def graph_from_edges(edges, n):
    return CSRGraph.from_edgelist(EdgeList(np.array(edges, dtype=np.int64), n))


class TestCanonicalEdges:
    def test_lexicographic_u_lt_v(self):
        graph = CSRGraph.from_edgelist(complete_graph(4))
        edges = canonical_edges(graph)
        assert edges.shape == (6, 2)
        assert np.all(edges[:, 0] < edges[:, 1])
        keys = edges[:, 0] * 4 + edges[:, 1]
        assert np.all(np.diff(keys) > 0)

    def test_rejects_directed(self):
        from repro.core.orientation import orient_csr

        oriented = orient_csr(CSRGraph.from_edgelist(complete_graph(4)))
        with pytest.raises(ValueError):
            canonical_edges(oriented)


class TestUndirectedEdgeSupports:
    def test_triangle_graph(self):
        graph = graph_from_edges([(0, 1), (1, 2), (0, 2), (2, 3)], 4)
        supports = undirected_edge_supports(graph)
        # canonical order: (0,1), (0,2), (1,2), (2,3)
        np.testing.assert_array_equal(supports, [1, 1, 1, 0])

    def test_sum_is_three_times_triangles(self):
        from repro.baselines.inmemory import forward_count

        graph = CSRGraph.from_edgelist(erdos_renyi(50, 0.2, seed=3))
        assert int(undirected_edge_supports(graph).sum()) == 3 * forward_count(graph)

    def test_batching_is_invisible(self):
        graph = CSRGraph.from_edgelist(erdos_renyi(60, 0.2, seed=4))
        np.testing.assert_array_equal(
            undirected_edge_supports(graph),
            undirected_edge_supports(graph, batch_edges=7),
        )


class TestTrussDecomposition:
    def test_complete_graph_single_truss(self):
        result = truss_decomposition(CSRGraph.from_edgelist(complete_graph(6)))
        assert np.all(result.trussness == 6)
        assert result.max_k == 6

    def test_triangle_free_graph_all_two(self):
        result = truss_decomposition(CSRGraph.from_edgelist(ring_graph(10)))
        assert np.all(result.trussness == 2)
        assert result.max_k == 2

    def test_two_cliques_with_bridge(self):
        """Two K4s joined by a bridge edge: clique edges truss 4, bridge 2."""
        edges = []
        for base in (0, 4):
            for i in range(4):
                for j in range(i + 1, 4):
                    edges.append((base + i, base + j))
        edges.append((3, 4))  # the bridge, in no triangle
        graph = graph_from_edges(edges, 8)
        result = truss_decomposition(graph)
        canon = canonical_edges(graph)
        bridge = np.nonzero((canon[:, 0] == 3) & (canon[:, 1] == 4))[0]
        assert result.trussness[bridge] == 2
        others = np.ones(canon.shape[0], dtype=bool)
        others[bridge] = False
        assert np.all(result.trussness[others] == 4)

    def test_accepts_precomputed_supports(self):
        graph = CSRGraph.from_edgelist(erdos_renyi(40, 0.25, seed=9))
        supports = undirected_edge_supports(graph)
        given = truss_decomposition(graph, supports=supports)
        derived = truss_decomposition(graph)
        np.testing.assert_array_equal(given.trussness, derived.trussness)
        np.testing.assert_array_equal(given.edges, canonical_edges(graph))

    def test_precomputed_supports_that_disagree_raise(self):
        graph = CSRGraph.from_edgelist(erdos_renyi(40, 0.25, seed=9))
        supports = undirected_edge_supports(graph)
        supports[3] += 1
        with pytest.raises(ValueError, match="disagree"):
            truss_decomposition(graph, supports=supports)

    def test_support_length_mismatch_raises(self):
        graph = CSRGraph.from_edgelist(complete_graph(4))
        with pytest.raises(ValueError):
            truss_decomposition(graph, supports=np.zeros(3, dtype=np.int64))

    def test_rejects_directed(self):
        from repro.core.orientation import orient_csr

        oriented = orient_csr(CSRGraph.from_edgelist(complete_graph(4)))
        with pytest.raises(ValueError):
            truss_decomposition(oriented)

    def test_empty_graph(self):
        graph = CSRGraph.from_edgelist(EdgeList(np.empty((0, 2), dtype=np.int64), 5))
        result = truss_decomposition(graph)
        assert result.num_edges == 0
        # regression: max_k used to report the sentinel 2 although every
        # k-truss of an edgeless graph is empty -- "the largest k with a
        # non-empty k-truss" does not exist, so the explicit answer is 0
        assert result.max_k == 0
        assert result.summary_rows() == []
        assert result.truss_edge_mask(2).shape == (0,)

    def test_truss_subgraph_above_max_k_preserves_vertices(self):
        """k > max_k yields an empty truss that keeps the vertex universe.

        The delta path deletes edges down to empty trusses, so the empty
        kept-edge array must flow through ``CSRGraph.from_edgelist`` without
        shape drift and the result must round-trip through another
        decomposition on the same vertex ids.
        """
        graph = CSRGraph.from_edgelist(complete_graph(5))
        result = truss_decomposition(graph)
        sub = result.truss_subgraph(result.max_k + 3)
        assert sub.num_vertices == graph.num_vertices
        assert not sub.directed
        assert canonical_edges(sub).shape == (0, 2)
        again = truss_decomposition(sub)
        assert again.num_vertices == graph.num_vertices
        assert again.max_k == 0
        assert again.truss_subgraph(2).num_vertices == graph.num_vertices

    def test_keep_triangles_retains_table(self):
        graph = CSRGraph.from_edgelist(erdos_renyi(40, 0.25, seed=7))
        plain = truss_decomposition(graph)
        kept = truss_decomposition(graph, keep_triangles=True)
        assert plain.tri_edges is None
        assert kept.tri_edges is not None and kept.tri_edges.shape[1] == 3
        # the table is the real triangle set: supports are its bincount
        m = kept.num_edges
        np.testing.assert_array_equal(
            np.bincount(kept.tri_edges.reshape(-1), minlength=m), kept.support
        )
        np.testing.assert_array_equal(plain.trussness, kept.trussness)

    def test_matches_reference_on_random_graph(self):
        graph = CSRGraph.from_edgelist(erdos_renyi(70, 0.2, seed=11))
        np.testing.assert_array_equal(
            truss_decomposition(graph).trussness, trussness_reference(graph)
        )

    def test_matches_networkx_k_truss(self):
        """Independent oracle: every k-truss subgraph equals networkx's."""
        nx = pytest.importorskip("networkx")
        graph = CSRGraph.from_edgelist(erdos_renyi(80, 0.12, seed=3))
        result = truss_decomposition(graph)
        reference = nx.Graph(list(map(tuple, canonical_edges(graph))))
        for k in range(2, result.max_k + 2):  # one past max_k: empty truss
            ours = {
                tuple(edge) for edge in canonical_edges(result.truss_subgraph(k))
            }
            theirs = {
                tuple(sorted(edge)) for edge in nx.k_truss(reference, k).edges()
            }
            assert ours == theirs, k


def _k4_with_pendant():
    """K4's four triangles over edges 0-5, plus a pendant triangle
    ``(5, 6, 7)`` hung on edge 5: edges 6 and 7 are a 3-truss, the rest a
    4-truss."""
    tri = np.array(
        [[0, 1, 3], [0, 2, 4], [1, 2, 5], [3, 4, 5], [5, 6, 7]], dtype=np.int64
    )
    return tri, np.bincount(tri.reshape(-1), minlength=8).astype(np.int64)


class TestRunOrientation:
    """``truss_decomposition`` on a run's orientation: exactly the input's
    upward edges, with the run's supports aligned with them."""

    @pytest.mark.parametrize("tier", TIERS)
    def test_matches_the_standalone_path(self, tier):
        from repro.core.orientation import orient_csr

        graph = CSRGraph.from_edgelist(erdos_renyi(60, 0.15, seed=2))
        oriented = orient_csr(graph)
        pairs = np.stack([oriented.edge_sources(), oriented.indices], axis=1)
        # every oriented edge's support, counted in the undirected graph
        supports = kernels.edge_intersections(
            graph.indptr, graph.indices, pairs[:, 0], pairs[:, 1], per_edge=True
        )
        with kernel_backend.use(tier):
            walked = truss_decomposition(
                graph, supports=supports, oriented_edges=pairs, keep_triangles=True
            )
            standalone = truss_decomposition(graph, keep_triangles=True)
        np.testing.assert_array_equal(walked.edges, standalone.edges)
        np.testing.assert_array_equal(walked.support, standalone.support)
        np.testing.assert_array_equal(walked.trussness, standalone.trussness)
        np.testing.assert_array_equal(walked.tri_edges, standalone.tri_edges)


class TestLevelLoop:
    """The incidence builder and level loop shared by
    :func:`truss_decomposition` and the delta replay."""

    @pytest.mark.parametrize("tier", TIERS)
    def test_incidence_lists_each_edges_rows_in_order(self, tier):
        tri, _ = _k4_with_pendant()
        with kernel_backend.use(tier):
            inc_ptr, inc_tri = _incidence(tri, 9)  # edge 8 is in no triangle
        np.testing.assert_array_equal(inc_ptr, [0, 2, 4, 6, 8, 10, 13, 14, 15, 15])
        np.testing.assert_array_equal(
            inc_tri, [0, 1, 0, 2, 1, 2, 0, 3, 1, 3, 2, 3, 4, 4, 4]
        )

    @pytest.mark.parametrize("tier", TIERS)
    def test_incidence_of_empty_table(self, tier):
        with kernel_backend.use(tier):
            inc_ptr, inc_tri = _incidence(np.empty((0, 3), dtype=np.int64), 4)
        np.testing.assert_array_equal(inc_ptr, np.zeros(5, dtype=np.int64))
        assert inc_tri.shape == (0,)

    def test_triple_edge_ids_are_canonical_positions(self):
        graph = CSRGraph.from_edgelist(complete_graph(5))
        edges = canonical_edges(graph)
        keys = kernels.packed_keys(edges[:, 0], edges[:, 1], 5)
        # vertex order within a triple does not matter
        a = np.array([0, 4, 3], dtype=np.int64)
        b = np.array([1, 2, 1], dtype=np.int64)
        c = np.array([2, 0, 4], dtype=np.int64)
        ids = _triple_edge_ids(keys, a, b, c, 5)
        for row, (x, y, z) in zip(ids, zip(a, b, c)):
            pairs = [sorted(p) for p in ((x, y), (x, z), (y, z))]
            assert edges[row].tolist() == pairs

    def test_numpy_level_runs_to_stability(self):
        tri, support = _k4_with_pendant()
        m = support.shape[0]
        inc_ptr, inc_tri = _incidence(tri, m)
        alive = np.ones(m, dtype=bool)
        truss = np.zeros(m, dtype=np.int64)
        tri_alive = np.ones(tri.shape[0], dtype=bool)
        args = (alive, support, truss, inc_ptr, inc_tri, tri.reshape(-1), tri_alive)
        # level 3: the pendant edges peel in one round and their triangle's
        # death drops edge 5 to the K4's support, which then holds
        assert _peel_level_numpy(3, *args) == (2, 1)
        np.testing.assert_array_equal(support[:6], [2] * 6)
        np.testing.assert_array_equal(truss, [0] * 6 + [3, 3])
        np.testing.assert_array_equal(tri_alive, [True] * 4 + [False])
        # level 4: the whole K4 peels at once
        assert _peel_level_numpy(4, *args) == (6, 1)
        np.testing.assert_array_equal(truss, [4] * 6 + [3, 3])
        assert not alive.any() and not tri_alive.any()

    @pytest.mark.parametrize("tier", TIERS)
    def test_peel_counts_rounds_and_levels(self, tier):
        tri, support = _k4_with_pendant()
        before = support.copy()
        with kernel_backend.use(tier):
            trussness, alive, rounds, levels = _peel(tri, support)
        np.testing.assert_array_equal(trussness, [4] * 6 + [3, 3])
        assert not alive.any()
        # level 2 peels nothing and jumps to 3; levels 3 and 4 one round each
        assert (rounds, levels) == (2, 3)
        np.testing.assert_array_equal(support, before)

    def test_peel_stops_when_settled(self):
        tri, support = _k4_with_pendant()
        trussness, alive, rounds, levels = _peel(
            tri, support, settled=lambda k, alive: k == 4
        )
        np.testing.assert_array_equal(alive, [True] * 6 + [False, False])
        np.testing.assert_array_equal(trussness, [0] * 6 + [3, 3])
        assert (rounds, levels) == (1, 2)


class TestTrussResultHelpers:
    @pytest.fixture()
    def result(self) -> TrussResult:
        return truss_decomposition(CSRGraph.from_edgelist(erdos_renyi(50, 0.25, seed=2)))

    def test_truss_edge_mask_monotone(self, result):
        for k in range(2, result.max_k + 1):
            assert np.all(result.truss_edge_mask(k + 1) <= result.truss_edge_mask(k))

    def test_truss_subgraph_edge_counts(self, result):
        for k in range(2, result.max_k + 1):
            sub = result.truss_subgraph(k)
            assert sub.num_undirected_edges == int(
                np.count_nonzero(result.truss_edge_mask(k))
            )

    def test_summary_rows_shape(self, result):
        rows = result.summary_rows()
        assert rows[0]["k"] == 2
        assert rows[0]["truss_edges"] == result.num_edges
        assert rows[-1]["k"] == result.max_k
        peeled = sum(r["edges_peeled_at_k"] for r in rows)
        assert peeled == result.num_edges

    def test_summary_rows_standalone(self, result):
        rows = truss_summary_rows(result.edges, result.trussness)
        assert rows == result.summary_rows()

    def test_report_table_renders(self, result):
        from repro.analysis.report import truss_summary_table

        table = truss_summary_table(result.summary_rows(), title="truss")
        assert "truss_edges" in table and table.startswith("truss")
