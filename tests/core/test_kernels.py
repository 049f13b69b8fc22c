"""Unit tests for the shared vectorised intersection kernels."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.reference_impl import (
    count_cone_range_scalar,
    edge_intersections_scalar,
)
from repro.core import kernel_backend, kernels
from repro.core.orientation import orient_csr
from repro.errors import GraphFormatError, PDTLError
from repro.graph.csr import CSRGraph
from repro.graph.generators import power_law_degree_graph, rmat


_COMPILED_OK, _COMPILED_DETAIL = kernel_backend.compiled_available()
TIERS = (
    "numpy",
    pytest.param("cffi", marks=pytest.mark.skipif(not _COMPILED_OK, reason=_COMPILED_DETAIL)),
)


@pytest.fixture(scope="module")
def oriented() -> CSRGraph:
    graph = CSRGraph.from_edgelist(rmat(8, edge_factor=8, seed=3))
    return orient_csr(graph)


class TestPackedKeys:
    def test_pack_is_monotone_in_pair_order(self):
        rng = np.random.default_rng(0)
        n = 97
        pairs = rng.integers(0, n, size=(500, 2), dtype=np.int64)
        order = np.lexsort((pairs[:, 1], pairs[:, 0]))
        keys = kernels.packed_keys(pairs[:, 0], pairs[:, 1], n)
        assert np.all(np.diff(keys[order]) >= 0)

    def test_csr_packed_keys_sorted_and_unique(self, oriented):
        keys = kernels.csr_packed_keys(oriented.indptr, oriented.indices)
        assert keys.shape[0] == oriented.num_edges
        assert np.all(np.diff(keys) > 0)  # simple graph: strictly increasing

    def test_csr_packed_keys_roundtrip(self, oriented):
        n = oriented.num_vertices
        keys = kernels.csr_packed_keys(oriented.indptr, oriented.indices)
        np.testing.assert_array_equal(keys % n, oriented.indices)
        np.testing.assert_array_equal(keys // n, oriented.edge_sources())

    def test_overflow_boundary(self):
        """``num_vertices`` beyond the int64 packing limit must raise, not wrap.

        At ``n = MAX_PACKABLE_VERTICES`` the largest key ``n**2 - 1`` still
        fits int64 and the packing stays monotone; at ``n + 1`` the products
        would silently wrap negative and break every sorted-key membership
        test built on them.
        """
        n = kernels.MAX_PACKABLE_VERTICES
        assert n * n - 1 <= np.iinfo(np.int64).max
        assert (n + 1) * (n + 1) - 1 > np.iinfo(np.int64).max
        top = np.array([n - 1], dtype=np.int64)
        keys = kernels.packed_keys(top, top, n)
        assert keys[0] == n * n - 1  # the extreme key, computed without wrap
        with pytest.raises(PDTLError, match="num_vertices"):
            kernels.packed_keys(top, top, n + 1)

    def test_overflow_message_names_the_limit(self):
        indices = np.array([0], dtype=np.int64)
        with pytest.raises(PDTLError, match=str(kernels.MAX_PACKABLE_VERTICES)):
            kernels.packed_keys(indices, indices, kernels.MAX_PACKABLE_VERTICES + 12345)


class TestSortedMembership:
    def test_matches_isin(self):
        rng = np.random.default_rng(1)
        haystack = np.unique(rng.integers(0, 1000, size=300))
        queries = rng.integers(0, 1000, size=500)
        np.testing.assert_array_equal(
            kernels.sorted_membership(haystack, queries),
            np.isin(queries, haystack),
        )

    def test_empty_inputs(self):
        empty = np.empty(0, dtype=np.int64)
        some = np.array([1, 2, 3], dtype=np.int64)
        assert kernels.sorted_membership(empty, some).sum() == 0
        assert kernels.sorted_membership(some, empty).shape == (0,)

    def test_query_beyond_last_element(self):
        haystack = np.array([1, 5, 9], dtype=np.int64)
        queries = np.array([9, 10, 100], dtype=np.int64)
        np.testing.assert_array_equal(
            kernels.sorted_membership(haystack, queries), [True, False, False]
        )


class TestSegmentGather:
    def test_matches_manual_concatenation(self):
        rng = np.random.default_rng(2)
        data = rng.integers(0, 100, size=200)
        starts = np.array([0, 50, 10, 199], dtype=np.int64)
        lengths = np.array([5, 0, 7, 1], dtype=np.int64)
        values, owners = kernels.segment_gather(data, starts, lengths)
        expected = np.concatenate(
            [data[s : s + l] for s, l in zip(starts, lengths)]
        )
        np.testing.assert_array_equal(values, expected)
        np.testing.assert_array_equal(
            owners, np.repeat(np.arange(4), lengths)
        )

    def test_all_empty_segments(self):
        values, owners = kernels.segment_gather(
            np.arange(10), np.zeros(3, dtype=np.int64), np.zeros(3, dtype=np.int64)
        )
        assert values.shape == (0,)
        assert owners.shape == (0,)


class TestVertexBatches:
    def test_batches_cover_range_exactly(self, oriented):
        n = oriented.num_vertices
        ranges = list(kernels.iter_vertex_batches(oriented.indptr, 0, n, 64))
        assert ranges[0][0] == 0
        assert ranges[-1][1] == n
        for (a, b), (c, _) in zip(ranges, ranges[1:]):
            assert b == c
            assert a < b

    def test_batch_entry_bound_respected(self, oriented):
        max_entries = 64
        for lo, hi in kernels.iter_vertex_batches(oriented.indptr, 0, oriented.num_vertices, max_entries):
            entries = int(oriented.indptr[hi] - oriented.indptr[lo])
            # a batch may exceed the bound only when it is a single vertex
            assert entries <= max_entries or hi - lo == 1

    def test_invalid_batch_entries(self, oriented):
        with pytest.raises(ValueError):
            list(kernels.iter_vertex_batches(oriented.indptr, 0, 1, 0))


class TestTriangleRange:
    def test_matches_scalar_reference_on_full_range(self, oriented):
        expected = count_cone_range_scalar(
            oriented.indptr, oriented.indices, 0, oriented.num_vertices
        )
        count, ops = kernels.triangle_range(
            oriented.indptr, oriented.indices, 0, oriented.num_vertices
        )
        assert count == expected
        assert ops >= oriented.num_edges

    def test_matches_scalar_reference_on_subranges(self, oriented):
        n = oriented.num_vertices
        for lo, hi in ((0, n // 3), (n // 3, n // 2), (n // 2, n)):
            expected = count_cone_range_scalar(oriented.indptr, oriented.indices, lo, hi)
            count, _ = kernels.triangle_range(oriented.indptr, oriented.indices, lo, hi)
            assert count == expected, (lo, hi)

    def test_count_independent_of_batching(self, oriented):
        full = kernels.count_cone_range(oriented.indptr, oriented.indices)
        for batch in (7, 64, 1 << 20):
            assert (
                kernels.count_cone_range(
                    oriented.indptr, oriented.indices, batch_entries=batch
                )
                == full
            )

    def test_triples_are_real_triangles(self, oriented):
        cones, vs, ws, _ = kernels.triangle_range(
            oriented.indptr, oriented.indices, 0, oriented.num_vertices, kernels.EMIT_TRIPLES
        )
        count, _ = kernels.triangle_range(
            oriented.indptr, oriented.indices, 0, oriented.num_vertices
        )
        assert cones.shape[0] == count
        for u, v, w in zip(cones[:50], vs[:50], ws[:50]):
            assert oriented.has_edge(int(u), int(v))
            assert oriented.has_edge(int(u), int(w))
            assert oriented.has_edge(int(v), int(w))

    @pytest.mark.parametrize("tier", TIERS)
    def test_positions_are_the_triples_edges(self, oriented, tier):
        n = oriented.num_vertices
        with kernel_backend.use(tier):
            cones, vs, ws, ops = kernels.triangle_range(
                oriented.indptr, oriented.indices, 0, n, kernels.EMIT_TRIPLES
            )
            positions, slot_ops = kernels.triangle_range(
                oriented.indptr, oriented.indices, 0, n, kernels.EMIT_POSITIONS
            )
        assert positions.shape == (cones.shape[0], 3) and slot_ops == ops
        sources = oriented.edge_sources()
        for column, (a, b) in enumerate(((cones, vs), (cones, ws), (vs, ws))):
            np.testing.assert_array_equal(sources[positions[:, column]], a)
            np.testing.assert_array_equal(oriented.indices[positions[:, column]], b)

    def test_empty_range(self, oriented):
        count, ops = kernels.triangle_range(oriented.indptr, oriented.indices, 0, 0)
        assert count == 0 and ops == 0

    @pytest.mark.parametrize("bad", [-1, 5, 2**62])
    @pytest.mark.parametrize("where", ["cone list", "walked list"])
    def test_numpy_twin_refuses_ids_outside_the_graph(self, bad, where):
        """As the C walk does, in every emit mode: -1 would read ``indptr``
        from its end and pack to the key of the edge (u - 1, n - 1)."""
        def i64(*values):
            return np.array(values, dtype=np.int64)

        if where == "cone list":  # vertex 0 lists [3, bad]
            indptr, indices = i64(0, 2, 2, 2, 2, 2), np.sort(i64(3, bad))
        else:  # vertex 0 lists [3], and 3 lists [bad]
            indptr, indices = i64(0, 1, 1, 1, 2, 2), i64(3, bad)
        for emit in (kernels.EMIT_COUNT, kernels.EMIT_TRIPLES, kernels.EMIT_POSITIONS):
            with pytest.raises(GraphFormatError, match="outside"):
                kernels.NUMPY_IMPLS["triangle_range"](indptr, indices, 0, 5, emit)


class TestCountConeRange:
    @pytest.mark.parametrize("tier", TIERS)
    def test_subranges_match_scalar_reference(self, oriented, tier):
        # the C tier counts a range with one triangle_range call, the numpy
        # tier in adjacency-bounded batches
        n = oriented.num_vertices
        with kernel_backend.use(tier):
            for lo, hi in ((0, n // 3), (n // 3, n // 2), (n // 2, n), (n, n)):
                got = kernels.count_cone_range(
                    oriented.indptr, oriented.indices, lo, hi, batch_entries=64
                )
                want = count_cone_range_scalar(oriented.indptr, oriented.indices, lo, hi)
                assert got == want, (lo, hi)


class TestEdgeIntersections:
    def test_matches_scalar_reference(self, oriented):
        us = oriented.edge_sources()
        vs = oriented.indices
        expected = edge_intersections_scalar(oriented.indptr, oriented.indices, us, vs)
        assert kernels.edge_intersections(oriented.indptr, oriented.indices, us, vs) == expected

    def test_per_edge_counts_sum_to_total(self, oriented):
        us = oriented.edge_sources()
        vs = oriented.indices
        per_edge = kernels.edge_intersections(
            oriented.indptr, oriented.indices, us, vs, per_edge=True
        )
        total = kernels.edge_intersections(oriented.indptr, oriented.indices, us, vs)
        assert int(per_edge.sum()) == total

    def test_precomputed_keys_equivalent(self, oriented):
        us = oriented.edge_sources()
        vs = oriented.indices
        keys = kernels.csr_packed_keys(oriented.indptr, oriented.indices)
        assert kernels.edge_intersections(
            oriented.indptr, oriented.indices, us, vs, csr_keys=keys
        ) == kernels.edge_intersections(oriented.indptr, oriented.indices, us, vs)


class TestEdgeKernelsRefuseBadEndpoints:
    """Both one-pair kernels check a batch before any read, on both tiers.
    C reads the endpoints unchecked (an id far past ``n`` crashed the
    process), and numpy read ``indptr`` from its end at -1 and past it at
    ``n``, or paired ``us`` with a shorter ``vs``."""

    # the 4-vertex graph 0 -> {1, 2}, 1 -> {2}
    INDPTR = np.array([0, 2, 3, 3, 3], dtype=np.int64)
    INDICES = np.array([1, 2, 2], dtype=np.int64)

    def _call(self, kernel, us, vs):
        args = (
            self.INDPTR, self.INDICES, np.array(us, dtype=np.int64),
            np.array(vs, dtype=np.int64),
        )
        if kernel == "edge_intersections":
            return kernels.edge_intersections(*args, per_edge=True)
        return kernels.edge_common_neighbors(*args)

    @pytest.mark.parametrize("tier", TIERS)
    @pytest.mark.parametrize("kernel", ["edge_intersections", "edge_common_neighbors"])
    @pytest.mark.parametrize("side", ["us", "vs"])
    @pytest.mark.parametrize("bad", [-1, 4, 10**6])
    def test_endpoint_outside_the_graph(self, tier, kernel, side, bad):
        us, vs = ([bad], [1]) if side == "us" else ([0], [bad])
        with kernel_backend.use(tier):
            with pytest.raises(IndexError, match="edge endpoints must be vertex ids"):
                self._call(kernel, us, vs)

    @pytest.mark.parametrize("tier", TIERS)
    @pytest.mark.parametrize("kernel", ["edge_intersections", "edge_common_neighbors"])
    @pytest.mark.parametrize("us, vs", [([0, 1], [1]), ([0], [1, 2])])
    def test_unequal_lengths(self, tier, kernel, us, vs):
        with kernel_backend.use(tier):
            with pytest.raises(ValueError, match="same length"):
                self._call(kernel, us, vs)

    @pytest.mark.parametrize("tier", TIERS)
    def test_valid_batch_still_runs(self, tier):
        with kernel_backend.use(tier):
            np.testing.assert_array_equal(
                self._call("edge_intersections", [0, 0], [1, 2]), [1, 0]
            )
            owners, ws = self._call("edge_common_neighbors", [0], [1])
        assert owners.tolist() == [0] and ws.tolist() == [2]


def test_power_law_graph_counts_match_reference():
    graph = CSRGraph.from_edgelist(
        power_law_degree_graph(400, exponent=2.3, min_degree=2, max_degree=50, seed=9)
    )
    oriented = orient_csr(graph)
    expected = count_cone_range_scalar(
        oriented.indptr, oriented.indices, 0, oriented.num_vertices
    )
    assert kernels.count_cone_range(oriented.indptr, oriented.indices) == expected
