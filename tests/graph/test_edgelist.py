"""Unit tests for repro.graph.edgelist.EdgeList."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import GraphFormatError
from repro.graph.edgelist import EdgeList


class TestConstruction:
    def test_from_pairs(self):
        el = EdgeList([(0, 1), (1, 2)])
        assert el.num_edges == 2
        assert el.num_vertices == 3

    def test_from_numpy_array(self):
        arr = np.array([[0, 3], [2, 1]], dtype=np.int64)
        el = EdgeList(arr)
        assert el.num_edges == 2
        assert el.num_vertices == 4

    def test_empty(self):
        el = EdgeList.empty(7)
        assert el.num_edges == 0
        assert el.num_vertices == 7

    def test_explicit_num_vertices(self):
        el = EdgeList([(0, 1)], num_vertices=10)
        assert el.num_vertices == 10

    def test_num_vertices_too_small_rejected(self):
        with pytest.raises(GraphFormatError):
            EdgeList([(0, 5)], num_vertices=3)

    def test_negative_vertex_rejected(self):
        with pytest.raises(GraphFormatError):
            EdgeList([(0, -1)])

    def test_bad_shape_rejected(self):
        with pytest.raises(GraphFormatError):
            EdgeList(np.zeros((3, 3), dtype=np.int64))

    def test_iteration_yields_python_ints(self):
        el = EdgeList([(0, 1), (2, 3)])
        pairs = list(el)
        assert pairs == [(0, 1), (2, 3)]
        assert all(isinstance(x, int) for pair in pairs for x in pair)

    def test_equality(self):
        a = EdgeList([(0, 1), (1, 2)])
        b = EdgeList([(0, 1), (1, 2)])
        c = EdgeList([(0, 1)])
        assert a == b
        assert a != c


class TestNormalisation:
    def test_without_self_loops(self):
        el = EdgeList([(0, 0), (0, 1), (2, 2)])
        clean = el.without_self_loops()
        assert clean.num_edges == 1
        assert not clean.has_self_loops()

    def test_deduplicated(self):
        el = EdgeList([(0, 1), (0, 1), (1, 2)])
        assert el.deduplicated().num_edges == 2

    def test_symmetrized_adds_reverse_edges(self):
        el = EdgeList([(0, 1), (1, 2)])
        sym = el.symmetrized()
        assert sym.num_edges == 4
        assert sym.is_symmetric()
        assert sym.is_sorted()

    def test_symmetrized_removes_loops_and_duplicates(self):
        el = EdgeList([(0, 1), (1, 0), (0, 0), (0, 1)])
        sym = el.symmetrized()
        assert sym.num_edges == 2
        assert not sym.has_self_loops()

    def test_canonical_undirected(self):
        el = EdgeList([(1, 0), (0, 1), (2, 1), (1, 1)])
        canon = el.canonical_undirected()
        assert list(canon) == [(0, 1), (1, 2)]

    def test_sorted_and_is_sorted(self):
        el = EdgeList([(2, 0), (0, 5), (0, 1)])
        assert not el.is_sorted()
        assert el.sorted().is_sorted()

    def test_is_sorted_with_single_edge(self):
        assert EdgeList([(3, 1)]).is_sorted()

    def test_is_symmetric_false_for_one_way_edge(self):
        assert not EdgeList([(0, 1)]).is_symmetric()

    def test_empty_operations(self):
        el = EdgeList.empty(4)
        assert el.symmetrized().num_edges == 0
        assert el.canonical_undirected().num_edges == 0
        assert el.is_sorted()
        assert el.is_symmetric()


def _unique_rows_reference(rows: np.ndarray) -> np.ndarray:
    """The normalisation's former implementation."""
    return np.unique(rows, axis=0) if rows.shape[0] else rows.reshape(0, 2)


def _noisy_rows(seed: int, num_vertices: int, num_rows: int) -> np.ndarray:
    """Random rows plus repeated rows, reversed rows and self loops, shuffled."""
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, num_vertices, size=(num_rows, 2))
    repeated = rows[rng.random(num_rows) < 0.3]
    reversed_rows = rows[rng.random(num_rows) < 0.3][:, ::-1]
    loops = np.repeat(rng.integers(0, num_vertices, size=(5, 1)), 2, axis=1)
    noisy = np.concatenate([rows, repeated, reversed_rows, loops])
    return noisy[rng.permutation(noisy.shape[0])].astype(np.int64)


class TestNormalisationMatchesUnique:
    """The packed-key normalisation returns exactly what
    ``np.unique(rows, axis=0)`` did: the same rows, order and dtype."""

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("num_vertices", [1, 3, 40])
    def test_every_normalisation_step(self, seed, num_vertices):
        rows = _noisy_rows(seed, num_vertices, 60)
        el = EdgeList(rows, num_vertices)
        no_loops = rows[rows[:, 0] != rows[:, 1]]
        canonical = np.sort(no_loops, axis=1)
        cases = (
            (el.deduplicated().edges, _unique_rows_reference(rows)),
            (
                el.symmetrized().edges,
                _unique_rows_reference(np.vstack([no_loops, no_loops[:, ::-1]])),
            ),
            (el.canonical_undirected().edges, _unique_rows_reference(canonical)),
        )
        for got, want in cases:
            assert got.dtype == want.dtype == np.int64
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()
        forward = _unique_rows_reference(rows)
        assert el.is_symmetric() == np.array_equal(
            forward, _unique_rows_reference(forward[:, ::-1])
        )
        assert el.symmetrized().is_symmetric()

    @pytest.mark.parametrize(
        "rows",
        [
            np.empty((0, 2), dtype=np.int64),
            np.array([[3, 1]], dtype=np.int64),
            np.array([[2, 2]], dtype=np.int64),
            np.array([[0, 0], [0, 0]], dtype=np.int64),
        ],
        ids=["empty", "single", "single-loop", "repeated-loop"],
    )
    def test_empty_and_single_rows(self, rows):
        el = EdgeList(rows, 4)
        assert el.deduplicated().edges.tobytes() == _unique_rows_reference(rows).tobytes()
        assert el.deduplicated().edges.shape == _unique_rows_reference(rows).shape
        assert el.is_symmetric() == (rows.shape[0] == 0 or bool((rows[:, 0] == rows[:, 1]).all()))

    def test_ids_too_large_to_pack(self):
        """Rows whose packed keys would overflow int64 take the lexsort."""
        big = 2**62
        rows = np.array([[big, big], [1, big], [big, big], [0, 5], [1, big]], dtype=np.int64)
        el = EdgeList(rows)
        assert el.deduplicated().edges.tobytes() == np.unique(rows, axis=0).tobytes()
        assert not el.is_symmetric()


class TestTransformations:
    def test_relabeled_preserves_edge_count(self):
        el = EdgeList([(0, 1), (1, 2), (2, 3)])
        perm = [3, 2, 1, 0]
        out = el.relabeled(perm)
        assert out.num_edges == el.num_edges
        # undirected view is preserved: {0,1},{1,2},{2,3} map to {3,2},{2,1},{1,0}
        assert sorted(map(tuple, out.canonical_undirected().edges.tolist())) == [
            (0, 1),
            (1, 2),
            (2, 3),
        ]

    def test_relabeled_rejects_non_bijection(self):
        el = EdgeList([(0, 1)], num_vertices=3)
        with pytest.raises(GraphFormatError):
            el.relabeled([0, 0, 1])

    def test_relabeled_rejects_wrong_length(self):
        el = EdgeList([(0, 1)], num_vertices=3)
        with pytest.raises(GraphFormatError):
            el.relabeled([0, 1])

    def test_shuffled_is_permutation_of_rows(self):
        el = EdgeList([(0, 1), (1, 2), (2, 3), (3, 4)])
        shuffled = el.shuffled(seed=5)
        assert sorted(map(tuple, shuffled.edges.tolist())) == sorted(
            map(tuple, el.edges.tolist())
        )

    def test_subsampled_fraction_bounds(self):
        el = EdgeList([(0, 1), (1, 2), (2, 3)])
        assert el.subsampled(0.0).num_edges == 0
        assert el.subsampled(1.0).num_edges == 3
        with pytest.raises(ValueError):
            el.subsampled(1.5)

    def test_copy_is_independent(self):
        el = EdgeList([(0, 1)])
        cp = el.copy()
        cp.edges[0, 0] = 5
        assert el.edges[0, 0] == 0
