"""Property tests: GraphDelta vs the full-recompute oracle.

The contract of :class:`~repro.analytics.delta.GraphDelta` is exact
equality with a from-scratch ``truss_decomposition`` of the mutated
graph -- not approximate, not "equivalent up to peel order".  The suite
drives random insert/delete batches (including no-op, duplicate, and
self-inverse batches) over arbitrary random graphs and the named graph
families, plus fixed batches at the boundaries of the array splices
(``BOUNDARY``), always with ``verify=True`` so the delta path re-checks
itself against the oracle inline, then pins every result field again
here: the graph, edges, supports, trussness, triangle table and sink.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.analytics import GraphDelta, truss_decomposition
from repro.analytics.delta import _unique
from repro.analytics.truss import canonical_edges
from repro.graph.csr import CSRGraph
from repro.graph.edgelist import EdgeList
from repro.graph.generators import (
    complete_graph,
    erdos_renyi,
    planar_grid,
    power_law_degree_graph,
    ring_graph,
    watts_strogatz,
)

SETTINGS = dict(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def graph_and_batch(draw, max_vertices: int = 24, max_extra_edges: int = 90):
    """A random simple graph plus a random mutation batch over it.

    The batch mixes present and absent edges on both sides so no-op
    deletions/insertions, duplicates, and delete+insert overlaps all get
    generated.
    """
    n = draw(st.integers(min_value=2, max_value=max_vertices))
    max_possible = n * (n - 1) // 2
    m = draw(st.integers(min_value=0, max_value=min(max_extra_edges, max_possible)))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    iu, iv = np.triu_indices(n, k=1)
    chosen = rng.choice(iu.shape[0], size=min(m, iu.shape[0]), replace=False)
    edges = np.stack([iu[chosen], iv[chosen]], axis=1)
    graph = CSRGraph.from_edgelist(EdgeList(edges, n))

    num_ins = draw(st.integers(min_value=0, max_value=8))
    num_del = draw(st.integers(min_value=0, max_value=8))
    pool = np.stack([iu, iv], axis=1)
    ins = pool[rng.integers(0, pool.shape[0], size=num_ins)]
    dels = pool[rng.integers(0, pool.shape[0], size=num_del)]
    # duplicates within a batch are part of the contract
    if num_ins and draw(st.booleans()):
        ins = np.concatenate([ins, ins[:1]])
    if num_del and draw(st.booleans()):
        dels = np.concatenate([dels, dels[:1]])
    return graph, ins, dels


def _boundary_batches():
    """The positions a splice can get wrong, as ``(graph, ins, dels)``:
    mutations at the first and last canonical ids, several insertions
    between the same two old keys, insertions before the first key and
    after the last, every edge of one triangle deleted, and one 2,048-edge
    mixed batch on a graph of a few thousand edges."""
    base = CSRGraph.from_edgelist(
        power_law_degree_graph(
            1200, exponent=2.2, min_degree=3, max_degree=60, seed=17
        )
    )
    n = base.num_vertices
    # with (0, 1) and (n - 2, n - 1) absent, their keys lie before the
    # first old key and after the last one
    ends = np.array([[0, 1], [n - 2, n - 1]])
    edges = canonical_edges(base)
    keep = ~np.isin(edges[:, 0] * n + edges[:, 1], ends[:, 0] * n + ends[:, 1])
    graph = CSRGraph.from_edgelist(EdgeList(edges[keep], n))
    edges = canonical_edges(graph)
    m = edges.shape[0]
    keys = edges[:, 0] * n + edges[:, 1]
    widest = int(np.argmax(np.diff(keys)))
    between = np.arange(keys[widest] + 1, keys[widest + 1])
    between = between[between // n < between % n][:3]
    between = np.stack([between // n, between % n], axis=1)
    triangle = edges[truss_decomposition(graph, keep_triangles=True).tri_edges[0]]
    rng = np.random.default_rng(2048)
    present = set(keys.tolist())
    absent = set()
    while len(absent) < 1024:
        u, v = sorted(rng.integers(0, n, size=2).tolist())
        if u != v and u * n + v not in present:
            absent.add(u * n + v)
    absent = np.array(sorted(absent))
    none = np.empty((0, 2), dtype=np.int64)
    assert between.shape[0] == 3
    return [
        (graph, none, edges[[0, m - 1]]),
        (graph, ends, edges[[0, m - 1]]),
        (graph, between, none),
        (graph, ends, none),
        (graph, none, triangle),
        (
            graph,
            np.stack([absent // n, absent % n], axis=1),
            edges[rng.choice(m, size=1024, replace=False)],
        ),
    ]


BOUNDARY = _boundary_batches()


def _row_sets(tri):
    """A triangle table as the sorted multiset of its sorted id rows."""
    rows = np.sort(tri, axis=1)
    return rows[np.lexsort(rows.T[::-1])]


def _check_against_oracle(applied):
    oracle = truss_decomposition(applied.graph, keep_triangles=True)
    truss = applied.truss
    np.testing.assert_array_equal(truss.edges, oracle.edges)
    np.testing.assert_array_equal(truss.support, oracle.support)
    np.testing.assert_array_equal(truss.trussness, oracle.trussness)
    assert truss.num_vertices == oracle.num_vertices
    # the mutated graph is the CSR of the result's edges
    rebuilt = CSRGraph.from_edgelist(EdgeList(truss.edges, truss.num_vertices))
    np.testing.assert_array_equal(applied.graph.indptr, rebuilt.indptr)
    np.testing.assert_array_equal(applied.graph.indices, rebuilt.indices)
    # the maintained triangle table holds the graph's triangles
    np.testing.assert_array_equal(
        _row_sets(truss.tri_edges), _row_sets(oracle.tri_edges)
    )
    # the sink holds one support per result edge, and its triangle count
    assert applied.sink.num_edges == truss.edges.shape[0]
    np.testing.assert_array_equal(applied.sink.support, truss.support)
    assert applied.sink.count == applied.triangles


@given(case=graph_and_batch())
@settings(**SETTINGS)
@example(case=BOUNDARY[0])
@example(case=BOUNDARY[1])
@example(case=BOUNDARY[2])
@example(case=BOUNDARY[3])
@example(case=BOUNDARY[4])
@example(case=BOUNDARY[5])
def test_random_batch_matches_full_recompute(case):
    graph, ins, dels = case
    prev = truss_decomposition(graph, keep_triangles=True)
    applied = GraphDelta(insertions=ins, deletions=dels).apply(
        graph, prev=prev, verify=True
    )
    _check_against_oracle(applied)


@given(case=graph_and_batch())
@settings(**SETTINGS)
@example(case=BOUNDARY[0])
@example(case=BOUNDARY[4])
@example(case=BOUNDARY[5])
def test_self_inverse_batch_round_trips(case):
    """delete(B) then insert(realised B) restores the graph exactly."""
    graph, _, dels = case
    prev = truss_decomposition(graph, keep_triangles=True)
    removed = GraphDelta(deletions=dels).apply(graph, prev=prev, verify=True)
    restored = GraphDelta(insertions=removed.deleted).apply(
        removed.graph, prev=removed.truss, supports=removed.sink, verify=True
    )
    np.testing.assert_array_equal(restored.truss.edges, prev.edges)
    np.testing.assert_array_equal(restored.truss.trussness, prev.trussness)
    np.testing.assert_array_equal(restored.truss.support, prev.support)


@given(case=graph_and_batch())
@settings(**SETTINGS)
def test_noop_batch_is_identity(case):
    """Inserting present edges and deleting absent ones changes nothing."""
    graph, _, _ = case
    present = canonical_edges(graph)
    n = graph.num_vertices
    key = present[:, 0] * np.int64(n) + present[:, 1] if present.shape[0] else None
    iu, iv = np.triu_indices(n, k=1)
    all_keys = iu * np.int64(n) + iv
    absent_mask = (
        ~np.isin(all_keys, key) if key is not None else np.ones_like(all_keys, bool)
    )
    absent = np.stack([iu[absent_mask], iv[absent_mask]], axis=1)

    prev = truss_decomposition(graph, keep_triangles=True)
    applied = GraphDelta(
        insertions=present[:4], deletions=absent[:4]
    ).apply(graph, prev=prev, verify=True)
    assert applied.touched_edges == 0
    assert applied.replayed_levels == 0
    np.testing.assert_array_equal(applied.truss.trussness, prev.trussness)
    np.testing.assert_array_equal(applied.truss.support, prev.support)


@pytest.mark.parametrize("seed", range(5))
def test_erdos_renyi_family(seed):
    rng = np.random.default_rng(seed)
    graph = CSRGraph.from_edgelist(
        erdos_renyi(int(rng.integers(20, 70)), float(rng.uniform(0.1, 0.3)), seed=seed)
    )
    edges = canonical_edges(graph)
    prev = truss_decomposition(graph, keep_triangles=True)
    pick = rng.choice(edges.shape[0], size=min(6, edges.shape[0]), replace=False)
    applied = GraphDelta(
        deletions=edges[pick], insertions=[(0, graph.num_vertices - 1)]
    ).apply(graph, prev=prev, verify=True)
    _check_against_oracle(applied)


@pytest.mark.parametrize("seed", range(3))
def test_power_law_family(seed):
    graph = CSRGraph.from_edgelist(
        power_law_degree_graph(
            200, exponent=2.2, min_degree=2, max_degree=30, seed=seed
        )
    )
    edges = canonical_edges(graph)
    rng = np.random.default_rng(seed)
    prev = truss_decomposition(graph, keep_triangles=True)
    pick = rng.choice(edges.shape[0], size=8, replace=False)
    applied = GraphDelta(deletions=edges[pick]).apply(graph, prev=prev, verify=True)
    _check_against_oracle(applied)


@pytest.mark.parametrize(
    "edges",
    [
        complete_graph(7),
        ring_graph(9),
        planar_grid(4, 5, diagonals=True),
        watts_strogatz(30, 4, 0.2, seed=1),
    ],
    ids=["complete", "ring", "grid", "watts_strogatz"],
)
def test_structured_families(edges):
    graph = CSRGraph.from_edgelist(edges)
    canon = canonical_edges(graph)
    prev = truss_decomposition(graph, keep_triangles=True)
    applied = GraphDelta(deletions=canon[::3]).apply(graph, prev=prev, verify=True)
    _check_against_oracle(applied)
    # and the inverse restores the family graph
    restored = GraphDelta(insertions=applied.deleted).apply(
        applied.graph, prev=applied.truss, supports=applied.sink, verify=True
    )
    np.testing.assert_array_equal(restored.truss.trussness, prev.trussness)


@given(values=st.lists(st.integers(-(2**62), 2**62), max_size=200))
@settings(max_examples=60, deadline=None)
def test_unique_matches_np_unique(values):
    arr = np.array(values, dtype=np.int64)
    np.testing.assert_array_equal(_unique(arr), np.unique(arr))
