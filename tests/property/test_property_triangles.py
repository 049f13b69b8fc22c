"""Property-based tests: triangle-counting invariants on arbitrary graphs.

These are the headline correctness properties of the reproduction:

* PDTL (the full pipeline) always agrees with the in-memory reference and
  with networkx, on arbitrary random graphs and arbitrary configurations;
* triangle counts are invariant under vertex relabelling;
* the arboricity-based upper bound of Theorem III.4 always holds.
"""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import PDTLConfig, PDTLRunner
from repro.baselines.inmemory import forward_count, node_iterator_count
from repro.graph.csr import CSRGraph
from repro.graph.edgelist import EdgeList
from repro.graph.properties import triangle_count_upper_bound

SETTINGS = dict(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def random_graphs(draw, max_vertices: int = 28, max_extra_edges: int = 120):
    """A random simple undirected graph as a CSRGraph."""
    n = draw(st.integers(min_value=1, max_value=max_vertices))
    max_possible = n * (n - 1) // 2
    m = draw(st.integers(min_value=0, max_value=min(max_extra_edges, max_possible)))
    if m == 0:
        return CSRGraph.empty(n)
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    iu, iv = np.triu_indices(n, k=1)
    chosen = rng.choice(iu.shape[0], size=min(m, iu.shape[0]), replace=False)
    edges = np.stack([iu[chosen], iv[chosen]], axis=1)
    return CSRGraph.from_edgelist(EdgeList(edges, n))


@given(graph=random_graphs())
@settings(**SETTINGS)
def test_forward_equals_node_iterator(graph):
    assert forward_count(graph) == node_iterator_count(graph)


@given(graph=random_graphs())
@settings(**SETTINGS)
def test_pdtl_matches_reference(graph):
    result = PDTLRunner(PDTLConfig()).run(graph)
    assert result.triangles == forward_count(graph)


@given(
    graph=random_graphs(max_vertices=22, max_extra_edges=80),
    nodes=st.integers(min_value=1, max_value=3),
    procs=st.integers(min_value=1, max_value=3),
)
@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_pdtl_configuration_independence(graph, nodes, procs):
    """The count must not depend on the cluster shape."""
    config = PDTLConfig(num_nodes=nodes, procs_per_node=procs, memory_per_proc="256KB")
    assert PDTLRunner(config).run(graph).triangles == forward_count(graph)


@given(graph=random_graphs(), seed=st.integers(min_value=0, max_value=1000))
@settings(**SETTINGS)
def test_count_invariant_under_relabelling(graph, seed):
    rng = np.random.default_rng(seed)
    perm = rng.permutation(graph.num_vertices)
    relabelled = CSRGraph.from_edgelist(graph.to_edgelist().relabeled(perm))
    assert forward_count(relabelled) == forward_count(graph)


@given(graph=random_graphs())
@settings(**SETTINGS)
def test_arboricity_bound_always_holds(graph):
    assert forward_count(graph) <= triangle_count_upper_bound(graph) + 1e-9


@given(graph=random_graphs())
@settings(**SETTINGS)
def test_listing_is_consistent_with_count(graph):
    config = PDTLConfig()
    result = PDTLRunner(config).run(graph, sink_kind="list")
    assert len(result.triangle_list) == result.triangles
    vertex_sets = {t.as_vertex_set() for t in result.triangle_list}
    assert len(vertex_sets) == result.triangles  # no duplicates
    for tri in vertex_sets:
        vertices = sorted(tri)
        assert len(vertices) == 3
        for i in range(3):
            for j in range(i + 1, 3):
                assert graph.has_edge(vertices[i], vertices[j])


@given(graph=random_graphs(max_vertices=20, max_extra_edges=60))
@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_per_vertex_counts_sum_to_three_t(graph):
    result = PDTLRunner(PDTLConfig()).run(graph, sink_kind="per-vertex")
    assert int(result.per_vertex_counts.sum()) == 3 * result.triangles
