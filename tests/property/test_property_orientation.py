"""Property-based tests for the degree-based order and orientation.

Besides the long-standing ``orient_csr`` invariants, this module drives
the *chunked* on-disk orientation path --
:func:`repro.core.orientation.orient_graph` with ``num_chunks`` vertex
chunks -- over randomized graph families (Erdős–Rényi, power-law, stars, paths, duplicate-heavy
edge lists) and asserts its output exactly equals the vectorised
in-memory reference, with every :func:`degree_order_keys` invariant
holding on the result.  The same families, with format faults planted,
check that the filter refuses exactly what ``write_graph`` refuses, and
that what a run publishes from memory is what it wrote to disk.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import kernel_backend, kernels
from repro.core.orientation import (
    degree_order_keys,
    orient_csr,
    orient_graph,
    precedes,
)
from repro.core.shm import SharedGraphView, publish_graph, shm_available
from repro.errors import GraphFormatError
from repro.externalmem.blockio import BlockDevice, DiskModel
from repro.graph.binfmt import write_graph
from repro.graph.csr import CSRGraph
from repro.graph.edgelist import EdgeList
from repro.graph.generators import power_law_degree_graph
from repro.utils import prefix_sums

from format_faults import write_graph_error

SETTINGS = dict(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

CHUNKED_SETTINGS = dict(SETTINGS, max_examples=25)


@st.composite
def random_graphs(draw, max_vertices: int = 30):
    n = draw(st.integers(min_value=1, max_value=max_vertices))
    max_possible = n * (n - 1) // 2
    m = draw(st.integers(min_value=0, max_value=min(100, max_possible)))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    if m == 0:
        return CSRGraph.empty(n)
    rng = np.random.default_rng(seed)
    iu, iv = np.triu_indices(n, k=1)
    chosen = rng.choice(iu.shape[0], size=min(m, iu.shape[0]), replace=False)
    return CSRGraph.from_edgelist(EdgeList(np.stack([iu[chosen], iv[chosen]], axis=1), n))


@st.composite
def family_graphs(draw):
    """Randomized graphs across the structural families the chunked
    orientation must handle: ER, power-law hubs, stars (one giant degree),
    paths (all degrees tied) and duplicate-heavy raw edge lists."""
    kind = draw(st.sampled_from(["er", "power_law", "star", "path", "duplicates"]))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    n = draw(st.integers(min_value=2, max_value=40))
    rng = np.random.default_rng(seed)
    if kind == "er":
        iu, iv = np.triu_indices(n, k=1)
        keep = rng.random(iu.shape[0]) < 0.2
        edges = np.stack([iu[keep], iv[keep]], axis=1)
        return CSRGraph.from_edgelist(EdgeList(edges, n))
    if kind == "power_law":
        exponent = draw(st.floats(min_value=1.8, max_value=3.0))
        return CSRGraph.from_edgelist(
            power_law_degree_graph(
                max(n, 10), exponent=exponent, min_degree=1, seed=seed
            )
        )
    if kind == "star":
        return CSRGraph.from_edgelist(
            EdgeList(np.array([[0, i] for i in range(1, n)], dtype=np.int64), n)
        )
    if kind == "path":
        return CSRGraph.from_edgelist(
            EdgeList(np.array([[i, i + 1] for i in range(n - 1)], dtype=np.int64), n)
        )
    # duplicate-heavy: rows drawn with replacement, both directions mixed in;
    # the simple bidirectional closure must still orient exactly
    m = draw(st.integers(min_value=1, max_value=120))
    src = rng.integers(0, n, size=m)
    dst = rng.integers(0, n, size=m)
    edges = np.stack([src, dst], axis=1)
    edges = np.concatenate([edges, edges[rng.random(m) < 0.5][:, ::-1], edges[:3]])
    return CSRGraph.from_edgelist(EdgeList(edges.astype(np.int64), n))


def chunked_orientation(graph: CSRGraph, num_chunks: int) -> tuple[CSRGraph, np.ndarray]:
    """Orient ``graph`` on disk with ``num_chunks`` vertex chunks.

    Writes the input graph to a scratch device exactly like the PDTL
    master stages it and runs :func:`orient_graph` with ``num_chunks``
    vertex chunks.
    Returns ``(oriented CSR, out-degree array)``.
    """
    with tempfile.TemporaryDirectory(prefix="pdtl_prop_orient_") as root:
        device = BlockDevice(Path(root) / "disk", block_size=512)
        gf = write_graph(device, "g", graph)
        result = orient_graph(gf, num_chunks=num_chunks)
        return result.oriented.to_csr(), result.out_degrees


@given(degrees=st.lists(st.integers(min_value=0, max_value=1000), min_size=1, max_size=50))
@settings(**SETTINGS)
def test_degree_order_is_strict_total_order(degrees):
    degrees = np.array(degrees, dtype=np.int64)
    n = degrees.shape[0]
    keys = degree_order_keys(degrees)
    # antisymmetry + totality: exactly one of u≺v, v≺u for u != v
    for u in range(n):
        for v in range(n):
            if u == v:
                assert not precedes(u, v, degrees)
            else:
                assert precedes(u, v, degrees) != precedes(v, u, degrees)
                assert (keys[u] < keys[v]) == precedes(u, v, degrees)


@given(graph=random_graphs())
@settings(**SETTINGS)
def test_orientation_keeps_each_edge_once(graph):
    oriented = orient_csr(graph)
    assert oriented.num_edges == graph.num_undirected_edges
    undirected = {frozenset(e) for e in graph.iter_edges()}
    oriented_edges = list(oriented.iter_edges())
    assert {frozenset(e) for e in oriented_edges} == undirected
    # no edge stored in both directions
    as_tuples = set(oriented_edges)
    assert all((v, u) not in as_tuples for u, v in as_tuples)


@given(graph=random_graphs())
@settings(**SETTINGS)
def test_orientation_respects_degree_order(graph):
    oriented = orient_csr(graph)
    degrees = graph.degrees
    for u, v in oriented.iter_edges():
        assert precedes(u, v, degrees)


@given(graph=random_graphs())
@settings(**SETTINGS)
def test_orientation_is_acyclic(graph):
    """≺ is a strict total order, so the orientation can have no directed cycle."""
    oriented = orient_csr(graph)
    keys = degree_order_keys(graph.degrees)
    # topological consistency: every edge strictly increases the key
    for u, v in oriented.iter_edges():
        assert keys[u] < keys[v]


@given(graph=random_graphs())
@settings(**SETTINGS)
def test_out_plus_in_degrees_equal_undirected_degrees(graph):
    oriented = orient_csr(graph)
    out_deg = oriented.degrees
    in_deg = np.zeros(graph.num_vertices, dtype=np.int64)
    if oriented.num_edges:
        np.add.at(in_deg, oriented.indices, 1)
    np.testing.assert_array_equal(out_deg + in_deg, graph.degrees)


@given(graph=random_graphs())
@settings(**SETTINGS)
def test_oriented_adjacency_stays_sorted_and_simple(graph):
    oriented = orient_csr(graph)
    oriented.check_sorted_adjacency()
    oriented.check_simple()


# ---------------------------------------------------------------------------
# the chunked on-disk orientation path
# ---------------------------------------------------------------------------


@given(graph=family_graphs(), num_chunks=st.integers(min_value=1, max_value=6))
@settings(**CHUNKED_SETTINGS)
def test_chunked_orientation_equals_orient_csr(graph, num_chunks):
    """The chunked on-disk scan is exactly the in-memory reference, for
    any chunking, on every graph family."""
    expected = orient_csr(graph)
    oriented, out_degrees = chunked_orientation(graph, num_chunks)
    np.testing.assert_array_equal(oriented.indptr, expected.indptr)
    np.testing.assert_array_equal(oriented.indices, expected.indices)
    np.testing.assert_array_equal(out_degrees, expected.degrees)


@given(graph=family_graphs())
@settings(**CHUNKED_SETTINGS)
def test_chunked_orientation_respects_degree_order(graph):
    """Every oriented edge the chunked path emits satisfies ``u ≺ v``."""
    oriented, _ = chunked_orientation(graph, num_chunks=3)
    degrees = graph.degrees
    keys = degree_order_keys(degrees)
    sources = oriented.edge_sources()
    assert bool(np.all(keys[sources] < keys[oriented.indices]))
    for u, v in oriented.iter_edges():
        assert precedes(u, v, degrees)


@given(graph=family_graphs())
@settings(**CHUNKED_SETTINGS)
def test_chunked_orientation_packed_keys_globally_sorted(graph):
    """The packed (source, destination) keys of the chunked output are
    strictly increasing -- the sortedness invariant every downstream MGT
    scan and shared-memory publication relies on."""
    oriented, _ = chunked_orientation(graph, num_chunks=4)
    packed = kernels.csr_packed_keys(oriented.indptr, oriented.indices)
    if packed.shape[0] > 1:
        assert bool(np.all(np.diff(packed) > 0))


@given(graph=family_graphs())
@settings(**CHUNKED_SETTINGS)
def test_degree_order_keys_invariants_on_families(graph):
    """``degree_order_keys`` is a strict total order consistent with
    ``precedes`` on every family's degree sequence."""
    degrees = graph.degrees
    keys = degree_order_keys(degrees)
    assert len(set(keys.tolist())) == keys.shape[0]  # strict: no ties
    n = degrees.shape[0]
    rng = np.random.default_rng(int(degrees.sum()) + n)
    for _ in range(min(64, n * n)):
        u, v = int(rng.integers(0, n)), int(rng.integers(0, n))
        if u == v:
            assert not precedes(u, v, degrees)
        else:
            assert (keys[u] < keys[v]) == precedes(u, v, degrees)


@pytest.mark.parametrize("family", ["er", "power_law", "star", "path", "duplicates"])
def test_chunked_orientation_end_to_end(family, tmp_path):
    """One chunked orientation per family: orient_graph with three
    chunks equals the reference, byte for byte."""
    rng = np.random.default_rng(99)
    n = 60
    if family == "er":
        iu, iv = np.triu_indices(n, k=1)
        keep = rng.random(iu.shape[0]) < 0.15
        graph = CSRGraph.from_edgelist(
            EdgeList(np.stack([iu[keep], iv[keep]], axis=1), n)
        )
    elif family == "power_law":
        graph = CSRGraph.from_edgelist(
            power_law_degree_graph(n, exponent=2.1, min_degree=1, seed=4)
        )
    elif family == "star":
        graph = CSRGraph.from_edgelist(
            EdgeList(np.array([[0, i] for i in range(1, n)], dtype=np.int64), n)
        )
    elif family == "path":
        graph = CSRGraph.from_edgelist(
            EdgeList(np.array([[i, i + 1] for i in range(n - 1)], dtype=np.int64), n)
        )
    else:
        src = rng.integers(0, n, size=200)
        dst = rng.integers(0, n, size=200)
        edges = np.stack([src, dst], axis=1)
        graph = CSRGraph.from_edgelist(
            EdgeList(np.concatenate([edges, edges[:50]]).astype(np.int64), n)
        )
    device = BlockDevice(tmp_path / "disk", block_size=512)
    gf = write_graph(device, "g", graph)
    expected = orient_csr(graph)
    result = orient_graph(gf, num_chunks=3)
    assert result.oriented.to_csr() == expected


_COMPILED_OK, _COMPILED_DETAIL = kernel_backend.compiled_available()
_SHM_OK = shm_available()[0]
_TIERS = [
    "numpy",
    pytest.param(
        "cffi", marks=pytest.mark.skipif(not _COMPILED_OK, reason=f"no C tier: {_COMPILED_DETAIL}")
    ),
]


@st.composite
def flawed_family_graphs(draw):
    """A family graph with up to three planted format faults (two adjacent
    entries swapped, a self loop, a repeated entry), each in a drawn list;
    built as raw CSR arrays, past the constructors' checks."""
    graph = draw(family_graphs())
    n = graph.num_vertices
    lists = [graph.neighbors(v).tolist() for v in range(n)]
    for flaw in draw(st.lists(st.sampled_from(["swap", "loop", "duplicate"]), max_size=3)):
        v = draw(st.integers(min_value=0, max_value=n - 1))
        own = lists[v]
        if flaw == "loop":
            own.append(v)
            own.sort()
        elif own and (flaw == "duplicate" or len(own) >= 2):
            last = len(own) - (1 if flaw == "duplicate" else 2)
            i = draw(st.integers(min_value=0, max_value=last))
            if flaw == "duplicate":
                own.insert(i, own[i])
            else:
                own[i], own[i + 1] = own[i + 1], own[i]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum([len(a) for a in lists], out=indptr[1:])
    return CSRGraph(indptr, np.array([w for a in lists for w in a], dtype=np.int64))


@pytest.mark.parametrize("tier", _TIERS)
@given(graph=flawed_family_graphs(), num_chunks=st.integers(min_value=1, max_value=4))
@settings(**CHUNKED_SETTINGS)
def test_filter_refuses_what_write_graph_refuses(tier, graph, num_chunks):
    """``orient_graph`` over the unchecked files of ``graph`` raises exactly
    the error ``write_graph`` raises for it in memory, or nothing when it
    raises nothing.  An accepted graph's in-memory orientation is its
    oriented files, and its published segments are those files and the
    sort-based transpose."""
    want = write_graph_error(graph)
    with tempfile.TemporaryDirectory(prefix="pdtl_prop_refuse_") as root:
        device = BlockDevice(Path(root) / "disk", block_size=512)
        gf = write_graph(device, "g", graph, check=False)
        with kernel_backend.use(tier):
            try:
                result = orient_graph(gf, num_chunks=num_chunks)
            except GraphFormatError as exc:
                assert str(exc) == want
                assert not device.exists("g_oriented.adj")
                return
            assert want is None
            oriented = result.oriented.to_csr()
            assert result.graph == oriented == orient_csr(graph)
            if not _SHM_OK:
                return
            with publish_graph(result.graph) as publication:
                view = SharedGraphView(publication.descriptor, DiskModel())
                try:
                    published = [np.array(a) for a in (
                        view.read_adjacency_range(0, view.num_edges), view.cached_offsets,
                        view.in_offsets, view.in_sources,
                    )]
                finally:
                    view.close()
    n = oriented.num_vertices
    sources = oriented.edge_sources()
    by_target = np.argsort(oriented.indices, kind="stable")
    np.testing.assert_array_equal(published[0], oriented.indices)
    np.testing.assert_array_equal(published[1], oriented.indptr)
    np.testing.assert_array_equal(
        published[2], prefix_sums(np.bincount(oriented.indices, minlength=n))
    )
    np.testing.assert_array_equal(published[3], sources[by_target])
    assert published[3].dtype == np.int32
