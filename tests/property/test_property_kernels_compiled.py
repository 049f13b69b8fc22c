"""Property tests: every C kernel against its numpy twin.

The C registry (:mod:`repro.core.kernels_cffi`) is driven through
adversarial input families: empty arrays, single elements,
duplicate-heavy values and negative ids -- plus random graphs for the
structural kernels.  Where the
C tier cannot be built the whole module skips with the build's reason; a
registry that builds but disagrees with numpy fails here rather than
skipping, even though the tier probe refuses it.

The fused entry points (``mgt_block_scan``, ``mgt_chunk_scan``,
``edge_support_accumulate``, ``triangle_edge_ids``, ``incidence_csr``)
have no single numpy twin -- they replace multi-pass caller chains -- so
they are checked against in-test references built from the numpy
primitives, and end-to-end by installing the registry and comparing whole
decompositions.  ``truss_peel_level`` is checked level by level against
its numpy twin in :mod:`repro.analytics.truss`; the master's preprocessing
kernels against theirs: ``orient_range`` against the orientation's numpy
filter, ``in_lists`` against the shared-memory publication's sort-based
transpose, and ``csr_violations`` against the two numpy format checks.
"""

from __future__ import annotations

import tempfile
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.analytics.truss import _peel_level_numpy, truss_decomposition
from repro.core import kernels, kernels_cffi
from repro.core.orientation import _orient_range_numpy, degree_order_keys, orient_csr
from repro.core.shm import _in_lists_numpy
from repro.errors import GraphFormatError
from repro.externalmem.blockio import BlockDevice
from repro.graph.binfmt import write_graph
from repro.graph.csr import CSRGraph
from repro.graph.edgelist import EdgeList

try:
    C_REGISTRY = kernels_cffi.build_registry()
except Exception as exc:  # noqa: BLE001 - no cffi or no C toolchain
    pytest.skip(
        f"C tier cannot be built: {type(exc).__name__}: {exc}", allow_module_level=True
    )

SETTINGS = dict(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


REGISTRY_PARAMS = pytest.mark.parametrize("registry", [C_REGISTRY], ids=["cffi"])


@contextmanager
def installed(registry: dict):
    """Install a registry as the active tier, bypassing backend probing."""
    saved_impls = dict(kernels._ACTIVE_IMPLS)
    saved_ready = kernels._BACKEND_READY
    kernels._ACTIVE_IMPLS.clear()
    kernels._ACTIVE_IMPLS.update(registry)
    kernels._BACKEND_READY = True
    try:
        yield
    finally:
        kernels._ACTIVE_IMPLS.clear()
        kernels._ACTIVE_IMPLS.update(saved_impls)
        kernels._BACKEND_READY = saved_ready


# -- input families ---------------------------------------------------------

#: wide domain with negatives (id arithmetic), or a tiny domain so that
#: duplicates dominate -- both sides of the adversarial family
_values = st.one_of(
    st.integers(min_value=-(2**40), max_value=2**40),
    st.integers(min_value=-3, max_value=3),
)


def _sorted_arrays(max_size: int = 60):
    return st.lists(_values, min_size=0, max_size=max_size).map(
        lambda xs: np.sort(np.asarray(xs, dtype=np.int64))
    )


def _plain_arrays(max_size: int = 60):
    return st.lists(_values, min_size=0, max_size=max_size).map(
        lambda xs: np.asarray(xs, dtype=np.int64)
    )


@st.composite
def random_graphs(draw, max_vertices: int = 24, max_edges: int = 90):
    n = draw(st.integers(min_value=1, max_value=max_vertices))
    max_possible = n * (n - 1) // 2
    m = draw(st.integers(min_value=0, max_value=min(max_edges, max_possible)))
    if m == 0:
        return CSRGraph.empty(n)
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    iu, iv = np.triu_indices(n, k=1)
    chosen = rng.choice(iu.shape[0], size=min(m, iu.shape[0]), replace=False)
    edges = np.stack([iu[chosen], iv[chosen]], axis=1)
    return CSRGraph.from_edgelist(EdgeList(edges, n))


@st.composite
def hub_graphs(draw):
    """Vertex 0 adjacent to every other vertex, plus sparse extra edges.

    With at least 65 spokes and most spokes of degree 1 or 2, a query
    ``(0, v)`` takes the lopsided branch (``deg(u) > 32 * deg(v)``) of the
    compiled intersections while still finding common neighbours.
    """
    n = draw(st.integers(min_value=66, max_value=100))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**31 - 1)))
    spokes = np.stack([np.zeros(n - 1, dtype=np.int64), np.arange(1, n)], axis=1)
    extra = rng.integers(1, n, size=(n // 4, 2))
    edges = np.concatenate((spokes, extra[extra[:, 0] != extra[:, 1]]))
    return CSRGraph.from_edgelist(EdgeList(edges, n))


@st.composite
def cone_dags(draw):
    """Cone 0 pointing at every other vertex, plus sparse extra edges.

    Edges run from the smaller id to the larger with sorted lists, as an
    orientation stores them.  With at least 65 targets and most lists of
    length 0 to 2, cone 0's out-list is more than 32 times longer than most
    in-window lists ``E_v``: lopsided pairs, where the walk tests cone 0's
    whole list against a short marked ``E_v``.
    """
    n = draw(st.integers(min_value=66, max_value=100))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**31 - 1)))
    spokes = np.stack([np.zeros(n - 1, dtype=np.int64), np.arange(1, n)], axis=1)
    extra = np.sort(rng.integers(1, n, size=(n // 2, 2)), axis=1)
    edges = np.concatenate((spokes, extra[extra[:, 0] != extra[:, 1]]))
    return CSRGraph.from_edgelist(EdgeList(edges, n), directed=True)


# -- primitives vs their numpy twins ----------------------------------------


@REGISTRY_PARAMS
@given(haystack=_sorted_arrays(), queries=_plain_arrays())
@settings(**SETTINGS)
def test_sorted_membership_matches_numpy(registry, haystack, queries):
    want = kernels.NUMPY_IMPLS["sorted_membership"](haystack, queries)
    got = registry["sorted_membership"](haystack, queries)
    np.testing.assert_array_equal(got, want)


@REGISTRY_PARAMS
@given(graph=random_graphs(), data=st.data())
@settings(**SETTINGS)
def test_triangle_range_matches_numpy(registry, graph, data):
    oriented = orient_csr(graph)
    n = oriented.num_vertices
    lo = data.draw(st.integers(min_value=0, max_value=n))
    hi = data.draw(st.integers(min_value=lo, max_value=n))
    want = kernels.NUMPY_IMPLS["triangle_range"](
        oriented.indptr, oriented.indices, lo, hi, True
    )
    got = registry["triangle_range"](oriented.indptr, oriented.indices, lo, hi, True)
    for w, g in zip(want, got):
        np.testing.assert_array_equal(np.asarray(g), np.asarray(w))
    want_count, want_ops = kernels.NUMPY_IMPLS["triangle_range"](
        oriented.indptr, oriented.indices, lo, hi, False
    )
    got_count, got_ops = registry["triangle_range"](
        oriented.indptr, oriented.indices, lo, hi, False
    )
    assert (got_count, got_ops) == (want_count, want_ops)


@REGISTRY_PARAMS
@given(graph=random_graphs())
@settings(**SETTINGS)
def test_count_cone_range_same_on_both_tiers(registry, graph):
    # the C tier answers with triangle_range's count in one call, the
    # numpy tier with its batched loop
    oriented = orient_csr(graph)
    with installed({}):
        want = kernels.count_cone_range(oriented.indptr, oriented.indices, batch_entries=7)
    with installed(registry):
        got = kernels.count_cone_range(oriented.indptr, oriented.indices, batch_entries=7)
    assert got == want


@REGISTRY_PARAMS
@given(graph=random_graphs(), data=st.data())
@settings(**SETTINGS)
def test_edge_intersections_matches_numpy(registry, graph, data):
    n = graph.num_vertices
    ne = data.draw(st.integers(min_value=0, max_value=12))
    seed = data.draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    us = rng.integers(0, n, size=ne, dtype=np.int64)
    vs = rng.integers(0, n, size=ne, dtype=np.int64)
    want = kernels.NUMPY_IMPLS["edge_intersections"](
        graph.indptr, graph.indices, us, vs, None, True
    )
    got = registry["edge_intersections"](graph.indptr, graph.indices, us, vs, True)
    np.testing.assert_array_equal(np.asarray(got), np.asarray(want))
    assert registry["edge_intersections"](
        graph.indptr, graph.indices, us, vs, False
    ) == int(np.sum(want))


@REGISTRY_PARAMS
@given(graph=random_graphs(), data=st.data())
@settings(**SETTINGS)
def test_edge_common_neighbors_matches_numpy(registry, graph, data):
    """The delta path's triangle enumerator: identical (owner, w) streams."""
    n = graph.num_vertices
    ne = data.draw(st.integers(min_value=0, max_value=12))
    seed = data.draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    us = rng.integers(0, n, size=ne, dtype=np.int64)
    vs = rng.integers(0, n, size=ne, dtype=np.int64)
    want_owners, want_ws = kernels.NUMPY_IMPLS["edge_common_neighbors"](
        graph.indptr, graph.indices, us, vs
    )
    got_owners, got_ws = registry["edge_common_neighbors"](
        graph.indptr, graph.indices, us, vs
    )
    np.testing.assert_array_equal(got_owners, want_owners)
    np.testing.assert_array_equal(got_ws, want_ws)


@REGISTRY_PARAMS
@given(graph=hub_graphs(), data=st.data())
@settings(**SETTINGS)
def test_edge_common_neighbors_gallops_on_hubs(registry, graph, data):
    """Hub-side queries: the galloping search emits the same stream."""
    seed = data.draw(st.integers(min_value=0, max_value=2**31 - 1))
    vs = np.random.default_rng(seed).integers(1, graph.num_vertices, size=12)
    us = np.zeros_like(vs)
    want_owners, want_ws = kernels.NUMPY_IMPLS["edge_common_neighbors"](
        graph.indptr, graph.indices, us, vs
    )
    got_owners, got_ws = registry["edge_common_neighbors"](
        graph.indptr, graph.indices, us, vs
    )
    np.testing.assert_array_equal(got_owners, want_owners)
    np.testing.assert_array_equal(got_ws, want_ws)


@REGISTRY_PARAMS
@pytest.mark.parametrize("u, v", [(0, 3), (3, 0), (-1, 0), (0, -1)])
def test_edge_common_neighbors_refuses_ids_outside_the_graph(registry, u, v):
    graph = CSRGraph.from_edgelist(EdgeList(np.array([[0, 1], [1, 2], [0, 2]]), 3))
    indptr, indices = graph.indptr, graph.indices
    with pytest.raises(IndexError):
        registry["edge_common_neighbors"](
            indptr, indices, np.array([u], dtype=np.int64), np.array([v], dtype=np.int64)
        )
    with pytest.raises(ValueError):
        registry["edge_common_neighbors"](
            indptr, indices, np.array([0, 1], dtype=np.int64), np.array([1], dtype=np.int64)
        )


# -- fused kernels vs in-test references ------------------------------------


def _mgt_block_scan_reference(
    block_adj, block_offsets, edg, vlow, vhigh, win_offsets, win_degrees
):
    """The 3-pass chain of ``MGTWorker._process_block``, one entry at a time."""
    pairs = 0
    total = 0
    cones, vs_out, ws_out = [], [], []
    for bu in range(block_offsets.shape[0] - 1):
        nu = block_adj[block_offsets[bu] : block_offsets[bu + 1]]
        for v in nu:
            if v < vlow or v > vhigh:
                continue
            d = int(win_degrees[v - vlow])
            if d <= 0:
                continue
            pairs += 1
            total += d
            ev = edg[win_offsets[v - vlow] : win_offsets[v - vlow] + d]
            for w in ev[np.isin(ev, nu)]:
                cones.append(bu)
                vs_out.append(int(v))
                ws_out.append(int(w))
    return pairs, total, cones, vs_out, ws_out


@REGISTRY_PARAMS
@given(graph=random_graphs(), data=st.data())
@settings(**SETTINGS)
def test_mgt_block_scan_matches_reference(registry, graph, data):
    oriented = orient_csr(graph)
    n = oriented.num_vertices
    blo = data.draw(st.integers(min_value=0, max_value=n))
    bhi = data.draw(st.integers(min_value=blo, max_value=n))
    vlow = data.draw(st.integers(min_value=0, max_value=n - 1))
    vhigh = data.draw(st.integers(min_value=vlow, max_value=n - 1))
    indptr, indices = oriented.indptr, oriented.indices
    block_adj = indices[indptr[blo] : indptr[bhi]].copy()
    block_offsets = (indptr[blo : bhi + 1] - indptr[blo]).astype(np.int64)
    edg = indices[indptr[vlow] : indptr[vhigh + 1]].copy()
    win_offsets = (indptr[vlow : vhigh + 1] - indptr[vlow]).astype(np.int64)
    win_degrees = np.diff(indptr[vlow : vhigh + 2]).astype(np.int64)

    pairs, total, cones, vs_ref, ws_ref = _mgt_block_scan_reference(
        block_adj, block_offsets, edg, vlow, vhigh, win_offsets, win_degrees
    )
    mark = np.zeros(n, dtype=np.uint8)
    got = registry["mgt_block_scan"](
        block_adj, block_offsets, edg, vlow, vhigh, win_offsets, win_degrees, mark, True
    )
    assert (got[0], got[1], got[2]) == (pairs, total, len(cones))
    np.testing.assert_array_equal(np.asarray(got[3]), np.asarray(cones, dtype=np.int64))
    np.testing.assert_array_equal(np.asarray(got[4]), np.asarray(vs_ref, dtype=np.int64))
    np.testing.assert_array_equal(np.asarray(got[5]), np.asarray(ws_ref, dtype=np.int64))

    counted = registry["mgt_block_scan"](
        block_adj, block_offsets, edg, vlow, vhigh, win_offsets, win_degrees, mark, False
    )
    assert (counted[0], counted[1], counted[2]) == (pairs, total, len(cones))
    assert not mark.any()


@REGISTRY_PARAMS
@given(graph=st.one_of(random_graphs().map(orient_csr), cone_dags()), data=st.data())
@settings(**SETTINGS)
def test_mgt_chunk_scan_matches_reference(registry, graph, data):
    """The in-list walk of an edge range's one to four memory windows
    equals the streaming scan of the whole graph once per window: same
    pairs, gathered total and triples, in the same order, window by window.
    The range and its windows end anywhere, so lists straddle their ends."""
    indptr, indices = graph.indptr, graph.indices
    n, m = graph.num_vertices, graph.num_edges
    if m == 0:
        return
    start = data.draw(st.integers(min_value=0, max_value=m - 1))
    stop = data.draw(st.integers(min_value=start + 1, max_value=m))
    width = data.draw(st.integers(min_value=-(-(stop - start) // 4), max_value=stop - start))
    bounds = np.append(np.arange(start, stop, width), stop)
    # the windows' spans, as MGTWorker takes them
    vlows = np.searchsorted(indptr, bounds[:-1], side="right") - 1
    vhighs = np.maximum(np.searchsorted(indptr, bounds[1:], side="left") - 1, vlows)
    sources = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
    in_sources = sources[np.argsort(indices, kind="stable")]
    in_offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(indices, minlength=n), out=in_offsets[1:])

    # each window's ind arrays, and the whole graph as one scan block
    window_pairs, total, cones, vs_ref, ws_ref = [], 0, [], [], []
    for lo, hi, vlow, vhigh in zip(bounds[:-1], bounds[1:], vlows, vhighs):
        span = np.arange(vlow, vhigh + 1)
        win_starts = np.maximum(indptr[span], lo)
        win_degrees = np.maximum(np.minimum(indptr[span + 1], hi) - win_starts, 0)
        pairs, gathered, *triples = _mgt_block_scan_reference(
            indices, indptr, indices[lo:hi].copy(), vlow, vhigh, win_starts - lo, win_degrees
        )
        window_pairs.append(pairs)
        total += gathered
        for column, part in zip((cones, vs_ref, ws_ref), triples):
            column.extend(part)
    args = (indptr, indices, in_offsets, in_sources, bounds, vlows, vhighs)
    got = registry["mgt_chunk_scan"](*args, True, True)
    assert (got[0], got[1], got[2]) == (sum(window_pairs), total, len(cones))
    np.testing.assert_array_equal(np.asarray(got[3]), np.asarray(cones, dtype=np.int64))
    np.testing.assert_array_equal(np.asarray(got[4]), np.asarray(vs_ref, dtype=np.int64))
    np.testing.assert_array_equal(np.asarray(got[5]), np.asarray(ws_ref, dtype=np.int64))
    assert got[6].tolist() == window_pairs
    assert got[7].shape == (len(window_pairs),) and (got[7] >= 0).all()

    counted = registry["mgt_chunk_scan"](*args, False, False)
    assert counted == (sum(window_pairs), total, len(cones), None, None, None, None, None)


@REGISTRY_PARAMS
@pytest.mark.parametrize(
    "bounds, vlows, vhighs",
    [
        ((0, 3), (-1,), (0,)),  # span below the first vertex
        ((0, 3), (2,), (1,)),  # span ends before it starts
        ((0, 3), (0,), (4,)),  # span past the last vertex
        ((-1, 3), (0,), (2,)),  # window before the first entry
        ((0, 4), (0,), (2,)),  # window past the last entry
        ((2, 1, 3), (0, 0), (2, 2)),  # windows out of order
        ((0, 3), (0, 0), (2, 2)),  # fewer bounds than windows
    ],
)
def test_mgt_chunk_scan_refuses_windows_outside_the_graph(registry, bounds, vlows, vhighs):
    indptr = np.array([0, 2, 3, 3, 3], dtype=np.int64)
    indices = np.array([1, 2, 2], dtype=np.int64)
    in_offsets = np.array([0, 0, 1, 3, 3], dtype=np.int64)
    in_sources = np.array([0, 0, 1], dtype=np.int64)
    with pytest.raises(ValueError):
        registry["mgt_chunk_scan"](
            indptr, indices, in_offsets, in_sources,
            np.array(bounds), np.array(vlows), np.array(vhighs), True, False,
        )


@REGISTRY_PARAMS
@given(graph=random_graphs())
@settings(**SETTINGS)
def test_edge_support_accumulate_matches_scatter(registry, graph):
    oriented = orient_csr(graph)
    n = oriented.num_vertices
    edge_keys = kernels.csr_packed_keys(oriented.indptr, oriented.indices)
    cones, vs, ws, _ = kernels.NUMPY_IMPLS["triangle_range"](
        oriented.indptr, oriented.indices, 0, n, True
    )
    want = np.zeros(edge_keys.shape[0], dtype=np.int64)
    sources = np.concatenate((cones, cones, vs))
    destinations = np.concatenate((vs, ws, ws))
    positions = np.searchsorted(
        edge_keys, kernels.packed_keys(sources, destinations, n)
    )
    np.add.at(want, positions, 1)

    got = np.zeros(edge_keys.shape[0], dtype=np.int64)
    assert registry["edge_support_accumulate"](
        edge_keys, oriented.indptr, cones, vs, ws, n, got
    )
    np.testing.assert_array_equal(got, want)


@REGISTRY_PARAMS
@given(graph=random_graphs())
@settings(**SETTINGS)
def test_edge_support_accumulate_rolls_back_on_bad_pair(registry, graph):
    oriented = orient_csr(graph)
    n = oriented.num_vertices + 2  # room for a vertex pair that is no edge
    edge_keys = kernels.packed_keys(oriented.edge_sources(), oriented.indices, n)
    offsets = np.append(oriented.indptr, [oriented.num_edges] * 2)
    cones, vs, ws, _ = kernels.NUMPY_IMPLS["triangle_range"](
        oriented.indptr, oriented.indices, 0, oriented.num_vertices, True
    )
    # append one triple whose (u, w) pair cannot be an oriented edge
    bad_u = np.concatenate((cones, np.array([n - 2], dtype=np.int64)))
    bad_v = np.concatenate((vs, np.array([n - 2], dtype=np.int64)))
    bad_w = np.concatenate((ws, np.array([n - 1], dtype=np.int64)))
    support = np.zeros(edge_keys.shape[0], dtype=np.int64)
    ok = registry["edge_support_accumulate"](
        edge_keys, offsets, bad_u, bad_v, bad_w, n, support
    )
    assert not ok
    # every partial increment was rolled back
    np.testing.assert_array_equal(support, np.zeros_like(support))


@REGISTRY_PARAMS
@given(oriented=st.one_of(random_graphs().map(orient_csr), cone_dags()))
@settings(**SETTINGS)
def test_triangle_edge_ids_matches_searchsorted(registry, oriented):
    # cone DAGs give cone 0 a long list, marked once with its edge ids and
    # tested by many short ones
    n = oriented.num_vertices
    sources = oriented.edge_sources()
    keys = np.sort(
        kernels.packed_keys(
            np.minimum(sources, oriented.indices), np.maximum(sources, oriented.indices), n
        )
    )
    cones, vs, ws, _ = kernels.NUMPY_IMPLS["triangle_range"](
        oriented.indptr, oriented.indices, 0, n, True
    )
    want = np.empty((cones.shape[0], 3), dtype=np.int64)
    for slot, (a, b) in enumerate(((cones, vs), (cones, ws), (vs, ws))):
        queries = kernels.packed_keys(np.minimum(a, b), np.maximum(a, b), n)
        want[:, slot] = np.searchsorted(keys, queries)

    row_start = np.searchsorted(keys, np.arange(n + 1, dtype=np.int64) * n)
    got = registry["triangle_edge_ids"](
        oriented.indptr, oriented.indices, keys, row_start, n, 0, n
    )
    np.testing.assert_array_equal(np.asarray(got), want)


@REGISTRY_PARAMS
@given(graph=random_graphs())
@settings(**SETTINGS)
def test_incidence_csr_matches_stable_argsort(registry, graph):
    from repro.analytics.truss import canonical_edges, _triangle_edge_ids

    n = graph.num_vertices
    edges = canonical_edges(graph)
    keys = kernels.packed_keys(edges[:, 0], edges[:, 1], n)
    m = edges.shape[0]
    with installed({}):
        flat = _triangle_edge_ids(graph, keys).reshape(-1)

    order = np.argsort(flat, kind="stable")
    want_tri = order // 3
    want_ptr = np.zeros(m + 1, dtype=np.int64)
    if m:
        np.cumsum(np.bincount(flat, minlength=m), out=want_ptr[1:])

    got_ptr, got_tri = registry["incidence_csr"](flat, m)
    np.testing.assert_array_equal(np.asarray(got_ptr), want_ptr)
    np.testing.assert_array_equal(np.asarray(got_tri), want_tri)


@REGISTRY_PARAMS
@given(graph=random_graphs())
@settings(**SETTINGS)
def test_truss_decomposition_identical_under_registry(registry, graph):
    with installed({}):
        want = truss_decomposition(graph)
    with installed(registry):
        got = truss_decomposition(graph)
    np.testing.assert_array_equal(got.trussness, want.trussness)
    np.testing.assert_array_equal(got.support, want.support)
    assert got.rounds == want.rounds
    assert got.max_k == want.max_k


@st.composite
def peel_states(draw):
    """A random ``(T, 3)`` triangle table over ``m`` edges (three distinct
    ids per row, not necessarily a real graph's) with random supports, or
    with the table's own supports."""
    m = draw(st.integers(min_value=0, max_value=30))
    num_tri = draw(st.integers(min_value=0, max_value=60)) if m >= 3 else 0
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**31 - 1)))
    tri = np.array(
        [rng.choice(m, size=3, replace=False) for _ in range(num_tri)], dtype=np.int64
    ).reshape(num_tri, 3)
    if draw(st.booleans()):
        support = np.bincount(tri.reshape(-1), minlength=m).astype(np.int64)
    else:
        support = rng.integers(0, 8, size=m).astype(np.int64)
    return tri, support


@REGISTRY_PARAMS
@given(state=peel_states())
@settings(**SETTINGS)
def test_truss_peel_level_matches_numpy_twin_level_by_level(registry, state):
    tri, support = state
    m = support.shape[0]
    flat = tri.reshape(-1)
    inc_ptr = np.zeros(m + 1, dtype=np.int64)
    np.cumsum(np.bincount(flat, minlength=m), out=inc_ptr[1:])
    inc_tri = np.argsort(flat, kind="stable") // 3

    def fresh():
        return [
            np.ones(m, dtype=bool),
            support.copy(),
            np.zeros(m, dtype=np.int64),
            np.ones(tri.shape[0], dtype=bool),
        ]

    c_state, np_state = fresh(), fresh()
    k = 2
    while np_state[0].any():
        alive, sup, truss, tri_alive = c_state
        got = registry["truss_peel_level"](
            k, alive, sup, truss, inc_ptr, inc_tri, flat, tri_alive
        )
        alive, sup, truss, tri_alive = np_state
        want = _peel_level_numpy(k, alive, sup, truss, inc_ptr, inc_tri, flat, tri_alive)
        assert got == want, k
        for g, w in zip(c_state, np_state):
            np.testing.assert_array_equal(g, w)
        k = k + 1 if want[0] else max(k + 1, 2 + int(sup[alive].min()))
    assert not c_state[0].any()


# -- the marked walk --------------------------------------------------------
#
# The walks mark one list per cone (per window vertex on the shm scan) in a
# scratch array indexed by vertex id; these pin the marks' lifetime and the
# id checks that guard the scratch.


def _i64(*values: int) -> np.ndarray:
    return np.array(values, dtype=np.int64)


def _in_lists(indptr: np.ndarray, indices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    n = indptr.shape[0] - 1
    sources = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
    in_offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(indices, minlength=n), out=in_offsets[1:])
    return in_offsets, sources[np.argsort(indices, kind="stable")]


#: the oriented graph 0 -> {3, 4}, 1 -> {2}, 2 -> {4}, 3 -> {4}: its one
#: triangle is (0, 3, 4), and cone 1 reaches 4, which cone 0 marked, through
#: 2.  Its canonical edges (0, 3), (0, 4), (1, 2), (2, 4), (3, 4) pack into
#: these keys, and each source's row of them starts at these positions.
_SHARED_INDPTR = _i64(0, 2, 3, 4, 5, 5)
_SHARED_INDICES = _i64(3, 4, 2, 4, 4)
_SHARED_KEYS = _i64(3, 4, 7, 14, 19)
_SHARED_ROWS = _i64(0, 2, 3, 4, 5, 5)


@REGISTRY_PARAMS
def test_mgt_chunk_scan_clears_marks_between_window_vertices(registry):
    """Vertex 1's out-list [2, 3] straddles the windows [0, 3) and [3, 4).
    Its in-neighbour 0 is adjacent to 2 only, so the first window lists
    (0, 1, 2) and the second, whose E_1 is [3], lists nothing: a mark of 2
    kept past the first window would list the triangle twice."""
    indptr, indices = _i64(0, 2, 4, 4, 4), _i64(1, 2, 2, 3)
    in_offsets, in_sources = _in_lists(indptr, indices)
    args = (indptr, indices, in_offsets, in_sources, _i64(0, 3, 4), _i64(0, 1), _i64(1, 1))
    pairs, total, hits, cones, vs, ws, window_pairs, _ = registry["mgt_chunk_scan"](
        *args, True, True
    )
    assert (pairs, total, hits) == (2, 2, 1)
    assert (cones.tolist(), vs.tolist(), ws.tolist()) == ([0], [1], [2])
    assert window_pairs.tolist() == [1, 1]
    assert registry["mgt_chunk_scan"](*args, False, False)[:3] == (2, 2, 1)


@REGISTRY_PARAMS
@pytest.mark.parametrize("want_triples", [True, False])
def test_mgt_block_scan_marks_each_cone_afresh(registry, want_triples):
    """The window holds E_4 = [6, 7] and E_5 = [7].  Cone 0 (N = [4, 6])
    has the one triangle (0, 4, 6); cone 1 (N = [2, 7]) has no candidate
    pair but neighbours 7; cones 2 (N = [5]) and 3 (N = [4]) have candidate
    pairs and no triangle.  A mark kept from cone 1 would list (2, 5, 7),
    one kept from cone 0 would list (3, 4, 6).  The caller's scratch is
    all zero again afterwards."""
    mark = np.zeros(8, dtype=np.uint8)
    got = registry["mgt_block_scan"](
        _i64(4, 6, 2, 7, 5, 4), _i64(0, 2, 4, 5, 6), _i64(6, 7, 7), 4, 5,
        _i64(0, 2), _i64(2, 1), mark, want_triples,
    )
    assert got[:3] == (3, 5, 1)
    if want_triples:
        assert [a.tolist() for a in got[3:]] == [[0], [4], [6]]
    assert not mark.any()


@REGISTRY_PARAMS
def test_mgt_block_scan_leaves_the_scratch_clear_after_a_bad_id(registry):
    """Two calls share one scratch, as a worker's blocks do.  The first
    marks cone 1's N = [4, 6] and meets -1 in E_4; the second call's cone 1
    (N = [4]) walks E_4 = [6, 7] and must not find 6 marked."""
    mark = np.zeros(8, dtype=np.uint8)
    window = (4, 5, _i64(0, 2), _i64(2, 1), mark, True)
    with pytest.raises(GraphFormatError):
        registry["mgt_block_scan"](_i64(5, 4, 6), _i64(0, 1, 3), _i64(6, -1, 7), *window)
    assert not mark.any()
    got = registry["mgt_block_scan"](_i64(5, 4), _i64(0, 1, 2), _i64(6, 7, 7), *window)
    assert got[:3] == (2, 3, 0)


@REGISTRY_PARAMS
def test_triangle_range_marks_each_cone_afresh(registry):
    """A mark of 4 kept from cone 0 would list (1, 2, 4) beside (0, 3, 4)."""
    args = (_SHARED_INDPTR, _SHARED_INDICES, 0, 5)
    assert registry["triangle_range"](*args) == (1, 7)
    cones, vs, ws, ops = registry["triangle_range"](*args, True)
    assert (cones.tolist(), vs.tolist(), ws.tolist(), ops) == ([0], [3], [4], 7)


@REGISTRY_PARAMS
def test_triangle_range_starts_each_call_unmarked(registry):
    """The first call marks cone 0's N = [3, 4] and stops at vertex 3's
    out-of-range neighbour; cone 1 of the second call reaches 4 through 2
    and must not find it marked."""
    with pytest.raises(GraphFormatError):
        registry["triangle_range"](_i64(0, 2, 2, 2, 3, 3), _i64(3, 4, 7), 0, 5)
    assert registry["triangle_range"](_SHARED_INDPTR, _SHARED_INDICES, 1, 5) == (0, 4)


@REGISTRY_PARAMS
def test_triangle_edge_ids_marks_each_cone_afresh(registry):
    got = registry["triangle_edge_ids"](
        _SHARED_INDPTR, _SHARED_INDICES, _SHARED_KEYS, _SHARED_ROWS, 5, 0, 5
    )
    # the triangle (0, 3, 4) as the ids of (0, 3), (0, 4) and (3, 4)
    assert np.asarray(got).tolist() == [[0, 1, 4]]


#: an id below, at and far above the vertex range
_BAD_IDS = pytest.mark.parametrize("bad", ["below", "n", "huge"])


def _bad_id(bad: str, n: int) -> int:
    return {"below": -1, "n": n, "huge": 2**62}[bad]


def _refused(kernel, *args) -> None:
    """``kernel(*args)`` raises the id error and leaves its inputs as they
    were."""
    before = [np.array(a, copy=True) if isinstance(a, np.ndarray) else a for a in args]
    with pytest.raises(GraphFormatError, match="outside"):
        kernel(*args)
    for a, b in zip(args, before):
        if isinstance(a, np.ndarray):
            np.testing.assert_array_equal(a, b)


@REGISTRY_PARAMS
@_BAD_IDS
@pytest.mark.parametrize("where", ["cone list", "walked list"])
@pytest.mark.parametrize("want_triples", [True, False])
def test_triangle_range_refuses_ids_outside_the_graph(registry, bad, where, want_triples):
    x = _bad_id(bad, 5)
    if where == "cone list":  # vertex 0 lists [3, x]
        indptr, indices = _i64(0, 2, 2, 2, 2, 2), np.sort(_i64(3, x))
    else:  # vertex 0 lists [3], and 3 lists [x]
        indptr, indices = _i64(0, 1, 1, 1, 2, 2), _i64(3, x)
    _refused(registry["triangle_range"], indptr, indices, 0, 5, want_triples)


@REGISTRY_PARAMS
@_BAD_IDS
@pytest.mark.parametrize("where", ["cone list", "E_v"])
@pytest.mark.parametrize("want_triples", [True, False])
def test_mgt_block_scan_refuses_ids_outside_the_graph(registry, bad, where, want_triples):
    x = _bad_id(bad, 8)
    block_adj, edg = _i64(4, 6), _i64(6, 7, 7)
    if where == "cone list":
        block_adj = np.sort(_i64(4, x))
    else:
        edg = _i64(6, x, 7)
    _refused(
        registry["mgt_block_scan"], block_adj, _i64(0, 2), edg, 4, 5,
        _i64(0, 2), _i64(2, 1), np.zeros(8, dtype=np.uint8), want_triples,
    )


@REGISTRY_PARAMS
@_BAD_IDS
@pytest.mark.parametrize("where", ["E_v", "in_sources", "walked list"])
@pytest.mark.parametrize("want_triples", [True, False])
def test_mgt_chunk_scan_refuses_ids_outside_the_graph(registry, bad, where, want_triples):
    """0 -> {1, 2}, 1 -> {2, 3} in one window: the walk reads every entry
    of E_1, the in-neighbour 0 of vertex 1 and the whole of N(0)."""
    x = _bad_id(bad, 4)
    indptr, indices = _i64(0, 2, 4, 4, 4), _i64(1, 2, 2, 3)
    in_offsets, in_sources = _in_lists(indptr, indices)
    if where == "E_v":  # vertex 1's list, marked when 0 -> 1 is walked
        indices = np.concatenate((indices[:2], np.sort(_i64(2, x))))
    elif where == "in_sources":
        in_sources = in_sources.copy()
        in_sources[0] = x  # the in-neighbour of vertex 1
    else:  # vertex 0's list, walked against E_1
        indptr = _i64(0, 3, 5, 5, 5)
        indices = np.concatenate((np.sort(_i64(1, 2, x)), indices[2:]))
    _refused(
        registry["mgt_chunk_scan"], indptr, indices, in_offsets, in_sources,
        _i64(0, indices.shape[0]), _i64(0), _i64(1), want_triples, True,
    )


@REGISTRY_PARAMS
@_BAD_IDS
def test_triangle_edge_ids_refuses_ids_outside_the_graph(registry, bad):
    indices = _SHARED_INDICES.copy()
    indices[2] = _bad_id(bad, 5)
    _refused(
        registry["triangle_edge_ids"], _SHARED_INDPTR, indices, _SHARED_KEYS, _SHARED_ROWS,
        5, 0, 5,
    )


# -- the master's preprocessing kernels -------------------------------------


def _symmetric(graph: CSRGraph) -> CSRGraph:
    """The undirected closure of ``graph``, as the master stages its input."""
    return CSRGraph.from_edgelist(graph.to_edgelist())


@REGISTRY_PARAMS
@given(
    graph=st.one_of(random_graphs(), cone_dags().map(_symmetric)),
    num_chunks=st.integers(min_value=1, max_value=4),
    data=st.data(),
)
@settings(**SETTINGS)
def test_orient_range_matches_numpy_filter(registry, graph, num_chunks, data):
    """The C filter keeps the numpy filter's entries and out-degrees on
    every chunk of a 1-4 way split.  Borders are drawn from the vertices
    with no edges when there are some, so chunks start and end at empty
    lists, and chunks may be empty."""
    n = graph.num_vertices
    keys = degree_order_keys(graph.degrees)
    isolated = np.flatnonzero(graph.degrees == 0).tolist()
    border = st.integers(min_value=0, max_value=n)
    if isolated:
        border = st.one_of(border, st.sampled_from(isolated))
    inner = sorted(data.draw(st.lists(border, min_size=num_chunks - 1, max_size=num_chunks - 1)))
    bounds = [0, *inner, n]
    kept = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        adjacency = graph.indices[graph.indptr[lo] : graph.indptr[hi]].copy()
        want = _orient_range_numpy(adjacency, keys, graph.indptr, lo, hi)
        got = registry["orient_range"](adjacency, keys, graph.indptr, lo, hi)
        np.testing.assert_array_equal(got[0], want[0])
        np.testing.assert_array_equal(got[1], want[1])
        kept.append(got[1])
    np.testing.assert_array_equal(np.concatenate(kept), orient_csr(graph).indices)


@REGISTRY_PARAMS
@pytest.mark.parametrize("bad_id", [-1, 5, 2**62])
def test_orient_range_raises_the_numpy_error_on_ids_outside_the_graph(registry, bad_id):
    # vertex 4 neighbours 0-3; its first neighbour is corrupt
    indptr = np.array([0, 1, 2, 3, 4, 8], dtype=np.int64)
    adjacency = np.array([4, 4, 4, 4, bad_id, 1, 2, 3], dtype=np.int64)
    keys = degree_order_keys(np.diff(indptr))
    with pytest.raises(GraphFormatError) as numpy_error:
        _orient_range_numpy(adjacency[1:], keys, indptr, 1, 5)
    with pytest.raises(GraphFormatError) as c_error:
        registry["orient_range"](adjacency[1:], keys, indptr, 1, 5)
    assert str(c_error.value) == str(numpy_error.value)
    assert "vertex 4 holds id" in str(c_error.value)


@REGISTRY_PARAMS
@pytest.mark.parametrize("lo, hi, count", [(-1, 2, 2), (3, 2, 0), (0, 6, 8), (0, 5, 7)])
def test_orient_range_refuses_chunks_that_do_not_fit(registry, lo, hi, count):
    indptr = np.array([0, 1, 2, 3, 4, 8], dtype=np.int64)
    keys = degree_order_keys(np.diff(indptr))
    with pytest.raises(ValueError):
        registry["orient_range"](np.zeros(count, dtype=np.int64), keys, indptr, lo, hi)


@REGISTRY_PARAMS
@given(graph=st.one_of(random_graphs().map(orient_csr), cone_dags()))
@settings(**SETTINGS)
def test_in_lists_matches_sort_transpose(registry, graph):
    """The counting-sort transpose and its packed keys equal the numpy
    tier's sort of packed (target, source) keys; every output slot is
    written (the outputs start as garbage)."""
    n, m = graph.num_vertices, graph.num_edges
    want = [np.empty(m, np.int64), np.empty(n + 1, np.int64), np.empty(m, np.int64)]
    _in_lists_numpy(graph.indptr, graph.indices, *want)
    got = [np.full(m, -7, np.int64), np.full(n + 1, -7, np.int64), np.full(m, -7, np.int64)]
    returned = registry["in_lists"](graph.indptr, graph.indices, *got)
    assert all(r is g for r, g in zip(returned, got))
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g, w)
    np.testing.assert_array_equal(
        got[0], kernels.csr_packed_keys(graph.indptr, graph.indices)
    )


@REGISTRY_PARAMS
@pytest.mark.parametrize("n", [0, 1, 5])
def test_in_lists_of_graphs_without_edges(registry, n):
    graph = CSRGraph.empty(n, directed=True)
    key, in_offsets, in_sources = registry["in_lists"](
        graph.indptr, graph.indices, np.empty(0, np.int64),
        np.full(n + 1, -7, np.int64), np.empty(0, np.int64),
    )
    assert key.shape == in_sources.shape == (0,)
    np.testing.assert_array_equal(in_offsets, np.zeros(n + 1, dtype=np.int64))


@REGISTRY_PARAMS
@pytest.mark.parametrize("bad_id", [-1, 3])
def test_in_lists_refuses_ids_outside_the_graph(registry, bad_id):
    indptr = np.array([0, 2, 3, 3], dtype=np.int64)
    adjacency = np.array([1, bad_id, 2], dtype=np.int64)
    outs = (np.empty(3, np.int64), np.empty(4, np.int64), np.empty(3, np.int64))
    with pytest.raises(GraphFormatError, match=f"entry 1 holds id {bad_id}"):
        registry["in_lists"](indptr, adjacency, *outs)


_FLAWS = ("unsorted", "loop", "duplicate")


@st.composite
def flawed_graphs(draw):
    """A random simple graph with planted format violations: none, one kind
    or several kinds (an unsorted list, a self loop, a duplicate entry),
    each at a drawn vertex.  Built as raw CSR arrays, past the checks of
    the constructors."""
    graph = draw(random_graphs())
    n = graph.num_vertices
    lists = [graph.neighbors(v).tolist() for v in range(n)]
    for flaw in draw(st.lists(st.sampled_from(_FLAWS), max_size=4)):
        v = draw(st.integers(min_value=0, max_value=n - 1))
        if flaw == "unsorted" and len(set(lists[v])) >= 2:
            lists[v].reverse()
        elif flaw == "unsorted" and n >= 2:
            lists[v] = [1, 0]
        elif flaw == "loop":
            lists[v] = sorted(lists[v] + [v])
        elif flaw == "duplicate":
            at = draw(st.integers(min_value=0, max_value=max(len(lists[v]) - 1, 0)))
            lists[v] = lists[v][: at + 1] + lists[v][at:] if lists[v] else [v, v]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum([len(a) for a in lists], out=indptr[1:])
    indices = np.array([w for a in lists for w in a], dtype=np.int64)
    return CSRGraph(indptr, indices)


def _format_error(check, graph: CSRGraph) -> str | None:
    try:
        check(graph)
    except GraphFormatError as exc:
        return str(exc)
    return None


@REGISTRY_PARAMS
@given(graph=flawed_graphs())
@settings(**SETTINGS)
def test_csr_violations_raise_the_numpy_checks_error(registry, graph):
    """One C pass finds what check_sorted_adjacency followed by check_simple
    finds: write_graph raises the same message, with the same precedence,
    on either tier (or nothing on both)."""

    def numpy_checks(g):
        g.check_sorted_adjacency()
        g.check_simple()

    def write(g):
        with tempfile.TemporaryDirectory(prefix="pdtl_prop_format_") as root:
            write_graph(BlockDevice(root, block_size=512), "g", g)

    want = _format_error(numpy_checks, graph)
    with installed({}):
        assert _format_error(write, graph) == want
    with installed(registry):
        assert _format_error(write, graph) == want
    found = registry["csr_violations"](graph.indptr, graph.indices)
    assert (max(found) < 0) == (want is None)


#: vertex 2's list [0, 1, 3, 4] of a 6-vertex graph with each kind of
#: violation planted at its first, an inner and its last position
_PLANTED = {
    "unsorted": ([1, 0, 3, 4], [0, 3, 1, 4], [0, 1, 4, 3]),
    "loop": ([2, 3, 4], [0, 2, 3], [0, 1, 2]),
    "duplicate": ([0, 0, 1, 3], [0, 1, 1, 3], [0, 1, 3, 3]),
}


@REGISTRY_PARAMS
@pytest.mark.parametrize("kind", list(_PLANTED))
@pytest.mark.parametrize("where", [0, 1, 2], ids=["first", "inner", "last"])
def test_csr_violations_find_each_kind_anywhere_in_a_list(registry, kind, where):
    lists = [[1], [0, 5], _PLANTED[kind][where], [], [5], [1, 4]]
    indptr = np.zeros(len(lists) + 1, dtype=np.int64)
    np.cumsum([len(a) for a in lists], out=indptr[1:])
    indices = np.array([w for a in lists for w in a], dtype=np.int64)
    found = registry["csr_violations"](indptr, indices)
    assert found == tuple(2 if k == kind else -1 for k in _PLANTED)


@REGISTRY_PARAMS
def test_csr_violations_refuses_indptr_that_does_not_fit(registry):
    with pytest.raises(ValueError):
        registry["csr_violations"](np.array([0, 2, 5], dtype=np.int64), np.zeros(3, np.int64))
