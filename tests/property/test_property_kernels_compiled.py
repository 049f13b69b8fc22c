"""Property tests: every C kernel against its numpy twin.

The C registry (:mod:`repro.core.kernels_cffi`) is driven through
random graphs, hub graphs and cone DAGs (lopsided list lengths), and
through hand-made graphs holding ids outside the vertex range.  Where the
C tier cannot be built the whole module skips with the build's reason; a
registry that builds but disagrees with numpy fails here rather than
skipping, even though the tier probe refuses it.

The fused entry points (``mgt_block_scan``, ``mgt_chunk_scan``,
``incidence_csr``) have no single numpy twin --
they replace multi-pass caller chains -- so they are checked against
in-test references built from the numpy primitives, and end-to-end by
installing the registry and comparing whole decompositions.  The scans'
crediting mode is pinned to its numpy twins in
``tests/property/test_property_edge_supports.py``.  ``truss_peel_level`` is checked level by level against
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
from repro.errors import GraphFormatError, PDTLError
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
@given(graph=random_graphs(), data=st.data())
@settings(**SETTINGS)
def test_triangle_range_matches_numpy(registry, graph, data):
    oriented = orient_csr(graph)
    n = oriented.num_vertices
    lo = data.draw(st.integers(min_value=0, max_value=n))
    hi = data.draw(st.integers(min_value=lo, max_value=n))
    args = (oriented.indptr, oriented.indices, lo, hi)
    got = {}
    for emit in (kernels.EMIT_COUNT, kernels.EMIT_TRIPLES, kernels.EMIT_POSITIONS):
        want = kernels.NUMPY_IMPLS["triangle_range"](*args, emit)
        got[emit] = registry["triangle_range"](*args, emit)
        assert len(got[emit]) == len(want)
        for w, g in zip(want, got[emit]):
            np.testing.assert_array_equal(np.asarray(g), np.asarray(w))
    (count, ops), (cones, vs, ws, list_ops), (positions, slot_ops) = got.values()
    assert list_ops == slot_ops == ops
    # slot row i holds the positions of triple i's edges (u, v), (u, w), (v, w)
    assert positions.shape == (count, 3)
    sources = oriented.edge_sources()
    for column, (a, b) in enumerate(((cones, vs), (cones, ws), (vs, ws))):
        np.testing.assert_array_equal(sources[positions[:, column]], a)
        np.testing.assert_array_equal(oriented.indices[positions[:, column]], b)


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
    """The 3-pass chain of ``MGTWorker._process_block``, one entry at a time.

    Also returns each triangle's three positions, relative to ``block_adj``
    (``(u, v)`` and ``(u, w)``) and to ``edg`` (``(v, w)``)."""
    pairs = 0
    total = 0
    cones, vs_out, ws_out, credits = [], [], [], []
    for bu in range(block_offsets.shape[0] - 1):
        nu = block_adj[block_offsets[bu] : block_offsets[bu + 1]]
        for p, v in enumerate(nu):
            if v < vlow or v > vhigh:
                continue
            d = int(win_degrees[v - vlow])
            if d <= 0:
                continue
            pairs += 1
            total += d
            ev = edg[win_offsets[v - vlow] : win_offsets[v - vlow] + d]
            for j in np.flatnonzero(np.isin(ev, nu)):
                w = int(ev[j])
                cones.append(bu)
                vs_out.append(int(v))
                ws_out.append(w)
                credits.append((
                    block_offsets[bu] + p,
                    block_offsets[bu] + int(np.flatnonzero(nu == w)[0]),
                    win_offsets[v - vlow] + j,
                ))
    return pairs, total, cones, vs_out, ws_out, credits


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

    pairs, total, cones, vs_ref, ws_ref, credits = _mgt_block_scan_reference(
        block_adj, block_offsets, edg, vlow, vhigh, win_offsets, win_degrees
    )
    args = (block_adj, block_offsets, edg, vlow, vhigh, win_offsets, win_degrees)
    mark = np.zeros(n, dtype=np.uint8)
    got = registry["mgt_block_scan"](*args, mark, True)
    assert (got[0], got[1], got[2]) == (pairs, total, len(cones))
    np.testing.assert_array_equal(np.asarray(got[3]), np.asarray(cones, dtype=np.int64))
    np.testing.assert_array_equal(np.asarray(got[4]), np.asarray(vs_ref, dtype=np.int64))
    np.testing.assert_array_equal(np.asarray(got[5]), np.asarray(ws_ref, dtype=np.int64))

    counted = registry["mgt_block_scan"](*args, mark, False)
    assert (counted[0], counted[1], counted[2]) == (pairs, total, len(cones))
    assert not mark.any()

    # the crediting mode: the same hits as absolute adjacency positions
    block_base = int(indptr[blo])
    window_base = int(indptr[vlow])
    slots = np.zeros(n, dtype=np.int64)
    credited = registry["mgt_block_scan"](
        *args, slots, kernels.EMIT_POSITIONS, block_base, window_base
    )
    want = np.asarray(credits, dtype=np.int64).reshape(-1, 3) + (
        block_base, block_base, window_base
    )
    assert credited[:3] == (pairs, total, len(cones)) and credited[4:] == (None, None)
    np.testing.assert_array_equal(credited[3], want)
    assert not slots.any()


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
    in_offsets, in_sources = _in_lists(indptr, indices)

    # each window's ind arrays, and the whole graph as one scan block
    window_pairs, total, cones, vs_ref, ws_ref, credits = [], 0, [], [], [], []
    for lo, hi, vlow, vhigh in zip(bounds[:-1], bounds[1:], vlows, vhighs):
        span = np.arange(vlow, vhigh + 1)
        win_starts = np.maximum(indptr[span], lo)
        win_degrees = np.maximum(np.minimum(indptr[span + 1], hi) - win_starts, 0)
        pairs, gathered, *triples, window_credits = _mgt_block_scan_reference(
            indices, indptr, indices[lo:hi].copy(), vlow, vhigh, win_starts - lo, win_degrees
        )
        window_pairs.append(pairs)
        total += gathered
        for column, part in zip((cones, vs_ref, ws_ref), triples):
            column.extend(part)
        # the C walk credits v-major: a stable sort of the window by v
        order = np.argsort(np.asarray(triples[1], dtype=np.int64), kind="stable")
        credits.extend(
            (a, b, c + lo) for a, b, c in np.asarray(window_credits).reshape(-1, 3)[order]
        )
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

    credited = registry["mgt_chunk_scan"](*args, kernels.EMIT_POSITIONS, False)
    assert credited[:3] == (sum(window_pairs), total, len(cones))
    assert credited[4:] == (None, None, None, None)
    np.testing.assert_array_equal(
        credited[3], np.asarray(credits, dtype=np.int64).reshape(-1, 3)
    )


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
    in_sources = np.array([0, 0, 1], dtype=np.int32)
    with pytest.raises(ValueError):
        registry["mgt_chunk_scan"](
            indptr, indices, in_offsets, in_sources,
            np.array(bounds), np.array(vlows), np.array(vhighs), True, False,
        )


@REGISTRY_PARAMS
@given(oriented=st.one_of(random_graphs().map(orient_csr), cone_dags()))
@settings(**SETTINGS)
def test_triangle_range_positions_match_searchsorted(registry, oriented):
    # cone DAGs give cone 0 a long list, marked once with its positions and
    # tested by many short ones
    n = oriented.num_vertices
    keys = kernels.csr_packed_keys(oriented.indptr, oriented.indices)
    cones, vs, ws, _ = kernels.NUMPY_IMPLS["triangle_range"](
        oriented.indptr, oriented.indices, 0, n, kernels.EMIT_TRIPLES
    )
    want = np.empty((cones.shape[0], 3), dtype=np.int64)
    for slot, (a, b) in enumerate(((cones, vs), (cones, ws), (vs, ws))):
        want[:, slot] = np.searchsorted(keys, kernels.packed_keys(a, b, n))

    got, _ = registry["triangle_range"](
        oriented.indptr, oriented.indices, 0, n, kernels.EMIT_POSITIONS
    )
    np.testing.assert_array_equal(np.asarray(got), want)


@REGISTRY_PARAMS
@given(graph=random_graphs())
@settings(**SETTINGS)
def test_incidence_csr_matches_stable_argsort(registry, graph):
    from repro.analytics.truss import _triangle_table

    with installed({}):
        edges, _, tri_edges = _triangle_table(graph)
    m = edges.shape[0]
    flat = tri_edges.reshape(-1)

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
        want = truss_decomposition(graph, keep_triangles=True)
    with installed(registry):
        got = truss_decomposition(graph, keep_triangles=True)
    np.testing.assert_array_equal(got.trussness, want.trussness)
    np.testing.assert_array_equal(got.support, want.support)
    np.testing.assert_array_equal(got.tri_edges, want.tri_edges)
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
    """The transpose by a stable argsort: int64 offsets, int32 sources."""
    n = indptr.shape[0] - 1
    sources = np.repeat(np.arange(n, dtype=np.int32), np.diff(indptr))
    in_offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(indices, minlength=n), out=in_offsets[1:])
    return in_offsets, sources[np.argsort(indices, kind="stable")]


#: the oriented graph 0 -> {3, 4}, 1 -> {2}, 2 -> {4}, 3 -> {4}: its one
#: triangle is (0, 3, 4), and cone 1 reaches 4, which cone 0 marked, through
#: 2.  Its edges (0, 3), (0, 4), (1, 2), (2, 4), (3, 4) sit at positions 0-4.
_SHARED_INDPTR = _i64(0, 2, 3, 4, 5, 5)
_SHARED_INDICES = _i64(3, 4, 2, 4, 4)


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


#: every emit mode of the scans, with the scratch dtype each takes
_EMITS = pytest.mark.parametrize(
    "emit", [kernels.EMIT_COUNT, kernels.EMIT_TRIPLES, kernels.EMIT_POSITIONS],
    ids=["count", "triples", "positions"],
)


def _scratch(emit: int, n: int) -> np.ndarray:
    return np.zeros(n, dtype=np.int64 if emit == kernels.EMIT_POSITIONS else np.uint8)


@REGISTRY_PARAMS
@_EMITS
def test_mgt_block_scan_marks_each_cone_afresh(registry, emit):
    """The window holds E_4 = [6, 7] and E_5 = [7].  Cone 0 (N = [4, 6])
    has the one triangle (0, 4, 6); cone 1 (N = [2, 7]) has no candidate
    pair but neighbours 7; cones 2 (N = [5]) and 3 (N = [4]) have candidate
    pairs and no triangle.  A mark kept from cone 1 would list (2, 5, 7),
    one kept from cone 0 would list (3, 4, 6).  The caller's scratch is
    all zero again afterwards."""
    mark = _scratch(emit, 8)
    got = registry["mgt_block_scan"](
        _i64(4, 6, 2, 7, 5, 4), _i64(0, 2, 4, 5, 6), _i64(6, 7, 7), 4, 5,
        _i64(0, 2), _i64(2, 1), mark, emit, 100, 200,
    )
    assert got[:3] == (3, 5, 1)
    if emit == kernels.EMIT_TRIPLES:
        assert [a.tolist() for a in got[3:]] == [[0], [4], [6]]
    if emit == kernels.EMIT_POSITIONS:
        # (0, 4) and (0, 6) are block entries 0 and 1, (4, 6) window entry 0
        assert got[3].tolist() == [[100, 101, 200]]
    assert not mark.any()


@REGISTRY_PARAMS
@pytest.mark.parametrize("emit", [kernels.EMIT_TRIPLES, kernels.EMIT_POSITIONS],
                         ids=["triples", "positions"])
def test_mgt_block_scan_leaves_the_scratch_clear_after_a_bad_id(registry, emit):
    """Two calls share one scratch, as a worker's blocks do.  The first
    marks cone 1's N = [4, 6] and meets -1 in E_4; the second call's cone 1
    (N = [4]) walks E_4 = [6, 7] and must not find 6 marked."""
    mark = _scratch(emit, 8)
    window = (4, 5, _i64(0, 2), _i64(2, 1), mark, emit)
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
    cones, vs, ws, ops = registry["triangle_range"](*args, kernels.EMIT_TRIPLES)
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
def test_triangle_range_marks_each_cone_afresh_with_positions(registry):
    """A position of 4 kept from cone 0 would report a second row for
    (1, 2, 4) beside the one of (0, 3, 4)."""
    got, ops = registry["triangle_range"](
        _SHARED_INDPTR, _SHARED_INDICES, 0, 5, kernels.EMIT_POSITIONS
    )
    # the triangle (0, 3, 4) as the positions of (0, 3), (0, 4) and (3, 4)
    assert (np.asarray(got).tolist(), ops) == ([[0, 1, 4]], 7)


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
@_EMITS
def test_triangle_range_refuses_ids_outside_the_graph(registry, bad, where, emit):
    x = _bad_id(bad, 5)
    if where == "cone list":  # vertex 0 lists [3, x]
        indptr, indices = _i64(0, 2, 2, 2, 2, 2), np.sort(_i64(3, x))
    else:  # vertex 0 lists [3], and 3 lists [x]
        indptr, indices = _i64(0, 1, 1, 1, 2, 2), _i64(3, x)
    _refused(registry["triangle_range"], indptr, indices, 0, 5, emit)


@REGISTRY_PARAMS
@pytest.mark.parametrize(
    "indptr",
    [(0, 2, 4, 4, 4, 4), (0, 2, 1, 3, 3, 3), (1, 2, 3, 3, 3, 3)],
    ids=["past the indices", "decreasing", "not from 0"],
)
@_EMITS
def test_triangle_range_refuses_an_indptr_that_does_not_fit(registry, indptr, emit):
    """The walk reads each list where ``indptr`` bounds it, at every vertex
    a list names, so ``indptr`` must rise from 0 to the number of indices."""
    with pytest.raises(ValueError, match="indptr"):
        registry["triangle_range"](_i64(*indptr), _i64(3, 4, 4), 0, 5, emit)


@REGISTRY_PARAMS
@_BAD_IDS
@pytest.mark.parametrize("where", ["cone list", "E_v"])
@_EMITS
def test_mgt_block_scan_refuses_ids_outside_the_graph(registry, bad, where, emit):
    x = _bad_id(bad, 8)
    block_adj, edg = _i64(4, 6), _i64(6, 7, 7)
    if where == "cone list":
        block_adj = np.sort(_i64(4, x))
    else:
        edg = _i64(6, x, 7)
    _refused(
        registry["mgt_block_scan"], block_adj, _i64(0, 2), edg, 4, 5,
        _i64(0, 2), _i64(2, 1), _scratch(emit, 8), emit,
    )


@REGISTRY_PARAMS
@_BAD_IDS
@pytest.mark.parametrize("where", ["E_v", "in_sources", "walked list"])
@_EMITS
def test_mgt_chunk_scan_refuses_ids_outside_the_graph(registry, bad, where, emit):
    """0 -> {1, 2}, 1 -> {2, 3} in one window: the walk reads every entry
    of E_1, the in-neighbour 0 of vertex 1 and the whole of N(0).  The
    in-lists are int32, so their largest bad id is 2**31 - 1."""
    x = _bad_id(bad, 4)
    indptr, indices = _i64(0, 2, 4, 4, 4), _i64(1, 2, 2, 3)
    in_offsets, in_sources = _in_lists(indptr, indices)
    if where == "E_v":  # vertex 1's list, marked when 0 -> 1 is walked
        indices = np.concatenate((indices[:2], np.sort(_i64(2, x))))
    elif where == "in_sources":
        in_sources = in_sources.copy()
        in_sources[0] = x if bad != "huge" else 2**31 - 1  # the in-neighbour of vertex 1
    else:  # vertex 0's list, walked against E_1
        indptr = _i64(0, 3, 5, 5, 5)
        indices = np.concatenate((np.sort(_i64(1, 2, x)), indices[2:]))
    _refused(
        registry["mgt_chunk_scan"], indptr, indices, in_offsets, in_sources,
        _i64(0, indices.shape[0]), _i64(0), _i64(1), emit, True,
    )


@REGISTRY_PARAMS
@_BAD_IDS
@_EMITS
def test_mgt_chunk_scan_checks_the_in_list_ids_it_looks_ahead_at(registry, bad, emit):
    """0-9 -> {10}, 10 -> {11}: the window holds vertex 10's list, whose
    in-neighbours are the 10 pairs.  The walk looks 8 pairs ahead along the
    in-lists to prefetch, so it meets the bad 9th id before checking it:
    no load happens at that id (int32's extremes used to crash the
    process), and the walk raises the id error when it gets to it."""
    indptr, indices = _i64(*range(11), 11, 11), _i64(*[10] * 10, 11)
    in_offsets, in_sources = _in_lists(indptr, indices)
    in_sources = in_sources.copy()
    in_sources[8] = {"below": -(2**31), "n": 12, "huge": 2**31 - 1}[bad]
    _refused(
        registry["mgt_chunk_scan"], indptr, indices, in_offsets, in_sources,
        _i64(10, 11), _i64(10), _i64(10), emit, True,
    )


@REGISTRY_PARAMS
@pytest.mark.parametrize("dtype", [np.int64, np.uint32, np.int16])
def test_mgt_chunk_scan_refuses_in_sources_that_are_not_int32(registry, dtype):
    """In-lists in any other dtype are refused, not cast: the int64 id
    2**32 would wrap onto the valid id 0, past the walk's id check."""
    indptr, indices = _i64(0, 2, 4, 4, 4), _i64(1, 2, 2, 3)
    in_offsets, in_sources = _in_lists(indptr, indices)
    wide = in_sources.astype(dtype)
    if dtype == np.int64:
        wide[0] = 2**32  # would wrap onto the true in-neighbour 0
    with pytest.raises(TypeError, match="int32"):
        registry["mgt_chunk_scan"](
            indptr, indices, in_offsets, wide, _i64(0, 4), _i64(0), _i64(1), True, False,
        )


@REGISTRY_PARAMS
@_BAD_IDS
def test_triangle_range_positions_refuse_ids_outside_the_graph(registry, bad):
    """Cone 1 lists the bad id, after cone 0 marked and cleared its list."""
    indices = _SHARED_INDICES.copy()
    indices[2] = _bad_id(bad, 5)
    _refused(
        registry["triangle_range"], _SHARED_INDPTR, indices, 0, 5, kernels.EMIT_POSITIONS
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
        outputs = {}
        for tier, orient_range in (
            ("numpy", _orient_range_numpy), ("cffi", registry["orient_range"])
        ):
            outs = (np.full(hi - lo, -7, np.int64), np.full(adjacency.shape[0] + 2, -7, np.int64))
            outputs[tier] = orient_range(adjacency, keys, graph.indptr, lo, hi, *outs)
            # the results are the caller's arrays, or views of them
            assert outputs[tier][0] is outs[0]
            assert np.shares_memory(outputs[tier][1], outs[1]) or not outputs[tier][1].shape[0]
        (got_degrees, got_kept, got_faults), want = outputs["cffi"], outputs["numpy"]
        np.testing.assert_array_equal(got_degrees, want[0])
        np.testing.assert_array_equal(got_kept, want[1])
        assert got_faults == want[2] == (-1, -1, -1)
        kept.append(got_kept)
    np.testing.assert_array_equal(np.concatenate(kept), orient_csr(graph).indices)


@REGISTRY_PARAMS
@pytest.mark.parametrize("bad_id", [-1, 5, 2**62])
def test_orient_range_raises_the_numpy_error_on_ids_outside_the_graph(registry, bad_id):
    # vertex 4 neighbours 0-3; its first neighbour is corrupt
    indptr = np.array([0, 1, 2, 3, 4, 8], dtype=np.int64)
    adjacency = np.array([4, 4, 4, 4, bad_id, 1, 2, 3], dtype=np.int64)
    keys = degree_order_keys(np.diff(indptr))
    outs = (np.empty(4, np.int64), np.empty(7, np.int64))
    with pytest.raises(GraphFormatError) as numpy_error:
        _orient_range_numpy(adjacency[1:], keys, indptr, 1, 5, *outs)
    with pytest.raises(GraphFormatError) as c_error:
        registry["orient_range"](adjacency[1:], keys, indptr, 1, 5, *outs)
    assert str(c_error.value) == str(numpy_error.value)
    assert "vertex 4 holds id" in str(c_error.value)


@REGISTRY_PARAMS
@pytest.mark.parametrize("lo, hi, count", [(-1, 2, 2), (3, 2, 0), (0, 6, 8), (0, 5, 7)])
def test_orient_range_refuses_chunks_that_do_not_fit(registry, lo, hi, count):
    indptr = np.array([0, 1, 2, 3, 4, 8], dtype=np.int64)
    keys = degree_order_keys(np.diff(indptr))
    outs = (np.empty(max(hi - lo, 0), np.int64), np.empty(count, np.int64))
    with pytest.raises(ValueError):
        registry["orient_range"](np.zeros(count, dtype=np.int64), keys, indptr, lo, hi, *outs)


@REGISTRY_PARAMS
@pytest.mark.parametrize(
    "out_degrees, kept",
    [(np.empty(3, np.int64), np.empty(8, np.int64)),  # one degree short
     (np.empty(5, np.int64), np.empty(7, np.int64)),  # one entry short
     (np.empty(5, np.int32), np.empty(8, np.int64)),
     (np.empty(5, np.int64), np.empty(16, np.int64)[::2])],
    ids=["short-degrees", "short-kept", "int32-degrees", "strided-kept"],
)
def test_orient_range_refuses_outputs_that_do_not_fit(registry, out_degrees, kept):
    """C writes every entry of the chunk into ``kept`` before it decides, so
    the outputs must hold the whole chunk, as contiguous int64."""
    indptr = np.array([0, 1, 2, 3, 4, 8], dtype=np.int64)
    adjacency = np.array([4, 4, 4, 4, 0, 1, 2, 3], dtype=np.int64)
    keys = degree_order_keys(np.diff(indptr))
    with pytest.raises(TypeError, match="contiguous int64"):
        registry["orient_range"](adjacency, keys, indptr, 0, 5, out_degrees, kept)


@REGISTRY_PARAMS
@given(graph=st.one_of(random_graphs().map(orient_csr), cone_dags()))
@settings(**SETTINGS)
def test_in_lists_matches_sort_transpose(registry, graph):
    """The counting-sort transpose equals the numpy tier's sort of packed
    (target, source) keys and a stable argsort by target, in int64 offsets
    and int32 sources; every output slot is written (the outputs start as
    garbage)."""
    n, m = graph.num_vertices, graph.num_edges
    want = [np.empty(n + 1, np.int64), np.empty(m, np.int32)]
    assert _in_lists_numpy(graph.indptr, graph.indices, *want) == tuple(want)
    got = [np.full(n + 1, -7, np.int64), np.full(m, -7, np.int32)]
    returned = registry["in_lists"](graph.indptr, graph.indices, *got)
    assert all(r is g for r, g in zip(returned, got))
    for g, w in zip(got, want):
        assert g.dtype == w.dtype
        np.testing.assert_array_equal(g, w)
    for g, w in zip(got, _in_lists(graph.indptr, graph.indices)):
        np.testing.assert_array_equal(g, w)


@REGISTRY_PARAMS
@pytest.mark.parametrize("n", [0, 1, 5])
def test_in_lists_of_graphs_without_edges(registry, n):
    graph = CSRGraph.empty(n, directed=True)
    for in_lists in (registry["in_lists"], _in_lists_numpy):
        in_offsets, in_sources = in_lists(
            graph.indptr, graph.indices, np.full(n + 1, -7, np.int64), np.empty(0, np.int32),
        )
        assert in_sources.shape == (0,)
        np.testing.assert_array_equal(in_offsets, np.zeros(n + 1, dtype=np.int64))


@REGISTRY_PARAMS
@pytest.mark.parametrize("bad_id", [-1, 3, 2**31, 2**62])
def test_in_lists_refuses_ids_outside_the_graph(registry, bad_id):
    """Both tiers raise the same error, naming the first bad entry."""
    indptr = np.array([0, 2, 3, 3], dtype=np.int64)
    adjacency = np.array([1, bad_id, bad_id], dtype=np.int64)
    for in_lists in (registry["in_lists"], _in_lists_numpy):
        outs = (np.empty(4, np.int64), np.empty(3, np.int32))
        with pytest.raises(GraphFormatError) as raised:
            in_lists(indptr, adjacency, *outs)
        assert str(raised.value) == f"adjacency entry 1 holds id {bad_id} outside [0, 3)"


@REGISTRY_PARAMS
@pytest.mark.parametrize(
    "in_offsets, in_sources",
    [
        (np.empty(4, np.int64), np.empty(3, np.int64)),  # int64 sources
        (np.empty(4, np.int32), np.empty(3, np.int32)),  # int32 offsets
        (np.empty(3, np.int64), np.empty(3, np.int32)),  # offsets too short
        (np.empty(4, np.int64), np.empty(6, np.int32)[::2]),  # not contiguous
    ],
)
def test_in_lists_refuses_outputs_of_the_wrong_kind(registry, in_offsets, in_sources):
    indptr, adjacency = _i64(0, 2, 3, 3), _i64(1, 2, 2)
    with pytest.raises(TypeError, match="int32 in_sources"):
        registry["in_lists"](indptr, adjacency, in_offsets, in_sources)


@REGISTRY_PARAMS
def test_in_lists_refuses_ids_that_do_not_fit_int32(registry, monkeypatch):
    """Both tiers refuse a graph with more vertices than int32 ids cover
    before writing anything.  The bound is lowered to 4 for the calls, so a
    5-vertex graph stands in for one of 2**31 + 1 vertices."""
    kernels._require_int32_ids(2**31)
    with pytest.raises(PDTLError, match="as int32"):
        kernels._require_int32_ids(2**31 + 1)
    monkeypatch.setattr(kernels, "MAX_INT32_VERTICES", 4)
    indptr, adjacency = _i64(0, 1, 1, 1, 1, 1), _i64(4)
    for in_lists in (registry["in_lists"], _in_lists_numpy):
        outs = (np.full(6, -7, np.int64), np.full(1, -7, np.int32))
        with pytest.raises(PDTLError, match="as int32"):
            in_lists(indptr, adjacency, *outs)
        assert (outs[0] == -7).all() and (outs[1] == -7).all()


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
    """And so do both orientation filters."""
    lists = [[1], [0, 5], _PLANTED[kind][where], [], [5], [1, 4]]
    indptr = np.zeros(len(lists) + 1, dtype=np.int64)
    np.cumsum([len(a) for a in lists], out=indptr[1:])
    indices = np.array([w for a in lists for w in a], dtype=np.int64)
    found = registry["csr_violations"](indptr, indices)
    assert found == tuple(2 if k == kind else -1 for k in _PLANTED)
    keys = degree_order_keys(np.diff(indptr))
    for orient_range in (registry["orient_range"], _orient_range_numpy):
        outs = (np.empty(6, np.int64), np.empty(indices.shape[0], np.int64))
        assert orient_range(indices, keys, indptr, 0, 6, *outs)[2] == found


@REGISTRY_PARAMS
def test_csr_violations_refuses_indptr_that_does_not_fit(registry):
    with pytest.raises(ValueError):
        registry["csr_violations"](np.array([0, 2, 5], dtype=np.int64), np.zeros(3, np.int64))


@REGISTRY_PARAMS
@given(graph=flawed_graphs(), num_chunks=st.integers(min_value=1, max_value=4), data=st.data())
@settings(**SETTINGS)
def test_orient_range_finds_the_faults_csr_violations_finds(registry, graph, num_chunks, data):
    """Both filters report, per chunk, the first unsorted list, self loop
    and duplicate among the lists they read: over the chunks, in order,
    what ``csr_violations`` finds in one pass over the graph."""
    n = graph.num_vertices
    keys = degree_order_keys(graph.degrees)
    inner = data.draw(
        st.lists(st.integers(0, n), min_size=num_chunks - 1, max_size=num_chunks - 1)
    )
    bounds = [0, *sorted(inner), n]
    found = {}
    for tier, orient_range in (
        ("numpy", _orient_range_numpy), ("cffi", registry["orient_range"])
    ):
        faults = [-1, -1, -1]
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            adjacency = graph.indices[graph.indptr[lo] : graph.indptr[hi]]
            outs = (np.empty(hi - lo, np.int64), np.empty(adjacency.shape[0], np.int64))
            _, _, chunk = orient_range(adjacency, keys, graph.indptr, lo, hi, *outs)
            faults = [f if f >= 0 else c for f, c in zip(faults, chunk)]
        found[tier] = faults
    unsorted = registry["csr_violations"](graph.indptr, graph.indices)[0]
    # csr_violations stops at the first unsorted list; the filters read on
    assert found["cffi"] == found["numpy"]
    assert found["cffi"][0] == unsorted
    if unsorted < 0:
        assert tuple(found["cffi"]) == registry["csr_violations"](graph.indptr, graph.indices)
