"""k-truss decomposition over per-edge triangle supports.

The paper motivates triangle listing as the building block of heavier
analytics, truss decomposition among them: the *k-truss* of a graph
(Cohen 2008) is the maximal subgraph in which every edge participates in
at least ``k - 2`` triangles *of the subgraph*, and the *trussness* of an
edge is the largest ``k`` whose k-truss contains it.  Computing it is a
peeling process over exactly the per-edge supports the
:class:`~repro.core.triangles.EdgeSupportSink` accumulates from the PDTL
triangle stream.

Two implementations live here:

* :func:`truss_decomposition` -- the vectorised peeler (the support
  peeling of Wang & Cheng, "Truss decomposition in massive networks",
  PVLDB 2012).  The triangles are enumerated **once** with the shared
  MGT counting kernel (:func:`~repro.core.kernels.triangle_range`'s walk
  over the degree-based orientation) with each triangle's three edges as
  canonical edge ids.  Given a PDTL run's orientation and the canonical
  id of each of its edges (what :func:`~repro.analytics.run_analytics`'s
  canonicalise step holds), it checks that orientation against the graph
  in one exact pass (:func:`_run_orientation`) and walks it with those
  ids; on its own it orients the graph
  (:func:`~repro.core.orientation.orient_csr`) and maps each adjacency
  slot to its id with one packed-key binary search.  Then an
  edge→triangle incidence CSR is built (:func:`_incidence`: one stable
  argsort of the triangle slots, or on the compiled tier one stable
  counting-sort pass).  Peeling then never searches again: the level
  loop (:func:`_peel`) runs every peel round of one level ``k`` per call
  of the ``truss_peel_level`` kernel -- the fused C loop, or its numpy twin
  :func:`_peel_level_numpy`, where every round gathers the peeled edges'
  incident triangle ids with one :func:`~repro.core.kernels.segment_gather`,
  kills each still-alive triangle exactly once (``np.unique``), and
  applies the support decrements to the surviving edges with one
  ``np.subtract.at`` -- no per-edge Python loops anywhere.  The dynamic
  graph path (:mod:`repro.analytics.delta`) reuses the incidence builder
  and the level loop.
* :func:`trussness_reference` -- a deliberately simple scalar
  implementation (sets, dicts, one edge at a time) kept as the pinned
  reference for the property tests and the perf benchmark.  Trussness is a
  pure function of the graph (independent of peel order), so the two must
  agree exactly.

Both operate on the *canonical undirected edge list*: every edge once as
``(u, v)`` with ``u < v``, sorted lexicographically -- which is exactly the
storage order of the undirected CSR adjacency restricted to ``u < v``
entries, so canonical edge ids are stable across every layer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core import kernel_backend, kernels
from repro.graph.csr import CSRGraph
from repro.utils import prefix_sums

__all__ = [
    "TrussResult",
    "canonical_edges",
    "undirected_edge_supports",
    "truss_decomposition",
    "trussness_reference",
    "truss_summary_rows",
]

#: Bound on gathered adjacency entries per support batch, mirroring
#: :data:`repro.core.kernels.DEFAULT_BATCH_ENTRIES`'s cache rationale.
_SUPPORT_BATCH_EDGES = 65536


def canonical_edges(graph: CSRGraph) -> np.ndarray:
    """Every undirected edge once as ``(u, v)``, ``u < v``, lexicographically
    sorted (the canonical edge-id order shared by supports and trussness)."""
    if graph.directed:
        raise ValueError("canonical_edges expects the undirected CSR graph")
    edges = graph.edge_array()
    return edges[edges[:, 0] < edges[:, 1]]


def undirected_edge_supports(
    graph: CSRGraph,
    edges: np.ndarray | None = None,
    batch_edges: int = _SUPPORT_BATCH_EDGES,
) -> np.ndarray:
    """``|N(u) ∩ N(v)|`` for every canonical edge -- its triangle support.

    Evaluated with the shared intersection kernel
    (:func:`repro.core.kernels.edge_intersections`) in bounded batches.
    This is the standalone path; the analytics pipeline instead reuses the
    supports the PDTL run already accumulated.
    """
    if edges is None:
        edges = canonical_edges(graph)
    supports = np.zeros(edges.shape[0], dtype=np.int64)
    csr_keys = kernels.csr_packed_keys(graph.indptr, graph.indices)
    for lo in range(0, edges.shape[0], batch_edges):
        hi = min(lo + batch_edges, edges.shape[0])
        supports[lo:hi] = kernels.edge_intersections(
            graph.indptr,
            graph.indices,
            edges[lo:hi, 0],
            edges[lo:hi, 1],
            csr_keys=csr_keys,
            per_edge=True,
        )
    return supports


@dataclass
class TrussResult:
    """Edge trussness plus everything the report tables need.

    ``edges`` are the canonical undirected edges, ``trussness[i]`` the
    largest ``k`` whose k-truss contains ``edges[i]`` (``>= 2`` for every
    edge of a simple graph), ``support`` the *initial* per-edge supports
    the peeling started from, ``rounds`` the number of peel batches.
    ``tri_edges`` is the ``(T, 3)`` canonical-edge-id triangle table the
    peeling enumerated, retained only under
    ``truss_decomposition(..., keep_triangles=True)`` -- the state the
    dynamic-graph delta path (:mod:`repro.analytics.delta`) updates
    incrementally instead of re-enumerating.
    """

    num_vertices: int
    edges: np.ndarray
    trussness: np.ndarray
    support: np.ndarray
    rounds: int
    tri_edges: np.ndarray | None = None

    @property
    def num_edges(self) -> int:
        return int(self.edges.shape[0])

    @property
    def max_k(self) -> int:
        """The largest ``k`` with a non-empty k-truss, or ``0`` when the
        graph has no edges (every k-truss is empty, so no ``k`` qualifies --
        previously this returned the misleading sentinel ``2``)."""
        if self.trussness.shape[0] == 0:
            return 0
        return int(self.trussness.max())

    def truss_edge_mask(self, k: int) -> np.ndarray:
        """Boolean mask over canonical edges of the k-truss."""
        return self.trussness >= k

    def truss_subgraph(self, k: int) -> CSRGraph:
        """The k-truss as an undirected CSR graph on the original vertex ids."""
        from repro.graph.edgelist import EdgeList

        kept = self.edges[self.truss_edge_mask(k)]
        return CSRGraph.from_edgelist(EdgeList(kept, self.num_vertices))

    def summary_rows(self) -> list[dict[str, object]]:
        return truss_summary_rows(self.edges, self.trussness)


def truss_summary_rows(
    edges: np.ndarray, trussness: np.ndarray
) -> list[dict[str, object]]:
    """One row per truss level: edges peeled at ``k``, edges and vertices of
    the k-truss (the figure-style table
    :func:`repro.analysis.report.truss_summary_table` renders)."""
    rows: list[dict[str, object]] = []
    if trussness.shape[0] == 0:
        return rows
    max_k = int(trussness.max())
    for k in range(2, max_k + 1):
        mask = trussness >= k
        kept = edges[mask]
        vertices = np.unique(kept) if kept.shape[0] else np.empty(0, dtype=np.int64)
        rows.append(
            {
                "k": k,
                "edges_peeled_at_k": int(np.count_nonzero(trussness == k)),
                "truss_edges": int(np.count_nonzero(mask)),
                "truss_vertices": int(vertices.shape[0]),
            }
        )
    return rows


def _triangle_edge_ids(graph: CSRGraph, keys: np.ndarray) -> np.ndarray:
    """Every triangle as its three canonical edge ids, shape ``(T, 3)``.

    Enumerated with the shared MGT counting kernel's walk over the
    degree-based orientation (bounded out-degrees, so the gather volume
    obeys the arboricity bound of Theorem III.4), each adjacency slot
    mapped to its canonical id with one packed-key binary search (fused
    into a single compiled loop when the kernel tier provides one).
    """
    from repro.core.orientation import orient_csr

    oriented = orient_csr(graph)
    n = graph.num_vertices
    fused_ids = kernel_backend.fused("triangle_edge_ids")
    if n > kernels.MAX_PACKABLE_VERTICES:
        fused_ids = None  # let the numpy packed_keys path raise its PDTLError
    if fused_ids is not None:
        # per-source-vertex slices of the sorted key array confine each
        # fused lookup to its row instead of the whole edge list; one call
        # covers every vertex (the numpy batching only bounds peak gather
        # memory, which the fused loop never materialises)
        row_start = np.searchsorted(keys, np.arange(n + 1, dtype=np.int64) * n)
        return fused_ids(oriented.indptr, oriented.indices, keys, row_start, n, 0, n)
    sources = oriented.edge_sources()
    slot_ids = np.searchsorted(
        keys,
        kernels.packed_keys(
            np.minimum(sources, oriented.indices), np.maximum(sources, oriented.indices), n
        ),
    )
    return _walk_triangle_ids(oriented.indptr, oriented.indices, slot_ids)


def _run_orientation(
    graph: CSRGraph, oriented_edges: np.ndarray, edge_ids: np.ndarray, keys: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The run's oriented graph as CSR ``(indptr, indices)``, checked exactly.

    ``oriented_edges`` must be, entry for entry, the input's entries going
    up :func:`~repro.core.orientation.degree_order_keys` -- the one-pass
    orientation filter (the compiled ``orient_range`` or its numpy twin)
    over the whole input is compared with them -- and ``edge_ids`` must
    map each of them onto the canonical edge with its key among the
    strictly increasing ``keys``.  So an oriented edge that is reversed,
    missing, extra or repeated raises, and so does an id that is not the
    edge's.
    """
    from repro.core.orientation import _orient_range_numpy, degree_order_keys

    n = graph.num_vertices
    m = int(keys.shape[0])
    if oriented_edges.shape != (m, 2) or edge_ids.shape != (m,):
        raise ValueError(
            f"got {oriented_edges.shape[0]} oriented edges and {edge_ids.shape[0]} "
            f"edge ids for {m} canonical edges"
        )
    orient_range = kernel_backend.fused("orient_range") or _orient_range_numpy
    out_degrees, indices = orient_range(
        graph.indices, degree_order_keys(graph.degrees), graph.indptr, 0, n
    )
    sources = np.repeat(np.arange(n, dtype=np.int64), out_degrees)
    if not (
        np.array_equal(indices, oriented_edges[:, 1])
        and np.array_equal(sources, oriented_edges[:, 0])
    ):
        raise ValueError(
            "the oriented edges are not the graph's edges going up the degree order"
        )
    # each oriented edge's canonical key, built in place (the graph's keys
    # were packed with this n already)
    canonical = np.minimum(sources, indices)
    np.maximum(sources, indices, out=sources)
    canonical *= n
    canonical += sources
    if m and not (
        (keys[1:] > keys[:-1]).all()
        and 0 <= int(edge_ids.min())
        and int(edge_ids.max()) < m
        and np.array_equal(keys[edge_ids], canonical)
    ):
        raise ValueError(
            "the edge ids do not map the oriented edges onto strictly increasing "
            "canonical edges"
        )
    # a compact copy: the filter's output buffer holds every input entry
    return prefix_sums(out_degrees), indices.copy()


def _walk_triangle_ids(
    indptr: np.ndarray, indices: np.ndarray, slot_ids: np.ndarray
) -> np.ndarray:
    """Every triangle of an oriented CSR graph as its three canonical edge
    ids, shape ``(T, 3)``, given each adjacency slot's id (``slot_ids``).
    The compiled ``triangle_edge_ids`` takes the ids in place of its slot
    pass's searches; the numpy tier maps the positions
    :func:`_triangle_slots` reports, in bounded vertex batches."""
    n = int(indptr.shape[0] - 1)
    fused_ids = kernel_backend.fused("triangle_edge_ids")
    if fused_ids is not None:
        return fused_ids(indptr, indices, None, None, n, 0, n, slot_ids)
    parts: list[np.ndarray] = []
    for blo, bhi in kernels.iter_vertex_batches(indptr, 0, n):
        slots = _triangle_slots(indptr, indices, blo, bhi)
        if slots.shape[0]:
            parts.append(slot_ids[slots])
    if not parts:
        return np.empty((0, 3), dtype=np.int64)
    return np.concatenate(parts)


def _triangle_slots(
    indptr: np.ndarray, indices: np.ndarray, lo: int, hi: int
) -> np.ndarray:
    """The adjacency positions of the edges ``(u, v)``, ``(u, w)`` and
    ``(v, w)`` of every triangle with cone ``u`` in ``[lo, hi)``, shape
    ``(T, 3)``, in :func:`~repro.core.kernels.triangle_range`'s order: its
    gather and packed-key search, keeping where each hit was found."""
    n = int(indptr.shape[0] - 1)
    base = int(indptr[lo])
    block_adj = indices[base : int(indptr[hi])]
    entry_src = np.repeat(
        np.arange(hi - lo, dtype=np.int64), np.diff(indptr[lo : hi + 1])
    )
    vw, owners = kernels.segment_positions(
        indptr[block_adj], indptr[block_adj + 1] - indptr[block_adj]
    )
    uw, found = kernels.sorted_positions(
        kernels.packed_keys(entry_src, block_adj, n),
        kernels.packed_keys(entry_src[owners], indices[vw], n),
    )
    return np.stack((base + owners[found], base + uw[found], vw[found]), axis=1)


def _triple_edge_ids(
    keys: np.ndarray, a: np.ndarray, b: np.ndarray, c: np.ndarray, n: int
) -> np.ndarray:
    """Canonical ids of the edges ``(a, b)``, ``(a, c)``, ``(b, c)`` of every
    triangle ``(a[i], b[i], c[i])``, shape ``(T, 3)``: one packed-key binary
    search in the sorted canonical ``keys`` per edge slot."""
    tri = np.empty((a.shape[0], 3), dtype=np.int64)
    for slot, (x, y) in enumerate(((a, b), (a, c), (b, c))):
        queries = kernels.packed_keys(np.minimum(x, y), np.maximum(x, y), n)
        tri[:, slot] = np.searchsorted(keys, queries)
    return tri


def _incidence(tri_edges: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Edge → incident-triangle CSR ``(inc_ptr, inc_triangles)`` of a
    ``(T, 3)`` triangle table over ``m`` edges.

    One stable argsort of the ``3T`` slots (slot index // 3 is the owning
    triangle), or on the compiled tier one stable counting-sort pass --
    the same arrays bit for bit.
    """
    flat = tri_edges.reshape(-1)
    fused = kernel_backend.fused("incidence_csr")
    if fused is not None:
        return fused(flat, m)
    inc_ptr = np.zeros(m + 1, dtype=np.int64)
    np.cumsum(np.bincount(flat, minlength=m), out=inc_ptr[1:])
    return inc_ptr, np.argsort(flat, kind="stable") // 3


def _peel_level_numpy(
    k: int,
    alive: np.ndarray,
    support: np.ndarray,
    trussness: np.ndarray,
    inc_ptr: np.ndarray,
    inc_triangles: np.ndarray,
    tri_edges_flat: np.ndarray,
    tri_alive: np.ndarray,
) -> tuple[int, int]:
    """numpy twin of the compiled ``truss_peel_level``: every peel round of
    level ``k``, updating ``alive``, ``support``, ``trussness`` and
    ``tri_alive`` in place.  Returns ``(peeled, rounds)``.

    A round peels every alive edge with support ``<= k - 2`` at once and
    kills its still-alive incident triangles exactly once (``np.unique``
    -- a triangle losing two or three edges in one round still dies
    once); each dead triangle decrements its surviving edges.
    """
    tri_edges = tri_edges_flat.reshape(-1, 3)
    peeled = rounds = 0
    frontier = np.nonzero(alive & (support <= k - 2))[0]
    while frontier.shape[0]:
        rounds += 1
        peeled += int(frontier.shape[0])
        alive[frontier] = False
        trussness[frontier] = k
        starts = inc_ptr[frontier]
        gathered, _ = kernels.segment_gather(
            inc_triangles, starts, inc_ptr[frontier + 1] - starts
        )
        dead = np.unique(gathered[tri_alive[gathered]])
        tri_alive[dead] = False
        targets = tri_edges[dead].reshape(-1)
        np.subtract.at(support, targets[alive[targets]], 1)
        frontier = np.nonzero(alive & (support <= k - 2))[0]
    return peeled, rounds


def _peel(tri_edges: np.ndarray, support: np.ndarray, settled=None):
    """The level loop: peel from ``k = 2`` until every edge is peeled, or
    until ``settled(k, alive)`` says an earlier decomposition takes over.

    ``support`` holds the initial supports and is left unchanged.  When a
    level peels nothing, ``k`` jumps straight to ``2 + min(surviving
    support)``.  Returns ``(trussness, alive, rounds, levels)``: edges
    still alive when ``settled`` stopped the loop keep trussness ``0`` for
    the caller to fill in, ``rounds`` counts peel rounds and ``levels``
    the level scans run.
    """
    m = int(support.shape[0])
    support = support.copy()
    inc_ptr, inc_triangles = _incidence(tri_edges, m)
    flat = tri_edges.reshape(-1)
    peel_level = kernel_backend.fused("truss_peel_level") or _peel_level_numpy
    alive = np.ones(m, dtype=bool)
    tri_alive = np.ones(tri_edges.shape[0], dtype=bool)
    trussness = np.zeros(m, dtype=np.int64)
    rounds = levels = 0
    k = 2
    while alive.any():
        if settled is not None and settled(k, alive):
            break
        peeled, level_rounds = peel_level(
            k, alive, support, trussness, inc_ptr, inc_triangles, flat, tri_alive
        )
        rounds += level_rounds
        levels += 1
        k = k + 1 if peeled else max(k + 1, 2 + int(support[alive].min()))
    return trussness, alive, rounds, levels


def truss_decomposition(
    graph: CSRGraph,
    supports: np.ndarray | None = None,
    edges: np.ndarray | None = None,
    keep_triangles: bool = False,
    oriented_edges: np.ndarray | None = None,
    edge_ids: np.ndarray | None = None,
) -> TrussResult:
    """Vectorised k-truss peeling of an undirected CSR graph.

    Parameters
    ----------
    graph:
        the undirected graph (bidirectional CSR storage).
    supports:
        per-canonical-edge triangle supports to start from -- typically the
        merged output of a PDTL ``edge-support`` run.  The decomposition
        cross-checks them against its own triangle enumeration (they are
        the same integer quantity, so any mismatch means corrupt input and
        raises).
    edges:
        the canonical edge array the supports are aligned with; derived
        from ``graph`` when omitted.
    keep_triangles:
        retain the ``(T, 3)`` triangle table on the result
        (``TrussResult.tri_edges``) so the dynamic-graph delta path can
        update it incrementally instead of re-enumerating.
    oriented_edges, edge_ids:
        a PDTL run's orientation (``PDTLResult.oriented_edges``) and the
        canonical id of each of its edges, with ``edges`` (the analytics
        pipeline's canonicalise step holds all three).  The enumeration
        then walks that orientation with those ids after one exact check
        (:func:`_run_orientation`) instead of orienting the graph and
        searching every slot's id; without them it orients the graph
        itself (:func:`~repro.core.orientation.orient_csr`).

    Algorithm: classic support peeling (Wang & Cheng, "Truss decomposition
    in massive networks", PVLDB 2012), batched, with the triangle structure
    materialised up front.  One pass of the shared counting kernel yields
    every triangle's three canonical edge ids; initial supports are a
    ``bincount``; the level loop (:func:`_peel`) peels at level ``k``
    every surviving edge with support ``<= k - 2``, round after round,
    until the level is stable.
    """
    if graph.directed:
        raise ValueError("truss_decomposition expects the undirected CSR graph")
    if (oriented_edges is None) != (edge_ids is None) or (
        oriented_edges is not None and edges is None
    ):
        raise ValueError("oriented_edges and edge_ids come together, with edges")
    if edges is None:
        edges = canonical_edges(graph)
    m = int(edges.shape[0])
    n = graph.num_vertices
    keys = kernels.packed_keys(edges[:, 0], edges[:, 1], n)  # sorted by canon order

    if oriented_edges is None:
        tri_edges = _triangle_edge_ids(graph, keys)
    else:
        oriented_edges = np.asarray(oriented_edges, dtype=np.int64)
        edge_ids = np.asarray(edge_ids, dtype=np.int64)
        indptr, indices = _run_orientation(graph, oriented_edges, edge_ids, keys)
        tri_edges = _walk_triangle_ids(indptr, indices, edge_ids)
    support = np.bincount(tri_edges.reshape(-1), minlength=m).astype(np.int64)
    if supports is not None:
        supports = np.asarray(supports, dtype=np.int64)
        if supports.shape[0] != m:
            raise ValueError(
                f"got {supports.shape[0]} supports for {m} canonical edges"
            )
        if not np.array_equal(supports, support):
            raise ValueError(
                "given supports disagree with the graph's triangle counts"
            )
    trussness, _, rounds, _ = _peel(tri_edges, support)
    return TrussResult(
        num_vertices=n,
        edges=edges,
        trussness=trussness,
        support=support,
        rounds=rounds,
        tri_edges=tri_edges if keep_triangles else None,
    )


def trussness_reference(graph: CSRGraph) -> np.ndarray:
    """Scalar reference k-truss peeling (sets and dicts, one edge at a time).

    Kept deliberately close to the textbook formulation; the property tests
    and the ``analytics_truss`` perf benchmark pin
    :func:`truss_decomposition` against it.  Returns trussness aligned with
    :func:`canonical_edges` order.
    """
    if graph.directed:
        raise ValueError("trussness_reference expects the undirected CSR graph")
    adjacency = [set(map(int, graph.neighbors(v))) for v in range(graph.num_vertices)]
    edge_list = [(int(u), int(v)) for u, v in canonical_edges(graph)]
    support = {
        (u, v): len(adjacency[u] & adjacency[v]) for u, v in edge_list
    }
    trussness: dict[tuple[int, int], int] = {}
    k = 2
    while support:
        peeled_any = True
        while peeled_any:
            peeled_any = False
            for u, v in list(support):
                if support.get((u, v), k) <= k - 2 and (u, v) in support:
                    for z in adjacency[u] & adjacency[v]:
                        for other in ((min(u, z), max(u, z)), (min(v, z), max(v, z))):
                            if other in support:
                                support[other] -= 1
                    del support[(u, v)]
                    adjacency[u].discard(v)
                    adjacency[v].discard(u)
                    trussness[(u, v)] = k
                    peeled_any = True
        k += 1
    return np.array([trussness[e] for e in edge_list], dtype=np.int64)
