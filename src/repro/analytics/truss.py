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
  PVLDB 2012).  The triangles are enumerated **once**, on one path
  (:func:`_triangle_table`): the graph is oriented by the degree order,
  the shared MGT counting kernel
  (:func:`~repro.core.kernels.triangle_range`) walks the orientation and
  reports each triangle's three adjacency positions, and one sort of the
  oriented edges' canonical keys gives every position its canonical edge
  id (:func:`_canonical_ids`).  A PDTL run's orientation, which
  :func:`~repro.analytics.run_analytics` passes with the run's supports,
  is checked against that orientation entry for entry.  Then an
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
  graph path (:mod:`repro.analytics.delta`) reuses the triangle table,
  the incidence builder and the level loop.
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


def _canonical_ids(
    sources: np.ndarray, destinations: np.ndarray, num_vertices: int
) -> tuple[np.ndarray, np.ndarray]:
    """``(edges, ids)`` of an oriented edge list holding every undirected
    edge once: the canonical edges (``(min, max)`` pairs, lexicographically
    sorted) and ``ids[p]``, the canonical id of oriented edge ``p`` -- the
    inverse of the sort that orders them."""
    low = np.minimum(sources, destinations)
    high = np.maximum(sources, destinations)
    order = np.argsort(kernels.packed_keys(low, high, num_vertices))
    ids = np.empty_like(order)
    ids[order] = np.arange(order.shape[0])
    return np.stack([low[order], high[order]], axis=1), ids


def _triangle_table(
    graph: CSRGraph, oriented_edges: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(edges, ids, tri_edges)``: the canonical edges, the canonical id of
    each oriented edge (:func:`_canonical_ids`) and every triangle as its
    three canonical edge ids, shape ``(T, 3)``.

    The graph is oriented up :func:`~repro.core.orientation.degree_order_keys`
    by the one-pass orientation filter (the compiled ``orient_range`` or its
    numpy twin), whose bounded out-degrees keep the walk's gather volume
    within the arboricity bound of Theorem III.4.
    :func:`~repro.core.kernels.triangle_range` walks it once, reporting each
    triangle's three adjacency positions, and the ids are taken at them.
    ``oriented_edges``, a PDTL run's orientation, must be the filter's
    output entry for entry, so an oriented edge that is reversed, missing,
    extra or repeated raises.
    """
    from repro.core.orientation import _orient_range_numpy, degree_order_keys

    n = graph.num_vertices
    orient_range = kernel_backend.fused("orient_range") or _orient_range_numpy
    out_degrees, indices, _ = orient_range(
        graph.indices, degree_order_keys(graph.degrees), graph.indptr, 0, n,
        np.empty(n, dtype=np.int64), np.empty(graph.num_edges, dtype=np.int64),
    )
    sources = np.repeat(np.arange(n, dtype=np.int64), out_degrees)
    if oriented_edges is not None:
        oriented_edges = np.asarray(oriented_edges)
        if not (
            oriented_edges.shape == (indices.shape[0], 2)
            and np.array_equal(indices, oriented_edges[:, 1])
            and np.array_equal(sources, oriented_edges[:, 0])
        ):
            raise ValueError(
                "the oriented edges are not the graph's edges going up the degree order"
            )
    edges, ids = _canonical_ids(sources, indices, n)
    indptr = prefix_sums(out_degrees)
    walk = kernel_backend.fused("triangle_range")
    if walk is not None:
        # the C walk keeps no per-batch scratch, so it takes every cone at once
        slots = walk(indptr, indices, 0, n, kernels.EMIT_POSITIONS)[0]
    else:
        parts = [
            kernels.triangle_range(indptr, indices, lo, hi, kernels.EMIT_POSITIONS)[0]
            for lo, hi in kernels.iter_vertex_batches(indptr, 0, n)
        ]
        slots = np.concatenate(parts) if parts else np.empty((0, 3), dtype=np.int64)
    return edges, ids, ids.take(slots)


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
    keep_triangles: bool = False,
    oriented_edges: np.ndarray | None = None,
) -> TrussResult:
    """Vectorised k-truss peeling of an undirected CSR graph.

    Parameters
    ----------
    graph:
        the undirected graph (bidirectional CSR storage).
    supports:
        per-edge triangle supports to start from -- typically the merged
        output of a PDTL ``edge-support`` run -- aligned with the canonical
        edges, or with ``oriented_edges`` when those are given.  The
        decomposition cross-checks them against its own triangle
        enumeration (they are the same integer quantity, so any mismatch
        means corrupt input and raises).
    keep_triangles:
        retain the ``(T, 3)`` triangle table on the result
        (``TrussResult.tri_edges``) so the dynamic-graph delta path can
        update it incrementally instead of re-enumerating.
    oriented_edges:
        a PDTL run's orientation (``PDTLResult.oriented_edges``), which the
        run's supports follow.  It is checked entry for entry against the
        graph's own orientation (:func:`_triangle_table`), and the supports
        are scattered into canonical order before the cross-check.

    Algorithm: classic support peeling (Wang & Cheng, "Truss decomposition
    in massive networks", PVLDB 2012), batched, with the triangle structure
    materialised up front.  One walk of the shared counting kernel yields
    every triangle's three canonical edge ids; initial supports are a
    ``bincount``; the level loop (:func:`_peel`) peels at level ``k``
    every surviving edge with support ``<= k - 2``, round after round,
    until the level is stable.
    """
    if graph.directed:
        raise ValueError("truss_decomposition expects the undirected CSR graph")
    edges, ids, tri_edges = _triangle_table(graph, oriented_edges)
    m = int(edges.shape[0])
    support = np.bincount(tri_edges.reshape(-1), minlength=m).astype(np.int64)
    if supports is not None:
        supports = np.asarray(supports, dtype=np.int64)
        if supports.shape[0] != m:
            raise ValueError(
                f"got {supports.shape[0]} supports for {m} canonical edges"
            )
        if oriented_edges is not None:
            canonical = np.empty_like(supports)
            canonical[ids] = supports
            supports = canonical
        if not np.array_equal(supports, support):
            raise ValueError(
                "given supports disagree with the graph's triangle counts"
            )
    trussness, _, rounds, _ = _peel(tri_edges, support)
    return TrussResult(
        num_vertices=graph.num_vertices,
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
