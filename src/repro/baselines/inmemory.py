"""In-memory reference triangle counters.

Two classic algorithms, both exact:

* **node-iterator**: for every vertex ``v`` and every pair of neighbours
  ``u < w`` of ``v``, test whether ``(u, w)`` is an edge.  Simple and the
  easiest to convince oneself is correct, so it is the ultimate reference
  in the tests (on small graphs).
* **compact-forward** (Latapy 2008): orient the graph by the degree order
  and, for every oriented edge ``(u, v)``, count
  ``|N⁺(u) ∩ N⁺(v)|`` with a sorted-array merge.  This is the same
  counting identity MGT uses, evaluated fully in memory; it is fast enough
  to act as the reference on every graph the benchmarks touch.

The compact-forward family is evaluated with the shared vectorised kernels
of :mod:`repro.core.kernels`: whole vertex ranges are processed per call
(segment gather + one packed-key binary search) instead of one interpreted
loop iteration per edge.  ``node_iterator_count`` intentionally stays a
plain per-vertex loop -- it is the convince-yourself-by-reading reference
the vectorised paths are tested against (see also
:mod:`repro.baselines.reference_impl`).

Both operate directly on :class:`~repro.graph.csr.CSRGraph` and never touch
disk; they are *not* external-memory algorithms and exist purely as
correctness references and as the in-memory leg of the comparisons.
"""

from __future__ import annotations

import numpy as np

from repro.core import kernels
from repro.core.orientation import orient_csr
from repro.graph.csr import CSRGraph

__all__ = [
    "node_iterator_count",
    "forward_count",
    "per_vertex_triangle_counts",
    "reference_triangle_count",
    "forward_list",
]


def node_iterator_count(graph: CSRGraph) -> int:
    """Exact triangle count by the node-iterator algorithm (O(Σ d(v)²))."""
    if graph.directed:
        raise ValueError("node_iterator_count expects an undirected graph")
    count = 0
    for v in range(graph.num_vertices):
        nbrs = graph.neighbors(v)
        deg = nbrs.shape[0]
        if deg < 2:
            continue
        for i in range(deg):
            u = int(nbrs[i])
            if u <= v:
                continue
            # neighbours w of v with w > u, check edge (u, w)
            rest = nbrs[i + 1 :]
            rest = rest[rest > u]
            if rest.shape[0] == 0:
                continue
            u_nbrs = graph.neighbors(u)
            pos = np.searchsorted(u_nbrs, rest)
            pos = np.minimum(pos, u_nbrs.shape[0] - 1)
            count += int(np.count_nonzero(u_nbrs[pos] == rest))
    return count


def forward_count(graph: CSRGraph) -> int:
    """Exact triangle count by the compact-forward algorithm.

    Orients by the degree order then counts ``|N⁺(u) ∩ N⁺(v)|`` over all
    oriented edges ``(u, v)``, whole vertex ranges per kernel call.
    """
    if graph.directed:
        oriented = graph
    else:
        oriented = orient_csr(graph)
    return kernels.count_cone_range(oriented.indptr, oriented.indices)


def forward_list(graph: CSRGraph) -> set[frozenset[int]]:
    """Exact triangle *listing* (as unordered vertex sets) by compact-forward."""
    oriented = graph if graph.directed else orient_csr(graph)
    triangles: set[frozenset[int]] = set()
    indptr, indices = oriented.indptr, oriented.indices
    for lo, hi in kernels.iter_vertex_batches(indptr, 0, oriented.num_vertices):
        cones, vs, ws, _ = kernels.triangle_range(indptr, indices, lo, hi, kernels.EMIT_TRIPLES)
        triangles.update(
            frozenset(t) for t in zip(cones.tolist(), vs.tolist(), ws.tolist())
        )
    return triangles


def per_vertex_triangle_counts(graph: CSRGraph) -> np.ndarray:
    """Per-vertex triangle participation counts (reference for the per-vertex sink)."""
    if graph.directed:
        raise ValueError("per_vertex_triangle_counts expects an undirected graph")
    oriented = orient_csr(graph)
    counts = np.zeros(graph.num_vertices, dtype=np.int64)
    indptr, indices = oriented.indptr, oriented.indices
    for lo, hi in kernels.iter_vertex_batches(indptr, 0, oriented.num_vertices):
        cones, vs, ws, _ = kernels.triangle_range(indptr, indices, lo, hi, kernels.EMIT_TRIPLES)
        if cones.shape[0] == 0:
            continue
        # O(hits) scatter-add; a bincount(minlength=n) per batch would make
        # the accumulation O(n * num_batches) on large sparse graphs
        np.add.at(counts, np.concatenate([cones, vs, ws]), 1)
    return counts


def reference_triangle_count(graph: CSRGraph) -> int:
    """The reference count used across the test suite (compact-forward)."""
    return forward_count(graph)
