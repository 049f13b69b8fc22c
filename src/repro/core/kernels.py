"""Shared vectorised sorted-intersection kernels.

Every hot path of this reproduction ultimately evaluates the same primitive:
given a graph whose adjacency is sorted by (source, destination), decide for
a batch of candidate pairs ``(u, w)`` whether the edge ``(u, w)`` exists --
the sorted-array intersection at the core of the modified MGT (section
IV-A1 of the paper) and of every in-memory baseline.  Before this module
existed, MGT evaluated it with batched numpy inside
:meth:`~repro.core.mgt.MGTWorker._process_block` while the five baselines
re-derived it one vertex at a time in interpreted loops, one Python
bytecode dispatch per edge.

This module extracts the machinery into free functions so every layer
shares one implementation:

* :func:`packed_keys` / :func:`csr_packed_keys` -- encode ``(source,
  destination)`` pairs as single monotone int64 keys, turning pair
  membership into a plain binary search;
* :func:`sorted_membership` -- one ``searchsorted`` answering membership
  for a whole query batch (:func:`sorted_positions` also says where each
  hit sits);
* :func:`segment_gather` -- gather many adjacency segments into one flat
  array with ``repeat``/``cumsum`` arithmetic (no per-segment loop), and
  :func:`segment_positions` the positions it gathers from;
* :func:`triangle_range` / :func:`count_cone_range` -- the full MGT
  counting identity ``Σ_{u ∈ [lo,hi)} Σ_{v ∈ N⁺(u)} |N⁺(u) ∩ N⁺(v)|``
  evaluated for a whole contiguous cone-vertex range per call, which
  :func:`triangle_range` can also list as triples or as the adjacency
  positions of each triangle's three edges (the one oriented-triangle walk
  of the in-memory baselines and the truss decomposition);
* :func:`edge_intersections` -- the same identity for an arbitrary batch
  of oriented edges (the PowerGraph vertex-cut layout, where a machine's
  edges are not a contiguous range).

All functions are pure and operate on plain numpy arrays, so they serve
the in-memory baselines, the external-memory MGT inner loop (which gathers
from its window array instead of the full adjacency), and the tests alike.

Dispatch seam
-------------

Each batch primitive below but :func:`sorted_membership` (numpy's own
binary search: a C twin was no faster on the small batches the delta path
looks up) may be routed to a compiled implementation installed by
:mod:`repro.core.kernel_backend` (C loops from
:mod:`repro.core.kernels_cffi` that fuse the gather → intersect → count
chain without the intermediate arrays).  The numpy bodies live on as
``_*_numpy`` twins -- they are the always-available fallback when the C
tier cannot be built, and the reference the C tier is self-checked and
property-tested against (:data:`NUMPY_IMPLS`).  Compiled or not,
every implementation must return bit-identical values: same counts, same
element order, same deterministic ``operations`` work measure.
"""

from __future__ import annotations

import numpy as np

from repro.errors import GraphFormatError, PDTLError

__all__ = [
    "DEFAULT_BATCH_ENTRIES",
    "EMIT_COUNT",
    "EMIT_POSITIONS",
    "EMIT_TRIPLES",
    "MAX_PACKABLE_VERTICES",
    "NUMPY_IMPLS",
    "packed_keys",
    "csr_packed_keys",
    "window_sources",
    "sorted_membership",
    "sorted_positions",
    "segment_gather",
    "segment_positions",
    "iter_vertex_batches",
    "triangle_range",
    "count_cone_range",
    "edge_intersections",
    "edge_common_neighbors",
]

#: The C tier's implementations installed by :func:`repro.core.kernel_backend.activate`,
#: keyed by kernel name.  Empty under the numpy tier.  Callers never touch
#: this directly -- the public functions consult it via :func:`_impl`.
_ACTIVE_IMPLS: dict = {}

#: Set once :mod:`repro.core.kernel_backend` has resolved a backend (even if
#: the resolution was "numpy, nothing to install").  Guards the lazy
#: auto-detection so steady-state dispatch is a single dict lookup.
_BACKEND_READY = False


def _impl(name: str):
    """Active compiled implementation of ``name``, or ``None`` for numpy.

    On first use triggers :func:`repro.core.kernel_backend.initialize_default`
    so plain library users (no env var, no explicit tier) transparently get the
    best available tier.
    """
    if not _BACKEND_READY:
        from repro.core import kernel_backend

        kernel_backend.initialize_default()
    return _ACTIVE_IMPLS.get(name)

#: Default bound on adjacency entries per :func:`triangle_range` batch.  The
#: batch's packed-key array is the haystack of a binary search probed once
#: per gathered element, so keeping it L1/L2-resident (8192 entries = 64 KB)
#: measurably beats larger batches while still amortising numpy dispatch
#: overhead over thousands of edges per call.
DEFAULT_BATCH_ENTRIES = 8192

#: What :func:`triangle_range` and the MGT scan kernels report for their hits
#: (their ``emit`` argument): the hit count only, the ``(cone, v, w)``
#: triples, or each triangle's three adjacency positions -- those of
#: ``(cone, v)``, ``(cone, w)`` and ``(v, w)``, the entries the walk read to
#: find it -- for the edge-support sink to credit and the truss to map to
#: edge ids.
EMIT_COUNT, EMIT_TRIPLES, EMIT_POSITIONS = 0, 1, 2

#: Largest ``num_vertices`` whose packed keys fit int64.  The packing maps
#: ``(source, destination)`` with both ids below ``n`` to ``source * n +
#: destination <= n**2 - 1``, so the requirement is ``n**2 <= 2**63``:
#: ``3037000499**2 == 9223372030926249001 <= 2**63 - 1`` while
#: ``3037000500**2`` already overflows.
MAX_PACKABLE_VERTICES = 3037000499

#: Largest ``num_vertices`` whose ids fit int32, the dtype of the
#: shared-memory in-lists' sources: the ids run up to ``2**31 - 1``.
MAX_INT32_VERTICES = 2**31


def packed_keys(
    sources: np.ndarray, destinations: np.ndarray, num_vertices: int
) -> np.ndarray:
    """Pack ``(source, destination)`` pairs into single int64 keys.

    The packing ``source * n + destination`` is strictly monotone in the
    lexicographic pair order whenever ``0 <= destination < n``, so packed
    keys of a (source, destination)-sorted edge set are themselves sorted.

    Raises :class:`~repro.errors.PDTLError` when ``num_vertices`` exceeds
    :data:`MAX_PACKABLE_VERTICES` -- beyond that the products silently wrap
    around int64 and the "monotone, therefore sorted" guarantee every caller
    builds on is gone.
    """
    if num_vertices > MAX_PACKABLE_VERTICES:
        raise PDTLError(
            f"cannot pack (source, destination) pairs for num_vertices="
            f"{num_vertices}: keys source * num_vertices + destination exceed "
            f"int64 once num_vertices > {MAX_PACKABLE_VERTICES} "
            f"(num_vertices**2 - 1 must stay <= 2**63 - 1), and wrapped keys "
            f"would break the sorted-key membership tests"
        )
    return np.asarray(sources, dtype=np.int64) * np.int64(num_vertices) + np.asarray(
        destinations, dtype=np.int64
    )


def _require_int32_ids(num_vertices: int) -> None:
    """The bound of the shared-memory in-lists, which store vertex ids as
    int32: every id below ``num_vertices`` must fit."""
    if num_vertices > MAX_INT32_VERTICES:
        raise PDTLError(
            f"cannot store the in-neighbour lists of num_vertices={num_vertices} "
            f"as int32: ids reach {num_vertices - 1}, above 2**31 - 1"
        )


def _require_vertex_ids(ids: np.ndarray, num_vertices: int) -> None:
    """Raise the C walks' :class:`~repro.errors.GraphFormatError` at the
    first id outside ``[0, num_vertices)``: a large one would index past
    ``indptr``, a negative one from its end, and its packed key could alias
    a real edge's."""
    if ids.shape[0] and (ids.min() < 0 or ids.max() >= num_vertices):
        bad = ids[(ids < 0) | (ids >= num_vertices)]
        raise GraphFormatError(
            f"adjacency list holds vertex id {int(bad[0])} outside [0, {num_vertices})"
        )


def require_edge_endpoints(indptr: np.ndarray, us: np.ndarray, vs: np.ndarray) -> None:
    """Refuse an edge batch before any read, on both tiers: ``us`` and
    ``vs`` must pair up, and every endpoint must be a vertex id of the
    graph.  An id outside ``[0, n)`` would read ``indptr`` past its end
    (or, negative, from it), and a shorter ``vs`` would be read past."""
    if us.shape != vs.shape:
        raise ValueError("us and vs must have the same length")
    if us.shape[0] and (
        min(us.min(), vs.min()) < 0 or max(us.max(), vs.max()) >= indptr.shape[0] - 1
    ):
        raise IndexError("edge endpoints must be vertex ids of the graph")


def csr_packed_keys(indptr: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """Packed keys of every stored edge of a CSR graph, in storage order.

    Because CSR storage is source-major with destination-sorted lists, the
    result is a sorted array usable directly as a :func:`sorted_membership`
    haystack for whole-graph edge-existence queries.
    """
    num_vertices = int(indptr.shape[0] - 1)
    sources = np.repeat(
        np.arange(num_vertices, dtype=np.int64), np.diff(indptr).astype(np.int64)
    )
    return packed_keys(sources, indices, num_vertices)


def window_sources(offsets: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Per-entry source vertex of the adjacency slice covering ``[lo, hi)``.

    ``offsets`` are the exclusive prefix sums of the degree array (CSR
    ``indptr``); the result aligns with
    ``adjacency[offsets[lo] : offsets[hi]]``.  This is the repeat/cumsum
    idiom of :func:`csr_packed_keys` exposed for arbitrary vertex windows --
    the orientation scan and the shared-memory publisher both derive their
    per-entry sources from it.
    """
    degrees = (offsets[lo + 1 : hi + 1] - offsets[lo:hi]).astype(np.int64)
    return np.repeat(np.arange(lo, hi, dtype=np.int64), degrees)


def sorted_membership(haystack: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Boolean mask: which ``queries`` occur in the sorted array ``haystack``.

    One vectorised binary search for the whole batch -- the packed-key
    twin of the per-element sorted-array intersection the paper's modified
    MGT performs.
    """
    return sorted_positions(haystack, queries)[1]


def sorted_positions(
    haystack: np.ndarray, queries: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``(positions, found)``: the ``np.searchsorted`` position of every
    query in the sorted ``haystack`` (clipped into range) and whether the
    query sits there -- membership that also says where each hit is."""
    if queries.shape[0] == 0 or haystack.shape[0] == 0:
        return (
            np.zeros(queries.shape[0], dtype=np.int64),
            np.zeros(queries.shape[0], dtype=bool),
        )
    pos = np.searchsorted(haystack, queries)
    np.minimum(pos, haystack.shape[0] - 1, out=pos)
    return pos, haystack[pos] == queries


def segment_positions(
    starts: np.ndarray, lengths: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The positions ``starts[i] .. starts[i] + lengths[i] - 1`` of every
    segment, concatenated, and the segment index of each: ``(positions,
    owners)``, by ``repeat``/``cumsum`` index arithmetic -- no Python-level
    loop over segments."""
    lengths = np.asarray(lengths, dtype=np.int64)
    starts = np.asarray(starts, dtype=np.int64)
    total = int(lengths.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    bounds = np.zeros(lengths.shape[0] + 1, dtype=np.int64)
    np.cumsum(lengths, out=bounds[1:])
    positions = np.repeat(starts - bounds[:-1], lengths) + np.arange(
        total, dtype=np.int64
    )
    owners = np.repeat(np.arange(lengths.shape[0], dtype=np.int64), lengths)
    return positions, owners


def segment_gather(
    data: np.ndarray, starts: np.ndarray, lengths: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Gather ``data[starts[i] : starts[i] + lengths[i]]`` for all ``i`` at once.

    Returns ``(values, owners)`` where ``values`` is the concatenation of
    all segments and ``owners[j]`` is the segment index each value came
    from (:func:`segment_positions` gives the positions themselves).
    """
    positions, owners = segment_positions(starts, lengths)
    return data[positions], owners


def iter_vertex_batches(
    indptr: np.ndarray,
    lo: int,
    hi: int,
    batch_entries: int = DEFAULT_BATCH_ENTRIES,
):
    """Split the vertex range ``[lo, hi)`` into sub-ranges of bounded adjacency size.

    Each yielded ``(blo, bhi)`` covers at least one vertex and at most
    ``batch_entries`` adjacency entries (more only when a single vertex's
    list alone exceeds the bound), so the scratch arrays of
    :func:`triangle_range` stay bounded regardless of graph size.
    """
    if batch_entries <= 0:
        raise ValueError("batch_entries must be positive")
    blo = lo
    while blo < hi:
        target = int(indptr[blo]) + batch_entries
        bhi = int(np.searchsorted(indptr, target, side="right")) - 1
        bhi = max(bhi, blo + 1)
        bhi = min(bhi, hi)
        yield blo, bhi
        blo = bhi


def triangle_range(
    indptr: np.ndarray,
    indices: np.ndarray,
    lo: int,
    hi: int,
    emit: int = EMIT_COUNT,
) -> tuple:
    """Evaluate the MGT counting identity for every cone vertex in ``[lo, hi)``.

    For an *oriented* CSR graph (``indptr``/``indices`` sorted by source and
    destination), finds every triangle ``(u, v, w)`` with ``u ∈ [lo, hi)``,
    ``v ∈ N⁺(u)`` and ``w ∈ N⁺(u) ∩ N⁺(v)``, entirely with array
    operations: one segment gather of all ``N⁺(v)`` lists and one packed-key
    binary search against the range's own (sorted) adjacency.

    ``emit`` says what it reports, as for the MGT scans: ``(count,
    operations)`` under :data:`EMIT_COUNT`; ``(cones, vs, ws, operations)``
    with aligned triple arrays under :data:`EMIT_TRIPLES`; and under
    :data:`EMIT_POSITIONS` ``(positions, operations)``, where row ``i`` of
    the ``(T, 3)`` ``positions`` holds the adjacency positions of triple
    ``i``'s edges ``(u, v)``, ``(u, w)`` and ``(v, w)``.  ``operations``
    counts block entries scanned plus gathered elements -- the same
    deterministic work measure MGT's modelled CPU mode uses.  An id the walk
    reads outside ``[0, n)`` raises :class:`~repro.errors.GraphFormatError`
    on either tier.
    """
    impl = _impl("triangle_range")
    if impl is not None:
        return impl(indptr, indices, lo, hi, emit)
    return _triangle_range_numpy(indptr, indices, lo, hi, emit)


def _triangle_range_numpy(
    indptr: np.ndarray,
    indices: np.ndarray,
    lo: int,
    hi: int,
    emit: int = EMIT_COUNT,
) -> tuple:
    num_vertices = int(indptr.shape[0] - 1)
    base = int(indptr[lo])
    block_adj = indices[base : int(indptr[hi])]
    _require_vertex_ids(block_adj, num_vertices)
    degrees = (indptr[lo + 1 : hi + 1] - indptr[lo:hi]).astype(np.int64)
    entry_src = np.repeat(np.arange(hi - lo, dtype=np.int64), degrees)

    # gather N⁺(v) for every adjacency entry (u, v) of the range
    vw, owners = segment_positions(
        indptr[block_adj], indptr[block_adj + 1] - indptr[block_adj]
    )
    ev_all = indices[vw]
    _require_vertex_ids(ev_all, num_vertices)
    operations = int(block_adj.shape[0]) + int(ev_all.shape[0])

    # membership w ∈ N⁺(u) via one binary search on packed (u, w) keys;
    # the keys are sorted because the range adjacency is (u, w)-sorted,
    # and the search also says where each (u, w) sits
    uw, found = sorted_positions(
        packed_keys(entry_src, block_adj, num_vertices),
        packed_keys(entry_src[owners], ev_all, num_vertices),
    )

    if emit == EMIT_POSITIONS:
        positions = np.stack((base + owners[found], base + uw[found], vw[found]), axis=1)
        return positions, operations
    if emit == EMIT_TRIPLES:
        hit_owner = owners[found]
        cones = entry_src[hit_owner] + np.int64(lo)
        return cones, block_adj[hit_owner], ev_all[found], operations
    return int(np.count_nonzero(found)), operations


def count_cone_range(
    indptr: np.ndarray,
    indices: np.ndarray,
    lo: int = 0,
    hi: int | None = None,
    batch_entries: int = DEFAULT_BATCH_ENTRIES,
) -> int:
    """Triangle count with cone vertex in ``[lo, hi)``, batched over sub-ranges.

    This is the drop-in replacement for the baselines' per-vertex loops:
    whole vertex ranges per call, bounded scratch memory via
    :func:`iter_vertex_batches`.
    """
    hi = int(indptr.shape[0] - 1) if hi is None else hi
    impl = _impl("triangle_range")
    if impl is not None:
        # the compiled count keeps no per-batch scratch, so it takes the
        # whole range in one call; batch_entries only shapes the numpy loop
        return impl(indptr, indices, lo, hi)[0]
    total = 0
    for blo, bhi in iter_vertex_batches(indptr, lo, hi, batch_entries):
        count, _ = _triangle_range_numpy(indptr, indices, blo, bhi)
        total += count
    return total


def edge_intersections(
    indptr: np.ndarray,
    indices: np.ndarray,
    us: np.ndarray,
    vs: np.ndarray,
    csr_keys: np.ndarray | None = None,
    per_edge: bool = False,
):
    """``|N⁺(u) ∩ N⁺(v)|`` for an arbitrary batch of oriented edges.

    Unlike :func:`triangle_range` the cone vertices need not form a
    contiguous range, so membership is tested against the packed keys of
    the *whole* graph (pass ``csr_keys`` to amortise
    :func:`csr_packed_keys` across calls).  Returns the total count, or a
    per-edge count array with ``per_edge=True``.  Unequal batch lengths
    raise ``ValueError`` and an endpoint outside the graph ``IndexError``
    (:func:`require_edge_endpoints`), on either tier.

    ``csr_keys``, when given, must equal ``csr_packed_keys(indptr, indices)``
    -- it is a cache, not an independent input; the compiled tier intersects
    the adjacency lists directly and never materialises the keys.
    """
    us = np.asarray(us, dtype=np.int64)
    vs = np.asarray(vs, dtype=np.int64)
    impl = _impl("edge_intersections")
    if impl is not None:
        return impl(indptr, indices, us, vs, per_edge)
    return _edge_intersections_numpy(indptr, indices, us, vs, csr_keys, per_edge)


def _edge_intersections_numpy(
    indptr: np.ndarray,
    indices: np.ndarray,
    us: np.ndarray,
    vs: np.ndarray,
    csr_keys: np.ndarray | None = None,
    per_edge: bool = False,
):
    us = np.asarray(us, dtype=np.int64)
    vs = np.asarray(vs, dtype=np.int64)
    require_edge_endpoints(indptr, us, vs)
    if csr_keys is None:
        csr_keys = csr_packed_keys(indptr, indices)
    num_vertices = int(indptr.shape[0] - 1)
    seg_starts = indptr[vs]
    seg_lengths = (indptr[vs + 1] - indptr[vs]).astype(np.int64)
    ev_all, owners = segment_gather(indices, seg_starts, seg_lengths)
    found = sorted_membership(
        csr_keys, packed_keys(us[owners], ev_all, num_vertices)
    )
    if per_edge:
        return np.bincount(owners[found], minlength=us.shape[0])
    return int(np.count_nonzero(found))


def edge_common_neighbors(
    indptr: np.ndarray,
    indices: np.ndarray,
    us: np.ndarray,
    vs: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """``N(u) ∩ N(v)`` for an arbitrary batch of edges, with provenance.

    The enumeration twin of :func:`edge_intersections`: instead of counting
    the common neighbours it returns them, as ``(owners, ws)`` where
    ``owners[j]`` is the batch index of the edge whose intersection produced
    ``ws[j]``.  Emission order is owner-major with ``ws`` ascending within
    each owner (the order ``N(v)`` is stored in), identical across tiers.
    This is the primitive of the dynamic-graph delta path: the triangles
    through a touched edge ``(u, v)`` are exactly its common neighbours.

    The compiled tier intersects the adjacency lists directly; the numpy
    twin tests membership against the whole graph's packed keys, which it
    builds per call.  Both refuse a batch as :func:`edge_intersections`
    does.
    """
    us = np.asarray(us, dtype=np.int64)
    vs = np.asarray(vs, dtype=np.int64)
    impl = _impl("edge_common_neighbors")
    if impl is not None:
        return impl(indptr, indices, us, vs)
    return _edge_common_neighbors_numpy(indptr, indices, us, vs)


def _edge_common_neighbors_numpy(
    indptr: np.ndarray,
    indices: np.ndarray,
    us: np.ndarray,
    vs: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    us = np.asarray(us, dtype=np.int64)
    vs = np.asarray(vs, dtype=np.int64)
    require_edge_endpoints(indptr, us, vs)
    csr_keys = csr_packed_keys(indptr, indices)
    num_vertices = int(indptr.shape[0] - 1)
    seg_starts = indptr[vs]
    seg_lengths = (indptr[vs + 1] - indptr[vs]).astype(np.int64)
    ev_all, owners = segment_gather(indices, seg_starts, seg_lengths)
    found = sorted_membership(
        csr_keys, packed_keys(us[owners], ev_all, num_vertices)
    )
    return owners[found], ev_all[found]


#: The pure-numpy reference implementation of every dispatched primitive,
#: by registry name.  The C tier is property-tested against these twins, and
#: the probe in :mod:`repro.core.kernel_backend` refuses the whole tier when
#: any C kernel disagrees with its twin on a miniature graph.
NUMPY_IMPLS = {
    "triangle_range": _triangle_range_numpy,
    "edge_intersections": _edge_intersections_numpy,
    "edge_common_neighbors": _edge_common_neighbors_numpy,
}
