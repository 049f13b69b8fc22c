"""Dynamic graphs: batch edge mutations with incremental truss maintenance.

The engine so far serves static snapshots: every query re-runs the full
pipeline.  This module adds the mutation path the ROADMAP carries from
PR 5 -- edge supports merge *exactly* (integer addition over sparse
positions in :class:`~repro.core.triangles.EdgeSupportSink`), so an
insertion/deletion batch only needs

1. the triangles through the **touched edges** re-enumerated (the
   common-neighbour kernel :func:`repro.core.kernels.edge_common_neighbors`
   for insertions, one gather over the retained triangle table for
   deletions),
2. the support deltas merged into the retained sink state
   (:meth:`EdgeSupportSink.merge_delta`, exact signed integer addition), and
3. only the **affected part** of the truss decomposition recomputed: a
   local downward fixpoint over the touched cascade for deletion-only
   batches, a truncated peel replay otherwise.

Fixpoint soundness (deletion-only batches)
------------------------------------------

Trussness is the greatest fixpoint of the local operator

    ``H(tau)(e) = max { k : #{triangles r of e with
                             min(tau of the other two edges) >= k} >= k-2 }``

*Any* fixpoint ``sigma`` of ``H`` satisfies ``sigma <= tau``: each edge of
``S_k = {e : sigma(e) >= k}`` has at least ``k-2`` triangles lying inside
``S_k``, so ``S_k`` is contained in the maximal ``k``-truss.  Conversely
the true decomposition is itself a fixpoint.  Deleting edges can only
*decrease* trussness, so the old values are a pointwise upper bound, and
``H`` can initially have dropped only at edges that lost a triangle --
the surviving members of the removed rows.  Iterating ``new tau(e) =
min(tau(e), H(tau)(e))`` from that seed worklist, pushing the row-mates
of every edge that drops, therefore converges to the greatest fixpoint
under the old values: the exact new decomposition.

Each round's work is proportional to the incident rows of its worklist,
not to the graph, but a cascade through a deep truss re-evaluates the
same edges over many rounds, since every demotion pushes its row-mates
back onto the worklist.  On deep-truss graphs it can then cost more than
a from-scratch decomposition: on
``rmat(12, edge_factor=16, seed=3)`` (49,617 edges, max k 48, C tier,
2-CPU x86 host, medians of 12 batches) a batch of 8 random deletions took
152 ms and a batch of 8 top-level ones 689 ms, against 100 ms for a full
``truss_decomposition``.

Replay soundness (batches with insertions)
------------------------------------------

Peeling is deterministic, and the state at the start of level ``k`` is a
pure function of the triangle table and the final trussness: ``alive =
{e : τ(e) >= k}``, a triangle row is alive iff all three edges are, and
each alive edge's support counts its alive rows.  The replay therefore
runs the level loop of :func:`~repro.analytics.truss.truss_decomposition`
from ``k = 2`` but stops as soon as the old run's answer provably takes
over, namely when

* ``k`` exceeds the largest old trussness of any **deleted** edge (so the
  old run's level-``k`` state contained none of them, nor any removed
  triangle row), and
* the currently-alive set equals ``{e : tau_hat(e) >= k}``, where
  ``tau_hat`` maps the old trussness onto surviving edges and pins
  inserted edges to ``-1`` (so the equality also forces every inserted
  edge -- and with it every added triangle row -- to be dead already).

Under those two conditions the current peel state is identical to the old
run's level-``k`` state, so the remaining trussness is the old trussness
and is copied wholesale.  A batch that only perturbs low levels replays
only those; a no-op batch replays none.

``rounds`` counts the replayed peel rounds only, or the fixpoint's rounds
for a deletion-only batch, so it is *not* comparable with a from-scratch
run; the oracle equality the tests pin is
``num_vertices``/``edges``/``trussness``/``support`` (and
:meth:`GraphDelta.apply` re-checks it inline under ``verify=True``).

Bookkeeping cost
----------------

Around those three steps the batch is bookkeeping: the realised edge-set
difference, the new canonical keys and edges, the re-indexed triangle
table, the new CSR, and the supports and old trussness carried over to the
new edge ids.  Its searches are batch-sized (the batch keys in the sorted
old keys, each directed entry inside its source's row), and each retained
array is rebuilt by one ``take`` through a splice plan shared by every
array of its length (:func:`_splice_plan`).  Beyond those copies an
8-edge batch packs the old edges' keys once and scans the re-indexed
triangle table for deleted ids, but runs no m-query search, whole-graph
cumulative sum, adjacency key array or sort.  The checks (batch
validation, :class:`~repro.graph.csr.CSRGraph` validation,
``from_supports``/``merge_delta`` and the support cross-check) still read
whole arrays.

Semantics
---------

``apply`` computes ``E_new = (E_old \\ deletions) ∪ insertions`` over the
canonical undirected edge space (``u < v``, fixed vertex universe):
deleting an absent edge or inserting a present one is a no-op, duplicates
within a batch collapse, and an edge both deleted and inserted in the same
batch survives.  Self-loops are rejected, as are endpoints outside
``[0, num_vertices)``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.analytics.truss import (
    TrussResult,
    _incidence,
    _peel,
    _triangle_edge_ids,
    _triple_edge_ids,
    canonical_edges,
)
from repro.core import kernels
from repro.core.triangles import EdgeSupportSink
from repro.graph.csr import CSRGraph

__all__ = ["DeltaResult", "GraphDelta"]

#: Bound on insertion edges per common-neighbour enumeration batch (the
#: gather volume per batch is the summed degree of the ``v`` endpoints).
_INSERT_BATCH_EDGES = 8192


def _normalise_batch(edges, num_vertices: int, what: str) -> np.ndarray:
    """Canonicalise one mutation batch into the sorted, unique packed keys
    of its ``(u, v)``, ``u < v`` edges; self-loops rejected, ids validated."""
    arr = np.asarray(edges, dtype=np.int64)
    if arr.size == 0:
        return np.empty(0, dtype=np.int64)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError(f"{what} must be an (n, 2) edge array")
    if int(arr.min()) < 0 or int(arr.max()) >= num_vertices:
        raise ValueError(
            f"{what} endpoint outside the vertex universe [0, {num_vertices})"
        )
    low = np.minimum(arr[:, 0], arr[:, 1])
    high = np.maximum(arr[:, 0], arr[:, 1])
    if np.any(low == high):
        raise ValueError(f"{what} contains a self-loop")
    return _unique(kernels.packed_keys(low, high, num_vertices))


def _unique(values: np.ndarray) -> np.ndarray:
    """The sorted distinct values of a 1-D array, by one sort and an
    adjacent-difference mask (numpy 2.4's hash-based ``np.unique`` took
    1.4 ms against 0.08 ms for 8,192 int64 keys on a 2-CPU x86 host)."""
    values = np.sort(values)
    first = np.ones(values.shape[0], dtype=bool)
    np.not_equal(values[1:], values[:-1], out=first[1:])
    return values[first]


def _unpack(keys: np.ndarray, n: int) -> np.ndarray:
    """Packed canonical keys back to ``(u, v)`` rows."""
    return np.stack([keys // n, keys % n], axis=1)


def _step_function(length: int, at: np.ndarray, steps: np.ndarray) -> np.ndarray:
    """``out[i]`` = the sum of ``steps[j]`` over every ``at[j] <= i``, for
    ``i`` in ``range(length)``: one level per mutation, written by one
    ``repeat`` (``0 <= at <= length``)."""
    order = np.argsort(at)
    bounds = np.concatenate(([0], at[order], [length]))
    levels = np.concatenate(([0], np.cumsum(steps[order])))
    return np.repeat(levels, np.diff(bounds))


def _signs(plus: int, minus: int) -> np.ndarray:
    """``plus`` steps of ``+1`` followed by ``minus`` steps of ``-1``."""
    return np.concatenate(
        (np.ones(plus, dtype=np.int64), np.full(minus, -1, dtype=np.int64))
    )


def _splice_plan(
    length: int, deleted: np.ndarray, at: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """How to splice an array of ``length`` rows: drop the rows at the
    sorted positions ``deleted`` and put one new row before each old
    position in the sorted ``at`` (a position of ``length`` appends; new
    rows at one position keep their order).

    Returns ``(source, slots)``: new row ``j`` copies old row
    ``source[j]``, and the new rows fill ``slots``, whose ``source`` is
    arbitrary (clipped into range) because :func:`_splice` overwrites them.
    Every array of one length shares the plan, and each splice is then one
    ``take`` -- no mask over the array, no loop over the mutations.
    """
    dropped, added = deleted.shape[0], at.shape[0]
    slots = at - np.searchsorted(deleted, at) + np.arange(added)
    # the new index a dropped row would have had: from there on every new
    # row reads one old row further; after each new row, one less
    gaps = deleted - np.arange(dropped) + np.searchsorted(at, deleted, side="right")
    new_length = length - dropped + added
    source = _step_function(
        new_length, np.concatenate((gaps, slots + 1)), _signs(dropped, added)
    )
    source += np.arange(new_length)
    return source, slots


def _splice(old: np.ndarray, plan: tuple[np.ndarray, np.ndarray], new) -> np.ndarray:
    """``old`` spliced by ``plan`` (:func:`_splice_plan`), with ``new``
    (rows or one scalar) filling the new rows."""
    source, slots = plan
    if old.shape[0]:
        out = old.take(source, axis=0, mode="clip")
    else:  # nothing to copy: every row is new
        out = np.empty(source.shape + old.shape[1:], dtype=old.dtype)
    out[slots] = new
    return out


def _row_search(
    indptr: np.ndarray, indices: np.ndarray, src: np.ndarray, dst: np.ndarray
) -> np.ndarray:
    """The first adjacency position of row ``src[i]`` holding an entry
    ``>= dst[i]``, for every ``i``: a binary search inside each query's
    sorted row, all queries stepping together by halving powers of two, so
    the cost is the batch times ``log2`` of the longest row searched."""
    lo = indptr[src]
    hi = indptr[src + 1]
    last = indices.shape[0] - 1
    longest = int((hi - lo).max(initial=0))
    step = 1 << (longest.bit_length() - 1) if longest else 0
    # before[i]: the last position known to hold an entry < dst[i]
    before = lo - 1
    while step:
        probe = before + step
        below = probe < hi
        below &= indices[np.minimum(probe, last)] < dst
        before += below * step
        step >>= 1
    return before + 1


@dataclass
class DeltaResult:
    """Everything one applied mutation batch produces.

    ``graph`` is the mutated undirected CSR graph, ``truss`` the new
    decomposition (with ``tri_edges`` retained so the next batch can chain
    off it), ``sink`` the updated dense support sink over the new canonical
    edge space.  ``inserted``/``deleted`` are the *realised* canonical
    mutations (no-ops dropped).  ``touched_edges`` counts the canonical
    edges whose existence or support changed; ``replayed_levels`` the peel
    levels the truncated replay actually scanned before the old trussness
    took over (``0`` for a deletion-only batch, which the fixpoint settles
    without scanning a level; its rounds are ``truss.rounds``).
    """

    graph: CSRGraph
    truss: TrussResult
    sink: EdgeSupportSink
    inserted: np.ndarray
    deleted: np.ndarray
    touched_edges: int
    replayed_levels: int

    @property
    def edges(self) -> np.ndarray:
        return self.truss.edges

    @property
    def supports(self) -> np.ndarray:
        return self.truss.support

    @property
    def triangles(self) -> int:
        return int(self.truss.support.sum()) // 3


class GraphDelta:
    """A batch of edge insertions and deletions, applied in one pass.

    Batches accumulate via :meth:`insert_edges` / :meth:`delete_edges`
    (chainable) and take effect in :meth:`apply`.  One ``GraphDelta`` is
    reusable: applying it does not consume the batch.
    """

    def __init__(self, insertions=None, deletions=None) -> None:
        self._insertions: list[np.ndarray] = []
        self._deletions: list[np.ndarray] = []
        if insertions is not None:
            self.insert_edges(insertions)
        if deletions is not None:
            self.delete_edges(deletions)

    def insert_edges(self, edges) -> "GraphDelta":
        arr = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        if arr.shape[0]:
            self._insertions.append(arr)
        return self

    def delete_edges(self, edges) -> "GraphDelta":
        arr = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        if arr.shape[0]:
            self._deletions.append(arr)
        return self

    @property
    def num_insertions(self) -> int:
        return int(sum(a.shape[0] for a in self._insertions))

    @property
    def num_deletions(self) -> int:
        return int(sum(a.shape[0] for a in self._deletions))

    def _stacked(self, parts: list[np.ndarray]) -> np.ndarray:
        if not parts:
            return np.empty((0, 2), dtype=np.int64)
        return np.concatenate(parts)

    # -- the mutation path --------------------------------------------------

    def apply(
        self,
        graph: CSRGraph,
        prev: TrussResult | None = None,
        supports: EdgeSupportSink | np.ndarray | None = None,
        telemetry=None,
        verify: bool = False,
    ) -> DeltaResult:
        """Apply the batch to ``graph`` and maintain the truss incrementally.

        Parameters
        ----------
        graph:
            the current undirected CSR graph.
        prev:
            the current :class:`TrussResult`.  When it carries ``tri_edges``
            (``truss_decomposition(..., keep_triangles=True)``) the old
            triangle table is updated in place of a re-enumeration, and the
            old trussness truncates the peel replay.  Without ``prev`` the
            replay degenerates to a full peel (still correct, no skip).
        supports:
            the retained per-canonical-edge support state: a dense
            :class:`EdgeSupportSink`, a support array, or ``None`` to use
            ``prev.support`` (one of the three must provide it when the
            graph has edges -- it is the exact integer state the delta
            merges into).
        telemetry:
            optional :class:`~repro.obs.export.RunTelemetry`; records
            ``delta`` phase spans and the ``delta.touched_edges`` /
            ``delta.replayed_levels`` counters.  Purely observational: the
            result is bit-identical with or without it.
        verify:
            re-run the full from-scratch decomposition on the mutated graph
            and raise unless trussness and supports agree exactly (the
            oracle discipline; the property suites run with this on).
        """
        if graph.directed:
            raise ValueError("GraphDelta.apply expects the undirected CSR graph")
        n = graph.num_vertices
        start = time.perf_counter()

        old_edges = prev.edges if prev is not None else canonical_edges(graph)
        if prev is not None and prev.num_vertices != n:
            raise ValueError("prev TrussResult is for a different vertex universe")
        m_old = int(old_edges.shape[0])
        old_keys = kernels.packed_keys(old_edges[:, 0], old_edges[:, 1], n)

        if isinstance(supports, EdgeSupportSink):
            if supports.spilling:
                raise ValueError(
                    "retained sink state must be dense; re-hydrate spilled "
                    "supports with EdgeSupportSink.from_supports first"
                )
            old_supports = supports.supports()
        elif supports is not None:
            old_supports = np.asarray(supports, dtype=np.int64)
        elif prev is not None:
            old_supports = prev.support
        else:
            old_supports = None
        if old_supports is not None and old_supports.shape[0] != m_old:
            raise ValueError(
                f"got {old_supports.shape[0]} supports for {m_old} canonical edges"
            )

        # -- normalise: realised edge-set difference over packed keys ------
        # the batch keys are searched in the sorted old keys, never the
        # other way round, so the set algebra costs O(|batch| log |E|); the
        # old arrays are then spliced at the realised positions, one take
        # per retained array (_splice_plan) -- never a mask over the graph
        # or a fresh sort of it
        ins_keys = _normalise_batch(self._stacked(self._insertions), n, "insertions")
        del_keys = _normalise_batch(self._stacked(self._deletions), n, "deletions")
        # an edge both deleted and inserted in one batch survives
        realised = kernels.sorted_membership(
            old_keys, del_keys
        ) & ~kernels.sorted_membership(ins_keys, del_keys)
        real_del_keys = del_keys[realised]
        del_ids = np.searchsorted(old_keys, real_del_keys)
        real_ins_keys = ins_keys[~kernels.sorted_membership(old_keys, ins_keys)]
        ins_at = np.searchsorted(old_keys, real_ins_keys)
        plan = _splice_plan(m_old, del_ids, ins_at)
        new_keys = _splice(old_keys, plan, real_ins_keys)
        m_new = int(new_keys.shape[0])
        new_edges = _splice(old_edges, plan, _unpack(real_ins_keys, n))
        new_graph = _mutate_csr(graph, real_del_keys, real_ins_keys, n)

        # old edge id -> new edge id (-1 for deleted edges): a survivor's id
        # shifts down by the deletions before it, up by the insertions below
        old_to_new = _step_function(
            m_old,
            np.concatenate((ins_at, del_ids + 1)),
            _signs(ins_at.shape[0], del_ids.shape[0]),
        )
        old_to_new += np.arange(m_old)
        old_to_new[del_ids] = -1
        if telemetry is not None:
            telemetry.record_span(
                "delta_normalise",
                start,
                time.perf_counter() - start,
                cat="delta",
                track="analytics",
                inserted=int(real_ins_keys.shape[0]),
                deleted=int(real_del_keys.shape[0]),
            )

        # -- touched triangles + exact support-delta merge -----------------
        merge_start = time.perf_counter()
        if prev is not None and prev.tri_edges is not None:
            old_tri = prev.tri_edges
        else:
            # documented slow path: without a retained table the old
            # triangles are re-enumerated once (still no full re-peel)
            old_tri = _triangle_edge_ids(graph, old_keys)

        # one gather maps the table to new ids; a row holding a deleted
        # edge (-1) is a removed triangle, and its survivors lose a support
        mapped = old_to_new.take(old_tri)
        dead_rows = _unique(np.flatnonzero(mapped.reshape(-1) < 0) // 3)
        minus_ids = mapped[dead_rows].reshape(-1)
        minus_ids = minus_ids[minus_ids >= 0]

        plus_tri = self._inserted_triangles(new_graph, new_keys, real_ins_keys, n)
        # the surviving rows in their order, then the added ones
        new_tri = _splice(
            mapped,
            _splice_plan(
                mapped.shape[0],
                dead_rows,
                np.full(plus_tri.shape[0], mapped.shape[0], dtype=np.int64),
            ),
            plus_tri,
        )

        if old_supports is None:
            old_supports = np.bincount(old_tri.reshape(-1), minlength=m_old)
        sink = EdgeSupportSink.from_supports(
            new_keys, n, _splice(old_supports, plan, 0)
        )
        positions = np.concatenate((minus_ids, plus_tri.reshape(-1)))
        deltas = np.concatenate(
            (
                np.full(minus_ids.shape[0], -1, dtype=np.int64),
                np.ones(plus_tri.size, dtype=np.int64),
            )
        )
        sink.merge_delta(positions, deltas)
        sink.count = int(sink.support.sum()) // 3
        new_supports = sink.supports().copy()

        # the merged sink state and the maintained triangle table are the
        # same integer quantity; any disagreement means a corrupt delta
        if not np.array_equal(
            np.bincount(new_tri.reshape(-1), minlength=m_new), new_supports
        ):
            raise ValueError(
                "support delta disagrees with the maintained triangle table"
            )
        touched = int(
            real_del_keys.shape[0]
            + real_ins_keys.shape[0]
            + _unique(minus_ids).shape[0]
        )
        if telemetry is not None:
            telemetry.record_span(
                "delta_support_merge",
                merge_start,
                time.perf_counter() - merge_start,
                cat="delta",
                track="analytics",
                removed_triangles=int(dead_rows.shape[0]),
                added_triangles=int(plus_tri.shape[0]),
            )

        # -- incremental trussness ----------------------------------------
        replay_start = time.perf_counter()
        if prev is not None:
            tau_hat = _splice(prev.trussness, plan, -1)
            deleted_tau = prev.trussness[del_ids]
            del_max = int(deleted_tau.max()) if deleted_tau.shape[0] else -1
        else:
            tau_hat = None
            del_max = -1
        if tau_hat is not None and real_ins_keys.shape[0] == 0:
            # deletion-only: local downward fixpoint from the old trussness
            # seeded at the edges that lost a triangle (module docstring);
            # it scans no peel level, so it replays none
            trussness, rounds = _fixpoint_demote(new_tri, tau_hat, minus_ids)
            replayed = 0
        else:
            trussness, rounds, replayed = _replay_peel(
                new_tri, new_supports, tau_hat, del_max
            )
        truss = TrussResult(
            num_vertices=n,
            edges=new_edges,
            trussness=trussness,
            support=new_supports,
            rounds=rounds,
            tri_edges=new_tri,
        )
        if telemetry is not None:
            telemetry.record_span(
                "delta_replay",
                replay_start,
                time.perf_counter() - replay_start,
                cat="delta",
                track="analytics",
                replayed_levels=replayed,
                max_k=truss.max_k,
            )
            telemetry.record_counter("delta.touched_edges", touched)
            telemetry.record_counter("delta.replayed_levels", replayed)
            telemetry.record_counter("delta.batches", 1)

        if verify:
            self._verify(new_graph, truss)
        return DeltaResult(
            graph=new_graph,
            truss=truss,
            sink=sink,
            inserted=_unpack(real_ins_keys, n),
            deleted=_unpack(real_del_keys, n),
            touched_edges=touched,
            replayed_levels=replayed,
        )

    def _inserted_triangles(
        self,
        new_graph: CSRGraph,
        new_keys: np.ndarray,
        real_ins_keys: np.ndarray,
        n: int,
    ) -> np.ndarray:
        """New-graph triangles through the inserted edges, as deduplicated
        ``(T, 3)`` canonical-edge-id rows (ids sorted within each row).

        One :func:`~repro.core.kernels.edge_common_neighbors` call per
        bounded batch enumerates, for each inserted ``(u, v)``, every common
        neighbour ``w`` -- exactly the triangles gaining that edge.  A
        triangle closing two or three inserted edges is enumerated once per
        such edge; sorting each id row and deduplicating keeps it once.
        """
        if real_ins_keys.shape[0] == 0:
            return np.empty((0, 3), dtype=np.int64)
        us = real_ins_keys // n
        vs = real_ins_keys % n
        rows: list[np.ndarray] = []
        for lo in range(0, us.shape[0], _INSERT_BATCH_EDGES):
            hi = lo + _INSERT_BATCH_EDGES
            owners, ws = kernels.edge_common_neighbors(
                new_graph.indptr, new_graph.indices, us[lo:hi], vs[lo:hi]
            )
            if owners.shape[0] == 0:
                continue
            rows.append(
                _triple_edge_ids(
                    new_keys, us[lo:hi][owners], vs[lo:hi][owners], ws, n
                )
            )
        if not rows:
            return np.empty((0, 3), dtype=np.int64)
        tri = np.concatenate(rows)
        tri.sort(axis=1)  # a triangle is its id set; order rows canonically
        return np.unique(tri, axis=0)

    @staticmethod
    def _verify(new_graph: CSRGraph, truss: TrussResult) -> None:
        from repro.analytics.truss import truss_decomposition

        oracle = truss_decomposition(
            new_graph, supports=truss.support, edges=truss.edges
        )
        if not np.array_equal(oracle.trussness, truss.trussness):
            raise AssertionError(
                "incremental truss disagrees with the full-recompute oracle"
            )


def _fixpoint_demote(
    tri_edges: np.ndarray,
    tau0: np.ndarray,
    seed_ids: np.ndarray,
) -> tuple[np.ndarray, int]:
    """Exact trussness after deletions: downward fixpoint of the local
    ``H`` operator (module docstring) from the old values ``tau0``.

    ``seed_ids`` are the edges that lost a triangle.  Each round gathers
    the incident rows of the worklist edges, evaluates ``H`` as a batched
    h-index (``max_j min(v_j, j+3)`` over each edge's row values sorted
    descending, where ``v`` is the smaller trussness of the row's other
    two edges), demotes, and pushes the row-mates of every demoted edge.
    Each round costs the worklist's incident rows; an untouched graph
    costs nothing.
    """
    m = int(tau0.shape[0])
    tau = tau0.copy()
    work = _unique(seed_ids)
    if work.shape[0] == 0 or tri_edges.shape[0] == 0:
        # no triangle can be lost, or none remain: only seeds can drop (to 2)
        tau[work] = 2
        return tau, 0
    inc_ptr, inc_triangles = _incidence(tri_edges, m)
    inc_degrees = inc_ptr[1:] - inc_ptr[:-1]

    rounds = 0
    while work.shape[0]:
        rounds += 1
        rows, owners = kernels.segment_gather(
            inc_triangles, inc_ptr[work], inc_degrees[work]
        )
        edge_of = work[owners]
        h = np.full(work.shape[0], 2, dtype=np.int64)
        if rows.shape[0]:
            members = tri_edges[rows]
            taus = tau[members]
            # v = min trussness of the row's other two edges: mask out the
            # owning edge (each id occurs once per row) and take the row min
            taus[members == edge_of[:, None]] = np.iinfo(np.int64).max
            v = taus.min(axis=1)
            # one composite sort == lexsort((-v, owners)): v is bounded by
            # the largest trussness, so the packed key never collides
            span = int(v.max()) + 2
            sort_idx = np.argsort(owners * span + (span - 1 - v), kind="stable")
            v_sorted = v[sort_idx]
            counts = np.bincount(owners, minlength=work.shape[0])
            starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
            rank = np.arange(v_sorted.shape[0], dtype=np.int64) - np.repeat(
                starts, counts
            )
            candidate = np.minimum(v_sorted, rank + 3)
            nonempty = counts > 0
            h[nonempty] = np.maximum(
                2, np.maximum.reduceat(candidate, starts[nonempty])
            )
        dropped = h < tau[work]
        if not dropped.any():
            break
        tau[work[dropped]] = h[dropped]
        # a row-mate g can only be affected if tau(g) exceeds the demoted
        # owner's new value: for k <= h the row's min-other-tau is unchanged
        # (the owner still sits at >= h), so H(g) with tau(g) <= h is stable
        row_dropped = dropped[owners]
        changed_rows = rows[row_dropped]
        thresh = np.repeat(h[owners][row_dropped], 3)
        cand = tri_edges[changed_rows].reshape(-1)
        work = _unique(cand[tau[cand] > thresh])
    return tau, rounds


def _mutate_csr(
    graph: CSRGraph,
    real_del_keys: np.ndarray,
    real_ins_keys: np.ndarray,
    n: int,
) -> CSRGraph:
    """Apply realised canonical deletions/insertions to the symmetric CSR.

    Each mutation is two directed entries, one per direction, located by a
    binary search inside its source's row (:func:`_row_search`), so the
    search costs the batch times ``log2`` of the longest row.  ``indices``
    is then spliced at those positions (one ``take``) and ``indptr``
    shifted by a step function with one step per entry -- never a keep
    mask over the ``2|E|`` entries, a whole-graph key array or a rebuild
    through the symmetrize/dedup path.
    """
    if real_del_keys.shape[0] == 0 and real_ins_keys.shape[0] == 0:
        return graph

    def entries(keys):
        """``(src, dst)`` of both directions of each edge, in CSR order."""
        sym = np.sort(np.concatenate((keys, (keys % n) * n + keys // n)))
        return sym // n, sym % n

    del_src, del_dst = entries(real_del_keys)
    ins_src, ins_dst = entries(real_ins_keys)
    indptr, indices = graph.indptr, graph.indices
    found = _row_search(
        indptr,
        indices,
        np.concatenate((del_src, ins_src)),
        np.concatenate((del_dst, ins_dst)),
    )
    dropped = del_src.shape[0]
    plan = _splice_plan(indices.shape[0], found[:dropped], found[dropped:])
    shift = _step_function(
        n + 1,
        np.concatenate((ins_src, del_src)) + 1,
        _signs(ins_src.shape[0], del_src.shape[0]),
    )
    return CSRGraph(indptr + shift, _splice(indices, plan, ins_dst), directed=False)


def _replay_peel(
    tri_edges: np.ndarray,
    supports: np.ndarray,
    tau_hat: np.ndarray | None,
    del_max: int,
) -> tuple[np.ndarray, int, int]:
    """The truss level loop (:func:`~repro.analytics.truss._peel`) with the
    take-over rule of the module docstring.

    ``tau_hat`` is the old trussness mapped onto the new edge ids (``-1``
    for inserted edges) or ``None`` for a cold replay; ``del_max`` the
    largest old trussness among deleted edges.  Returns ``(trussness,
    rounds, replayed_levels)`` where ``replayed_levels`` counts the level
    scans actually executed.
    """
    if tau_hat is None:
        trussness, _, rounds, levels = _peel(tri_edges, supports)
        return trussness, rounds, levels

    def settled(k: int, alive: np.ndarray) -> bool:
        # the old run takes over once no deleted edge (nor removed row)
        # was part of its level-k state and the alive set matches the old
        # prediction -- which also forces every inserted edge dead
        return k > del_max and np.array_equal(alive, tau_hat >= k)

    trussness, alive, rounds, levels = _peel(tri_edges, supports, settled)
    trussness[alive] = tau_hat[alive]
    return trussness, rounds, levels
