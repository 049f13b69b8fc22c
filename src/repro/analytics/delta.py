"""Dynamic graphs: batch edge mutations with incremental truss maintenance.

The engine so far serves static snapshots: every query re-runs the full
pipeline.  This module adds the mutation path the ROADMAP carries from
PR 5 -- edge supports merge *exactly* (integer addition over sparse
positions in :class:`~repro.core.triangles.EdgeSupportSink`), so an
insertion/deletion batch only needs

1. the triangles through the **touched edges** re-enumerated (the packed-key
   common-neighbour kernel :func:`repro.core.kernels.edge_common_neighbors`
   for insertions, a mask over the retained triangle table for deletions),
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
from repro.utils import prefix_sums

__all__ = ["DeltaResult", "GraphDelta"]

#: Bound on insertion edges per common-neighbour enumeration batch (the
#: gather volume per batch is the summed degree of the ``v`` endpoints).
_INSERT_BATCH_EDGES = 8192


def _normalise_batch(edges, num_vertices: int, what: str) -> np.ndarray:
    """Canonicalise one mutation batch: ``(u, v)`` with ``u < v``, unique,
    sorted by packed key, self-loops rejected, ids validated."""
    arr = np.asarray(edges, dtype=np.int64)
    if arr.size == 0:
        return np.empty((0, 2), dtype=np.int64)
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
    keys = np.unique(kernels.packed_keys(low, high, num_vertices))
    return np.stack([keys // num_vertices, keys % num_vertices], axis=1)


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
        # everything here is O(|E| + |batch| log |E|): the canonical key
        # arrays are already sorted, so the set algebra is membership masks
        # plus positional delete/insert -- never a fresh sort of the graph
        ins = _normalise_batch(self._stacked(self._insertions), n, "insertions")
        dels = _normalise_batch(self._stacked(self._deletions), n, "deletions")
        ins_keys = kernels.packed_keys(ins[:, 0], ins[:, 1], n)
        del_keys = kernels.packed_keys(dels[:, 0], dels[:, 1], n)
        # an edge both deleted and inserted in one batch survives
        del_mask = kernels.sorted_membership(
            del_keys, old_keys
        ) & ~kernels.sorted_membership(ins_keys, old_keys)
        surviving = ~del_mask
        real_del_keys = old_keys[del_mask]
        real_ins_keys = ins_keys[~kernels.sorted_membership(old_keys, ins_keys)]
        kept_keys = old_keys[surviving]
        new_keys = np.insert(
            kept_keys, np.searchsorted(kept_keys, real_ins_keys), real_ins_keys
        )
        m_new = int(new_keys.shape[0])
        new_edges = np.stack([new_keys // n, new_keys % n], axis=1)
        new_graph = _mutate_csr(graph, real_del_keys, real_ins_keys, n)

        # old edge id -> new edge id (-1 for deleted edges): a survivor's id
        # shifts down by the deletions before it, up by the insertions below
        old_to_new = (
            np.arange(m_old, dtype=np.int64)
            - np.cumsum(del_mask)
            + np.searchsorted(real_ins_keys, old_keys)
        )
        old_to_new[del_mask] = -1
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

        if old_tri.shape[0]:
            row_deleted = (old_to_new[old_tri] < 0).any(axis=1)
            kept_tri = old_to_new[old_tri[~row_deleted]]
            minus_ids = old_to_new[old_tri[row_deleted].reshape(-1)]
            minus_ids = minus_ids[minus_ids >= 0]
        else:
            kept_tri = np.empty((0, 3), dtype=np.int64)
            minus_ids = np.empty(0, dtype=np.int64)

        plus_tri = self._inserted_triangles(new_graph, new_keys, real_ins_keys, n)

        base = np.zeros(m_new, dtype=np.int64)
        if old_supports is not None:
            base[old_to_new[surviving]] = old_supports[surviving]
        elif m_old:
            base[old_to_new[surviving]] = np.bincount(
                old_tri.reshape(-1), minlength=m_old
            )[surviving]
        sink = EdgeSupportSink.from_supports(new_keys, n, base)
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

        new_tri = np.concatenate((kept_tri, plus_tri))
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
            + np.unique(minus_ids).shape[0]
        )
        if telemetry is not None:
            telemetry.record_span(
                "delta_support_merge",
                merge_start,
                time.perf_counter() - merge_start,
                cat="delta",
                track="analytics",
                removed_triangles=int(old_tri.shape[0] - kept_tri.shape[0]),
                added_triangles=int(plus_tri.shape[0]),
            )

        # -- incremental trussness ----------------------------------------
        replay_start = time.perf_counter()
        if prev is not None:
            tau_hat = np.full(m_new, -1, dtype=np.int64)
            tau_hat[old_to_new[surviving]] = prev.trussness[surviving]
            deleted_tau = prev.trussness[~surviving]
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
            inserted=np.stack(
                [real_ins_keys // n, real_ins_keys % n], axis=1
            ),
            deleted=np.stack(
                [real_del_keys // n, real_del_keys % n], axis=1
            ),
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
        csr_keys = kernels.csr_packed_keys(new_graph.indptr, new_graph.indices)
        rows: list[np.ndarray] = []
        for lo in range(0, us.shape[0], _INSERT_BATCH_EDGES):
            hi = lo + _INSERT_BATCH_EDGES
            owners, ws = kernels.edge_common_neighbors(
                new_graph.indptr,
                new_graph.indices,
                us[lo:hi],
                vs[lo:hi],
                csr_keys=csr_keys,
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
    work = np.unique(seed_ids)
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
        work = np.unique(cand[tau[cand] > thresh])
    return tau, rounds


def _mutate_csr(
    graph: CSRGraph,
    real_del_keys: np.ndarray,
    real_ins_keys: np.ndarray,
    n: int,
) -> CSRGraph:
    """Apply realised canonical deletions/insertions to the symmetric CSR.

    The adjacency of an undirected CSR is globally sorted by the directed
    packed key ``src * n + dst``, so each mutation is two positional
    entries (one per direction) located by ``searchsorted`` -- an O(|E|)
    delete/insert, never a rebuild through the symmetrize/dedup path.
    """
    if real_del_keys.shape[0] == 0 and real_ins_keys.shape[0] == 0:
        return graph

    def positions(indptr, indices, keys):
        """Sorted adjacency positions of directed ``src * n + dst`` keys."""
        if keys.shape[0] > 1024:
            return np.searchsorted(kernels.csr_packed_keys(indptr, indices), keys)
        # small batches: per-entry binary search inside the source's list
        # beats materialising the full packed-key array
        out = np.empty(keys.shape[0], dtype=np.int64)
        for i, key in enumerate(keys):
            src, dst = divmod(int(key), n)
            lo, hi = int(indptr[src]), int(indptr[src + 1])
            out[i] = lo + int(np.searchsorted(indices[lo:hi], dst))
        return out

    degrees = (graph.indptr[1:] - graph.indptr[:-1]).astype(np.int64)
    indptr = graph.indptr
    indices = graph.indices
    if real_del_keys.shape[0]:
        du, dv = real_del_keys // n, real_del_keys % n
        sym = np.concatenate((du * n + dv, dv * n + du))
        sym.sort()
        keep = np.ones(indices.shape[0], dtype=bool)
        keep[positions(indptr, indices, sym)] = False
        indices = indices[keep]
        degrees -= np.bincount(du, minlength=n) + np.bincount(dv, minlength=n)
        indptr = prefix_sums(degrees)
    if real_ins_keys.shape[0]:
        iu, iv = real_ins_keys // n, real_ins_keys % n
        sym = np.concatenate((iu * n + iv, iv * n + iu))
        sym.sort()
        indices = np.insert(indices, positions(indptr, indices, sym), sym % n)
        degrees += np.bincount(iu, minlength=n) + np.bincount(iv, minlength=n)
        indptr = prefix_sums(degrees)
    return CSRGraph(indptr, indices, directed=False)


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
