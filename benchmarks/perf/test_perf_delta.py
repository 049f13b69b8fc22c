"""Dynamic-graph perf: incremental GraphDelta vs a full truss recompute.

The tracked quantity is the ``delta_vs_recompute`` entry of
``BENCH_pdtl.json``: on the shared power-law perf workload, applying a
small deletion batch through the incremental maintenance path --
touched-edge support deltas merged into the retained sink state plus the
local trussness fixpoint over the affected cascade -- against a full
from-scratch ``truss_decomposition`` of the mutated graph.  A mixed
insert+delete batch (the truncated-replay path) is timed alongside for
the record, without a floor: replay re-peels the low levels, so its win
over recompute is the skipped triangle enumeration only.

Exact equality is asserted in every mode before any time is reported:
the delta result's trussness and supports must match the full recompute
bit for bit (the oracle discipline of ``tests/analytics/test_delta.py``
and the property suite).  The ``>= DELTA_MIN_SPEEDUP`` floor is asserted
only in full (non-quick) runs, like the other perf thresholds.
"""

from __future__ import annotations

import numpy as np

from conftest import DELTA_MIN_SPEEDUP, QUICK, best_of

from repro.analytics import GraphDelta, truss_decomposition
from repro.analytics.truss import canonical_edges

#: a "small batch" -- the service-style workload the ROADMAP names: a few
#: edges change between queries while the graph stays ~100k edges
BATCH_EDGES = 8


def _deletion_batch(graph) -> GraphDelta:
    edges = canonical_edges(graph)
    rng = np.random.default_rng(11)
    return GraphDelta(
        deletions=edges[rng.choice(edges.shape[0], size=BATCH_EDGES, replace=False)]
    )


def _mixed_batch(graph) -> GraphDelta:
    edges = canonical_edges(graph)
    n = graph.num_vertices
    rng = np.random.default_rng(12)
    dels = edges[rng.choice(edges.shape[0], size=BATCH_EDGES, replace=False)]
    present = set(map(tuple, edges.tolist()))
    ins = []
    while len(ins) < BATCH_EDGES:
        u, v = sorted(rng.integers(0, n, size=2).tolist())
        if u != v and (u, v) not in present:
            present.add((u, v))
            ins.append((u, v))
    return GraphDelta(insertions=np.array(ins, dtype=np.int64), deletions=dels)


def _oracle_gate(applied):
    oracle = truss_decomposition(applied.graph)
    np.testing.assert_array_equal(applied.truss.trussness, oracle.trussness)
    np.testing.assert_array_equal(applied.truss.support, oracle.support)
    np.testing.assert_array_equal(applied.truss.edges, oracle.edges)


def test_perf_delta(perf_graph, perf_report):
    delta = _deletion_batch(perf_graph)
    mixed = _mixed_batch(perf_graph)
    prev = truss_decomposition(perf_graph, keep_triangles=True)

    # -- correctness gate: oracle equality before any timing ---------------
    _oracle_gate(delta.apply(perf_graph, prev=prev))
    _oracle_gate(mixed.apply(perf_graph, prev=prev))

    delta_seconds, applied = best_of(lambda: delta.apply(perf_graph, prev=prev))
    recompute_seconds, _ = best_of(lambda: truss_decomposition(applied.graph))
    mixed_seconds, _ = best_of(lambda: mixed.apply(perf_graph, prev=prev))

    speedup = recompute_seconds / delta_seconds if delta_seconds else float("inf")
    perf_report.record(
        "delta_vs_recompute",
        batch_deletions=int(applied.deleted.shape[0]),
        touched_edges=applied.touched_edges,
        cascade_rounds=applied.truss.rounds,
        max_truss_k=applied.truss.max_k,
        full_recompute_s=recompute_seconds,
        delta_apply_s=delta_seconds,
        delta_speedup=speedup,
        mixed_batch_apply_s=mixed_seconds,
    )
    if not QUICK:
        assert speedup >= DELTA_MIN_SPEEDUP, (
            f"incremental delta speedup {speedup:.2f}x over the full truss "
            f"recompute is below the {DELTA_MIN_SPEEDUP}x floor"
        )
