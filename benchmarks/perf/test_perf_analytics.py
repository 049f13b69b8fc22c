"""Analytics perf: vectorised k-truss peeling vs the scalar reference.

The tracked quantity is the ``analytics_truss`` entry of
``BENCH_pdtl.json``: on the shared power-law perf workload, the
vectorised truss decomposition (triangle enumeration through the shared
MGT counting kernel + incidence-CSR batch peeling, no per-edge Python
loops) against the pinned scalar reference implementation
(:func:`repro.analytics.truss.trussness_reference`).

Exact equality of the trussness arrays is asserted in every mode -- the
decomposition is a pure function of the graph, so the two implementations
must agree bit for bit before any time is reported.  The
``>= TRUSS_MIN_SPEEDUP`` floor is asserted only in full (non-quick) runs,
like the other perf thresholds.

The end-to-end ``run_analytics`` driver (one PDTL edge-support run fanned
into supports, per-vertex counts, clustering, transitivity and trussness)
is also timed and its derivations cross-checked against the in-memory
baseline count.
"""

from __future__ import annotations

import numpy as np
import pytest

from conftest import QUICK, REPEATS, TRUSS_MIN_SPEEDUP, best_of

from repro.analytics import run_analytics, truss_decomposition, trussness_reference
from repro.baselines.inmemory import forward_count


@pytest.fixture(scope="module")
def expected_triangles(perf_graph) -> int:
    return forward_count(perf_graph)


def test_analytics_truss(perf_graph, expected_triangles, perf_report):
    # -- correctness gate: exact equality before any timing ----------------
    reference = trussness_reference(perf_graph)
    vec_seconds, result = best_of(lambda: truss_decomposition(perf_graph))
    np.testing.assert_array_equal(result.trussness, reference)
    assert int(result.support.sum()) == 3 * expected_triangles

    ref_seconds, _ = best_of(
        lambda: trussness_reference(perf_graph), repeats=1 if QUICK else REPEATS
    )

    # -- end-to-end driver: one PDTL run fanned into every metric ----------
    analytics_seconds, analytics = best_of(
        lambda: run_analytics(
            perf_graph,
            procs_per_node=4,
            memory_per_proc="4MB",
            scheduling="dynamic",
            modelled_cpu=True,
            backend="processes",
        ),
        repeats=1,
    )
    assert analytics.triangles == expected_triangles
    np.testing.assert_array_equal(analytics.truss.trussness, reference)
    np.testing.assert_array_equal(analytics.edge_supports, result.support)

    speedup = ref_seconds / vec_seconds if vec_seconds else float("inf")
    perf_report.record(
        "analytics_truss",
        graph_vertices=perf_graph.num_vertices,
        graph_edges=perf_graph.num_undirected_edges,
        triangles=int(expected_triangles),
        max_truss_k=result.max_k,
        peel_rounds=result.rounds,
        truss_reference_s=ref_seconds,
        truss_vectorized_s=vec_seconds,
        truss_speedup=speedup,
        truss_edges_per_s=perf_graph.num_undirected_edges / vec_seconds,
        analytics_end_to_end_s=analytics_seconds,
    )
    if not QUICK:
        assert speedup >= TRUSS_MIN_SPEEDUP, (
            f"vectorised truss peeling speedup {speedup:.2f}x over the scalar "
            f"reference is below the {TRUSS_MIN_SPEEDUP}x floor"
        )
