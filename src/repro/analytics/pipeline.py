"""One-call triangle analytics on top of the PDTL engine.

The paper's introduction motivates triangle listing as the substrate of
heavier graph analytics -- clustering coefficients, the transitivity
ratio, truss decomposition.  :func:`run_analytics` turns that motivation
into a pipeline: **one** PDTL run with the ``edge-support`` sink, and the
counting-style metrics are derived from the merged per-edge supports
alone::

                        ┌─ total triangles  (Σ support / 3)
    PDTL (edge-support) ┼─ per-vertex counts (incident support / 2)
      supports per edge ┼─ clustering coefficient, transitivity
                        └─ k-truss decomposition (support peeling)

The derivations are exact integer identities: every triangle contributes
one unit of support to each of its three edges, and at a vertex ``v`` to
exactly the two edges incident to ``v`` -- so the per-vertex counts equal
what a separate ``per-vertex`` PDTL run reports, bit for bit (asserted by
the integration tests).

The truss stage needs more than counts: peeling requires the triangle
*structure* (an ``O(T)`` edge-incidence table).  The engine's supports
follow its oriented edges, so both go to
:func:`~repro.analytics.truss.truss_decomposition`, which checks that
orientation against the input graph entry for entry, builds the table on
the one enumeration path it also takes standalone, moves the supports
into canonical edge order, and cross-checks them against the table on
every call -- any disagreement between the engine's stream and this
independent in-memory enumeration raises.  The external-memory
discipline applies to the support *accumulation* (the sink's spill
path), not to the in-memory decomposition.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.analytics.truss import TrussResult, truss_decomposition
from repro.analysis.report import (
    counters_table,
    format_table,
    telemetry_summary_table,
    truss_summary_table,
)
from repro.cluster.executor import ExecutionBackend
from repro.core.config import PDTLConfig
from repro.core.pdtl import PDTLResult
from repro.core.runner import edge_supports
from repro.graph.binfmt import GraphFile
from repro.graph.csr import CSRGraph
from repro.graph.properties import (
    clustering_coefficient,
    per_vertex_counts_from_edge_supports,
    transitivity,
)

__all__ = ["AnalyticsResult", "run_analytics"]


@dataclass
class AnalyticsResult:
    """Everything one analytics pass produces.

    ``edges`` is the canonical undirected edge list (``u < v``,
    lexicographic), ``edge_supports`` the triangle support of each, and the
    remaining fields are derived as in the module docstring.  ``pdtl``
    keeps the full engine result (modelled times, per-node metrics, chunk
    accounting) for callers that want the performance story too.

    ``triangles`` is stored rather than read off ``pdtl``: after applied
    mutation batches (``run_analytics(..., deltas=...)``) every derived
    field -- this count included -- describes the *mutated* graph, while
    ``pdtl`` still describes the base run that produced the initial
    supports.  ``deltas_applied`` says how many batches separate the two.
    """

    pdtl: PDTLResult
    num_vertices: int
    edges: np.ndarray
    edge_supports: np.ndarray
    per_vertex_counts: np.ndarray
    clustering: np.ndarray
    transitivity: float
    truss: TrussResult
    triangles: int
    deltas_applied: int = 0

    @property
    def num_edges(self) -> int:
        return int(self.edges.shape[0])

    @property
    def mean_clustering(self) -> float:
        """The network average clustering coefficient (Watts-Strogatz)."""
        return float(self.clustering.mean()) if self.clustering.shape[0] else 0.0

    @property
    def max_truss_k(self) -> int:
        return self.truss.max_k

    def summary_rows(self) -> list[dict[str, object]]:
        """The headline metrics as report rows."""
        return [
            {"metric": "vertices", "value": self.num_vertices},
            {"metric": "edges", "value": self.num_edges},
            {"metric": "triangles", "value": self.triangles},
            {"metric": "transitivity", "value": round(self.transitivity, 6)},
            {"metric": "mean clustering", "value": round(self.mean_clustering, 6)},
            {"metric": "max edge support", "value": int(self.edge_supports.max())
             if self.num_edges else 0},
            {"metric": "max truss k", "value": self.max_truss_k},
            {"metric": "peel rounds", "value": self.truss.rounds},
        ]

    def report(self) -> str:
        """Figure-style plain-text report (summary + truss table).

        When the engine ran with ``trace=True`` the telemetry rollup and the
        counter table (fd-cache hit rates included) are
        appended, so one traced analytics run yields the full story.
        """
        sections = [
            format_table(self.summary_rows(), title="Triangle analytics"),
            truss_summary_table(
                self.truss.summary_rows(), title="k-truss decomposition"
            ),
        ]
        telemetry = self.pdtl.telemetry
        if telemetry is not None:
            sections.append(
                telemetry_summary_table(telemetry, title="Run telemetry")
            )
            sections.append(
                counters_table(telemetry.counters, title="Run counters")
            )
        return "\n\n".join(sections)


def run_analytics(
    graph: CSRGraph | GraphFile,
    config: PDTLConfig | None = None,
    backend: ExecutionBackend | str = "serial",
    deltas: object = None,
    **config_overrides: object,
) -> AnalyticsResult:
    """Run PDTL once and fan the triangle stream into the full analytics set.

    ``graph`` is the undirected input (in-memory CSR or on-disk).  The
    engine configuration comes from ``config`` or keyword overrides exactly
    as in :func:`repro.core.runner.edge_supports` (which this delegates
    to), and ``backend`` (``serial`` or ``processes``) runs it as in
    :class:`~repro.core.pdtl.PDTLRunner`; the sink kind is forced to
    ``edge-support`` because everything downstream derives from the
    per-edge supports.

    ``deltas`` -- one :class:`~repro.analytics.delta.GraphDelta` or a
    sequence of them -- mutates the graph *after* the base run: each batch
    is applied through the incremental maintenance path (touched-edge
    support deltas, truncated peel replay), and every derived field of the
    result describes the final mutated graph.  The engine runs exactly
    once, on the input graph; with tracing on, the delta phases appear as
    ``delta_*`` spans and ``delta.*`` counters on the run telemetry.
    """
    csr = graph.to_csr() if isinstance(graph, GraphFile) else graph
    if csr.directed:
        raise ValueError("run_analytics expects the undirected graph")
    from repro.analytics.delta import GraphDelta

    if deltas is None:
        delta_batches: list[GraphDelta] = []
    elif isinstance(deltas, GraphDelta):
        delta_batches = [deltas]
    else:
        delta_batches = list(deltas)

    result = edge_supports(graph, config, backend=backend, **config_overrides)
    telemetry = result.telemetry

    truss_start = time.perf_counter()
    truss = truss_decomposition(
        csr,
        supports=result.edge_supports,
        keep_triangles=bool(delta_batches),
        oriented_edges=result.oriented_edges,
    )
    if telemetry is not None:
        telemetry.record_span(
            "truss",
            truss_start,
            time.perf_counter() - truss_start,
            cat="analytics",
            track="analytics",
            max_k=truss.max_k,
            rounds=truss.rounds,
        )

    # the cross-check passed: the truss's supports are the run's, in
    # canonical edge order
    edges = truss.edges
    supports = truss.support
    final_csr = csr
    triangles = result.triangles
    for delta in delta_batches:
        applied = delta.apply(
            final_csr, prev=truss, supports=supports, telemetry=telemetry
        )
        final_csr = applied.graph
        truss = applied.truss
        edges = applied.edges
        supports = applied.supports
        triangles = applied.triangles

    per_vertex = per_vertex_counts_from_edge_supports(
        csr.num_vertices, edges, supports
    )
    return AnalyticsResult(
        pdtl=result,
        num_vertices=csr.num_vertices,
        edges=edges,
        edge_supports=supports,
        per_vertex_counts=per_vertex,
        clustering=clustering_coefficient(final_csr, per_vertex),
        transitivity=transitivity(final_csr, triangles),
        truss=truss,
        triangles=triangles,
        deltas_applied=len(delta_batches),
    )
