"""Plain-text table formatting for the benchmark harness.

The benchmark modules print their results in the same row/column layout as
the paper's tables so that EXPERIMENTS.md can quote them directly.  Only
standard-library string formatting is used -- the output is meant for
terminals and text files, not notebooks.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping, Sequence

from repro.utils import format_seconds, ps_seconds

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (analysis ← cluster)
    from repro.cluster.metrics import ClusterMetrics

__all__ = [
    "format_table",
    "format_seconds_cell",
    "speedup_table",
    "paper_vs_measured",
    "load_imbalance_table",
    "truss_summary_table",
    "counters_table",
    "telemetry_summary_table",
]


def format_seconds_cell(value: float | None) -> str:
    """Format a duration cell the way the paper does (``2m44.2s``), with ``-``
    for missing values and ``F`` for failures (out-of-memory).

    A duration that would round to ``0.0s`` at the paper's 0.1 s resolution
    prints in milliseconds instead (``42.3ms``).
    """
    if value is None:
        return "-"
    if value == float("inf"):
        return "F"
    if abs(value) < 0.09995:
        return f"{value * 1000:.1f}ms"
    return format_seconds(value)


def _stringify(value: object) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.3g}"
    return str(value)


def _is_numeric(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def format_table(
    rows: Sequence[Mapping[str, object]],
    columns: Sequence[str] | None = None,
    title: str | None = None,
) -> str:
    """Render a list of dict rows as an aligned text table.

    Columns default to the union of all row keys in first-seen order (not
    just the first row's keys), so sparse rows -- e.g. counters that only
    some workers report -- still get a column.  Columns whose every present
    value is numeric are right-aligned.
    """
    if not rows:
        return f"{title}\n(no rows)" if title else "(no rows)"
    if columns is None:
        seen: dict[str, None] = {}
        for row in rows:
            for key in row:
                seen.setdefault(key, None)
        columns = list(seen)
    header = [str(c) for c in columns]
    body = [[_stringify(row.get(c)) for c in columns] for row in rows]
    numeric = [
        all(_is_numeric(row[c]) for row in rows if row.get(c) is not None)
        and any(c in row and row[c] is not None for row in rows)
        for c in columns
    ]
    widths = [
        max(len(header[i]), *(len(r[i]) for r in body)) for i in range(len(columns))
    ]

    def _align(cell: str, i: int) -> str:
        return cell.rjust(widths[i]) if numeric[i] else cell.ljust(widths[i])

    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(_align(h, i) for i, h in enumerate(header)))
    lines.append("  ".join("-" * w for w in widths))
    for r in body:
        lines.append("  ".join(_align(c, i) for i, c in enumerate(r)))
    return "\n".join(lines)


def speedup_table(
    baseline_seconds: Mapping[str, float],
    measured_seconds: Mapping[str, Mapping[str, float]],
    title: str | None = None,
) -> str:
    """Render speed-ups over a baseline (the Figure 10/11 layout).

    ``baseline_seconds`` maps graph name to the baseline's time;
    ``measured_seconds`` maps graph name to {configuration label: time}.
    """
    rows = []
    for graph, base in baseline_seconds.items():
        row: dict[str, object] = {"Graph": graph, "baseline": format_seconds_cell(base)}
        for label, value in measured_seconds.get(graph, {}).items():
            row[label] = f"{base / value:.1f}x" if value > 0 else "-"
        rows.append(row)
    return format_table(rows, title=title)


def paper_vs_measured(
    rows: Sequence[Mapping[str, object]],
    title: str | None = None,
) -> str:
    """Render paper-vs-measured comparison rows (used by EXPERIMENTS.md).

    Each row should contain at least ``experiment``, ``paper`` and
    ``measured`` keys; extra keys are kept as additional columns.
    """
    return format_table(rows, title=title)


def truss_summary_table(
    rows: Sequence[Mapping[str, object]], title: str | None = None
) -> str:
    """Render the k-truss decomposition summary (one row per truss level).

    ``rows`` come from :func:`repro.analytics.truss.truss_summary_rows`:
    for each ``k``, the number of edges peeled exactly at ``k`` and the
    size (edges, vertices) of the k-truss subgraph.
    """
    return format_table(
        rows,
        columns=["k", "edges_peeled_at_k", "truss_edges", "truss_vertices"],
        title=title,
    )


def counters_table(
    counters: Mapping[str, float],
    title: str | None = None,
    prefix: str | None = None,
) -> str:
    """Render a flat counter mapping as a two-column table.

    Derived hit rates (``<base>.hit_rate`` for every ``.hits``/``.misses``
    sibling pair -- the fd-cache counters in particular) are
    appended automatically so the summary table exposes them without the
    caller precomputing anything.  ``prefix`` filters to one namespace.
    """
    from repro.obs.metrics import derive_rates

    merged = dict(counters)
    merged.update(derive_rates(merged))
    rows = [
        {"counter": key, "value": round(value, 6) if isinstance(value, float) else value}
        for key, value in sorted(merged.items())
        if prefix is None or key.startswith(prefix)
    ]
    return format_table(rows, columns=["counter", "value"], title=title)


def telemetry_summary_table(telemetry, title: str | None = None) -> str:
    """Render a :class:`repro.obs.export.RunTelemetry` span rollup.

    One row per span category (phase/chunk/kernel/host/analytics) with the
    span count and summed wall-clock seconds, preceded by the run shape.
    """
    rows: list[dict[str, object]] = [
        {
            "category": "run",
            "spans": len(telemetry.events),
            "wall_seconds": None,
            "detail": (
                f"backend={telemetry.backend} scheduling={telemetry.scheduling} "
                f"workers={telemetry.num_workers}"
            ),
        }
    ]
    for row in telemetry.summary_rows():
        rows.append(
            {
                "category": row["category"],
                "spans": row["spans"],
                "wall_seconds": round(float(row["wall_seconds"]), 6),
                "detail": None,
            }
        )
    return format_table(
        rows, columns=["category", "spans", "wall_seconds", "detail"], title=title
    )


def load_imbalance_table(metrics: "ClusterMetrics", title: str | None = None) -> str:
    """Per-node chunk-scheduling breakdown plus the cluster imbalance row.

    One row per node with its worker count, pulled/stolen/re-executed chunk
    counters (all zero for static runs) and elapsed calculation time, then a
    cluster summary row carrying the max/mean per-processor calc-time
    imbalance -- the Figure 9 quantity the dynamic scheduler equalises.
    """
    rows: list[dict[str, object]] = []
    for node in metrics.nodes:
        rows.append(
            {
                "node": node.node_index,
                "workers": node.workers,
                "chunks": node.chunks_completed,
                "stolen": node.chunks_stolen,
                "retried": node.chunks_retried,
                "calc": format_seconds_cell(ps_seconds(node.calc_ps)),
            }
        )
    rows.append(
        {
            "node": "cluster",
            "workers": sum(n.workers for n in metrics.nodes),
            "chunks": metrics.total_chunks_completed,
            "stolen": metrics.total_chunks_stolen,
            "retried": metrics.total_chunks_retried,
            "calc": f"imbalance {metrics.worker_imbalance():.2f}x",
        }
    )
    return format_table(
        rows, columns=["node", "workers", "chunks", "stolen", "retried", "calc"],
        title=title,
    )
