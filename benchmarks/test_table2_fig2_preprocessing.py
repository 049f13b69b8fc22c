"""Table II + Figure 2 -- preprocessing cost.

Table II compares PDTL's orientation time against PowerGraph's setup and
OPT's database creation; Figure 2 shows how PDTL's multicore orientation
scales with the number of cores.  Here the same two views are regenerated:

* orientation wall time with the graph split into 1..8 chunks, one per
  master core, filtered in sequence on every dataset (Figure 2's
  series), and
* PDTL orientation vs PowerGraph setup vs OPT database creation on the
  comparison datasets (Table II's rows).

Figure 2's multicore speed-up is not reproduced: the chunks run one
after another, and orientation has no modelled CPU term to divide
across cores yet (ROADMAP item 1), so the series shows only what more
chunks cost in sequence.

The shape to reproduce: preprocessing is a small fraction of total runtime
for PDTL, and the competing systems' setup phases are heavier because they
re-encode / replicate the whole graph rather than stream-filtering it.
"""

from __future__ import annotations

import tempfile

from _bench_utils import BENCH_DATASETS, CORE_SWEEP, write_result

from repro.analysis.report import format_seconds_cell, format_table
from repro.baselines.opt import run_opt
from repro.baselines.powergraph import run_powergraph
from repro.core.orientation import orient_graph
from repro.externalmem.blockio import BlockDevice
from repro.graph.binfmt import write_graph


def _orientation_time(graph, chunks: int) -> float:
    with tempfile.TemporaryDirectory(prefix="bench_orient_") as root:
        device = BlockDevice(root, block_size=4096)
        gf = write_graph(device, "g", graph)
        return orient_graph(gf, num_chunks=chunks).elapsed_seconds


def test_fig2_multicore_orientation(benchmark, datasets, results_dir):
    """Figure 2: orientation time as the number of chunks (cores) grows."""

    def sweep():
        rows = []
        for name in ("twitter", "yahoo", "rmat-12", "rmat-13"):
            row: dict[str, object] = {"Graph": name}
            for cores in CORE_SWEEP:
                row[f"{cores} cores"] = format_seconds_cell(
                    _orientation_time(datasets[name], cores)
                )
            rows.append(row)
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    write_result(
        results_dir,
        "fig2_orientation_scaling",
        format_table(
            rows,
            title=(
                "Figure 2: PDTL orientation time, one chunk per core, chunks in "
                "sequence (multicore speed-up not modelled: orientation has no "
                "CPU term yet)"
            ),
        ),
    )
    assert len(rows) == 4


def test_table2_preprocessing_comparison(benchmark, datasets, results_dir):
    """Table II: PDTL orientation vs PowerGraph setup vs OPT database creation."""
    names = ("livejournal", "orkut", "twitter", "yahoo", "rmat-10")

    def sweep():
        rows = []
        for name in names:
            graph = datasets[name]
            orientation_s = _orientation_time(graph, chunks=4)
            pg = run_powergraph(graph, num_machines=4, memory_per_machine="1GB")
            opt = run_opt(graph, num_threads=4)
            pdtl_output_bytes = 8 * (graph.num_vertices + graph.num_undirected_edges)
            rows.append(
                {
                    "Graph": name,
                    "PDTL orientation": format_seconds_cell(orientation_s),
                    "PowerGraph setup": format_seconds_cell(pg.setup_seconds),
                    "OPT database": format_seconds_cell(opt.database_seconds),
                    "PDTL setup output (B)": pdtl_output_bytes,
                    "PG setup memory (B)": pg.peak_memory_bytes,
                    "OPT database (B)": opt.database_bytes,
                }
            )
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    write_result(
        results_dir,
        "table2_preprocessing",
        format_table(
            rows,
            title="Table II: preprocessing (PDTL orientation vs PowerGraph setup vs OPT database)",
        ),
    )
    # Shape (structural form): PDTL's preprocessing only materialises the
    # oriented graph, which is smaller than OPT's re-encoded database on every
    # dataset; PowerGraph's setup additionally replicates mirror vertices
    # across machines.  (Wall-clock orderings at analogue scale are dominated
    # by per-call overheads and are reported, not asserted.)
    for row in rows:
        assert row["OPT database (B)"] > row["PDTL setup output (B)"]
    assert sum(r["PG setup memory (B)"] for r in rows) > 0
