"""Fixtures and result plumbing for the perf microbenchmark harness.

The harness times the vectorised hot paths against the retained pre-PR
reference implementations on a ~100k-edge power-law graph and persists the
numbers twice:

* ``BENCH_pdtl.json`` at the repo root -- machine-readable, uploaded as a
  CI artifact so future PRs inherit a perf trajectory;
* ``benchmarks/results/perf_vectorization.txt`` -- the human-readable
  before/after table.

Set ``PDTL_PERF_QUICK=1`` (the CI perf-smoke job does) to run on a ~25k
edge graph with a single timing repetition and **without** the speedup
threshold assertions -- correctness (vectorised counts == serial
reference) is always asserted, so the smoke job still fails on any count
divergence.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent.parent))
from _bench_utils import RESULTS_DIR, write_result  # noqa: E402

from repro.graph.csr import CSRGraph  # noqa: E402
from repro.graph.generators import power_law_degree_graph  # noqa: E402

REPO_ROOT = Path(__file__).resolve().parents[2]
BENCH_JSON = REPO_ROOT / "BENCH_pdtl.json"

QUICK = bool(os.environ.get("PDTL_PERF_QUICK"))
#: timing repetitions (min is reported); 1 in quick mode
REPEATS = 1 if QUICK else 3
#: acceptance thresholds, asserted only in full mode
EXTSORT_MIN_SPEEDUP = 10.0
BASELINE_MIN_SPEEDUP = 5.0
#: processes+shm over the plain processes backend (test_perf_backends)
BACKEND_SHM_MIN_SPEEDUP = 1.5
#: vectorised k-truss peeler over the scalar reference (test_perf_analytics)
TRUSS_MIN_SPEEDUP = 5.0
#: compiled kernel tier over the numpy tier, both mgt_counting and
#: analytics_truss (test_perf_compiled); the tracked target is >=3x
COMPILED_MIN_SPEEDUP = 2.0
#: incremental GraphDelta.apply on a small batch over a full from-scratch
#: truss recompute (test_perf_delta)
DELTA_MIN_SPEEDUP = 5.0


@pytest.fixture(autouse=True)
def numpy_kernel_tier():
    """Pin the numpy kernel tier for every perf benchmark.

    The historical entries of ``BENCH_pdtl.json`` (extsort, baselines,
    backends, truss) measure the *vectorised numpy* paths
    against their pre-PR references and floors; letting the auto-detected
    compiled tier leak in would silently change what those numbers mean
    (and shift relative floors like the shm-vs-processes ratio).  The
    compiled-tier comparison has its own explicit benchmark
    (``test_perf_compiled.py``), which switches tiers per measurement with
    ``kernel_backend.use``.
    """
    from repro.core import kernel_backend

    with kernel_backend.use("numpy"):
        yield


def best_of(fn, repeats: int = REPEATS) -> tuple[float, object]:
    """Run ``fn`` ``repeats`` times; return (best wall seconds, last result)."""
    best = float("inf")
    value = None
    for _ in range(repeats):
        start = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - start)
    return best, value


@pytest.fixture(scope="session")
def perf_graph() -> CSRGraph:
    """The microbench workload: a power-law graph with ~100k (quick: ~25k)
    undirected edges and pronounced hubs."""
    n = 3500 if QUICK else 13000
    return CSRGraph.from_edgelist(
        power_law_degree_graph(n, exponent=2.1, min_degree=4, max_degree=300, seed=7)
    )


class _PerfReport:
    """Accumulates benchmark entries and writes both output files."""

    def __init__(self) -> None:
        self.entries: dict[str, dict] = {}
        self.graph_info: dict = {}

    def record(self, name: str, **fields) -> None:
        self.entries[name] = {
            key: (round(val, 6) if isinstance(val, float) else val)
            for key, val in fields.items()
        }

    def flush(self) -> None:
        if not self.entries:
            return
        entries = self.entries
        # a partial run (one benchmark file selected) must not erase the
        # other tracked entries: merge into an existing payload from the
        # same mode (quick vs full numbers never mix)
        if BENCH_JSON.exists():
            try:
                previous = json.loads(BENCH_JSON.read_text(encoding="utf-8"))
            except (OSError, ValueError):
                previous = None
            if (
                isinstance(previous, dict)
                and previous.get("quick") == QUICK
                and previous.get("graph") == self.graph_info
            ):
                entries = {**previous.get("benchmarks", {}), **entries}
        payload = {
            "schema": 1,
            "quick": QUICK,
            "python": platform.python_version(),
            "graph": self.graph_info,
            "benchmarks": entries,
        }
        BENCH_JSON.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
        lines = [
            "Perf microbenchmarks -- vectorised hot paths vs pre-PR references",
            f"(graph: {self.graph_info}, quick={QUICK})",
            "",
        ]
        for name, fields in entries.items():
            lines.append(f"[{name}]")
            for key, val in fields.items():
                lines.append(f"  {key:<24} {val}")
            lines.append("")
        write_result(RESULTS_DIR, "perf_vectorization", "\n".join(lines))


@pytest.fixture(scope="session")
def perf_report(perf_graph) -> _PerfReport:
    report = _PerfReport()
    report.graph_info = {
        "kind": "power_law",
        "num_vertices": perf_graph.num_vertices,
        "num_edges": perf_graph.num_undirected_edges,
        "max_degree": perf_graph.max_degree,
    }
    yield report
    report.flush()
