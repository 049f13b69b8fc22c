"""Microbenchmarks of the vectorised hot paths, tracked in ``BENCH_pdtl.json``.

Three microbenchmarks of the vectorised layers:

* **baseline counting** -- the shared-kernel compact-forward count vs the
  pre-refactor per-vertex Python loops.
* **mgt counting** -- single-core MGT throughput over the on-disk graph.
* **orientation** -- the master's preprocessing step, for trajectory
  tracking.

Every benchmark asserts exact count equality against the serial reference;
the ≥5x speedup floor is asserted only in full mode (the CI perf-smoke job
runs quick mode, where timings on shared runners are noisy).
"""

from __future__ import annotations

import pytest

from conftest import (
    BASELINE_MIN_SPEEDUP,
    QUICK,
    REPEATS,
    best_of,
)

from repro.baselines.inmemory import forward_count
from repro.baselines.reference_impl import forward_count_scalar
from repro.core.config import PDTLConfig
from repro.core.mgt import mgt_count
from repro.core.orientation import orient_graph
from repro.externalmem.blockio import BlockDevice
from repro.graph.binfmt import write_graph

_MGT_MEMORY = 256 * 1024
_BLOCK = 4096


@pytest.fixture(scope="module")
def reference_count(perf_graph) -> int:
    return forward_count_scalar(perf_graph)


def test_baseline_counting_throughput(perf_graph, perf_report, reference_count):
    scalar_s, scalar_count = best_of(lambda: forward_count_scalar(perf_graph))
    vector_s, vector_count = best_of(lambda: forward_count(perf_graph))
    assert scalar_count == vector_count == reference_count
    speedup = scalar_s / vector_s
    perf_report.record(
        "baseline_counting",
        triangles=int(vector_count),
        scalar_s=scalar_s,
        vectorized_s=vector_s,
        speedup=speedup,
        edges_per_s=perf_graph.num_undirected_edges / vector_s,
    )
    if not QUICK:
        assert speedup >= BASELINE_MIN_SPEEDUP, (
            f"baseline counting speedup {speedup:.1f}x below the "
            f"{BASELINE_MIN_SPEEDUP}x floor"
        )


def test_mgt_counting_throughput(perf_graph, perf_report, reference_count, tmp_path_factory):
    device = BlockDevice(tmp_path_factory.mktemp("mgt"), block_size=_BLOCK)
    oriented = orient_graph(write_graph(device, "g", perf_graph)).oriented

    config = PDTLConfig(memory_per_proc=_MGT_MEMORY, block_size=_BLOCK)
    wall, result = best_of(lambda: mgt_count(oriented, config))
    assert result.triangles == reference_count
    perf_report.record(
        "mgt_counting",
        triangles=int(result.triangles),
        memory_bytes=_MGT_MEMORY,
        iterations=result.iterations,
        wall_s=wall,
        edges_per_s=oriented.num_edges / wall,
        modelled_io_s=result.io_stats.device_seconds,
    )


def test_orientation_throughput(perf_graph, perf_report, tmp_path_factory):
    walls = []
    for i in range(REPEATS):
        device = BlockDevice(tmp_path_factory.mktemp(f"orient{i}"), block_size=_BLOCK)
        source = write_graph(device, "g", perf_graph)
        wall, orientation = best_of(
            lambda: orient_graph(source), repeats=1
        )
        assert orientation.oriented.num_edges == perf_graph.num_undirected_edges
        walls.append(wall)
    best = min(walls)
    perf_report.record(
        "orientation",
        wall_s=best,
        edges_per_s=perf_graph.num_edges / best,
    )
