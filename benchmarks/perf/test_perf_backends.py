"""Backend scaling: serial vs processes vs processes+shm.

The quantity this benchmark tracks is the cost of the *execution backend*
itself on one full PDTL run -- the same graph, the same dynamic chunk
schedule, the same modelled numbers (asserted bit-identical), only the
host-side execution strategy varies:

* ``serial`` -- the in-process reference;
* ``processes`` -- the persistent-pool processes backend, every chunk task
  re-reading its memory windows from the on-disk replica (the duplicated
  host reads the shared-memory subsystem removes);
* ``processes+shm`` -- the same pool, windows sliced zero-copy from the
  published shared-memory segments (``PDTLConfig(shm=True)``);
* ``processes (fresh pool)`` -- the pre-persistent-pool regime (one
  ``ProcessPoolExecutor`` per scheduler round), kept as the historical
  baseline the PR replaced.

The workload is a *sparse* power-law graph under a small per-processor
memory budget -- the external-memory regime the paper targets, where the
per-window full-graph scans dominate and the windows no longer fit in
memory.  On dense graphs the shared intersection kernels dominate both
paths and the backend gap narrows; here the duplicated reads are the
bottleneck, which is exactly what fig3/fig10-11 measure.

In full mode the ``processes+shm`` backend must beat the plain processes
backend by at least ``BACKEND_SHM_MIN_SPEEDUP``; quick mode (CI smoke)
only asserts the count/modelled-time equivalences.  Results land in the
``backend_scaling`` section of ``BENCH_pdtl.json``.
"""

from __future__ import annotations

import time

import pytest

from conftest import BACKEND_SHM_MIN_SPEEDUP, QUICK, REPEATS

from repro.baselines.inmemory import forward_count
from repro.cluster.executor import shutdown_process_pool
from repro.core.config import PDTLConfig
from repro.core.pdtl import PDTLRunner
from repro.core.shm import shm_available
from repro.graph.csr import CSRGraph
from repro.graph.generators import power_law_degree_graph

_MEMORY = 32 * 1024  # small M -> many windows -> the read-bound regime
_BLOCK = 4096

_SHM_OK, _SHM_REASON = shm_available()


@pytest.fixture(scope="module")
def scaling_graph() -> CSRGraph:
    """Sparse power-law workload (low triangle density, pronounced tail)."""
    n = 12000 if QUICK else 40000
    return CSRGraph.from_edgelist(
        power_law_degree_graph(n, exponent=2.3, min_degree=2, max_degree=60, seed=7)
    )


def _config(shm: bool) -> PDTLConfig:
    return PDTLConfig(
        num_nodes=1,
        procs_per_node=4,
        memory_per_proc=_MEMORY,
        block_size=_BLOCK,
        modelled_cpu=True,
        scheduling="dynamic",
        # the conftest fixture pins the numpy tier in this process, and
        # every chunk task carries it to the pool's workers, so every
        # backend measures the same kernel tier
        shm=shm,
    )


def _best_run(graph, backend: str, shm: bool, fresh_pool: bool = False):
    """Best-of-``REPEATS`` wall clock for one backend configuration."""
    best_wall = float("inf")
    result = None
    for _ in range(REPEATS):
        if fresh_pool:
            shutdown_process_pool()
        start = time.perf_counter()
        result = PDTLRunner(_config(shm), backend=backend).run(graph)
        best_wall = min(best_wall, time.perf_counter() - start)
    return best_wall, result


@pytest.mark.skipif(not _SHM_OK, reason=f"shared memory unavailable: {_SHM_REASON}")
def test_backend_scaling(scaling_graph, perf_report):
    expected = forward_count(scaling_graph)

    # warm the persistent pool and the page cache outside the timed region
    _best_run(scaling_graph, "processes", shm=False)
    _best_run(scaling_graph, "processes", shm=True)

    runs = {
        "serial": _best_run(scaling_graph, "serial", shm=False),
        "processes": _best_run(scaling_graph, "processes", shm=False),
        "processes_shm": _best_run(scaling_graph, "processes", shm=True),
        "processes_fresh_pool": _best_run(
            scaling_graph, "processes", shm=False, fresh_pool=True
        ),
    }

    # every backend reports the exact same answer and the exact same
    # modelled numbers -- the backend is a host concern only
    reference = runs["serial"][1]
    for label, (_, result) in runs.items():
        assert result.triangles == expected, label
        assert result.calc_seconds == reference.calc_seconds, label
        assert result.total_io_seconds == reference.total_io_seconds, label
        assert result.total_cpu_seconds == reference.total_cpu_seconds, label
    assert runs["processes_shm"][1].shm_used
    assert not runs["processes"][1].shm_used

    edges = scaling_graph.num_undirected_edges
    speedup_vs_processes = runs["processes"][0] / runs["processes_shm"][0]
    speedup_vs_fresh = runs["processes_fresh_pool"][0] / runs["processes_shm"][0]
    perf_report.record(
        "backend_scaling",
        graph_vertices=scaling_graph.num_vertices,
        graph_edges=edges,
        triangles=int(expected),
        memory_bytes=_MEMORY,
        num_chunks=runs["serial"][1].num_chunks,
        serial_wall_s=runs["serial"][0],
        processes_wall_s=runs["processes"][0],
        processes_fresh_pool_wall_s=runs["processes_fresh_pool"][0],
        processes_shm_wall_s=runs["processes_shm"][0],
        serial_edges_per_s=edges / runs["serial"][0],
        processes_edges_per_s=edges / runs["processes"][0],
        processes_shm_edges_per_s=edges / runs["processes_shm"][0],
        shm_speedup_vs_processes=speedup_vs_processes,
        shm_speedup_vs_fresh_pool=speedup_vs_fresh,
    )
    if not QUICK:
        assert speedup_vs_processes >= BACKEND_SHM_MIN_SPEEDUP, (
            f"processes+shm speedup {speedup_vs_processes:.2f}x over the "
            f"processes backend is below the {BACKEND_SHM_MIN_SPEEDUP}x floor"
        )
