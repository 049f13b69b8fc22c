"""The kernel tier belongs to the process, and a run only reads it.

``kernel_backend.use`` (or ``activate``, or ``KERNEL_BACKEND``) sets the
master's tier; each chunk task carries it, and a pool worker started on
another tier switches before it scans.  The pool is persistent, so these
tests rebuild it under one tier and then run under the other: the
workers' dispatch counts in a traced run's telemetry say which tier
scanned.  A run, serial or on the pool, must leave the master's tier as
it found it, so a later run dispatches the default tier everywhere.
"""

from __future__ import annotations

import pytest

from repro.cluster.executor import shutdown_process_pool
from repro.core import kernel_backend
from repro.core.config import PDTLConfig
from repro.core.pdtl import PDTLRunner
from repro.core.shm import shm_available
from repro.graph.csr import CSRGraph
from repro.graph.generators import rmat

_COMPILED_OK, _COMPILED_DETAIL = kernel_backend.compiled_available()
_SHM_OK, _SHM_REASON = shm_available()

pytestmark = pytest.mark.skipif(not _COMPILED_OK, reason=f"no C tier: {_COMPILED_DETAIL}")


@pytest.fixture(scope="module")
def graph() -> CSRGraph:
    return CSRGraph.from_edgelist(rmat(7, edge_factor=8, seed=17))


def _run(graph, backend: str, shm: bool = False, trace: bool = True):
    config = PDTLConfig(
        procs_per_node=2,
        memory_per_proc=4096,
        block_size=512,
        modelled_cpu=True,
        scheduling="dynamic",
        shm=shm,
        trace=trace,
    )
    return PDTLRunner(config, backend=backend).run(graph)


def _tiers(result, scope: str) -> set[str]:
    """The tiers of every kernel dispatch ``scope`` (``run`` for the
    master's process, ``worker`` for the pool's) counted in a traced run."""
    prefix = f"{scope}.kernel.dispatch."
    return {
        key.rsplit(".", 1)[1]
        for key, value in result.telemetry.counters.items()
        if key.startswith(prefix) and value
    }


@pytest.mark.skipif(not _SHM_OK, reason=f"POSIX shared memory unavailable: {_SHM_REASON}")
def test_a_pool_built_under_cffi_scans_on_the_master_tier(graph):
    shutdown_process_pool()
    with kernel_backend.use("cffi"):
        compiled = _run(graph, "processes", shm=True, trace=False)  # workers start on C
    with kernel_backend.use("numpy"):
        plain = _run(graph, "processes", shm=True)
    dispatched = {
        key
        for key, value in plain.telemetry.counters.items()
        if key.startswith("worker.kernel.dispatch.") and value
    }
    assert dispatched == {"worker.kernel.dispatch.mgt_chunk_scan.numpy"}
    # and back: the same workers follow the master to C again
    with kernel_backend.use("cffi"):
        again = _run(graph, "processes", shm=True)
    assert _tiers(again, "worker") == {"cffi"}
    assert compiled.triangles == plain.triangles == again.triangles
    assert compiled.calc_seconds == plain.calc_seconds == again.calc_seconds


def test_a_run_leaves_the_tier_as_it_found_it(graph):
    default = kernel_backend.active_backend()
    other = "numpy" if default == "cffi" else "cffi"
    shutdown_process_pool()
    with kernel_backend.use(other):
        serial = _run(graph, "serial")
        assert kernel_backend.active_backend() == other
        assert _tiers(serial, "run") == {other}
        _run(graph, "processes", trace=False)  # the pool's workers start on `other`
        assert kernel_backend.active_backend() == other
    assert kernel_backend.active_backend() == default
    later = _run(graph, "processes")
    assert _tiers(later, "run") == {default}
    assert _tiers(later, "worker") == {default}
