"""Single-core MGT: the external-memory baseline of Figures 10 and 11.

Section V-E1 of the paper compares PDTL against "our implementation of
MGT" -- that is, PDTL restricted to one node and one processor, without
the load-balancing or replication machinery.  This wrapper runs exactly
that configuration over an on-disk graph and measures orientation and
calculation time separately, so the speed-up curves
``speedup = MGT_time / PDTL_time`` can be regenerated.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from repro.core.config import PDTLConfig
from repro.core.mgt import MGTResult, MGTWorker
from repro.core.orientation import orient_graph
from repro.externalmem.blockio import BlockDevice
from repro.graph.binfmt import GraphFile, write_graph
from repro.graph.csr import CSRGraph
from repro.utils import Timer

__all__ = ["MGTBaselineResult", "run_single_core_mgt"]


@dataclass(frozen=True)
class MGTBaselineResult:
    """Outcome of a single-core MGT run (orientation + calculation)."""

    triangles: int
    orientation_seconds: float
    calc_seconds: float
    cpu_seconds: float
    io_seconds: float
    iterations: int
    mgt: MGTResult

    @property
    def total_seconds(self) -> float:
        return self.orientation_seconds + self.calc_seconds


def run_single_core_mgt(
    graph: CSRGraph | GraphFile,
    memory_per_proc: int | str = 64 * 1024 * 1024,
    block_size: int = 4096,
    device: BlockDevice | None = None,
    storage_root: str | Path | None = None,
) -> MGTBaselineResult:
    """Run single-core, single-node MGT on an undirected graph.

    ``graph`` may be an in-memory CSR graph (written to a scratch device
    first) or an on-disk undirected graph.  Orientation runs sequentially,
    matching the naive baseline the paper's multicore orientation is
    compared against.
    """
    import tempfile

    config = PDTLConfig(
        num_nodes=1,
        procs_per_node=1,
        memory_per_proc=memory_per_proc,
        block_size=block_size,
        load_balanced=False,
    )

    tempdir: tempfile.TemporaryDirectory | None = None
    try:
        if isinstance(graph, GraphFile):
            source = graph
        else:
            if device is None:
                if storage_root is not None:
                    device = BlockDevice(storage_root, block_size=block_size)
                else:
                    tempdir = tempfile.TemporaryDirectory(prefix="mgt_single_")
                    device = BlockDevice(tempdir.name, block_size=block_size)
            source = write_graph(device, "mgt_input", graph)

        orientation = orient_graph(source)
        calc_timer = Timer().start()
        worker = MGTWorker(orientation.oriented, config)
        result = worker.run()
        calc_timer.stop()

        return MGTBaselineResult(
            triangles=result.triangles,
            orientation_seconds=orientation.elapsed_seconds,
            calc_seconds=result.cpu_seconds + result.io_seconds,
            cpu_seconds=result.cpu_seconds,
            io_seconds=result.io_seconds,
            iterations=result.iterations,
            mgt=result,
        )
    finally:
        if tempdir is not None:
            tempdir.cleanup()
