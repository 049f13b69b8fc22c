"""An OPT-style two-phase (database creation + calculation) counter.

OPT (Kim et al., SIGMOD'14) is a single-machine, disk-based system that
first builds an on-disk *database* -- a degree-sorted, indexed re-encoding
of the graph -- and then streams it with overlapped I/O and multi-core CPU
parallelism.  The paper measures the two phases separately (Table V,
Figure 12) and finds the database-creation phase far more expensive than
PDTL's orientation, while the calculation phases are comparable (PDTL up to
2× faster).

The re-implementation keeps that two-phase structure:

* **database creation** sorts the graph by the degree order, re-labels the
  vertices, writes the re-encoded graph to the device (all through the
  block layer, so it pays real scan + sort I/O), and builds a per-vertex
  index -- strictly more work than PDTL's filter-only orientation, which is
  what makes it slower in the same proportion;
* **calculation** splits the oriented edge set across ``num_threads``
  workers, streams the on-disk database back through the block layer (OPT
  is a disk-based system: every run re-reads the database with overlapped
  I/O) and counts with the same sorted-intersection kernel the other
  baselines use (exact counts).  ``calc_seconds`` is the measured compute
  time plus the *modelled* device time of the database scan -- the same
  cpu-plus-modelled-I/O convention PDTL's ``calc_seconds`` uses, so the
  Table V / Figure 12 comparisons stay like for like.
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.core import kernels
from repro.core.orientation import orient_csr
from repro.externalmem.blockio import BlockDevice
from repro.graph.csr import CSRGraph
from repro.utils import Timer, chunk_ranges, parse_size, ps_seconds

__all__ = ["OPTResult", "run_opt"]


@dataclass(frozen=True)
class OPTResult:
    """Outcome of a simulated OPT run (two measured phases)."""

    triangles: int
    database_seconds: float
    calc_seconds: float
    num_threads: int
    database_bytes: int

    @property
    def total_seconds(self) -> float:
        return self.database_seconds + self.calc_seconds


def run_opt(
    graph: CSRGraph,
    num_threads: int = 1,
    memory: int | str = 256 * 1024 * 1024,
    device: BlockDevice | None = None,
    storage_root: str | Path | None = None,
) -> OPTResult:
    """Simulate an OPT triangle count on a single machine.

    ``memory`` is accepted for interface parity with the other baselines
    (OPT is disk-based and does not OOM in the paper's experiments); it is
    currently only used to size the write buffers.
    """
    if graph.directed:
        raise ValueError("run_opt expects an undirected graph")
    if num_threads <= 0:
        raise ValueError("num_threads must be positive")
    parse_size(memory)  # validate

    tempdir: tempfile.TemporaryDirectory | None = None
    if device is None:
        if storage_root is not None:
            device = BlockDevice(storage_root)
        else:
            tempdir = tempfile.TemporaryDirectory(prefix="opt_db_")
            device = BlockDevice(tempdir.name)

    try:
        # ---- phase 1: database creation -------------------------------------------
        db_timer = Timer().start()
        degrees = graph.degrees
        # OPT requires the input sorted by vertex degree: build the degree
        # permutation, relabel the whole graph, and re-sort the adjacency.
        order = np.lexsort((np.arange(graph.num_vertices), degrees))
        relabel = np.empty(graph.num_vertices, dtype=np.int64)
        relabel[order] = np.arange(graph.num_vertices, dtype=np.int64)
        edges = graph.edge_array()
        relabelled = relabel[edges]
        sort_order = np.lexsort((relabelled[:, 1], relabelled[:, 0]))
        relabelled = relabelled[sort_order]
        # write the re-encoded database (degree index + adjacency + reverse map)
        db_file = device.open("opt_database.bin")
        db_file.truncate(0)
        db_file.append_array(relabelled.reshape(-1))
        index_file = device.open("opt_index.bin")
        index_file.truncate(0)
        counts = np.bincount(relabelled[:, 0], minlength=graph.num_vertices)
        index_file.append_array(np.cumsum(counts))
        map_file = device.open("opt_vertex_map.bin")
        map_file.truncate(0)
        map_file.append_array(order.astype(np.int64))
        database_bytes = (
            device.file_size("opt_database.bin")
            + device.file_size("opt_index.bin")
            + device.file_size("opt_vertex_map.bin")
        )
        db_timer.stop()

        # ---- phase 2: overlapped calculation ----------------------------------------
        calc_timer = Timer().start()
        device_ps_before = device.stats.device_ps
        oriented = orient_csr(graph)
        indptr, indices = oriented.indptr, oriented.indices
        ranges = chunk_ranges(oriented.num_vertices, num_threads)
        db_items = db_file.num_items()
        db_chunk = max(parse_size(memory) // (8 * max(num_threads, 1)), 1024)
        db_offset = 0
        total = 0
        for lo, hi in ranges:
            # stream this worker's share of the on-disk database (the input
            # of the real system's calculation phase) through the block
            # layer, so the scan's I/O is charged like every other system's
            share = db_items // num_threads if num_threads else db_items
            share_end = db_items if hi == oriented.num_vertices else db_offset + share
            while db_offset < share_end:
                count = min(db_chunk, share_end - db_offset)
                db_file.read_array(db_offset, count)
                db_offset += count
            total += kernels.count_cone_range(indptr, indices, lo, hi)
        calc_timer.stop()
        calc_io_ps = device.stats.device_ps - device_ps_before

        return OPTResult(
            triangles=total,
            database_seconds=db_timer.elapsed,
            calc_seconds=calc_timer.elapsed + ps_seconds(calc_io_ps),
            num_threads=num_threads,
            database_bytes=database_bytes,
        )
    finally:
        if tempdir is not None:
            tempdir.cleanup()
