#!/usr/bin/env python
"""External-memory workflow: from a raw unsorted edge dump to triangle counts.

The paper's input is its sorted binary format: a degree file plus an
adjacency file sorted by (source, destination).  Theorem IV.2 only remarks
that an unsorted input would cost an extra external sort before
orientation.  This example starts from a raw unsorted edge dump small
enough to sort in memory, brings it into the paper's format, and then runs
MGT on a deliberately tiny memory budget, showing the block-level I/O
accounting the external-memory model is built on:

  raw unsorted edge dump  --read, sort in memory-->  sorted edge list
                          --store-->  degree + adjacency files
                          --orient-->  oriented graph
                          --MGT (several memory windows)-->  triangle count

Run it with:  python examples/external_memory_workflow.py
"""

from __future__ import annotations

import tempfile

from repro.analysis.cost_model import estimate_mgt_cost
from repro.core.config import PDTLConfig
from repro.core.mgt import MGTWorker
from repro.core.orientation import orient_graph
from repro.externalmem.blockio import BlockDevice
from repro.graph.binfmt import write_graph
from repro.graph.csr import CSRGraph
from repro.graph.generators import rmat
from repro.graph.io import read_edgelist_binary, write_edgelist_binary
from repro.utils import format_size


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="pdtl_extmem_") as workdir:
        device = BlockDevice(workdir, block_size=4096)
        print(f"simulated disk at {device.root} (block size {device.block_size} bytes)")

        # -------------------------------------------------------------- #
        # 1. A raw, unsorted, bidirectional edge dump lands on disk.
        # -------------------------------------------------------------- #
        edges = rmat(scale=11, edge_factor=12, seed=5).symmetrized().shuffled(seed=9)
        dump = write_edgelist_binary(edges, device.path("raw_edges.bin"))
        print(f"raw edge dump : {edges.num_edges} directed edges "
              f"({format_size(dump.stat().st_size)}), unsorted")

        # -------------------------------------------------------------- #
        # 2. Read it back and sort it in memory by (source, destination).
        # -------------------------------------------------------------- #
        sorted_edges = read_edgelist_binary(dump).sorted()
        print(f"in-memory sort: {sorted_edges.num_edges} edges, "
              f"sorted = {sorted_edges.is_sorted()}")

        # -------------------------------------------------------------- #
        # 3. Store in the degree/adjacency binary format and orient.
        # -------------------------------------------------------------- #
        graph = CSRGraph.from_edgelist(sorted_edges, symmetrize=False)
        graph_file = write_graph(device, "graph", graph)
        orientation = orient_graph(graph_file, num_chunks=2)
        print(f"oriented graph: {orientation.num_edges} edges, "
              f"d*_max = {orientation.max_out_degree}")

        # -------------------------------------------------------------- #
        # 4. Run MGT with a tiny per-processor budget so several memory
        #    windows are needed, and compare the measured I/O with
        #    Theorem IV.2.
        # -------------------------------------------------------------- #
        config = PDTLConfig(memory_per_proc="96KB", block_size=4096)
        worker = MGTWorker(orientation.oriented, config)
        result = worker.run()
        estimate = estimate_mgt_cost(orientation.oriented, config)

        print(f"\nMGT under a {format_size(config.memory_per_proc)} budget:")
        print(f"  triangles          : {result.triangles}")
        print(f"  memory windows (h) : {result.iterations} "
              f"(model predicts {estimate.iterations})")
        print(f"  peak memory        : {format_size(result.peak_memory_bytes)}")
        print(f"  blocks read        : {result.io_stats.blocks_read} "
              f"(model's dominant term ≈ {estimate.io_blocks:.0f})")
        print(f"  sorted intersections: {result.intersections}")

        print("\ndevice-level I/O counters (store, orient and MGT):")
        stats = device.stats
        print(f"  bytes read    : {format_size(stats.bytes_read)}")
        print(f"  bytes written : {format_size(stats.bytes_written)}")
        print(f"  blocks        : {stats.total_blocks} "
              f"({stats.sequential_reads} sequential / {stats.random_reads} random reads)")
        print(f"  modelled time : {stats.device_seconds * 1000:.1f} ms on a 500 MB/s SSD")


if __name__ == "__main__":
    main()
