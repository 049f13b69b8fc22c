#!/usr/bin/env python
"""Distributed scaling study on a simulated cluster (the Figure 4 workflow).

This example reproduces, at laptop scale, the experiment behind the paper's
Figure 4 and Table III: take a large scale-free graph, run PDTL on 1-4
simulated machines with a fixed number of cores per machine, and report

* total time (orientation + copy + calculation, per the paper's convention),
* average graph-copy time per remote node,
* the per-node CPU / I/O split (Figures 6-8), and
* the speed-up over single-core MGT (Figure 11).

Run it with:  python examples/distributed_cluster.py
"""

from __future__ import annotations

from repro import PDTLConfig, PDTLRunner
from repro.baselines.mgt_single import run_single_core_mgt
from repro.graph.datasets import load_dataset
from repro.utils import format_seconds, format_size


def main() -> None:
    graph = load_dataset("rmat-12", seed=11)
    print(
        f"dataset rmat-12 (analogue of the paper's RMAT-28): "
        f"{graph.num_vertices} vertices, {graph.num_undirected_edges} edges"
    )

    # Baseline: single-core external-memory MGT, as in Figures 10/11.
    baseline = run_single_core_mgt(graph, memory_per_proc="2MB")
    print(
        f"\nsingle-core MGT baseline: {baseline.triangles} triangles in "
        f"{format_seconds(baseline.total_seconds)} "
        f"(orientation {format_seconds(baseline.orientation_seconds)})"
    )

    cores_per_node = 4
    print(f"\nPDTL with {cores_per_node} cores/node, 1 MiB of memory per core:")
    header = f"{'nodes':>5} | {'triangles':>10} | {'total':>10} | {'calc':>10} | {'avg copy':>9} | {'speedup':>7}"
    print(header)
    print("-" * len(header))

    for num_nodes in (1, 2, 3, 4):
        config = PDTLConfig(
            num_nodes=num_nodes,
            procs_per_node=cores_per_node,
            memory_per_proc="1MB",
            load_balanced=True,
        )
        result = PDTLRunner(config, backend="processes").run(graph)
        speedup = baseline.calc_seconds / max(result.calc_seconds, 1e-9)
        print(
            f"{num_nodes:>5} | {result.triangles:>10} | "
            f"{format_seconds(result.total_seconds):>10} | "
            f"{format_seconds(result.calc_seconds):>10} | "
            f"{format_seconds(result.average_copy_seconds):>9} | "
            f"{speedup:>6.1f}x"
        )

    # Per-node breakdown of the largest configuration (Figures 7/8 layout).
    config = PDTLConfig(num_nodes=4, procs_per_node=cores_per_node, memory_per_proc="1MB")
    result = PDTLRunner(config, backend="processes").run(graph)
    print("\nper-node breakdown at 4 nodes:")
    for row in result.node_breakdown():
        print(
            f"  node {int(row['node'])}: cpu {format_seconds(row['cpu_seconds'])}, "
            f"io {format_seconds(row['io_seconds'])}, "
            f"copy {format_seconds(row['copy_seconds'])}, "
            f"received {format_size(row['bytes_received'])}"
        )
    print(f"\nnode-imbalance ratio (max/min calc time): {result.metrics.imbalance_ratio():.2f}")
    print(f"total network traffic: {format_size(result.network_bytes)}")


if __name__ == "__main__":
    main()
