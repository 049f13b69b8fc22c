#!/usr/bin/env python
"""Quickstart: count and list triangles with PDTL.

This example walks through the minimal public API:

1. build (or load) an undirected graph,
2. count its triangles with a single call,
3. re-run on a simulated multi-node cluster and inspect the result's
   per-node resource breakdown,
4. list the actual triangles of a small graph.

Run it with:  python examples/quickstart.py
"""

from __future__ import annotations

from repro import PDTLConfig, PDTLRunner, count_triangles, list_triangles
from repro.graph.csr import CSRGraph
from repro.graph.generators import complete_graph, rmat
from repro.utils import format_seconds, format_size


def main() -> None:
    # ------------------------------------------------------------------ #
    # 1. Build a graph.  Any (m, 2) edge iterable works; here we use the
    #    R-MAT generator the paper's synthetic datasets come from.
    # ------------------------------------------------------------------ #
    edges = rmat(scale=9, edge_factor=8, seed=42)
    graph = CSRGraph.from_edgelist(edges)
    print(f"graph: {graph.num_vertices} vertices, "
          f"{graph.num_undirected_edges} edges, max degree {graph.max_degree}")

    # ------------------------------------------------------------------ #
    # 2. Count triangles with the defaults (single node, single core).
    # ------------------------------------------------------------------ #
    result = count_triangles(graph)
    print(f"\nsingle-core PDTL: {result.triangles} triangles "
          f"(orientation {format_seconds(result.orientation_seconds)}, "
          f"calculation {format_seconds(result.calc_seconds)})")

    # ------------------------------------------------------------------ #
    # 3. The same count on a simulated 2-node x 4-core cluster with only
    #    1 MiB of memory per core -- PDTL is an external-memory algorithm,
    #    so tiny memory budgets still work.
    # ------------------------------------------------------------------ #
    config = PDTLConfig(
        num_nodes=2,
        procs_per_node=4,
        memory_per_proc="1MB",
        load_balanced=True,
    )
    runner = PDTLRunner(config, backend="processes")
    distributed = runner.run(graph)
    print(f"\ndistributed PDTL ({config.describe()}):")
    print(f"  triangles        : {distributed.triangles}")
    print(f"  network traffic  : {format_size(distributed.network_bytes)}")
    print(f"  avg copy time    : {format_seconds(distributed.average_copy_seconds)}")
    print("  per-node breakdown:")
    for row in distributed.node_breakdown():
        print(
            f"    node {int(row['node'])}: "
            f"cpu {format_seconds(row['cpu_seconds'])}, "
            f"io {format_seconds(row['io_seconds'])}, "
            f"{int(row['triangles'])} triangles from {int(row['workers'])} workers"
        )

    # ------------------------------------------------------------------ #
    # 4. Triangle *listing* on a small graph: every triangle is reported as
    #    (cone vertex, v, w) in the paper's cone/pivot orientation.
    # ------------------------------------------------------------------ #
    k5 = CSRGraph.from_edgelist(complete_graph(5))
    listing = list_triangles(k5)
    print(f"\nK5 contains {listing.triangles} triangles:")
    for triangle in sorted(listing.triangle_list):
        print(f"  cone={triangle.cone}  pivot=({triangle.v}, {triangle.w})")


if __name__ == "__main__":
    main()
