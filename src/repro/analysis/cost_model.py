"""Analytic cost model: Theorems IV.2 and IV.3 evaluated for concrete inputs.

The theorems give asymptotic envelopes; this module evaluates the dominant
terms (without hidden constants) so that tests and benchmarks can check

* that the measured block-I/O counters of an MGT run scale like
  ``|E|²/(M·B) + T/B`` as ``M`` and ``B`` vary (the cost-model ablation
  benchmark), and
* that PDTL's measured network traffic matches ``Θ(N·(P+|E|) + T)``
  within small constant factors.

Everything is expressed in *elements* (int64 adjacency entries) rather than
bytes, mirroring the paper's convention of measuring ``M`` and ``B`` in
edges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.config import PDTLConfig
from repro.externalmem.iostats import scan_io_cost
from repro.graph.binfmt import GraphFile
from repro.graph.csr import CSRGraph

__all__ = [
    "MGTCostEstimate",
    "PDTLCostEstimate",
    "SetupCostEstimate",
    "estimate_mgt_cost",
    "estimate_pdtl_cost",
    "estimate_setup_cost",
]


def _undirected_edge_count(graph: CSRGraph | GraphFile) -> int:
    """Number of undirected edges for either an in-memory or on-disk graph.

    For oriented graphs (in-memory or on-disk) each undirected edge is stored
    once, so the stored edge count is already |E|.
    """
    if graph.directed:
        return graph.num_edges
    if isinstance(graph, GraphFile):
        return graph.num_edges // 2
    return graph.num_undirected_edges


def _arboricity_bound(num_edges: int) -> int:
    """Theorem III.4(1): α ≤ ⌈√|E|⌉."""
    return int(math.ceil(math.sqrt(max(num_edges, 0))))


@dataclass(frozen=True)
class MGTCostEstimate:
    """Dominant-term estimates of Theorem IV.2 for one MGT execution.

    ``io_blocks`` estimates ``|E|²/(M·B) + T/B`` (scans of the graph once per
    memory window plus the output cost); ``cpu_operations`` estimates
    ``|E|²/M + α·|E|``; ``iterations`` is ``h = ⌈|E|/M⌉``, the number of
    memory windows.
    """

    num_edges: int
    memory_edges: int
    block_edges: int
    num_triangles: int
    iterations: int
    io_blocks: float
    cpu_operations: float
    arboricity_bound: int


@dataclass(frozen=True)
class PDTLCostEstimate:
    """Dominant-term estimates of Theorem IV.3 for a full PDTL run."""

    num_edges: int
    total_processors: int
    num_nodes: int
    memory_edges: int
    block_edges: int
    num_triangles: int
    network_traffic_elements: float
    cpu_operations: float
    io_blocks: float
    iterations_per_processor: int


@dataclass(frozen=True)
class SetupCostEstimate:
    """Dominant-term estimate of the master's preprocessing (setup) I/O.

    The setup phase -- staging the input graph, orienting it and serving
    the replication reads -- is a fixed number of sequential scans of the
    degree and adjacency files, so its block count does not depend on the
    execution backend (the preprocessing equivalence suite asserts the
    measured counters are bit-identical across backends).
    This estimate gives the scan-cost envelope those counters must sit
    near, in the same no-hidden-constants spirit as the MGT and PDTL
    estimates above.
    """

    num_vertices: int
    adjacency_entries: int
    oriented_entries: int
    num_nodes: int
    stage_write_blocks: int
    orientation_read_blocks: int
    orientation_write_blocks: int
    replication_read_blocks: int

    @property
    def total_blocks(self) -> int:
        return (
            self.stage_write_blocks
            + self.orientation_read_blocks
            + self.orientation_write_blocks
            + self.replication_read_blocks
        )


def estimate_setup_cost(
    graph: CSRGraph | GraphFile,
    config: PDTLConfig,
    oriented_entries: int | None = None,
) -> SetupCostEstimate:
    """Scan-cost envelope of the master's preprocessing for ``graph``.

    ``graph`` is the undirected input; ``oriented_entries`` defaults to
    half its stored adjacency entries (every undirected edge is kept
    exactly once by the orientation).  All quantities are sequential
    scans: staging writes the degree + adjacency files, orientation reads
    both and writes the oriented pair, and each of the ``N - 1`` remote
    nodes costs one replication read of the oriented pair on the master.
    """
    num_vertices, entries = graph.num_vertices, graph.num_edges
    if graph.directed:
        raise ValueError("estimate_setup_cost expects the undirected input graph")
    oriented = entries // 2 if oriented_entries is None else oriented_entries
    block = config.block_items
    graph_scan = scan_io_cost(num_vertices, block) + scan_io_cost(entries, block)
    oriented_scan = scan_io_cost(num_vertices, block) + scan_io_cost(oriented, block)
    return SetupCostEstimate(
        num_vertices=num_vertices,
        adjacency_entries=entries,
        oriented_entries=oriented,
        num_nodes=config.num_nodes,
        stage_write_blocks=graph_scan,
        orientation_read_blocks=graph_scan,
        orientation_write_blocks=oriented_scan,
        replication_read_blocks=(config.num_nodes - 1) * oriented_scan,
    )


def estimate_mgt_cost(
    graph: CSRGraph | GraphFile,
    config: PDTLConfig,
    num_triangles: int = 0,
    count_only: bool = True,
) -> MGTCostEstimate:
    """Evaluate the Theorem IV.2 formulas for ``graph`` under ``config``.

    ``graph`` may be the undirected graph or its orientation; only its edge
    count, triangle count and arboricity bound enter the formulas.
    """
    num_edges = _undirected_edge_count(graph)
    memory_edges = config.window_edges
    block_edges = config.block_items
    output_triangles = 0 if count_only else num_triangles
    iterations = max(math.ceil(num_edges / memory_edges), 1) if num_edges else 0
    alpha = _arboricity_bound(num_edges)

    io_blocks = iterations * (num_edges / block_edges) + output_triangles / block_edges
    cpu_operations = iterations * num_edges + alpha * num_edges
    return MGTCostEstimate(
        num_edges=num_edges,
        memory_edges=memory_edges,
        block_edges=block_edges,
        num_triangles=num_triangles,
        iterations=iterations,
        io_blocks=io_blocks,
        cpu_operations=cpu_operations,
        arboricity_bound=alpha,
    )


def estimate_pdtl_cost(
    graph: CSRGraph | GraphFile,
    config: PDTLConfig,
    num_triangles: int = 0,
    sink_kind: str = "count",
) -> PDTLCostEstimate:
    """Evaluate the Theorem IV.3 formulas for ``graph`` under ``config``.

    Network traffic is in "elements" (adjacency entries / messages): the
    graph is shipped once to each of the ``N`` nodes, each of the ``N·P``
    processors receives a configuration message, and ``T`` triangles come
    back when listing (``sink_kind == "list"``, the kind the run was given;
    0 otherwise, per the theorem's counting convention).
    """
    num_edges = _undirected_edge_count(graph)
    np_total = config.total_processors
    memory_edges = config.window_edges
    block_edges = config.block_items
    output_triangles = num_triangles if sink_kind == "list" else 0
    alpha = _arboricity_bound(num_edges)

    network = config.num_nodes * (config.procs_per_node + num_edges) + output_triangles
    cpu = np_total * num_edges + (num_edges**2) / memory_edges + alpha * num_edges
    io = (
        np_total * (num_edges / block_edges)
        + (num_edges**2) / (memory_edges * block_edges)
        + output_triangles / block_edges
    )
    chunk = max(num_edges // max(np_total, 1), 1)
    iterations = max(math.ceil(chunk / memory_edges), 1) if num_edges else 0
    return PDTLCostEstimate(
        num_edges=num_edges,
        total_processors=np_total,
        num_nodes=config.num_nodes,
        memory_edges=memory_edges,
        block_edges=block_edges,
        num_triangles=num_triangles,
        network_traffic_elements=network,
        cpu_operations=cpu,
        io_blocks=io,
        iterations_per_processor=iterations,
    )
