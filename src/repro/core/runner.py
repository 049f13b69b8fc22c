"""One-call entry points for the most common uses of the library.

These helpers wrap :class:`~repro.core.pdtl.PDTLRunner` for callers that
just want an answer:

>>> from repro import count_triangles
>>> from repro.graph.generators import complete_graph
>>> from repro.graph.csr import CSRGraph
>>> g = CSRGraph.from_edgelist(complete_graph(5))
>>> count_triangles(g).triangles
10
"""

from __future__ import annotations

from repro.core.config import PDTLConfig
from repro.core.pdtl import PDTLResult, PDTLRunner
from repro.graph.binfmt import GraphFile
from repro.graph.csr import CSRGraph

__all__ = [
    "count_triangles",
    "list_triangles",
    "triangle_counts_per_vertex",
    "edge_supports",
]


def _make_config(config: PDTLConfig | None, **overrides: object) -> PDTLConfig:
    if config is not None and overrides:
        raise ValueError("pass either a PDTLConfig or keyword overrides, not both")
    if config is not None:
        return config
    return PDTLConfig(**overrides)  # type: ignore[arg-type]


def count_triangles(
    graph: CSRGraph | GraphFile,
    config: PDTLConfig | None = None,
    backend: str = "serial",
    **config_overrides: object,
) -> PDTLResult:
    """Count all triangles of an undirected graph with PDTL.

    ``config_overrides`` are forwarded to :class:`PDTLConfig`
    (``num_nodes=2, procs_per_node=4, memory_per_proc="8MB"`` ...).
    ``shm=True`` serves the triangle phase's memory windows zero-copy from
    shared memory; it is strictly below the accounting layer, so counts,
    IOStats and modelled times are identical with it on or off.
    """
    cfg = _make_config(config, **config_overrides)
    return PDTLRunner(cfg, backend=backend).run(graph, sink_kind="count")


def list_triangles(
    graph: CSRGraph | GraphFile,
    config: PDTLConfig | None = None,
    backend: str = "serial",
    **config_overrides: object,
) -> PDTLResult:
    """List all triangles (the result's ``triangle_list`` holds them)."""
    cfg = _make_config(config, **config_overrides)
    return PDTLRunner(cfg, backend=backend).run(graph, sink_kind="list")


def triangle_counts_per_vertex(
    graph: CSRGraph | GraphFile,
    config: PDTLConfig | None = None,
    backend: str = "serial",
    **config_overrides: object,
) -> PDTLResult:
    """Per-vertex triangle counts (``per_vertex_counts`` on the result).

    This is the building block for clustering coefficients, transitivity,
    k-truss seeds and the other applications listed in the paper's
    introduction; see ``examples/social_network_analysis.py``.
    """
    cfg = _make_config(config, **config_overrides)
    return PDTLRunner(cfg, backend=backend).run(graph, sink_kind="per-vertex")


def edge_supports(
    graph: CSRGraph | GraphFile,
    config: PDTLConfig | None = None,
    backend: str = "serial",
    **config_overrides: object,
) -> PDTLResult:
    """Per-oriented-edge triangle supports (``edge_supports`` on the result,
    aligned with ``oriented_edges``).

    This is the input of the k-truss decomposition; see
    :func:`repro.analytics.run_analytics` for the full derived pipeline.
    """
    cfg = _make_config(config, **config_overrides)
    return PDTLRunner(cfg, backend=backend).run(graph, sink_kind="edge-support")
