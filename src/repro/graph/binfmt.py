"""The paper's on-disk binary graph format: a degree file plus an adjacency file.

Section V-B of the paper: *"Our PDTL framework assumes that graphs are in
binary, bi-directional format, with degrees of vertices and their out-edges
in separate files. Moreover, we assume that edges are sorted by source and
destination."*  This module reproduces that layout on top of the simulated
:class:`~repro.externalmem.blockio.BlockDevice`:

* ``<name>.deg``  -- int64 degree of every vertex, in vertex order;
* ``<name>.adj``  -- the concatenation of all adjacency lists in vertex
  order, each list sorted by destination;
* ``<name>.meta`` -- a tiny header (num_vertices, num_edges, directed flag,
  max_degree) so files can be opened without a full scan.

The same format stores both the bidirectional input graph ``G`` and its
orientation ``G*``; the ``directed`` flag distinguishes them.  The
``max_degree`` field of an oriented file is the ``d*_max`` the modified MGT
uses to size its ``nm`` / ``nmp`` scratch arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.errors import GraphFormatError
from repro.externalmem.blockio import BlockDevice, BlockFile
from repro.graph.csr import FORMAT_VIOLATIONS, CSRGraph
from repro.utils import prefix_sums

__all__ = ["GraphFile", "write_graph", "open_graph"]

_META_MAGIC = 0x7064746C  # "pdtl"
_META_ITEMS = 5  # magic, num_vertices, num_edges, directed, max_degree


@dataclass
class GraphFile:
    """Handle to an on-disk graph in the degree/adjacency format.

    The handle caches nothing except the metadata header; all degree and
    adjacency reads go through the block device so they are charged to its
    I/O counters.  Helper methods expose exactly the access patterns MGT
    and the orientation step need: full degree scans, contiguous adjacency
    ranges (the memory window), and per-vertex adjacency reads during the
    triangle pass.
    """

    device: BlockDevice
    name: str
    num_vertices: int
    num_edges: int
    directed: bool
    max_degree: int

    # -- file names -------------------------------------------------------------

    @property
    def degree_file_name(self) -> str:
        return f"{self.name}.deg"

    @property
    def adjacency_file_name(self) -> str:
        return f"{self.name}.adj"

    @property
    def meta_file_name(self) -> str:
        return f"{self.name}.meta"

    def _deg_file(self) -> BlockFile:
        return self.device.open(self.degree_file_name)

    def _adj_file(self) -> BlockFile:
        return self.device.open(self.adjacency_file_name)

    @property
    def size_bytes(self) -> int:
        """Total on-disk footprint (degree + adjacency files)."""
        return self.device.file_size(self.degree_file_name) + self.device.file_size(
            self.adjacency_file_name
        )

    # -- reads --------------------------------------------------------------------

    def read_degrees(self) -> np.ndarray:
        """Read the full degree array (one sequential scan of the ``.deg`` file)."""
        return self._deg_file().read_array(0, self.num_vertices)

    def read_degree_range(self, start_vertex: int, count: int) -> np.ndarray:
        """Read degrees for a contiguous vertex range."""
        if start_vertex < 0 or count < 0 or start_vertex + count > self.num_vertices:
            raise GraphFormatError(
                f"degree range [{start_vertex}, {start_vertex + count}) out of bounds"
            )
        return self._deg_file().read_array(start_vertex, count)

    def read_adjacency_range(self, start_edge: int, count: int) -> np.ndarray:
        """Read a contiguous slice of the adjacency file (the MGT edge window)."""
        if start_edge < 0 or count < 0 or start_edge + count > self.num_edges:
            raise GraphFormatError(
                f"adjacency range [{start_edge}, {start_edge + count}) out of bounds "
                f"(file has {self.num_edges} entries)"
            )
        return self._adj_file().read_array(start_edge, count)

    def read_neighbors(self, vertex: int, offsets: np.ndarray) -> np.ndarray:
        """Read the adjacency list of one vertex given the offset array.

        ``offsets`` must be the exclusive prefix sums of the degree array
        (callers compute it once per scan to avoid re-reading the degree
        file for every vertex).
        """
        start = int(offsets[vertex])
        count = int(offsets[vertex + 1] - offsets[vertex])
        if count == 0:
            return np.empty(0, dtype=np.int64)
        return self._adj_file().read_array(start, count)

    def iter_adjacency_blocks(
        self, vertices_per_block: int
    ) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
        """Stream the whole graph as ``(first_vertex, degrees, adjacency)`` blocks.

        Used by the sequential full-graph scan inside MGT's vertex loop:
        reading many vertices' lists at once keeps the device access pattern
        sequential (and therefore cheap in the I/O model) instead of issuing
        one tiny read per vertex.
        """
        if vertices_per_block <= 0:
            raise ValueError("vertices_per_block must be positive")
        offsets = prefix_sums(self.read_degrees())
        v = 0
        while v < self.num_vertices:
            hi = min(v + vertices_per_block, self.num_vertices)
            degrees = (offsets[v + 1 : hi + 1] - offsets[v:hi]).astype(np.int64)
            start = int(offsets[v])
            count = int(offsets[hi] - offsets[v])
            adjacency = (
                self.read_adjacency_range(start, count)
                if count
                else np.empty(0, dtype=np.int64)
            )
            yield v, degrees, adjacency
            v = hi

    def offsets(self) -> np.ndarray:
        """Exclusive prefix sums of the degree array (length ``n + 1``)."""
        return prefix_sums(self.read_degrees())

    def to_csr(self) -> CSRGraph:
        """Load the entire graph into memory as a CSR structure."""
        degrees = self.read_degrees()
        adjacency = (
            self.read_adjacency_range(0, self.num_edges)
            if self.num_edges
            else np.empty(0, dtype=np.int64)
        )
        return CSRGraph.from_arrays(degrees, adjacency, directed=self.directed)

    # -- validation ------------------------------------------------------------------

    def validate(self) -> None:
        """Check the sortedness and consistency invariants of the format.

        Raises :class:`GraphFormatError` on violation.  This is the guard
        against the silent-missing-triangles failure mode of unsorted input
        described in section IV-A1 of the paper.
        """
        degrees = self.read_degrees()
        if degrees.shape[0] != self.num_vertices:
            raise GraphFormatError("degree file length does not match metadata")
        if int(degrees.sum()) != self.num_edges:
            raise GraphFormatError(
                f"degree sum {int(degrees.sum())} does not match adjacency length "
                f"{self.num_edges}"
            )
        if degrees.size and int(degrees.max()) != self.max_degree:
            raise GraphFormatError("max_degree metadata is stale")
        _check_format(self.to_csr())

    # -- copy (graph duplication across machines) --------------------------------------

    def copy_to(self, device: BlockDevice, name: str | None = None) -> "GraphFile":
        """Duplicate this graph onto another device (master → client copy).

        Both degree and adjacency files are copied through the block layer
        so the transfer shows up in both devices' I/O statistics; the
        cluster layer additionally charges the network-transfer time that
        Table III reports as copy time.
        """
        name = name if name is not None else self.name
        self.device.copy_file(self.degree_file_name, device, f"{name}.deg")
        self.device.copy_file(self.adjacency_file_name, device, f"{name}.adj")
        self.device.copy_file(self.meta_file_name, device, f"{name}.meta")
        return GraphFile(
            device=device,
            name=name,
            num_vertices=self.num_vertices,
            num_edges=self.num_edges,
            directed=self.directed,
            max_degree=self.max_degree,
        )

    def delete(self) -> None:
        self.device.delete(self.degree_file_name)
        self.device.delete(self.adjacency_file_name)
        self.device.delete(self.meta_file_name)


def _check_format(graph: CSRGraph) -> None:
    """Raise :class:`GraphFormatError` unless every list of ``graph`` is
    sorted, loop-free and duplicate-free.

    The C tier checks all three in one pass (``csr_violations``) and raises
    the error :meth:`CSRGraph.check_sorted_adjacency` followed by
    :meth:`CSRGraph.check_simple` would raise; the numpy tier runs those two.
    """
    from repro.core import kernel_backend  # lazy: repro.core imports this module

    violations = kernel_backend.fused("csr_violations")
    if violations is None:
        graph.check_sorted_adjacency()
        graph.check_simple()
        return
    for message, vertex in zip(FORMAT_VIOLATIONS, violations(graph.indptr, graph.indices)):
        if vertex >= 0:
            raise GraphFormatError(message.format(vertex))


def write_graph(
    device: BlockDevice, name: str, graph: CSRGraph, check: bool = True
) -> GraphFile:
    """Write a CSR graph to ``device`` in the degree/adjacency format.

    The CSR invariants (sorted lists, no loops, no duplicates) are checked
    before writing so that every on-disk graph satisfies the modified-MGT
    preconditions.  ``check=False`` skips that walk, for the two writers
    whose lists are checked by the pass that reads them: the PDTL runner's
    staging, whose every list the orientation filter checks next, and the
    orientation's output, whose every list is a sub-list of a checked one
    (:func:`repro.core.orientation.orient_graph`).  The arrays are written
    from contiguous int64 views of the graph, not from copies.
    """
    if check:
        _check_format(graph)
    for suffix in (".deg", ".adj", ".meta"):
        device.delete(f"{name}{suffix}")
    deg_file = device.open(f"{name}.deg")
    adj_file = device.open(f"{name}.adj")
    meta_file = device.open(f"{name}.meta")

    deg_file.append_array(np.ascontiguousarray(graph.degrees, dtype=np.int64))
    if graph.num_edges:
        adj_file.append_array(np.ascontiguousarray(graph.indices, dtype=np.int64))
    meta = np.array(
        [
            _META_MAGIC,
            graph.num_vertices,
            graph.num_edges,
            1 if graph.directed else 0,
            graph.max_degree,
        ],
        dtype=np.int64,
    )
    meta_file.append_array(meta)
    return GraphFile(
        device=device,
        name=name,
        num_vertices=graph.num_vertices,
        num_edges=graph.num_edges,
        directed=graph.directed,
        max_degree=graph.max_degree,
    )


def open_graph(device: BlockDevice, name: str) -> GraphFile:
    """Open an existing on-disk graph by reading its ``.meta`` header."""
    meta_name = f"{name}.meta"
    if not device.exists(meta_name):
        raise GraphFormatError(f"no graph named {name!r} on device {device.root}")
    meta = device.open(meta_name).read_array(0, _META_ITEMS)
    if meta.shape[0] != _META_ITEMS or int(meta[0]) != _META_MAGIC:
        raise GraphFormatError(f"corrupt metadata for graph {name!r}")
    return GraphFile(
        device=device,
        name=name,
        num_vertices=int(meta[1]),
        num_edges=int(meta[2]),
        directed=bool(meta[3]),
        max_degree=int(meta[4]),
    )
