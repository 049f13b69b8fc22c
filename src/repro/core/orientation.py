"""Degree-based ordering and graph orientation (Definition III.2, section IV-B1).

The degree-based strict total order ``≺`` on vertices is

    ``u ≺ v``  iff  ``d(u) < d(v)``  or  (``d(u) == d(v)`` and ``u < v``),

and the orientation ``G*`` keeps exactly the edges ``(u, v)`` with
``u ≺ v``.  Orientation is the master's preprocessing step: it is measured
separately in the paper (Table II, Figure 2, Table IX) and happens exactly
once per graph regardless of how many machines participate.

Two code paths are provided:

* :func:`orient_csr` -- fully vectorised in-memory orientation, used by the
  in-memory baselines and by tests as the reference implementation;
* :func:`orient_graph` -- the external-memory path: the degree array is
  read into memory (the paper assumes ``|V| < P·M``), the adjacency file
  is split into ``num_chunks`` contiguous vertex chunks (one per master
  core in a PDTL run, the "multicore orientation" of section IV-B1) that
  are stream-filtered one after another and concatenated in order.  Each
  chunk's filter is one branch-free pass of the C tier's ``orient_range``
  kernel, or its numpy twin :func:`_orient_range_numpy` (the reference
  the kernel is tested against, with :func:`orient_csr`).  Either raises
  :class:`~repro.errors.GraphFormatError` naming the vertex when an
  on-disk id lies outside ``[0, n)``.  At this reproduction's sizes the
  filter is a few milliseconds, and two chunks on threads were no faster
  than the same chunks in sequence (README, "Preprocessing"), so the
  chunks run in sequence.

The chunk decomposition fixes the I/O accounting: the master charges one
degree-file scan plus one adjacency read per chunk **in chunk order**
(:meth:`repro.externalmem.blockio.BlockDevice.charge_read`), while the
chunk compute reads the bytes below the accounting (raw ``np.fromfile``).
The oriented file bytes do not depend on the chunk count, and IOStats
and the modelled device seconds depend on it only through the number of
charged reads -- the equivalence suite asserts this, it is not assumed.

Because both the input and output adjacency files are sorted by source and
then destination, and orientation only *removes* entries, the output
automatically satisfies the sortedness invariant the modified MGT needs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core import kernel_backend, kernels
from repro.errors import GraphFormatError
from repro.externalmem.blockio import BlockDevice
from repro.graph.binfmt import GraphFile, write_graph
from repro.graph.csr import CSRGraph
from repro.utils import Timer, chunk_ranges, prefix_sums

__all__ = [
    "OrientationResult",
    "degree_order_keys",
    "precedes",
    "orient_csr",
    "orient_graph",
]


@dataclass
class OrientationResult:
    """Everything the PDTL master needs after orienting a graph.

    ``in_degrees`` holds ``d_G(v) - d_G*(v)`` for every vertex -- the number
    of *incoming* oriented edges -- which is exactly the per-vertex weight
    the load-balancing step uses to split edge ranges (section IV-B1).
    ``modelled_io_seconds`` is the modelled device time charged during the
    orientation (input scans plus output writes).
    """

    oriented: GraphFile
    max_out_degree: int
    out_degrees: np.ndarray
    in_degrees: np.ndarray
    elapsed_seconds: float
    num_chunks: int
    modelled_io_seconds: float = 0.0

    @property
    def num_vertices(self) -> int:
        return self.oriented.num_vertices

    @property
    def num_edges(self) -> int:
        return self.oriented.num_edges


def degree_order_keys(degrees: np.ndarray) -> np.ndarray:
    """Return a key array such that ``key[u] < key[v]`` iff ``u ≺ v``.

    The key packs (degree, vertex id) into a single int64, which keeps the
    orientation filter a pure vectorised comparison.  Vertex ids must fit in
    32 bits, which covers every graph this reproduction can hold in memory.
    """
    degrees = np.asarray(degrees, dtype=np.int64)
    n = degrees.shape[0]
    if n >= (1 << 31):
        raise ValueError("vertex ids beyond 2^31 are not supported by the key packing")
    return (degrees << 32) | np.arange(n, dtype=np.int64)


def precedes(u: int, v: int, degrees: np.ndarray) -> bool:
    """Scalar predicate ``u ≺ v`` under the degree-based order."""
    du, dv = int(degrees[u]), int(degrees[v])
    return du < dv or (du == dv and u < v)


def orient_csr(graph: CSRGraph) -> CSRGraph:
    """In-memory orientation of an undirected CSR graph.

    Returns a directed CSR graph containing each undirected edge exactly
    once, from its ``≺``-smaller endpoint to the larger.  Adjacency lists
    stay sorted by destination id.
    """
    if graph.directed:
        raise ValueError("orient_csr expects an undirected (bidirectional) graph")
    degrees = graph.degrees
    keys = degree_order_keys(degrees)
    sources = graph.edge_sources()
    destinations = graph.indices
    keep = keys[sources] < keys[destinations]
    out_degrees = np.zeros(graph.num_vertices, dtype=np.int64)
    if keep.any():
        np.add.at(out_degrees, sources[keep], 1)
    new_indptr = prefix_sums(out_degrees)
    new_indices = destinations[keep].copy()
    return CSRGraph(new_indptr, new_indices, directed=True)


def _orient_chunk(
    adjacency_path: str,
    keys: np.ndarray,
    offsets: np.ndarray,
    vertex_range: tuple[int, int],
    orient_range,
) -> tuple[np.ndarray, np.ndarray]:
    """Orient the vertex chunk ``[lo, hi)``; returns (per-vertex oriented
    out-degrees, filtered adjacency).

    The adjacency window is read raw from the host file, below the
    accounting on purpose: the master charges every chunk's modelled read
    itself, in chunk order, before any chunk is filtered.  ``orient_range``
    is the filter: the C
    tier's one-pass kernel, or its numpy twin :func:`_orient_range_numpy`.
    """
    lo, hi = vertex_range
    count = int(offsets[hi] - offsets[lo])
    if count == 0:
        return np.zeros(hi - lo, dtype=np.int64), np.empty(0, dtype=np.int64)
    adjacency = np.fromfile(
        adjacency_path, dtype=np.int64, count=count, offset=int(offsets[lo]) * 8
    )
    return orient_range(adjacency, keys, offsets, lo, hi)


def _orient_range_numpy(
    adjacency: np.ndarray, keys: np.ndarray, offsets: np.ndarray, lo: int, hi: int
) -> tuple[np.ndarray, np.ndarray]:
    """The orientation filter of the chunk ``[lo, hi)`` whose entries are
    ``adjacency``: one vectorised key comparison and one ``bincount``, no
    per-edge Python.

    An id outside ``[0, n)`` raises :class:`GraphFormatError` naming the
    first vertex that lists one: ``keys[adjacency]`` would raise a bare
    ``IndexError`` for a large id and silently wrap a negative one.
    """
    error = _out_of_range(adjacency, offsets, lo, keys.shape[0])
    if error is not None:
        raise error
    sources = kernels.window_sources(offsets, lo, hi)
    keep = keys[sources] < keys[adjacency]
    out_degrees = np.bincount(sources[keep] - lo, minlength=hi - lo).astype(np.int64)
    return out_degrees, adjacency[keep]


def _out_of_range(
    adjacency: np.ndarray, offsets: np.ndarray, lo: int, n: int
) -> GraphFormatError | None:
    """The error for the chunk's first id outside ``[0, n)``, naming the
    vertex that lists it; ``None`` when every id is a vertex."""
    ids = adjacency.view(np.uint64)  # a negative id becomes a huge one
    if not ids.shape[0] or ids.max() < n:
        return None
    position = int(np.argmax(ids >= n))
    vertex = int(np.searchsorted(offsets, offsets[lo] + position, side="right")) - 1
    return GraphFormatError(
        f"adjacency list of vertex {vertex} holds id {int(adjacency[position])} "
        f"outside the graph's vertices [0, {n})"
    )


def orient_graph(
    source: GraphFile,
    device: BlockDevice | None = None,
    output_name: str | None = None,
    num_chunks: int = 1,
) -> OrientationResult:
    """Orient an on-disk undirected graph into an on-disk oriented graph.

    Parameters
    ----------
    source:
        the bidirectional input graph (``directed`` must be False).
    device:
        where to write the oriented graph; defaults to the source's device.
    output_name:
        name of the oriented graph; defaults to ``"<source>_oriented"``.
    num_chunks:
        number of contiguous vertex ranges the adjacency file is split
        into (the master's cores in a PDTL run); each is filtered on its
        own and the results are concatenated in order.

    The I/O accounting is one degree-file read plus one charged adjacency
    read per chunk in chunk order, then the output writes.
    """
    if source.directed:
        raise ValueError("orient_graph expects an undirected on-disk graph")
    if num_chunks <= 0:
        raise ValueError("num_chunks must be positive")
    device = device if device is not None else source.device
    output_name = output_name if output_name is not None else f"{source.name}_oriented"

    modelled_before = source.device.stats.device_seconds
    if device is not source.device:
        modelled_before += device.stats.device_seconds

    timer = Timer().start()
    degrees = source.read_degrees()
    offsets = prefix_sums(degrees)
    keys = degree_order_keys(degrees)
    ranges = chunk_ranges(source.num_vertices, num_chunks)

    # charge every chunk's adjacency read now, in chunk order: the compute
    # below reads raw, so this is the single place the modelled input scan
    # is accounted
    adjacency_name = source.adjacency_file_name
    for lo, hi in ranges:
        count = int(offsets[hi] - offsets[lo])
        if count:
            source.device.charge_read(adjacency_name, int(offsets[lo]) * 8, count * 8)

    adjacency_path = str(source.device.path(adjacency_name))
    orient_range = kernel_backend.fused("orient_range") or _orient_range_numpy
    results = [
        _orient_chunk(adjacency_path, keys, offsets, r, orient_range) for r in ranges
    ]

    out_degree_parts = [r[0] for r in results]
    adjacency_parts = [r[1] for r in results]
    out_degrees = (
        np.concatenate(out_degree_parts)
        if out_degree_parts
        else np.empty(0, dtype=np.int64)
    )
    adjacency = (
        np.concatenate(adjacency_parts)
        if adjacency_parts
        else np.empty(0, dtype=np.int64)
    )
    # the concatenation is fresh: the graph adopts it instead of a copy
    oriented_csr = CSRGraph(prefix_sums(out_degrees), adjacency, directed=True)
    oriented_file = write_graph(device, output_name, oriented_csr)
    timer.stop()

    modelled_after = source.device.stats.device_seconds
    if device is not source.device:
        modelled_after += device.stats.device_seconds

    in_degrees = degrees - out_degrees
    return OrientationResult(
        oriented=oriented_file,
        max_out_degree=int(out_degrees.max()) if out_degrees.size else 0,
        out_degrees=out_degrees,
        in_degrees=in_degrees,
        elapsed_seconds=timer.elapsed,
        num_chunks=num_chunks,
        modelled_io_seconds=modelled_after - modelled_before,
    )
