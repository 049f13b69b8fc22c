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
  are stream-filtered one after another into one output array.  Each
  chunk's filter is one branch-free pass of the C tier's ``orient_range``
  kernel, or its numpy twin :func:`_orient_range_numpy` (the reference
  the kernel is tested against, with :func:`orient_csr`).  Either raises
  :class:`~repro.errors.GraphFormatError` naming the vertex when an
  on-disk id lies outside ``[0, n)``.  At this reproduction's sizes the
  filter is a few milliseconds, and two chunks on threads were no faster
  than the same chunks in sequence (README, "Preprocessing"), so the
  chunks run in sequence.

The filter is also the format check, the only one a PDTL run makes: it
reads every input list once, and in the same pass finds the first
unsorted list, self loop and duplicate entry, so :func:`orient_graph`
raises the error :func:`~repro.graph.binfmt.write_graph` raises for them
before it writes anything.  Since orientation only *removes* entries, every
oriented list is a sub-list of a checked list, sorted, loop-free and
duplicate-free, the invariants the modified MGT needs; the output is
written without a second check and returned in memory as well
(:attr:`OrientationResult.graph`).

The chunk decomposition fixes the I/O accounting: the master charges one
degree-file scan plus one adjacency read per chunk **in chunk order**
(:meth:`repro.externalmem.blockio.BlockDevice.charge_read`), while the
chunk compute reads the bytes below the accounting (raw ``np.fromfile``).
The oriented file bytes do not depend on the chunk count, and IOStats,
modelled device time included, depend on it only through the number of
charged reads -- the equivalence suite asserts this, it is not assumed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core import kernel_backend, kernels
from repro.errors import GraphFormatError
from repro.externalmem.blockio import BlockDevice
from repro.graph.binfmt import GraphFile, write_graph
from repro.graph.csr import FORMAT_VIOLATIONS, CSRGraph
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
    ``graph`` is ``oriented`` in memory, the arrays its files were written
    from: the shared-memory publication and the edge-support result read
    it instead of the files.  The modelled I/O of the orientation is in the
    devices' ``IOStats``.
    """

    oriented: GraphFile
    graph: CSRGraph
    max_out_degree: int
    out_degrees: np.ndarray
    in_degrees: np.ndarray
    elapsed_seconds: float
    num_chunks: int

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


def _orient_range_numpy(
    adjacency: np.ndarray,
    keys: np.ndarray,
    offsets: np.ndarray,
    lo: int,
    hi: int,
    out_degrees: np.ndarray,
    kept: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, tuple[int, int, int]]:
    """The orientation filter of the chunk ``[lo, hi)`` whose entries are
    ``adjacency``: one vectorised key comparison and one ``bincount``, no
    per-edge Python.

    Writes the chunk's oriented out-degrees into ``out_degrees`` and its
    kept entries to the front of ``kept``, and returns them with the
    chunk's format faults (:func:`_list_faults`).  An id outside ``[0, n)``
    raises :class:`GraphFormatError` naming the first vertex that lists
    one: ``keys[adjacency]`` would raise a bare ``IndexError`` for a large
    id and silently wrap a negative one.
    """
    error = _out_of_range(adjacency, offsets, lo, keys.shape[0])
    if error is not None:
        raise error
    sources = kernels.window_sources(offsets, lo, hi)
    keep = keys[sources] < keys[adjacency]
    out_degrees[:] = np.bincount(sources[keep] - lo, minlength=hi - lo)
    kept = kept[: int(out_degrees.sum())]
    np.compress(keep, adjacency, out=kept)
    return out_degrees, kept, _list_faults(adjacency, sources)


def _list_faults(adjacency: np.ndarray, sources: np.ndarray) -> tuple[int, int, int]:
    """The first vertex whose list decreases, the first that lists itself
    and the first with two equal adjacent entries, ``-1`` where there is
    none: the three checks of :data:`~repro.graph.csr.FORMAT_VIOLATIONS`
    over the entries ``adjacency`` of the lists ``sources``."""
    step = np.diff(adjacency)
    same = sources[1:] == sources[:-1]
    firsts = []
    for faulty, shift in ((same & (step < 0), 1), (adjacency == sources, 0),
                          (same & (step == 0), 1)):
        at = np.flatnonzero(faulty)
        firsts.append(int(sources[at[0] + shift]) if at.shape[0] else -1)
    return firsts[0], firsts[1], firsts[2]


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


def _input_offsets(source: GraphFile, degrees: np.ndarray) -> np.ndarray:
    """The input's vertex offsets, once the files are known to hold what
    the metadata says: the filter reads the adjacency raw at them."""
    n, m = source.num_vertices, source.num_edges
    for name, size, want in (
        (source.adjacency_file_name, source.device.file_size(source.adjacency_file_name), m),
        (source.degree_file_name, 8 * degrees.shape[0], n),
    ):
        if size < 8 * want:
            raise GraphFormatError(
                f"{name} holds {size} bytes, its graph's metadata says {8 * want}"
            )
    offsets = prefix_sums(degrees)
    if offsets[n] != m:
        raise GraphFormatError(
            f"degree sum {int(offsets[n])} does not match adjacency length {m}"
        )
    if n and degrees.min() < 0:
        v = int(np.argmax(degrees < 0))
        raise GraphFormatError(f"vertex {v} has negative degree {int(degrees[v])}")
    return offsets


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
        own, in order, into one output array.

    The I/O accounting is one degree-file read plus one charged adjacency
    read per chunk in chunk order, then the output writes.

    This is the one reader of the input's files and lists, so it checks
    them, raising :class:`~repro.errors.GraphFormatError`: files shorter
    than the metadata says, a degree sum that is not the adjacency length
    or a negative degree before any list is read; an id outside the graph
    where the filter meets it; and an unsorted list, a self loop or a
    duplicate entry with :func:`~repro.graph.binfmt.write_graph`'s error
    for them, with its precedence over the whole graph, once every chunk
    is filtered.  Nothing is written before these checks pass, and the
    oriented lists, each a sub-list of a checked list, are written
    unchecked.
    """
    if source.directed:
        raise ValueError("orient_graph expects an undirected on-disk graph")
    if num_chunks <= 0:
        raise ValueError("num_chunks must be positive")
    device = device if device is not None else source.device
    output_name = output_name if output_name is not None else f"{source.name}_oriented"

    timer = Timer().start()
    degrees = source.read_degrees()
    offsets = _input_offsets(source, degrees)
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

    # each chunk's window is read raw, below the accounting, and filtered
    # into the tail of one array with room for every input entry
    adjacency_path = str(source.device.path(adjacency_name))
    orient_range = kernel_backend.fused("orient_range") or _orient_range_numpy
    out_degrees = np.empty(source.num_vertices, dtype=np.int64)
    kept = np.empty(source.num_edges, dtype=np.int64)
    num_kept = 0
    faults = (-1, -1, -1)
    for lo, hi in ranges:
        count = int(offsets[hi] - offsets[lo])
        adjacency = (
            np.fromfile(adjacency_path, dtype=np.int64, count=count, offset=int(offsets[lo]) * 8)
            if count
            else np.empty(0, dtype=np.int64)
        )
        _, chunk_kept, chunk_faults = orient_range(
            adjacency, keys, offsets, lo, hi, out_degrees[lo:hi], kept[num_kept:]
        )
        num_kept += chunk_kept.shape[0]
        # the chunks run in vertex order: the first fault found stays first
        faults = tuple(f if f >= 0 else c for f, c in zip(faults, chunk_faults))
    for message, vertex in zip(FORMAT_VIOLATIONS, faults):
        if vertex >= 0:
            raise GraphFormatError(message.format(vertex))

    graph = CSRGraph(
        prefix_sums(out_degrees), kept[:num_kept], directed=True, _degrees=out_degrees
    )
    oriented_file = write_graph(device, output_name, graph, check=False)
    timer.stop()

    in_degrees = degrees - out_degrees
    return OrientationResult(
        oriented=oriented_file,
        graph=graph,
        max_out_degree=int(out_degrees.max()) if out_degrees.size else 0,
        out_degrees=out_degrees,
        in_degrees=in_degrees,
        elapsed_seconds=timer.elapsed,
        num_chunks=num_chunks,
    )
