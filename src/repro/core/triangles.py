"""Triangle records and the sinks that consume them.

PDTL is a *listing* framework: the inner loop reports every triangle
``(u, v, w)`` with cone vertex ``u`` and pivot edge ``(v, w)``
(Definition III.3).  What happens to a reported triangle is up to the
sink:

* :class:`CountingSink` only counts (the paper's experiments measure
  counting time so that competing systems can be compared);
* :class:`ListingSink` materialises the triangles in memory;
* :class:`FileSink` appends them to a block-device file, charging the
  ``T/B`` output term of the I/O bound;
* :class:`PerVertexCountSink` accumulates per-vertex triangle counts,
  which is what the clustering-coefficient application in the examples
  needs;
* :class:`EdgeSupportSink` accumulates per-*edge* triangle support (the
  number of triangles each oriented edge participates in), keyed by the
  packed ``(source, destination)`` keys of the oriented adjacency -- the
  input of the k-truss decomposition in :mod:`repro.analytics`.  When the
  dense support array would exceed a caller-supplied memory budget, the
  sink spills sorted position runs to a block file and merges them
  externally, so the accumulation working set stays bounded.

Sinks receive *batches* as numpy arrays wherever possible: the MGT inner
loop produces, for each (cone u, out-neighbour v) pair, the whole array of
pivot endpoints ``w`` at once, so the sink interface is
``add_batch(u, v, ws)`` plus a scalar ``add(u, v, w)`` convenience.

Sink construction is centralised in the :func:`make_sink` registry: every
sink kind registers a factory under its name (``register_sink``), the
chunk scheduler and the high-level runner both dispatch through the
registry, and an unknown kind raises instead of silently falling back to
a default sink.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Callable, Iterator, Protocol

import numpy as np

from repro.core import kernels
from repro.externalmem.blockio import BlockFile
from repro.utils import ceil_div

__all__ = [
    "Triangle",
    "TriangleSink",
    "CountingSink",
    "ListingSink",
    "FileSink",
    "PerVertexCountSink",
    "EdgeSupportSink",
    "oriented_edge_array",
    "oriented_edge_keys",
    "register_sink",
    "sink_kinds",
    "normalize_sink_kind",
    "make_sink",
    "CHUNK_SINK_KINDS",
]


@dataclass(frozen=True, order=True)
class Triangle:
    """A triangle in cone/pivot orientation: ``cone ≺ v ≺ w`` in the degree order.

    ``as_vertex_set`` recovers the unordered vertex set for comparisons with
    reference implementations that do not track orientation.
    """

    cone: int
    v: int
    w: int

    def as_vertex_set(self) -> frozenset[int]:
        return frozenset((self.cone, self.v, self.w))

    def __iter__(self):
        return iter((self.cone, self.v, self.w))


class TriangleSink(Protocol):
    """Protocol implemented by every triangle consumer."""

    count: int

    def add(self, u: int, v: int, w: int) -> None:
        """Report a single triangle ``(u, v, w)``."""
        ...

    def add_batch(self, u: int, v: int, ws: np.ndarray) -> None:
        """Report triangles ``(u, v, w)`` for every ``w`` in ``ws``."""
        ...

    def add_triples(self, us: np.ndarray, vs: np.ndarray, ws: np.ndarray) -> None:
        """Report triangles ``(us[i], vs[i], ws[i])`` for every index ``i``.

        This is the vectorised entry point the MGT inner loop uses: one call
        per scanned block instead of one call per (cone, out-neighbour) pair.
        """
        ...


class CountingSink:
    """Counts triangles without storing them (the paper's measurement mode)."""

    __slots__ = ("count",)

    def __init__(self) -> None:
        self.count = 0

    def add(self, u: int, v: int, w: int) -> None:
        self.count += 1

    def add_batch(self, u: int, v: int, ws: np.ndarray) -> None:
        self.count += int(ws.shape[0])

    def add_triples(self, us: np.ndarray, vs: np.ndarray, ws: np.ndarray) -> None:
        self.count += int(ws.shape[0])

    def merge(self, other: "CountingSink") -> None:
        self.count += other.count


class ListingSink:
    """Collects every reported triangle in memory as :class:`Triangle` records."""

    __slots__ = ("count", "triangles")

    def __init__(self) -> None:
        self.count = 0
        self.triangles: list[Triangle] = []

    def add(self, u: int, v: int, w: int) -> None:
        self.triangles.append(Triangle(int(u), int(v), int(w)))
        self.count += 1

    def add_batch(self, u: int, v: int, ws: np.ndarray) -> None:
        for w in ws:
            self.triangles.append(Triangle(int(u), int(v), int(w)))
        self.count += int(ws.shape[0])

    def add_triples(self, us: np.ndarray, vs: np.ndarray, ws: np.ndarray) -> None:
        for u, v, w in zip(us.tolist(), vs.tolist(), ws.tolist()):
            self.triangles.append(Triangle(u, v, w))
        self.count += int(ws.shape[0])

    def vertex_sets(self) -> set[frozenset[int]]:
        """Unordered vertex sets of all collected triangles (for equality tests)."""
        return {t.as_vertex_set() for t in self.triangles}

    def merge(self, other: "ListingSink") -> None:
        self.triangles.extend(other.triangles)
        self.count += other.count


class FileSink:
    """Appends triangles to a block-device file as flat int64 triples.

    Every append goes through the block layer, so listing (as opposed to
    counting) pays the ``T/B`` output I/Os of Theorem IV.2 -- the ablation
    benchmark for counting vs. listing relies on this.

    Triples accumulate in a *preallocated* int64 buffer that is flushed in
    batches covering a whole number of device blocks (the buffer capacity
    is rounded up to the least common multiple of the block size and the
    24-byte triple record).  Appends to a fresh file therefore always start
    block-aligned and span exactly ``capacity * 8 / B`` blocks, so the
    charged output I/O equals the ideal ``⌈3T/B_items⌉`` of the theorem --
    the old list-based sink double-charged the boundary block of every
    unaligned flush on top of converting each triple through Python lists.

    A ``buffer_triangles`` below one block quantum is honoured as-is (the
    sink then flushes eagerly and unaligned, as before); block alignment
    only kicks in for buffers of at least one quantum.
    """

    __slots__ = ("count", "file", "_buffer", "_fill", "_capacity")

    def __init__(self, file: BlockFile, buffer_triangles: int = 4096) -> None:
        self.count = 0
        self.file = file
        # smallest number of triples covering whole blocks: lcm(B, 24)/24
        block = file.device.block_size
        quantum = math.lcm(block, 24) // 24
        capacity_triangles = max(buffer_triangles, 1)
        if capacity_triangles >= quantum:
            capacity_triangles = ceil_div(capacity_triangles, quantum) * quantum
        self._capacity = capacity_triangles * 3
        self._buffer = np.empty(self._capacity, dtype=np.int64)
        self._fill = 0

    def _push(self, flat: np.ndarray) -> None:
        """Append flat triple words, flushing whole buffers as they fill."""
        pos = 0
        total = flat.shape[0]
        while pos < total:
            take = min(self._capacity - self._fill, total - pos)
            self._buffer[self._fill : self._fill + take] = flat[pos : pos + take]
            self._fill += take
            pos += take
            if self._fill == self._capacity:
                self.file.append_array(self._buffer)
                self._fill = 0

    def add(self, u: int, v: int, w: int) -> None:
        self._buffer[self._fill] = u
        self._buffer[self._fill + 1] = v
        self._buffer[self._fill + 2] = w
        self._fill += 3
        self.count += 1
        if self._fill == self._capacity:
            self.file.append_array(self._buffer)
            self._fill = 0

    def add_batch(self, u: int, v: int, ws: np.ndarray) -> None:
        n = int(ws.shape[0])
        if n == 0:
            return
        triples = np.empty((n, 3), dtype=np.int64)
        triples[:, 0] = u
        triples[:, 1] = v
        triples[:, 2] = ws
        self._push(triples.reshape(-1))
        self.count += n

    def add_triples(self, us: np.ndarray, vs: np.ndarray, ws: np.ndarray) -> None:
        n = int(ws.shape[0])
        if n == 0:
            return
        triples = np.empty((n, 3), dtype=np.int64)
        triples[:, 0] = us
        triples[:, 1] = vs
        triples[:, 2] = ws
        self._push(triples.reshape(-1))
        self.count += n

    def flush(self) -> None:
        if self._fill:
            self.file.append_array(self._buffer[: self._fill])
            self._fill = 0

    def read_all(self) -> list[Triangle]:
        """Read back every triangle written so far (flushes first)."""
        self.flush()
        total = self.file.num_items()
        if total == 0:
            return []
        flat = self.file.read_array(0, total)
        return [Triangle(int(a), int(b), int(c)) for a, b, c in flat.reshape(-1, 3)]


class PerVertexCountSink:
    """Accumulates, for every vertex, the number of triangles containing it.

    Each reported triangle contributes one to all three of its vertices;
    the resulting array feeds
    :func:`repro.graph.properties.clustering_coefficient`.
    """

    __slots__ = ("count", "per_vertex")

    def __init__(self, num_vertices: int) -> None:
        self.count = 0
        self.per_vertex = np.zeros(num_vertices, dtype=np.int64)

    def add(self, u: int, v: int, w: int) -> None:
        self.per_vertex[u] += 1
        self.per_vertex[v] += 1
        self.per_vertex[w] += 1
        self.count += 1

    def add_batch(self, u: int, v: int, ws: np.ndarray) -> None:
        n = int(ws.shape[0])
        if n == 0:
            return
        self.per_vertex[u] += n
        self.per_vertex[v] += n
        np.add.at(self.per_vertex, ws, 1)
        self.count += n

    def add_triples(self, us: np.ndarray, vs: np.ndarray, ws: np.ndarray) -> None:
        n = int(ws.shape[0])
        if n == 0:
            return
        np.add.at(self.per_vertex, us, 1)
        np.add.at(self.per_vertex, vs, 1)
        np.add.at(self.per_vertex, ws, 1)
        self.count += n

    def merge(self, other: "PerVertexCountSink") -> None:
        self.per_vertex += other.per_vertex
        self.count += other.count


def oriented_edge_array(graph) -> np.ndarray:
    """Every oriented edge as an ``(m, 2)`` array in adjacency storage order.

    Accepts an on-disk :class:`~repro.graph.binfmt.GraphFile`, a zero-copy
    :class:`~repro.core.shm.SharedGraphView` or an in-memory oriented
    :class:`~repro.graph.csr.CSRGraph`; row ``p`` is the edge stored at
    adjacency position ``p``, the shared indexing contract of
    :class:`EdgeSupportSink` and ``PDTLResult.edge_supports``.
    """
    indptr = getattr(graph, "indptr", None)
    if indptr is not None:  # in-memory CSR
        return np.stack([graph.edge_sources(), graph.indices], axis=1)
    if graph.num_edges == 0:
        return np.empty((0, 2), dtype=np.int64)
    offsets = graph.offsets()
    sources = np.repeat(
        np.arange(graph.num_vertices, dtype=np.int64),
        np.diff(offsets).astype(np.int64),
    )
    destinations = graph.read_adjacency_range(0, graph.num_edges)
    return np.stack([sources, destinations], axis=1)


#: Per-process cache of file-backed oriented edge keys, keyed on the
#: adjacency file's identity (resolved path, mtime, size) so a chunked run
#: builds the m-entry key array once per worker process instead of once
#: per chunk.  Bounded LRU; host-side only (the skipped repeat reads were
#: never part of the worker's modelled accounting).  Every run stages its
#: oriented file in a fresh directory that cleanup deletes, so each lookup
#: first drops the entries whose file is gone.
_EDGE_KEY_CACHE: dict = {}
_EDGE_KEY_CACHE_MAX = 4


def oriented_edge_keys(graph) -> np.ndarray:
    """Sorted packed ``(source, destination)`` keys of every oriented edge.

    A :class:`~repro.core.shm.SharedGraphView`'s published ``scan_keys``
    are reused as-is (zero-copy); for a file-backed graph the keys are
    built from one full adjacency read and memoised per process against
    the file's (path, mtime, size) identity, so repeated chunk tasks over
    the same oriented file pay the read once.  Both paths sit *below* the
    worker's modelled accounting.  The adjacency is (source,
    destination)-sorted in every representation, so the key array is
    sorted and the key at position ``p`` identifies the oriented edge
    stored at adjacency position ``p`` -- the indexing contract of
    :class:`EdgeSupportSink`.
    """
    return _oriented_edge_index(graph)[0]


def _oriented_edge_index(graph) -> tuple[np.ndarray, np.ndarray]:
    """``(keys, offsets)``: :func:`oriented_edge_keys` and the graph's
    offsets, which bound each source's row of keys by the indexing
    contract."""
    keys = getattr(graph, "scan_keys", None)
    if keys is not None:
        return np.asarray(keys), graph.cached_offsets
    indptr = getattr(graph, "indptr", None)
    if indptr is not None:  # in-memory CSR
        return kernels.csr_packed_keys(indptr, graph.indices), indptr
    cache_key = None
    device = getattr(graph, "device", None)
    if device is not None:  # file-backed: memoise against the file identity
        try:
            stat = device.path(graph.adjacency_file_name).stat()
            cache_key = (str(device.path(graph.adjacency_file_name)),
                         stat.st_mtime_ns, stat.st_size)
        except OSError:
            cache_key = None
        for gone in [key for key in _EDGE_KEY_CACHE if not os.path.exists(key[0])]:
            del _EDGE_KEY_CACHE[gone]
        if cache_key is not None and cache_key in _EDGE_KEY_CACHE:
            cached = _EDGE_KEY_CACHE.pop(cache_key)
            _EDGE_KEY_CACHE[cache_key] = cached  # re-insert: LRU recency
            return cached
    offsets = graph.offsets()
    keys = kernels.csr_packed_keys(
        offsets,
        graph.read_adjacency_range(0, graph.num_edges)
        if graph.num_edges
        else np.empty(0, dtype=np.int64),
    )
    result = (keys, offsets)
    if cache_key is not None:
        for array in result:
            array.flags.writeable = False  # shared across sinks in this process
        _EDGE_KEY_CACHE[cache_key] = result
        while len(_EDGE_KEY_CACHE) > _EDGE_KEY_CACHE_MAX:
            _EDGE_KEY_CACHE.pop(next(iter(_EDGE_KEY_CACHE)))
    return result


class _SpillRun:
    """Bounded-buffer cursor over one sorted position run in the spill file."""

    __slots__ = ("file", "offset", "remaining", "buffer_items", "buf", "idx")

    def __init__(
        self, file: BlockFile, offset_items: int, length: int, buffer_items: int
    ) -> None:
        self.file = file
        self.offset = offset_items
        self.remaining = length
        self.buffer_items = buffer_items
        self.buf = np.empty(0, dtype=np.int64)
        self.idx = 0

    def ensure(self) -> None:
        """Refill the buffer from disk when it is fully consumed."""
        if self.idx < self.buf.shape[0] or self.remaining == 0:
            return
        take = min(self.buffer_items, self.remaining)
        self.buf = self.file.read_array(self.offset, take)
        self.offset += take
        self.remaining -= take
        self.idx = 0

    @property
    def exhausted(self) -> bool:
        return self.idx >= self.buf.shape[0] and self.remaining == 0

    def take_upto(self, bound: int | None) -> np.ndarray:
        """Consume and return buffered values ``<= bound`` (all, if None)."""
        if bound is None:
            out = self.buf[self.idx :]
            self.idx = self.buf.shape[0]
            return out
        stop = int(np.searchsorted(self.buf, bound, side="right"))
        out = self.buf[self.idx : stop]
        self.idx = max(self.idx, stop)
        return out


class EdgeSupportSink:
    """Accumulates, for every oriented edge, the number of triangles it is in.

    A triangle ``(u, v, w)`` in cone/pivot orientation (``u ≺ v ≺ w``)
    consists of the three oriented edges ``(u, v)``, ``(u, w)`` and
    ``(v, w)``, all of which are stored in the oriented adjacency file;
    each reported triangle therefore contributes one unit of *support* to
    three edge positions.  Positions are resolved with a single vectorised
    binary search of the packed ``(source, destination)`` keys against the
    sorted whole-graph key array (:func:`oriented_edge_keys` /
    :func:`repro.core.kernels.packed_keys`), the same primitive the MGT
    inner loop uses for membership.  The compiled tier searches each pair
    in its source's row only: key position ``p`` is adjacency position
    ``p``, so the rows are the oriented graph's ``offsets`` (given by the
    sink factory, or derived from the keys).  A pair with an id outside
    ``[0, num_vertices)`` is no edge on either tier, whatever key it packs
    into.

    Two accumulation modes:

    * **dense** (default): an int64 array with one slot per oriented edge,
      updated with ``np.add.at`` -- exact, and mergeable across chunk tasks
      with :meth:`merge` (integer addition commutes, so partial supports
      from any chunk partition combine bit-identically);
    * **spill**: when ``memory_budget_bytes`` is given and the dense array
      would exceed it, positions accumulate in a bounded buffer that is
      sorted and appended to ``spill_file`` as a run whenever it fills;
      :meth:`iter_position_counts` then merges the runs externally with
      bounded per-run buffers (the external-sort discipline), yielding
      strictly increasing ``(positions, counts)`` batches.  All spill I/O
      goes through the block layer, so it is charged to the spill file's
      device -- deterministically, because the run contents are a pure
      function of the triangle stream and the budget.
    """

    __slots__ = (
        "count",
        "edge_keys",
        "num_vertices",
        "num_edges",
        "support",
        "_offsets",
        "_spill_file",
        "_buffer",
        "_fill",
        "_runs",
    )

    def __init__(
        self,
        edge_keys: np.ndarray,
        num_vertices: int,
        spill_file: BlockFile | None = None,
        memory_budget_bytes: int | None = None,
        offsets: np.ndarray | None = None,
    ) -> None:
        self.count = 0
        self.edge_keys = np.asarray(edge_keys, dtype=np.int64)
        self.num_vertices = int(num_vertices)
        self.num_edges = int(self.edge_keys.shape[0])
        # the oriented graph's offsets: source u's keys are the row
        # edge_keys[offsets[u] : offsets[u + 1]]; derived from the keys
        # on first use when the caller does not have them
        self._offsets = offsets
        spilling = (
            memory_budget_bytes is not None
            and self.num_edges * 8 > int(memory_budget_bytes)
        )
        if spilling:
            if spill_file is None:
                raise ValueError(
                    "memory_budget_bytes below the dense support array "
                    f"({self.num_edges * 8} bytes) requires a spill_file"
                )
            self.support: np.ndarray | None = None
            self._buffer = np.empty(
                max(int(memory_budget_bytes) // 8, 16), dtype=np.int64
            )
            self._spill_file = spill_file
        else:
            self.support = np.zeros(self.num_edges, dtype=np.int64)
            self._buffer = None
            self._spill_file = None
        self._fill = 0
        self._runs: list[int] = []

    @property
    def spilling(self) -> bool:
        return self.support is None

    @property
    def spill_run_count(self) -> int:
        """Sorted runs flushed to the spill device so far (observability)."""
        return len(self._runs)

    @property
    def spilled_positions(self) -> int:
        """Total edge-position records spilled so far (observability)."""
        return sum(self._runs)

    # -- position resolution ------------------------------------------------------

    def _rows(self) -> np.ndarray:
        if self._offsets is None:
            n = self.num_vertices
            self._offsets = np.searchsorted(
                self.edge_keys, np.arange(n + 1, dtype=np.int64) * n
            )
        return self._offsets

    def _positions(self, sources: np.ndarray, destinations: np.ndarray) -> np.ndarray:
        # an id outside [0, n) would pack into the key of another pair
        if sources.shape[0] and not (
            min(sources.min(), destinations.min()) >= 0
            and max(sources.max(), destinations.max()) < self.num_vertices
        ):
            raise ValueError("triangle references a pair that is not an oriented edge")
        queries = kernels.packed_keys(sources, destinations, self.num_vertices)
        pos = np.searchsorted(self.edge_keys, queries)
        if pos.shape[0]:
            clipped = np.minimum(pos, self.num_edges - 1)
            if self.num_edges == 0 or not np.array_equal(
                self.edge_keys[clipped], queries
            ):
                raise ValueError(
                    "triangle references a pair that is not an oriented edge"
                )
        return pos

    def _record(self, positions: np.ndarray) -> None:
        if self.support is not None:
            np.add.at(self.support, positions, 1)
            return
        cursor = 0
        total = positions.shape[0]
        capacity = self._buffer.shape[0]
        while cursor < total:
            take = min(capacity - self._fill, total - cursor)
            self._buffer[self._fill : self._fill + take] = positions[
                cursor : cursor + take
            ]
            self._fill += take
            cursor += take
            if self._fill == capacity:
                self._flush_run()

    def _flush_run(self) -> None:
        if self._fill == 0:
            return
        run = np.sort(self._buffer[: self._fill])
        self._spill_file.append_array(run)
        self._runs.append(self._fill)
        self._fill = 0

    # -- TriangleSink interface ---------------------------------------------------

    def add(self, u: int, v: int, w: int) -> None:
        self.add_triples(
            np.array([u], dtype=np.int64),
            np.array([v], dtype=np.int64),
            np.array([w], dtype=np.int64),
        )

    def add_batch(self, u: int, v: int, ws: np.ndarray) -> None:
        n = int(ws.shape[0])
        if n == 0:
            return
        self.add_triples(
            np.full(n, u, dtype=np.int64), np.full(n, v, dtype=np.int64), ws
        )

    def add_triples(self, us: np.ndarray, vs: np.ndarray, ws: np.ndarray) -> None:
        n = int(ws.shape[0])
        if n == 0:
            return
        if self.support is not None:
            # compiled tier, dense mode only: resolve all three edge positions
            # and accumulate in one fused loop (no concatenated key arrays,
            # no np.add.at scatter), each searched in its source's row only.
            # A triple referencing a missing edge or an id outside the graph
            # rolls back the increments before we raise, preserving the
            # numpy path's check-before-mutate contract.  Spill mode keeps
            # the numpy path: its run contents are position *streams*, not
            # commutative sums.
            from repro.core import kernel_backend

            fused_accumulate = kernel_backend.fused("edge_support_accumulate")
            if (
                fused_accumulate is not None
                and self.num_vertices <= kernels.MAX_PACKABLE_VERTICES
            ):
                if not fused_accumulate(
                    self.edge_keys, self._rows(), us, vs, ws, self.num_vertices,
                    self.support,
                ):
                    raise ValueError(
                        "triangle references a pair that is not an oriented edge"
                    )
                self.count += n
                return
        sources = np.concatenate((us, us, vs))
        destinations = np.concatenate((vs, ws, ws))
        self._record(self._positions(sources, destinations))
        self.count += n

    # -- results ------------------------------------------------------------------

    @classmethod
    def from_supports(
        cls,
        edge_keys: np.ndarray,
        num_vertices: int,
        supports: np.ndarray,
    ) -> "EdgeSupportSink":
        """A dense sink re-hydrated from an already-merged support array.

        The retention path of the dynamic-graph deltas: a finished run's
        supports become sink state again so later batches can
        :meth:`merge_delta` into them.  ``supports`` is copied (the sink
        mutates it); ``count`` is restored from the support identity
        ``Σ support = 3 · triangles``.
        """
        supports = np.asarray(supports, dtype=np.int64)
        if supports.shape[0] != np.asarray(edge_keys).shape[0]:
            raise ValueError("supports and edge_keys must have equal length")
        if supports.shape[0] and int(supports.min()) < 0:
            raise ValueError("supports must be non-negative")
        sink = cls(edge_keys, num_vertices)
        sink.support = supports.copy()
        sink.count = int(supports.sum()) // 3
        return sink

    def merge(self, other: "EdgeSupportSink") -> None:
        """Combine partial supports exactly, in any mode pairing.

        Dense + dense is one array addition.  When either side spills, the
        spilled side's sorted runs are drained through
        :meth:`iter_position_counts` (bounded buffers, reads charged to its
        spill device) and folded in -- into the dense array directly, or
        re-recorded through the bounded spill buffer when *this* sink is
        the spilling one.  Integer addition commutes, so every pairing and
        order yields the same final supports; the dense+dense fast path is
        untouched, keeping its accounting bit-identical.
        """
        if other.num_edges != self.num_edges:
            raise ValueError("cannot merge supports of different edge counts")
        if self.support is not None and other.support is not None:
            self.support += other.support
        elif self.support is not None:
            for positions, counts in other.iter_position_counts():
                np.add.at(self.support, positions, counts)
        else:
            for positions, counts in other.iter_position_counts():
                # re-expand in bounded slices: one dense batch may cover
                # every edge, and this sink's whole point is a small buffer
                for lo in range(0, positions.shape[0], 8192):
                    hi = lo + 8192
                    self._record(np.repeat(positions[lo:hi], counts[lo:hi]))
        self.count += other.count

    def merge_delta(self, positions: np.ndarray, deltas: np.ndarray) -> None:
        """Apply signed support deltas exactly (dense mode only).

        The dynamic-graph mutation path: deleted triangles contribute
        ``-1`` per surviving edge, inserted ones ``+1`` -- integer
        addition over sparse positions, the same exactness argument as
        :meth:`merge`.  A delta that would drive any support negative is
        corrupt input and raises with the sink untouched.  Spill mode is
        refused: its state is a stream of positive increments, not a
        mergeable array (callers re-hydrate via :meth:`from_supports`).
        """
        if self.support is None:
            raise ValueError(
                "merge_delta requires the dense support array; re-hydrate "
                "spilled supports with EdgeSupportSink.from_supports first"
            )
        positions = np.asarray(positions, dtype=np.int64)
        deltas = np.asarray(deltas, dtype=np.int64)
        if positions.shape != deltas.shape:
            raise ValueError("positions and deltas must align")
        if positions.shape[0] == 0:
            return
        if int(positions.min()) < 0 or int(positions.max()) >= self.num_edges:
            raise ValueError("delta position out of range")
        updated = self.support.copy()
        np.add.at(updated, positions, deltas)
        if int(updated.min()) < 0:
            raise ValueError("support delta drives an edge support negative")
        self.support = updated

    def iter_position_counts(
        self, buffer_items: int = 8192
    ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Aggregated ``(positions, counts)`` batches, positions strictly
        increasing across the whole iteration (each position appears once).

        Dense mode yields the nonzero entries in one batch.  Spill mode
        flushes the tail run and k-way merges the sorted runs with one
        bounded buffer per run: every round takes the values no future
        block can precede (``<=`` the smallest last-loaded element among
        runs with data still on disk), aggregates them with ``np.unique``,
        and holds the boundary position back as a carry because later
        blocks may still contribute to it.
        """
        if buffer_items <= 0:
            raise ValueError("buffer_items must be positive")
        if self.support is not None:
            positions = np.nonzero(self.support)[0]
            if positions.shape[0]:
                yield positions, self.support[positions]
            return
        self._flush_run()
        starts = np.zeros(len(self._runs) + 1, dtype=np.int64)
        np.cumsum(np.asarray(self._runs, dtype=np.int64), out=starts[1:])
        cursors = [
            _SpillRun(self._spill_file, int(starts[i]), length, buffer_items)
            for i, length in enumerate(self._runs)
        ]
        carry_pos: int | None = None
        carry_cnt = 0
        while cursors:
            for cursor in cursors:
                cursor.ensure()
            cursors = [c for c in cursors if not c.exhausted]
            if not cursors:
                break
            on_disk = [c for c in cursors if c.remaining > 0]
            bound = (
                min(int(c.buf[-1]) for c in on_disk) if on_disk else None
            )
            taken = [c.take_upto(bound) for c in cursors]
            merged = np.concatenate([t for t in taken if t.shape[0]])
            positions, counts = np.unique(merged, return_counts=True)
            if carry_pos is not None:
                if positions.shape[0] and int(positions[0]) == carry_pos:
                    counts[0] += carry_cnt
                else:
                    yield (
                        np.array([carry_pos], dtype=np.int64),
                        np.array([carry_cnt], dtype=np.int64),
                    )
                carry_pos, carry_cnt = None, 0
            if bound is not None and positions.shape[0] and int(positions[-1]) == bound:
                carry_pos, carry_cnt = int(positions[-1]), int(counts[-1])
                positions, counts = positions[:-1], counts[:-1]
            if positions.shape[0]:
                yield positions, counts
        if carry_pos is not None:
            yield (
                np.array([carry_pos], dtype=np.int64),
                np.array([carry_cnt], dtype=np.int64),
            )

    def supports(self) -> np.ndarray:
        """The dense per-edge support array (materialised from the runs when
        spilling -- the merge itself stays within the bounded buffers)."""
        if self.support is not None:
            return self.support
        out = np.zeros(self.num_edges, dtype=np.int64)
        for positions, counts in self.iter_position_counts():
            out[positions] = counts
        return out


# ---------------------------------------------------------------------------
# sink registry
# ---------------------------------------------------------------------------

#: Sink kinds a picklable chunk task can construct worker-side (``file`` is
#: excluded: a :class:`FileSink` binds a host-local handle that cannot cross
#: a process boundary).
CHUNK_SINK_KINDS = ("count", "list", "per-vertex", "edge-support")

_SINK_FACTORIES: dict[str, Callable[..., TriangleSink]] = {}


def register_sink(kind: str) -> Callable:
    """Register a sink factory under ``kind`` (used as a decorator).

    Factories receive the keyword context of :func:`make_sink`
    (``num_vertices``, ``file``, ``graph``, ``spill_file``,
    ``memory_budget_bytes``) and must ignore what they do not need.
    """

    def decorator(factory: Callable[..., TriangleSink]) -> Callable[..., TriangleSink]:
        _SINK_FACTORIES[kind] = factory
        return factory

    return decorator


def sink_kinds() -> tuple[str, ...]:
    """Every registered sink kind, sorted."""
    return tuple(sorted(_SINK_FACTORIES))


def normalize_sink_kind(kind: str) -> str:
    """Accept ``edge_support`` as a spelling of ``edge-support`` and so on."""
    return str(kind).replace("_", "-")


def make_sink(
    kind: str,
    num_vertices: int | None = None,
    file: BlockFile | None = None,
    graph=None,
    spill_file: BlockFile | None = None,
    memory_budget_bytes: int | None = None,
) -> TriangleSink:
    """Build a sink by registered kind: ``count``, ``list``, ``file``,
    ``per-vertex`` or ``edge-support``.

    This is the single dispatch point for every layer (high-level runner,
    chunk scheduler, tests); an unregistered kind raises ``ValueError``
    instead of silently falling back to a default sink.
    """
    factory = _SINK_FACTORIES.get(normalize_sink_kind(kind))
    if factory is None:
        raise ValueError(
            f"unknown sink kind {kind!r}; registered kinds: "
            f"{', '.join(sink_kinds())}"
        )
    return factory(
        num_vertices=num_vertices,
        file=file,
        graph=graph,
        spill_file=spill_file,
        memory_budget_bytes=memory_budget_bytes,
    )


@register_sink("count")
def _make_counting_sink(**_context) -> CountingSink:
    return CountingSink()


@register_sink("list")
def _make_listing_sink(**_context) -> ListingSink:
    return ListingSink()


@register_sink("file")
def _make_file_sink(file: BlockFile | None = None, **_context) -> FileSink:
    if file is None:
        raise ValueError("file sink requires a BlockFile")
    return FileSink(file)


@register_sink("per-vertex")
def _make_per_vertex_sink(
    num_vertices: int | None = None, graph=None, **_context
) -> PerVertexCountSink:
    if num_vertices is None and graph is not None:
        num_vertices = graph.num_vertices
    if num_vertices is None:
        raise ValueError("per-vertex sink requires num_vertices")
    return PerVertexCountSink(num_vertices)


@register_sink("edge-support")
def _make_edge_support_sink(
    graph=None,
    spill_file: BlockFile | None = None,
    memory_budget_bytes: int | None = None,
    **_context,
) -> EdgeSupportSink:
    if graph is None:
        raise ValueError("edge-support sink requires the oriented graph")
    keys, offsets = _oriented_edge_index(graph)
    return EdgeSupportSink(
        keys,
        graph.num_vertices,
        spill_file=spill_file,
        memory_budget_bytes=memory_budget_bytes,
        offsets=offsets,
    )
