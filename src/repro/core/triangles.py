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
  number of triangles each oriented edge participates in), indexed by
  the edge's position in the oriented adjacency -- the input of the
  k-truss decomposition in :mod:`repro.analytics`.  When the dense
  support array would exceed a caller-supplied memory budget, the sink
  spills sorted position runs to a block file and merges them
  externally, so the accumulation working set stays bounded.

Sinks receive *batches* as numpy arrays: every producer (MGT's block
scan on either kernel tier and the shared-memory chunk scan) reports the
triangles of a whole scanned block or chunk at once, in one call.  The
vertex sinks take ``add_triples(us, vs, ws)``; the edge-support sink
takes ``credit(positions)``, each triangle's three edges as the
adjacency positions the scan read them at, so it never looks an edge up.

:func:`make_sink` builds the sink of a chunk task from a fixed table of
the four :data:`CHUNK_SINK_KINDS`, and an unknown kind raises instead of
silently falling back to a default sink.  A :class:`FileSink` is built
directly by its caller: it binds a host-local block file.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, Protocol

import numpy as np

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
    """Protocol implemented by every triangle consumer that takes triples
    (:class:`EdgeSupportSink` takes credited positions instead)."""

    count: int

    def add_triples(self, us: np.ndarray, vs: np.ndarray, ws: np.ndarray) -> None:
        """Report triangles ``(us[i], vs[i], ws[i])`` for every index ``i``.

        The MGT scans make one call per scanned block or chunk.
        """
        ...


class CountingSink:
    """Counts triangles without storing them (the paper's measurement mode)."""

    __slots__ = ("count",)

    def __init__(self) -> None:
        self.count = 0

    def add_triples(self, us: np.ndarray, vs: np.ndarray, ws: np.ndarray) -> None:
        self.count += int(ws.shape[0])


class ListingSink:
    """Collects every reported triangle in memory as :class:`Triangle` records."""

    __slots__ = ("count", "triangles")

    def __init__(self) -> None:
        self.count = 0
        self.triangles: list[Triangle] = []

    def add_triples(self, us: np.ndarray, vs: np.ndarray, ws: np.ndarray) -> None:
        for u, v, w in zip(us.tolist(), vs.tolist(), ws.tolist()):
            self.triangles.append(Triangle(u, v, w))
        self.count += int(ws.shape[0])

    def vertex_sets(self) -> set[frozenset[int]]:
        """Unordered vertex sets of all collected triangles (for equality tests)."""
        return {t.as_vertex_set() for t in self.triangles}


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

    def add_triples(self, us: np.ndarray, vs: np.ndarray, ws: np.ndarray) -> None:
        n = int(ws.shape[0])
        if n == 0:
            return
        np.add.at(self.per_vertex, us, 1)
        np.add.at(self.per_vertex, vs, 1)
        np.add.at(self.per_vertex, ws, 1)
        self.count += n


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
    three edge positions.  The MGT scans read each of those edges at its
    adjacency position before they report the triangle, so they hand the
    sink the positions themselves (:meth:`credit`, the scans' crediting
    mode, ``EMIT_POSITIONS`` in :mod:`repro.core.kernels`): the sink keeps
    no edge keys and searches nothing.  Position ``p`` is the edge stored
    at adjacency position ``p``, the indexing contract shared with
    ``PDTLResult.edge_supports``.

    Two accumulation modes:

    * **dense** (default): an int64 array with one slot per oriented edge,
      updated with ``np.add.at`` -- exact, and integer addition commutes,
      so the partial supports of any chunk partition sum bit-identically;
    * **spill**: when ``memory_budget_bytes`` is given and the dense array
      would exceed it, positions accumulate in a bounded buffer that is
      sorted and appended to ``spill_file`` as a run whenever it fills;
      :meth:`iter_position_counts` then merges the runs externally with
      bounded per-run buffers (the external-sort discipline), yielding
      strictly increasing ``(positions, counts)`` batches.  All spill I/O
      goes through the block layer, so it is charged to the spill file's
      device -- deterministically, because the run contents are a pure
      function of the position stream and the budget.
    """

    __slots__ = (
        "count",
        "num_edges",
        "support",
        "_spill_file",
        "_buffer",
        "_fill",
        "_runs",
    )

    def __init__(
        self,
        num_edges: int,
        spill_file: BlockFile | None = None,
        memory_budget_bytes: int | None = None,
    ) -> None:
        self.count = 0
        self.num_edges = int(num_edges)
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

    # -- the scans' crediting mode ------------------------------------------------

    def credit(self, positions: np.ndarray) -> None:
        """Credit one support to each edge of every triangle of a batch.

        ``positions`` is ``(T, 3)``: row ``i`` holds the adjacency positions
        of triangle ``i``'s three edges.  They are added in dense mode and
        spilled in spill mode.  A position outside ``[0, num_edges)`` is no
        edge: the batch raises with the sink untouched.
        """
        flat = np.asarray(positions, dtype=np.int64).reshape(-1)
        if flat.shape[0] == 0:
            return
        if int(flat.min()) < 0 or int(flat.max()) >= self.num_edges:
            raise ValueError("a credited position is not an oriented edge")
        self._record(flat)
        self.count += flat.shape[0] // 3

    # -- results ------------------------------------------------------------------

    @classmethod
    def from_supports(cls, supports: np.ndarray) -> "EdgeSupportSink":
        """A dense sink re-hydrated from an already-merged support array.

        The retention path of the dynamic-graph deltas: a finished run's
        supports become sink state again so later batches can
        :meth:`merge_delta` into them.  ``supports`` is copied (the sink
        mutates it) and must be non-negative; ``count`` is restored from the
        support identity ``Σ support = 3 · triangles``.
        """
        supports = np.asarray(supports, dtype=np.int64)
        if supports.shape[0] and int(supports.min()) < 0:
            raise ValueError("supports must be non-negative")
        sink = cls(supports.shape[0])
        sink.support = supports.copy()
        sink.count = int(supports.sum()) // 3
        return sink

    def merge_delta(self, positions: np.ndarray, deltas: np.ndarray) -> None:
        """Apply signed support deltas exactly (dense mode only).

        The dynamic-graph mutation path: deleted triangles contribute
        ``-1`` per surviving edge, inserted ones ``+1`` -- exact integer
        addition over sparse positions.  Only the touched positions are
        read and written: the deltas are summed per position, and a sum
        that would drive a support negative is corrupt input and raises
        with the sink untouched.  Spill mode is refused: its state is a
        stream of positive increments, not a mergeable array (callers
        re-hydrate via :meth:`from_supports`).
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
        order = np.argsort(positions, kind="stable")
        ordered = positions[order]
        first = np.ones(ordered.shape[0], dtype=bool)
        np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
        starts = np.flatnonzero(first)
        touched = ordered[starts]
        updated = self.support[touched] + np.add.reduceat(deltas[order], starts)
        if int(updated.min()) < 0:
            raise ValueError("support delta drives an edge support negative")
        self.support[touched] = updated

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
# sink construction
# ---------------------------------------------------------------------------

#: The sink kinds a picklable chunk task constructs worker-side, and the
#: kinds :func:`make_sink` builds.  A :class:`FileSink` is not among them:
#: it binds a host-local handle that cannot cross a process boundary.
CHUNK_SINK_KINDS = ("count", "list", "per-vertex", "edge-support")


def make_sink(
    kind: str,
    num_vertices: int | None = None,
    graph=None,
    spill_file: BlockFile | None = None,
    memory_budget_bytes: int | None = None,
) -> TriangleSink:
    """Build a sink of one of the :data:`CHUNK_SINK_KINDS`: ``count``,
    ``list``, ``per-vertex`` or ``edge-support``.

    Each kind takes what it needs of the keyword context: ``per-vertex``
    the vertex count (or the graph's), ``edge-support`` the oriented graph
    (for its edge count) and optionally a spill file and memory budget.  An unknown kind raises
    ``ValueError`` instead of silently falling back to a default sink.
    """
    factory = _SINK_FACTORIES.get(kind)
    if factory is None:
        raise ValueError(
            f"unknown sink kind {kind!r}; kinds: {', '.join(CHUNK_SINK_KINDS)}"
        )
    return factory(
        num_vertices=num_vertices,
        graph=graph,
        spill_file=spill_file,
        memory_budget_bytes=memory_budget_bytes,
    )


def _make_counting_sink(**_context) -> CountingSink:
    return CountingSink()


def _make_listing_sink(**_context) -> ListingSink:
    return ListingSink()


def _make_per_vertex_sink(
    num_vertices: int | None = None, graph=None, **_context
) -> PerVertexCountSink:
    if num_vertices is None and graph is not None:
        num_vertices = graph.num_vertices
    if num_vertices is None:
        raise ValueError("per-vertex sink requires num_vertices")
    return PerVertexCountSink(num_vertices)


def _make_edge_support_sink(
    graph=None,
    spill_file: BlockFile | None = None,
    memory_budget_bytes: int | None = None,
    **_context,
) -> EdgeSupportSink:
    if graph is None:
        raise ValueError("edge-support sink requires the oriented graph")
    return EdgeSupportSink(
        graph.num_edges,
        spill_file=spill_file,
        memory_budget_bytes=memory_budget_bytes,
    )


_SINK_FACTORIES: dict[str, Callable[..., TriangleSink]] = {
    "count": _make_counting_sink,
    "list": _make_listing_sink,
    "per-vertex": _make_per_vertex_sink,
    "edge-support": _make_edge_support_sink,
}
