"""External merge sort of on-disk edge files under a memory cap.

Theorem IV.2 notes that when the input graph is not already sorted, PDTL
pays an additional ``O(sort(|E|))`` I/Os and ``O(|E| log |E|)`` CPU before
orientation can run.  This module provides that step as a standalone,
fully external k-way merge sort over edge records ``(source, destination)``
stored as consecutive int64 pairs in a :class:`~repro.externalmem.blockio.BlockFile`.

The implementation follows the classic two-phase scheme:

1. **Run formation** -- read windows of at most ``memory_items`` edges,
   sort them in memory, and write each as a sorted run to a temporary file
   on the same device.  A window whose values pack into int64 keys is
   sorted by one radix ``np.sort`` of the packed keys with a ``divmod``
   reconstruction; any other window takes the stable ``lexsort``.  Both
   orders are identical, so the run bytes do not depend on which ran.
2. **K-way merge** -- repeatedly merge up to ``fan_in`` runs into longer
   runs until one run remains; the fan-in is derived from the memory cap so
   the merge buffers also respect ``M``.

The merge phase is *vectorised*: each run is buffered in block-sized
chunks, records are encoded as packed ``src * base + dst`` int64 keys, and
every round splices out the prefix of each buffer that is provably safe to
emit (all keys up to the smallest buffer-tail key across runs), merging the
prefixes with one stable ``argsort`` and writing the output in full
buffers.  The Python work per round is proportional to the *number of
runs*, not the number of edges, which is what makes the merge orders of
magnitude cheaper than the per-edge ``heapq`` loop it replaced.  That
original loop is retained as ``merge_impl="heapq"`` -- it remains the
serial reference the equivalence tests and the CI perf-smoke job compare
against, and the fallback for inputs that cannot be packed into int64 keys
(negative ids, or ``max_src * (max_dst + 1)`` overflowing 63 bits).

Both merge implementations issue byte-identical I/O: the same per-run
refill chunks and the same full-buffer output writes, so
:class:`~repro.externalmem.iostats.IOStats` block counts and modelled
device seconds do not depend on the chosen implementation.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from repro.core import kernels
from repro.errors import ConfigurationError
from repro.externalmem.blockio import BlockDevice, BlockFile
from repro.utils import Timer

__all__ = ["external_sort_edges", "ExternalSortResult"]

_EDGE_ITEMS = 2  # int64 words per edge record
_EDGE_BYTES = _EDGE_ITEMS * 8

#: Inclusive clamp applied to the derived merge fan-in.  The lower bound
#: keeps the merge a true k-way merge; the upper bound caps the number of
#: simultaneously open run files (and the per-round ``argsort`` width).
MIN_FAN_IN = 2
MAX_FAN_IN = 64


@dataclass(frozen=True)
class ExternalSortResult:
    """Outcome of an external sort: the output file plus run statistics.

    ``formation_seconds`` / ``merge_seconds`` are host wall-clock timings of
    the two phases (run formation is the same in both merge
    implementations; the merge phase is where ``"vectorized"`` and
    ``"heapq"`` differ), recorded so the perf harness can attribute
    speedups to the phase that actually changed.
    """

    output_name: str
    num_edges: int
    num_runs: int
    merge_passes: int
    fan_in: int = 0
    formation_seconds: float = 0.0
    merge_seconds: float = 0.0


def _read_edges(file: BlockFile, offset_edges: int, count_edges: int) -> np.ndarray:
    flat = file.read_array(offset_edges * _EDGE_ITEMS, count_edges * _EDGE_ITEMS)
    return flat.reshape(-1, _EDGE_ITEMS)


def _write_edges(file: BlockFile, edges: np.ndarray) -> None:
    file.append_array(np.ascontiguousarray(edges, dtype=np.int64).reshape(-1))


def _sort_in_memory(edges: np.ndarray) -> np.ndarray:
    order = np.lexsort((edges[:, 1], edges[:, 0]))
    return edges[order]


def _sort_window_fast(window: np.ndarray) -> tuple[np.ndarray, int, int, int]:
    """Sort one run window by (source, destination), same order as
    :func:`_sort_in_memory` but via one radix ``np.sort`` of packed keys.

    When every value is non-negative and ``max_src * (max_dst + 1) +
    max_dst`` fits in int64, the rows are reconstructed from the sorted
    keys with one ``divmod`` -- rows with equal keys are identical records,
    so the result is byte-identical to the stable lexsort (which is the
    fallback for unpackable windows).  Returns ``(sorted window, max_src,
    max_dst, min_value)`` -- the extrema drive the packability decision
    here and the caller's merge-key decision, computed once.
    """
    if window.shape[0] == 0:
        return window, -1, -1, 0
    max_src = int(window[:, 0].max())
    max_dst = int(window[:, 1].max())
    min_value = int(window.min())
    base = max_dst + 1
    packable = (
        min_value >= 0 and max_src * base + max_dst <= np.iinfo(np.int64).max
    )
    if not packable:
        return _sort_in_memory(window), max_src, max_dst, min_value
    keys = np.sort(window[:, 0] * np.int64(base) + window[:, 1])
    return (
        np.stack(np.divmod(keys, np.int64(base)), axis=1),
        max_src,
        max_dst,
        min_value,
    )


class _RunReader:
    """Buffered sequential reader over one sorted run (scalar ``heapq`` path)."""

    def __init__(self, file: BlockFile, buffer_edges: int) -> None:
        self.file = file
        self.buffer_edges = max(buffer_edges, 1)
        self.total_edges = file.num_items() // _EDGE_ITEMS
        self.position = 0
        self.buffer = np.empty((0, _EDGE_ITEMS), dtype=np.int64)
        self.buffer_pos = 0

    def _refill(self) -> bool:
        if self.position >= self.total_edges:
            return False
        count = min(self.buffer_edges, self.total_edges - self.position)
        self.buffer = _read_edges(self.file, self.position, count)
        self.position += count
        self.buffer_pos = 0
        return True

    def peek(self) -> tuple[int, int] | None:
        if self.buffer_pos >= self.buffer.shape[0] and not self._refill():
            return None
        row = self.buffer[self.buffer_pos]
        return int(row[0]), int(row[1])

    def pop(self) -> tuple[int, int]:
        value = self.peek()
        if value is None:
            raise StopIteration
        self.buffer_pos += 1
        return value


class _RunBuffer:
    """Block-buffered array reader over one sorted run (vectorised path).

    Holds the current refill chunk both as an ``(k, 2)`` edge array and as
    packed int64 keys; :meth:`take_upto` splices out the sorted prefix with
    keys ``<= limit`` via one binary search.
    """

    def __init__(self, file: BlockFile, buffer_edges: int, key_base: int) -> None:
        self.file = file
        self.buffer_edges = max(buffer_edges, 1)
        self.key_base = key_base
        self.total_edges = file.num_items() // _EDGE_ITEMS
        self.position = 0
        self.edges = np.empty((0, _EDGE_ITEMS), dtype=np.int64)
        self.keys = np.empty(0, dtype=np.int64)
        self.cursor = 0
        # head/tail cached as plain ints: the merge loop compares them every
        # round, and a numpy scalar indexing per comparison would dominate
        self.head_key = 0
        self.tail_key = 0

    def ensure_filled(self) -> bool:
        """Make the buffer non-empty; False when the run is exhausted."""
        if self.cursor < self.keys.shape[0]:
            return True
        if self.position >= self.total_edges:
            return False
        count = min(self.buffer_edges, self.total_edges - self.position)
        # zero-copy refill: the raw bytes are never mutated, so the
        # read-only frombuffer view is enough (read_array would copy)
        raw = self.file.read_bytes(
            self.position * _EDGE_BYTES, count * _EDGE_BYTES
        )
        self.edges = np.frombuffer(raw, dtype=np.int64).reshape(-1, _EDGE_ITEMS)
        self.position += count
        self.keys = self.edges[:, 0] * np.int64(self.key_base) + self.edges[:, 1]
        self.cursor = 0
        self.head_key = int(self.keys[0])
        self.tail_key = int(self.keys[-1])
        return True

    def take_upto(self, limit: int) -> tuple[np.ndarray, np.ndarray]:
        """Consume and return ``(rows, keys)`` of every buffered record ``<= limit``."""
        if self.tail_key <= limit:
            hi = self.keys.shape[0]
        else:
            hi = int(self.keys.searchsorted(limit, side="right"))
        rows = self.edges[self.cursor : hi]
        keys = self.keys[self.cursor : hi]
        self.cursor = hi
        if hi < self.keys.shape[0]:
            self.head_key = int(self.keys[hi])
        return rows, keys


def _derive_fan_in(memory_edges: int, block_size: int) -> int:
    """Merge fan-in under the memory cap: one block-sized stream buffer per
    input run plus one for the output must fit in ``memory_edges``."""
    buffer_edges = max(block_size // _EDGE_BYTES, 1)
    return max(min(memory_edges // buffer_edges - 1, MAX_FAN_IN), MIN_FAN_IN)


def external_sort_edges(
    device: BlockDevice,
    input_name: str,
    output_name: str,
    memory_bytes: int,
    fan_in: int | None = None,
    temp_prefix: str = "_extsort",
    merge_impl: str = "vectorized",
) -> ExternalSortResult:
    """Sort the edge file ``input_name`` by (source, destination).

    Parameters
    ----------
    device:
        block device holding both input and output.
    memory_bytes:
        memory cap ``M``; the in-memory window and merge buffers are sized
        so their combined footprint stays within this cap.
    fan_in:
        maximum number of runs merged at once; derived from the memory cap
        and the device block size when omitted (``memory_edges //
        buffer_edges - 1`` clamped to ``[2, 64]``, one block-sized buffer
        per stream).
    merge_impl:
        ``"vectorized"`` (default) merges runs with buffered numpy packed-key
        splicing; ``"heapq"`` uses the original per-edge heap loop.  Both
        produce identical output files and identical I/O accounting.

    Returns an :class:`ExternalSortResult`.  The input file is left intact.
    """
    if memory_bytes < _EDGE_BYTES * 4:
        raise ConfigurationError(
            f"memory budget of {memory_bytes} bytes is too small to sort edges"
        )
    if merge_impl not in ("vectorized", "heapq"):
        raise ConfigurationError(
            f"merge_impl must be 'vectorized' or 'heapq', got {merge_impl!r}"
        )
    infile = device.open(input_name)
    total_edges = infile.num_items() // _EDGE_ITEMS
    memory_edges = max(memory_bytes // _EDGE_BYTES, 4)

    # Phase 1: run formation (also records the value range so the merge can
    # decide whether packed int64 keys are exact for this input)
    formation_timer = Timer().start()
    run_names: list[str] = []
    max_src = -1
    max_dst = -1
    min_value = 0
    for offset in range(0, total_edges, memory_edges):
        window = _read_edges(infile, offset, min(memory_edges, total_edges - offset))
        sorted_window, w_max_src, w_max_dst, w_min = _sort_window_fast(window)
        max_src = max(max_src, w_max_src)
        max_dst = max(max_dst, w_max_dst)
        min_value = min(min_value, w_min)
        run_name = f"{temp_prefix}_run{len(run_names)}.bin"
        device.delete(run_name)
        _write_edges(device.open(run_name), sorted_window)
        run_names.append(run_name)
    num_runs = len(run_names)
    formation_timer.stop()

    if fan_in is None:
        fan_in = _derive_fan_in(memory_edges, device.block_size)

    if num_runs == 0:
        device.delete(output_name)
        device.open(output_name)  # create empty output
        return ExternalSortResult(
            output_name, 0, 0, 0, fan_in, formation_timer.elapsed, 0.0
        )

    key_base = max_dst + 1
    packable = (
        min_value >= 0 and max_src * key_base + max_dst <= np.iinfo(np.int64).max
    )
    vectorized = merge_impl == "vectorized" and packable

    # Phase 2: iterative k-way merges
    merge_timer = Timer().start()
    merge_passes = 0
    current = list(run_names)
    generation = 0
    while len(current) > 1:
        merge_passes += 1
        next_runs: list[str] = []
        for group_start in range(0, len(current), fan_in):
            group = current[group_start : group_start + fan_in]
            out_name = f"{temp_prefix}_g{generation}_m{len(next_runs)}.bin"
            device.delete(out_name)
            if vectorized:
                _merge_runs_vectorized(device, group, out_name, memory_edges, key_base)
            else:
                _merge_runs_heapq(device, group, out_name, memory_edges)
            next_runs.append(out_name)
            for name in group:
                device.delete(name)
        current = next_runs
        generation += 1

    final_run = current[0]
    device.delete(output_name)
    # rename by copying through the device so accounting stays consistent
    data = device.open(final_run)
    out = device.open(output_name)
    buffer_edges = max(memory_edges // 2, 1)
    pos = 0
    run_total = data.num_items() // _EDGE_ITEMS
    while pos < run_total:
        count = min(buffer_edges, run_total - pos)
        out.append_array(_read_edges(data, pos, count).reshape(-1))
        pos += count
    device.delete(final_run)
    merge_timer.stop()

    return ExternalSortResult(
        output_name,
        total_edges,
        num_runs,
        merge_passes,
        fan_in,
        formation_timer.elapsed,
        merge_timer.elapsed,
    )


def _merge_runs_vectorized(
    device: BlockDevice,
    run_names: list[str],
    output_name: str,
    memory_edges: int,
    key_base: int,
) -> None:
    """Merge sorted runs with buffered numpy splicing (no per-edge Python).

    Every round computes the *safe boundary* -- the smallest buffer-tail
    key across the still-active runs.  Any buffered record with a key at or
    below that boundary precedes every record not yet read from disk, so
    the per-run prefixes up to the boundary can be merged (one stable
    ``argsort`` over their concatenation) and emitted immediately.  At
    least one run drains its whole buffer per round (the one holding the
    minimum), so each record is spliced exactly once.
    """
    per_run = max(memory_edges // (len(run_names) + 1), 1)
    readers = [_RunBuffer(device.open(name), per_run, key_base) for name in run_names]
    out = device.open(output_name)
    out_capacity = max(per_run, 1)
    pending: list[np.ndarray] = []
    pending_count = 0

    active = [reader for reader in readers if reader.ensure_filled()]
    while active:
        if len(active) == 1:
            # only one run still holds records: stream its buffers through
            reader = active[0]
            merged = reader.edges[reader.cursor :]
            reader.cursor = reader.keys.shape[0]
        else:
            limit = min(reader.tail_key for reader in active)
            row_chunks: list[np.ndarray] = []
            key_chunks: list[np.ndarray] = []
            for reader in active:
                if reader.head_key > limit:
                    continue  # nothing safe to splice from this run yet
                rows, keys = reader.take_upto(limit)
                if rows.shape[0]:
                    row_chunks.append(rows)
                    key_chunks.append(keys)
            if len(row_chunks) == 1:
                merged = row_chunks[0]
            elif len(row_chunks) == 2:
                # two contributing runs: the shared galloping merge places
                # both prefixes with two binary searches (stable, run 0
                # first on ties -- the heap's (src, dst, run_index) order)
                pos_a, pos_b = kernels.merge_positions(key_chunks[0], key_chunks[1])
                merged = np.empty(
                    (pos_a.shape[0] + pos_b.shape[0], _EDGE_ITEMS), dtype=np.int64
                )
                merged[pos_a] = row_chunks[0]
                merged[pos_b] = row_chunks[1]
            else:
                # stable sort keeps equal keys in run order -- the same
                # tie-break the heap's (src, dst, run_index) entries produce
                order = np.argsort(np.concatenate(key_chunks), kind="stable")
                merged = np.concatenate(row_chunks)[order]
        pending.append(merged)
        pending_count += int(merged.shape[0])
        if pending_count >= out_capacity:
            # flush in exactly the full-buffer chunks the heap loop writes,
            # so the output I/O pattern (and its accounting) is unchanged
            data = pending[0] if len(pending) == 1 else np.concatenate(pending)
            flush = 0
            while data.shape[0] - flush >= out_capacity:
                _write_edges(out, data[flush : flush + out_capacity])
                flush += out_capacity
            rest = data[flush:]
            pending = [rest] if rest.shape[0] else []
            pending_count = int(rest.shape[0])
        active = [reader for reader in active if reader.ensure_filled()]

    if pending_count:
        _write_edges(out, pending[0] if len(pending) == 1 else np.concatenate(pending))


def _merge_runs_heapq(
    device: BlockDevice, run_names: list[str], output_name: str, memory_edges: int
) -> None:
    """The original per-edge heap merge, kept as the serial reference."""
    per_run = max(memory_edges // (len(run_names) + 1), 1)
    readers = [_RunReader(device.open(name), per_run) for name in run_names]
    out = device.open(output_name)
    out_buffer: list[tuple[int, int]] = []
    out_capacity = max(per_run, 1)

    heap: list[tuple[int, int, int]] = []
    for i, reader in enumerate(readers):
        head = reader.peek()
        if head is not None:
            heapq.heappush(heap, (head[0], head[1], i))

    while heap:
        src, dst, idx = heapq.heappop(heap)
        readers[idx].pop()
        out_buffer.append((src, dst))
        if len(out_buffer) >= out_capacity:
            _write_edges(out, np.array(out_buffer, dtype=np.int64))
            out_buffer.clear()
        head = readers[idx].peek()
        if head is not None:
            heapq.heappush(heap, (head[0], head[1], idx))

    if out_buffer:
        _write_edges(out, np.array(out_buffer, dtype=np.int64))


def edge_file_num_edges(device: BlockDevice, name: str) -> int:
    """Number of edge records in a binary edge file on ``device``."""
    return device.open(name).num_items() // _EDGE_ITEMS


def write_edge_file(device: BlockDevice, name: str, edges: np.ndarray) -> int:
    """Write an ``(m, 2)`` edge array as a flat int64 edge file; returns m."""
    device.delete(name)
    file = device.open(name)
    arr = np.ascontiguousarray(edges, dtype=np.int64)
    if arr.size:
        file.append_array(arr.reshape(-1))
    return int(arr.shape[0]) if arr.ndim == 2 else 0


def read_edge_file(device: BlockDevice, name: str) -> np.ndarray:
    """Read an entire binary edge file back as an ``(m, 2)`` array."""
    file = device.open(name)
    total = file.num_items()
    if total == 0:
        return np.empty((0, 2), dtype=np.int64)
    flat = file.read_array(0, total)
    return flat.reshape(-1, _EDGE_ITEMS)
