"""Modified Massive Graph Triangulation (Algorithm 2 of the paper).

MGT finds every triangle of an oriented graph ``G*`` by streaming the
oriented adjacency file through a memory window of ``Θ(M)`` edges:

1. read the next window of out-edges into the array ``edg``, and record in
   ``ind`` the in-window offset and degree of every vertex whose out-list
   (or part of it) sits in the window;
2. scan the whole graph vertex by vertex; for each vertex ``u`` read its
   out-list ``N(u)`` into ``nm``, compute ``N⁺(u)`` (the out-neighbours
   that have out-edges inside the window) into ``nmp``, and for every
   ``v ∈ N⁺(u)`` report a triangle ``(u, v, w)`` for every
   ``w ∈ N(u) ∩ E_v`` where ``E_v`` is ``v``'s in-window out-list.

The paper's modification relative to Hu et al.'s high-level description is
that the membership structures are *sorted arrays*, not hash sets -- the
intersection ``N(u) ∩ E_v`` is a sorted-array intersection -- which in turn
requires the adjacency file to be sorted by source and destination.  This
module implements exactly that variant, and what it charges -- the
operation count behind the modelled CPU time, and the ``edg``/``ind``/
``nm``/``nmp`` memory budget -- is that sorted-array MGT's on both kernel
tiers.  How a tier evaluates each intersection is host-side: the numpy
tier runs a batched binary search of packed ``(u, w)`` keys; the compiled
tier marks one list in a scratch array indexed by vertex id and tests the
other against it (``N(u)`` once per cone on the streaming scan, ``E_v``
once per window vertex on the shared-memory scan).  That n-entry scratch
is a direct-address table, not a hash set, and like the cached offsets
below it is not charged to the budget.

A worker reading the on-disk file streams the scan block by block, one
window at a time.  On a :class:`~repro.core.shm.SharedGraphView` the
whole graph is in memory and its in-neighbour lists are published, so a
window's scan visits only its candidate pairs: the in-edges ``(u, v)`` of
the window's vertices ``v``.  There the worker makes one call per chunk:
it checks every window against the budget and charges every window's
reads at once, and the compiled kernel ``mgt_chunk_scan`` walks all the
windows, prefetching along each window's in-lists.  In a traced run the
kernel times each window, and the worker records those times as the
``window`` spans.  Both paths charge the same modelled reads and report
the same pairs, operations and triangles in the same order.

Each reported triangle's three oriented edges were read at known
adjacency positions: ``(u, v)`` as the candidate pair's entry and
``(u, w)``, ``(v, w)`` where ``N(u)`` and ``E_v`` meet.  For an
:class:`~repro.core.triangles.EdgeSupportSink` both paths report those
positions instead of the triple (their crediting mode), so the sink adds
supports without looking an edge up.

:class:`MGTWorker` additionally supports the PDTL restriction to a
*contiguous edge range* ``[range_start, range_stop)``: only memory windows
drawn from that range are processed, so a worker finds exactly the
triangles whose pivot edge lies in its range.  Running a single worker over
the full range is the single-core MGT baseline of Figures 10/11.
"""

from __future__ import annotations

from dataclasses import dataclass
import time

import numpy as np

from repro.core import kernel_backend, kernels
from repro.core.config import PDTLConfig
from repro.core.triangles import CountingSink, EdgeSupportSink, TriangleSink
from repro.errors import ConfigurationError
from repro.externalmem.iostats import IOStats
from repro.externalmem.memory import MemoryBudget
from repro.graph.binfmt import GraphFile
from repro.obs.tracer import NULL_TRACER
from repro.utils import ceil_div, prefix_sums

__all__ = ["MGTWorker", "MGTResult", "mgt_count"]

_ITEM_BYTES = 8  # int64 adjacency entries

#: Throughput used to convert the deterministic operation count (edges
#: scanned + intersection elements examined) into a modelled CPU time when
#: ``PDTLConfig.modelled_cpu`` is set.  The absolute value only scales the
#: time axis; relative comparisons (imbalance, speedups) are unaffected.
MODELLED_CPU_OPS_PER_SECOND = 2.5e8


@dataclass
class MGTResult:
    """Outcome and resource accounting of one MGT worker run.

    ``io_stats`` are the worker's *own* analytic I/O counters (blocks it
    read/wrote under the configured block size), independent of the shared
    device counters, so per-processor breakdowns remain exact even when
    many workers share one simulated disk.  ``cpu_seconds`` is the *thread
    CPU time* spent in the in-memory triangle computation (so concurrent
    workers do not inflate each other's numbers through GIL contention),
    ``io_seconds`` the modelled device time of the worker's reads -- the two
    series plotted against each other in Figures 6-8.
    """

    triangles: int
    iterations: int
    cpu_seconds: float
    io_seconds: float
    io_stats: IOStats
    intersections: int
    edges_processed: int
    range_start: int
    range_stop: int
    peak_memory_bytes: int
    cpu_operations: int = 0


class MGTWorker:
    """One MGT execution over a contiguous range of oriented edge positions.

    Parameters
    ----------
    oriented:
        the on-disk oriented graph (``directed`` must be True and adjacency
        sorted -- both are guaranteed by :func:`repro.core.orientation.orient_graph`),
        or a zero-copy :class:`~repro.core.shm.SharedGraphView` of one --
        both expose the same read API and feed the same analytic accounting.
    config:
        supplies the per-processor memory budget ``M``, the block size ``B``
        and the window fill fraction ``c``.
    range_start, range_stop:
        the half-open edge-position range this worker is responsible for;
        defaults to the whole file (single-core MGT).
    tracer:
        optional :class:`repro.obs.tracer.Tracer`; when given (and enabled)
        the worker records one ``kernel``-category span per memory window.
        Instrumentation only -- no accounted quantity depends on it.

    The worker scans on its process's kernel tier
    (:mod:`repro.core.kernel_backend`) and never chooses one; a chunk task
    sets the tier of the process that runs it before it builds the worker.
    """

    def __init__(
        self,
        oriented: GraphFile,
        config: PDTLConfig,
        range_start: int = 0,
        range_stop: int | None = None,
        tracer=None,
    ) -> None:
        if not oriented.directed:
            raise ConfigurationError("MGTWorker requires an oriented graph file")
        self.graph = oriented
        self.config = config
        self.range_start = int(range_start)
        self.range_stop = int(range_stop if range_stop is not None else oriented.num_edges)
        if not 0 <= self.range_start <= self.range_stop <= oriented.num_edges:
            raise ConfigurationError(
                f"invalid edge range [{self.range_start}, {self.range_stop}) for a "
                f"graph with {oriented.num_edges} oriented edges"
            )
        self.budget = MemoryBudget(config.memory_per_proc)
        self.io_stats = IOStats(block_size=config.block_size)
        self._tracer = tracer if tracer is not None else NULL_TRACER
        self._window_edges = config.window_edges
        # the full-graph scan reads cone vertices in blocks of this many, so
        # its reads stay sequential
        self._scan_block_vertices = max(config.block_items // 2, 1024)
        # Small-degree assumption (footnote 1): every oriented out-list must
        # fit inside one memory window, otherwise a vertex's list could span
        # more than two windows and the CPU analysis breaks down.
        if oriented.max_degree > self._window_edges:
            raise ConfigurationError(
                f"graph violates the small-degree assumption: d*_max="
                f"{oriented.max_degree} exceeds the window capacity of "
                f"{self._window_edges} edges; increase memory_per_proc"
            )

    # -- I/O accounting helpers --------------------------------------------------------

    def _charge_read(self, num_items: int, sequential: bool = True) -> None:
        if num_items <= 0:
            return
        nbytes = num_items * _ITEM_BYTES
        blocks = ceil_div(nbytes, self.config.block_size)
        self.io_stats.record_read(blocks, nbytes, sequential)
        self.io_stats.add_device_time(
            self.graph.device.model.transfer_time(nbytes, sequential)
        )

    # -- the algorithm ---------------------------------------------------------------

    def run(self, sink: TriangleSink | None = None) -> MGTResult:
        """Execute modified MGT over this worker's edge range.

        Returns an :class:`MGTResult`; reported triangles go to ``sink``
        (a fresh :class:`CountingSink` when omitted).
        """
        sink = sink if sink is not None else CountingSink()

        # The degree file is scanned once to build the vertex offsets used to
        # address the adjacency file.  In the paper's implementation the
        # degree file is streamed alongside the adjacency file during each
        # scan, so it does not count against the per-processor budget M;
        # this implementation caches it for simplicity but, to keep the
        # memory accounting aligned with the paper's (edg + ind + nm + nmp),
        # does not charge it to the budget either.  A shared-memory graph
        # view publishes the offsets once per run; the worker still charges
        # the same modelled degree scan, it just skips the host-side work.
        # The compiled kernels' mark arrays (one entry per vertex; the
        # streaming scan allocates its one per run) are host-side scratch of
        # the same kind and are not charged either: the budget stays the
        # sorted-array MGT's on both tiers.
        offsets = getattr(self.graph, "cached_offsets", None)
        if offsets is None:
            offsets = prefix_sums(self.graph.read_degrees())
        self._charge_read(self.graph.num_vertices, sequential=True)

        # scratch arrays nm / nmp are bounded by d*_max (paper section IV-A1)
        dmax = max(self.graph.max_degree, 1)
        self.budget.allocate("nm", dmax * _ITEM_BYTES)
        self.budget.allocate("nmp", dmax * _ITEM_BYTES)

        # A shared-memory graph view publishes its in-neighbour lists; with
        # those and the whole graph memory-resident, each window's
        # full-graph scan visits just the window's candidate pairs instead
        # of looping over the file block by block.
        shared = getattr(self.graph, "in_offsets", None) is not None
        scan_windows = self._run_shared if shared else self._run_streaming
        # cpu_operations is the deterministic operation count: edges
        # loaded/scanned plus gathered intersection elements.  Unlike the
        # measured thread time it is a pure function of the input, so it
        # backs the ``modelled_cpu`` mode.
        iterations, intersections, cpu_operations, cpu_seconds = scan_windows(sink, offsets)

        peak = self.budget.peak_usage
        self.budget.release_all()
        if self.config.modelled_cpu:
            cpu_seconds = cpu_operations / MODELLED_CPU_OPS_PER_SECOND
        return MGTResult(
            triangles=sink.count,
            iterations=iterations,
            cpu_seconds=cpu_seconds,
            io_seconds=self.io_stats.device_seconds,
            io_stats=self.io_stats.snapshot(),
            intersections=intersections,
            edges_processed=self.range_stop - self.range_start,
            range_start=self.range_start,
            range_stop=self.range_stop,
            peak_memory_bytes=peak,
            cpu_operations=cpu_operations,
        )

    def _run_streaming(
        self, sink: TriangleSink, offsets: np.ndarray
    ) -> tuple[int, int, int, float]:
        """Every window of the range, each scanning the on-disk file.

        Returns ``(windows, pairs, operations, cpu_seconds)``.
        """
        cpu_seconds = 0.0
        intersections = 0
        iterations = 0
        cpu_operations = 0
        # hot loop: only build window spans when tracing is actually on, so
        # the disabled path costs one attribute load per run, not per window
        traced = self._tracer.enabled
        window_start = self.range_start
        emit = _emit_mode(sink)
        # the compiled block scan's mark array, one entry per vertex, reused
        # by every block of every window (each call leaves it all zero); it
        # holds adjacency positions when the scan credits them
        mark = np.zeros(
            self.graph.num_vertices,
            dtype=np.int64 if emit == kernels.EMIT_POSITIONS else np.uint8,
        )

        while window_start < self.range_stop:
            window_stop = min(window_start + self._window_edges, self.range_stop)
            iterations += 1
            cpu_operations += window_stop - window_start
            window_span = (
                self._tracer.span(
                    "window",
                    cat="kernel",
                    window=iterations - 1,
                    start=window_start,
                    stop=window_stop,
                )
                if traced
                else None
            )

            # ---- load the window: edg + ind -------------------------------------
            edg = self.graph.read_adjacency_range(
                window_start, window_stop - window_start
            )
            self._charge_read(window_stop - window_start, sequential=True)
            self.budget.allocate("edg", edg.nbytes)

            t0 = time.thread_time()
            # vertices whose out-lists overlap this window
            vlow = int(np.searchsorted(offsets, window_start, side="right")) - 1
            vhigh = int(np.searchsorted(offsets, window_stop, side="left")) - 1
            vhigh = max(vhigh, vlow)
            span = vhigh - vlow + 1
            # ind: per-vertex (offset into edg, in-window degree)
            win_offsets = np.zeros(span, dtype=np.int64)
            win_degrees = np.zeros(span, dtype=np.int64)
            vs = np.arange(vlow, vhigh + 1, dtype=np.int64)
            starts = np.maximum(offsets[vs], window_start)
            stops = np.minimum(offsets[vs + 1], window_stop)
            lengths = np.maximum(stops - starts, 0)
            win_offsets[:] = starts - window_start
            win_degrees[:] = lengths
            self.budget.allocate("ind", win_offsets.nbytes + win_degrees.nbytes)
            cpu_seconds += time.thread_time() - t0

            # ---- scan the whole graph vertex by vertex ----------------------------
            window_pairs = 0
            v = 0
            while v < self.graph.num_vertices:
                hi = min(v + self._scan_block_vertices, self.graph.num_vertices)
                block_start_edge = int(offsets[v])
                block_edge_count = int(offsets[hi] - offsets[v])
                if block_edge_count:
                    block_adj = self.graph.read_adjacency_range(
                        block_start_edge, block_edge_count
                    )
                    self._charge_read(block_edge_count, sequential=True)
                else:
                    block_adj = np.empty(0, dtype=np.int64)

                t0 = time.thread_time()
                block_offsets = offsets[v : hi + 1] - offsets[v]
                pairs, block_ops = self._process_block(
                    sink,
                    emit,
                    block_adj,
                    block_offsets,
                    first_vertex=v,
                    block_base=block_start_edge,
                    edg=edg,
                    window_base=window_start,
                    vlow=vlow,
                    vhigh=vhigh,
                    win_offsets=win_offsets,
                    win_degrees=win_degrees,
                    mark=mark,
                )
                window_pairs += pairs
                cpu_operations += block_ops
                cpu_seconds += time.thread_time() - t0
                v = hi
            intersections += window_pairs

            self.budget.release("edg")
            self.budget.release("ind")
            if window_span is not None:
                window_span.end(pairs=window_pairs)
            window_start = window_stop
        return iterations, intersections, cpu_operations, cpu_seconds

    def _process_block(
        self,
        sink: TriangleSink,
        emit: int,
        block_adj: np.ndarray,
        block_offsets: np.ndarray,
        first_vertex: int,
        block_base: int,
        edg: np.ndarray,
        window_base: int,
        vlow: int,
        vhigh: int,
        win_offsets: np.ndarray,
        win_degrees: np.ndarray,
        mark: np.ndarray,
    ) -> tuple[int, int]:
        """Run the MGT inner loop for one scanned block of cone vertices.

        The loop body of Algorithm 2 -- build ``N⁺(u)`` and intersect
        ``N(u) ∩ E_v`` for every ``v ∈ N⁺(u)`` -- is evaluated for *all* cone
        vertices of the block at once with array operations:

        1. mark every adjacency entry ``(u, v)`` whose ``v`` has out-edges in
           the current memory window (these are exactly the ``N⁺(u)``
           memberships);
        2. gather the in-window out-lists ``E_v`` of all marked pairs into one
           flat array (:func:`repro.core.kernels.segment_positions`);
        3. test membership ``w ∈ N(u)`` for all gathered elements with a
           single binary search against the block's (sorted) packed ``(u, w)``
           key array (:func:`repro.core.kernels.sorted_positions`) -- the
           same sorted-array intersection the paper's modified MGT performs,
           just batched.

        The gather/membership machinery is shared with the in-memory
        baselines through :mod:`repro.core.kernels`; the only MGT-specific
        part is that ``E_v`` segments come from the memory window ``edg``
        addressed by ``win_offsets``/``win_degrees`` rather than from the
        full adjacency.  ``mark`` is the run's all-zero scratch for the
        compiled tier's marked walk, which leaves it all zero.

        ``emit`` says what the sink takes (:func:`_emit_mode`).  To credit
        an edge-support sink, each triangle is reported as the adjacency
        positions of the three entries the loop read: the candidate entry
        ``(u, v)`` and the hit ``(u, w)`` of the block (whose first entry is
        ``block_base``), and the gathered ``(v, w)`` of the window (whose
        first entry is ``window_base``).

        Returns ``(pairs, operations)``: the number of (cone, out-neighbour)
        pairs intersected -- the Σ|N⁺(u)| term of the CPU analysis -- and the
        deterministic operation count (block entries scanned plus gathered
        ``E_v`` elements) that backs the modelled CPU time.
        """
        if block_adj.shape[0] == 0:
            return 0, 0
        scanned = int(block_adj.shape[0])

        # compiled tier: the whole 3-step chain below runs as one fused loop
        # over the block's adjacency entries -- no candidate mask, no gathered
        # E_v array, no packed keys.  Emission order, pair count and the
        # scanned + gathered operation count are identical by contract.
        fused_scan = kernel_backend.fused("mgt_block_scan")
        if fused_scan is not None:
            num_pairs, total, hits, first, pivots_v, pivots_w = fused_scan(
                block_adj,
                block_offsets,
                edg,
                vlow,
                vhigh,
                win_offsets,
                win_degrees,
                mark,
                emit,
                block_base,
                window_base,
            )
            if hits:
                if emit == kernels.EMIT_TRIPLES:
                    first = first + np.int64(first_vertex)
                _report(sink, emit, hits, first, pivots_v, pivots_w)
            return num_pairs, scanned + total

        num_block_vertices = block_offsets.shape[0] - 1

        # step 1: candidate (u, v) pairs
        in_span = (block_adj >= vlow) & (block_adj <= vhigh)
        cand_mask = np.zeros(block_adj.shape[0], dtype=bool)
        if in_span.any():
            cand_mask[in_span] = win_degrees[block_adj[in_span] - vlow] > 0
        if not cand_mask.any():
            return 0, scanned
        block_degrees = (block_offsets[1:] - block_offsets[:-1]).astype(np.int64)
        entry_sources = np.repeat(
            np.arange(num_block_vertices, dtype=np.int64), block_degrees
        )
        candidates = np.flatnonzero(cand_mask)
        pair_u = entry_sources[candidates]         # cone vertex (block-relative)
        pair_v = block_adj[candidates]             # out-neighbour with in-window edges
        num_pairs = int(pair_u.shape[0])

        # step 2: gather E_v for every pair into one flat array
        seg_lengths = win_degrees[pair_v - vlow]
        total = int(seg_lengths.sum())
        if total == 0:
            return num_pairs, scanned
        seg_starts = win_offsets[pair_v - vlow]
        ev_positions, pair_ids = kernels.segment_positions(seg_starts, seg_lengths)
        ev_all = edg[ev_positions]

        # step 3: membership w ∈ N(u) via one binary search on packed keys.
        # The block's adjacency is sorted by (source, destination), so the
        # packed keys are sorted and the query (u, w) hits exactly when the
        # edge (u, w) is present in the block, at the position found.
        n = self.graph.num_vertices
        block_keys = kernels.packed_keys(entry_sources, block_adj, n)
        query_keys = kernels.packed_keys(pair_u[pair_ids], ev_all, n)
        uw_positions, found = kernels.sorted_positions(block_keys, query_keys)
        if found.any():
            hit_pairs = pair_ids[found]
            if emit == kernels.EMIT_POSITIONS:
                sink.credit(
                    np.stack(
                        (
                            block_base + candidates[hit_pairs],
                            block_base + uw_positions[found],
                            window_base + ev_positions[found],
                        ),
                        axis=1,
                    )
                )
            else:
                sink.add_triples(
                    pair_u[hit_pairs] + first_vertex, pair_v[hit_pairs], ev_all[found]
                )
        return num_pairs, scanned + total

    def _run_shared(
        self, sink: TriangleSink, offsets: np.ndarray
    ) -> tuple[int, int, int, float]:
        """Every window of the range on a shared-memory view, in one call.

        The streaming scan marks every adjacency entry ``(u, v)`` whose
        ``v`` has out-edges in the window; those are exactly the in-edges
        of the window's vertices, so each window's scan walks their
        published in-neighbour lists instead of the file.  The worker takes
        every window's span, checks every window against the budget and
        charges the whole range's modelled reads up front; then one
        ``mgt_chunk_scan`` call scans every window.  Pairs, operations,
        charges and triangles -- window by window, in the streaming
        ``(cone, v, w)`` order -- are identical to :meth:`_run_streaming`'s.
        Credited positions come in the walk's own order (v-major within a
        window): the sink's sums do not depend on it.

        Returns ``(windows, pairs, operations, cpu_seconds)``.
        """
        t0 = time.thread_time()
        graph = self.graph
        bounds = np.append(
            np.arange(self.range_start, self.range_stop, self._window_edges),
            self.range_stop,
        )
        windows = bounds.shape[0] - 1
        if windows == 0:
            return 0, 0, 0, 0.0
        # each window's span: the vertices whose out-lists overlap it
        vlows = np.searchsorted(offsets, bounds[:-1], side="right") - 1
        vhighs = np.maximum(np.searchsorted(offsets, bounds[1:], side="left") - 1, vlows)
        # each window holds edg and ind on top of nm and nmp: reserving the
        # first that does not fit raises the error the streaming loop
        # raises, and reserving the largest sets the same peak
        edg_bytes = np.diff(bounds) * _ITEM_BYTES
        ind_bytes = (vhighs - vlows + 1) * (2 * _ITEM_BYTES)
        need = edg_bytes + ind_bytes
        over = np.flatnonzero(need > self.budget.free)
        worst = int(over[0]) if over.shape[0] else int(np.argmax(need))
        self.budget.allocate("edg", int(edg_bytes[worst]))
        self.budget.allocate("ind", int(ind_bytes[worst]))
        self.budget.release("edg")
        self.budget.release("ind")
        self._charge_windows(offsets, edg_bytes)

        emit = _emit_mode(sink)
        traced = self._tracer.enabled
        scan = kernel_backend.fused("mgt_chunk_scan") or self._chunk_scan_numpy
        started = self._tracer.clock() if traced else 0.0
        pairs, total, hits, first, pivots_v, pivots_w, window_pairs, window_seconds = scan(
            offsets,
            graph.read_adjacency_range(0, graph.num_edges),
            graph.in_offsets,
            graph.in_sources,
            bounds,
            vlows,
            vhighs,
            emit,
            traced,
        )
        if hits:
            _report(sink, emit, hits, first, pivots_v, pivots_w)
        if traced:
            # the kernel timed each window; lay the spans end to end
            for i, (window_pair_count, seconds) in enumerate(
                zip(window_pairs.tolist(), window_seconds.tolist())
            ):
                self._tracer.record_span(
                    "window",
                    started,
                    seconds,
                    cat="kernel",
                    window=i,
                    start=int(bounds[i]),
                    stop=int(bounds[i + 1]),
                    pairs=window_pair_count,
                )
                started += seconds
        operations = int(bounds[-1] - bounds[0]) + windows * graph.num_edges + total
        return windows, pairs, operations, time.thread_time() - t0

    def _charge_windows(self, offsets: np.ndarray, window_bytes: np.ndarray) -> None:
        """Charge each window's load and full-graph scan as the streaming
        loop does.

        The streaming loop reads a window, then scans the file in one
        sequential read per non-empty block of :attr:`_scan_block_vertices`
        cone vertices, in vertex order.  The integer counters are exact
        sums.  The device time is added one read at a time in that order, by
        one sequential ``np.add.accumulate``: a pairwise sum or a
        precomputed total would round differently in the last bits.
        """
        n = self.graph.num_vertices
        starts = np.arange(0, n, self._scan_block_vertices)
        stops = np.minimum(starts + self._scan_block_vertices, n)
        scan_bytes = (offsets[stops] - offsets[starts]) * _ITEM_BYTES
        scan_bytes = scan_bytes[scan_bytes > 0]
        windows = window_bytes.shape[0]
        block = self.config.block_size
        window_blocks = -(-window_bytes // block)
        scan_blocks = -(-scan_bytes // block)
        blocks = int(window_blocks.sum() + windows * scan_blocks.sum())
        stats = self.io_stats
        stats.blocks_read += blocks
        stats.sequential_reads += blocks
        stats.bytes_read += int(window_bytes.sum() + windows * scan_bytes.sum())
        stats.read_calls += windows * (1 + scan_bytes.shape[0])
        model = self.graph.device.model
        seconds = np.empty((windows, 1 + scan_bytes.shape[0]))
        seconds[:, 0] = [model.transfer_time(b, True) for b in window_bytes.tolist()]
        seconds[:, 1:] = [model.transfer_time(b, True) for b in scan_bytes.tolist()]
        total = np.add.accumulate(np.append(stats.device_seconds, seconds))
        stats.device_seconds = float(total[-1])

    def _chunk_scan_numpy(
        self,
        offsets: np.ndarray,
        adjacency: np.ndarray,
        in_offsets: np.ndarray,
        in_sources: np.ndarray,
        bounds: np.ndarray,
        vlows: np.ndarray,
        vhighs: np.ndarray,
        emit: int,
        per_window: bool,
    ) -> tuple:
        """The numpy tier of the C kernel ``mgt_chunk_scan``, same arguments
        and results: the windows one at a time.

        A window's candidate pairs come in adjacency position order (their
        packed keys sort that way); then ``E_v`` is gathered for every pair
        and each ``(u, w)`` searched in the view's packed edge keys
        (:attr:`~repro.core.shm.SharedGraphView.scan_keys`, built once per
        attached view).  Credited positions are put in the C walk's v-major
        order: the hits of each window come ``(u, v, w)``-sorted, and a
        stable sort by ``v`` gives ``(v, u, w)``.
        """
        n = self.graph.num_vertices
        keys = self.graph.scan_keys
        nwin = vlows.shape[0]
        window_pairs = np.zeros(nwin, dtype=np.int64)
        window_seconds = np.zeros(nwin)
        total = hits = 0
        listed: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        for i in range(nwin):
            started = time.perf_counter()
            vlow = vlows[i]
            span = np.arange(vlow, vhighs[i] + 1)
            starts = np.maximum(offsets[span], bounds[i])
            degrees = np.maximum(np.minimum(offsets[span + 1], bounds[i + 1]) - starts, 0)
            active = span[degrees > 0]
            in_starts = in_offsets[active]
            pair_u, owners = kernels.segment_gather(
                in_sources, in_starts, in_offsets[active + 1] - in_starts
            )
            window_pairs[i] = pair_u.shape[0]
            if pair_u.shape[0]:
                pair_keys = np.sort(kernels.packed_keys(pair_u, active[owners], n))
                pair_u, pair_v = np.divmod(pair_keys, n)
                seg_lengths = degrees[pair_v - vlow]
                total += int(seg_lengths.sum())
                ev_positions, pair_ids = kernels.segment_positions(
                    starts[pair_v - vlow], seg_lengths
                )
                ev_all = adjacency[ev_positions]
                query_keys = kernels.packed_keys(pair_u[pair_ids], ev_all, n)
                uw_positions, found = kernels.sorted_positions(keys, query_keys)
                hits += int(np.count_nonzero(found))
                hit_pairs = pair_ids[found]
                if emit == kernels.EMIT_TRIPLES:
                    listed.append((pair_u[hit_pairs], pair_v[hit_pairs], ev_all[found]))
                elif emit == kernels.EMIT_POSITIONS:
                    order = np.argsort(pair_v[hit_pairs], kind="stable")
                    listed.append((
                        np.searchsorted(keys, pair_keys[hit_pairs[order]]),
                        uw_positions[found][order],
                        ev_positions[found][order],
                    ))
            window_seconds[i] = time.perf_counter() - started
        pairs = int(window_pairs.sum())
        columns = (
            [np.concatenate(column) for column in zip(*listed)]
            if listed
            else [np.empty(0, dtype=np.int64)] * 3
        )
        first = pivots_v = pivots_w = None
        if emit == kernels.EMIT_TRIPLES:
            first, pivots_v, pivots_w = columns
        elif emit == kernels.EMIT_POSITIONS:
            first = np.stack(columns, axis=1)
        if not per_window:
            window_pairs = window_seconds = None
        return pairs, total, hits, first, pivots_v, pivots_w, window_pairs, window_seconds


def _emit_mode(sink: TriangleSink) -> int:
    """What the scans report to ``sink``: a :class:`CountingSink` takes the
    hit count only, an :class:`EdgeSupportSink` each triangle's three
    adjacency positions, and every other sink the triples."""
    if type(sink) is CountingSink:
        return kernels.EMIT_COUNT
    if isinstance(sink, EdgeSupportSink):
        return kernels.EMIT_POSITIONS
    return kernels.EMIT_TRIPLES


def _report(sink, emit: int, hits: int, first, pivots_v, pivots_w) -> None:
    """Hand one scan's hits to ``sink`` as :func:`_emit_mode` says: the
    count, the ``(T, 3)`` positions in ``first``, or the triples."""
    if emit == kernels.EMIT_COUNT:
        sink.count += hits
    elif emit == kernels.EMIT_POSITIONS:
        sink.credit(first)
    else:
        sink.add_triples(first, pivots_v, pivots_w)


def mgt_count(
    oriented: GraphFile,
    config: PDTLConfig | None = None,
    sink: TriangleSink | None = None,
) -> MGTResult:
    """Run single-core MGT over a whole oriented on-disk graph.

    This is the baseline the paper compares PDTL against in Figures 10/11;
    it is literally PDTL with ``N = P = 1``.
    """
    config = config if config is not None else PDTLConfig()
    worker = MGTWorker(oriented, config)
    return worker.run(sink)
