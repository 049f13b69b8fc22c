"""Dynamic chunk scheduling: pull-based work distribution with fault tolerance.

The paper's PDTL protocol hands every processor one *static* contiguous
edge range computed up front (section IV-B1).  Figure 9 shows that even
the in-degree-balanced split leaves imbalance on skewed graphs, and a
straggling or failed worker stalls the whole run because nobody else can
take over its range.  This module replaces the one-shot assignment with a
**pull-based chunk queue**:

* the oriented adjacency file is cut into many small contiguous
  :class:`Chunk` s, each a whole number of MGT memory windows (so a chunk
  never pays a partial-window scan -- the chunk size is derived from ``M``
  exactly like the window size is);
* workers *pull* the next chunk off a shared deque the moment they finish
  their previous one, so fast workers naturally absorb the heavy chunks a
  static split would have pinned onto one struggler;
* a failure-injection hook can kill a worker mid-run: the chunk it was
  holding is re-enqueued at the back of the deque and re-executed by a
  surviving worker, so the run always completes with exact counts;
* per-chunk results are merged **by chunk index**, never by completion
  order, so the output is deterministic no matter how the race for the
  queue plays out.

Two concerns are deliberately decoupled, mirroring the repository-wide
split between *measured host execution* and *modelled cluster time*:

1. chunk **computation** is a pure function of ``(graph, config, range)``
   -- :func:`execute_chunk_task` is a picklable, placement-independent task
   executed on any :class:`~repro.cluster.executor.ExecutionBackend` (the
   processes backend finally works for PDTL because of this);
2. chunk **assignment** is replayed as a deterministic greedy simulation in
   modelled time by :class:`DynamicScheduler`: the simulated worker with
   the smallest accumulated modelled time (integer picoseconds) pulls
   next, which is exactly the "first to finish pulls first" behaviour of a
   real pull loop, minus the host-scheduler noise.  Under
   ``PDTLConfig.modelled_cpu`` this keeps the schedule and every modelled
   metric bit-identical across backends, hosts and repetitions; measured
   CPU time can change the schedule from run to run.
"""

from __future__ import annotations

import os
import tempfile
from collections import deque
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from repro.core import kernel_backend
from repro.core.config import PDTLConfig
from repro.core.mgt import MGTResult, MGTWorker
from repro.core.shm import SharedGraphDescriptor, attach_view
from repro.core.triangles import make_sink
from repro.errors import ConfigurationError, SchedulingError
from repro.externalmem.blockio import BlockDevice, DiskModel
from repro.externalmem.iostats import IOStats
from repro.graph.binfmt import GraphFile
from repro.obs.metrics import counter_delta, snapshot_process_counters
from repro.obs.tracer import NULL_TRACER, SpanEvent, Tracer
from repro.utils import ceil_div, chunk_ranges

__all__ = [
    "DEFAULT_CHUNKS_PER_WORKER",
    "Chunk",
    "ChunkOutcome",
    "ChunkTask",
    "chunks_cover_exactly",
    "DynamicScheduler",
    "ScheduleResult",
    "execute_chunk_task",
    "make_chunks",
    "merge_mgt_results",
    "resolve_chunk_edges",
]

#: How many chunks each worker should see on average when ``chunk_edges`` is
#: not set explicitly.  More chunks per worker means finer balancing but more
#: per-chunk overhead (each chunk re-reads the degree file and pays its own
#: full-graph scan per window).
DEFAULT_CHUNKS_PER_WORKER = 4


# ---------------------------------------------------------------------------
# chunking
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Chunk:
    """A contiguous half-open range ``[start, stop)`` of oriented edge
    positions, the unit of work a worker pulls from the queue."""

    index: int
    start: int
    stop: int

    @property
    def num_edges(self) -> int:
        return self.stop - self.start


def resolve_chunk_edges(config: PDTLConfig, num_edges: int) -> int:
    """The effective chunk size for a run: whole memory windows, always.

    An explicit ``config.chunk_edges`` is rounded **up** to a multiple of
    ``window_edges``; otherwise the size targets
    :data:`DEFAULT_CHUNKS_PER_WORKER` chunks per processor, again in whole
    windows.  A chunk is therefore never smaller than one window, so dynamic
    scheduling performs the same per-window full-graph scans a static range
    of equal size would.
    """
    window = config.window_edges
    if config.chunk_edges is not None:
        return max(1, ceil_div(config.chunk_edges, window)) * window
    if num_edges <= 0:
        return window
    target = ceil_div(num_edges, config.total_processors * DEFAULT_CHUNKS_PER_WORKER)
    return max(1, ceil_div(target, window)) * window


def make_chunks(num_edges: int, chunk_edges: int) -> list[Chunk]:
    """Cut ``[0, num_edges)`` into consecutive chunks of ``chunk_edges``.

    The chunks partition the edge positions exactly: no overlap, no gap,
    the last chunk absorbing the remainder.  ``num_edges == 0`` yields no
    chunks at all.
    """
    if chunk_edges <= 0:
        raise ConfigurationError(f"chunk_edges must be positive, got {chunk_edges}")
    if num_edges < 0:
        raise ConfigurationError(f"num_edges must be non-negative, got {num_edges}")
    chunks: list[Chunk] = []
    start = 0
    while start < num_edges:
        stop = min(start + chunk_edges, num_edges)
        chunks.append(Chunk(index=len(chunks), start=start, stop=stop))
        start = stop
    return chunks


def chunks_cover_exactly(chunks: Sequence[Chunk], num_edges: int) -> bool:
    """True when the chunks tile ``[0, num_edges)`` exactly once, in order."""
    expected = 0
    for chunk in chunks:
        if chunk.start != expected or chunk.stop < chunk.start:
            return False
        expected = chunk.stop
    return expected == num_edges


# ---------------------------------------------------------------------------
# chunk execution (picklable, placement-independent)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChunkTask:
    """Everything a worker process needs to execute one chunk.

    The task carries plain data only (paths, sizes, descriptors, the frozen
    config), so it crosses a :class:`~concurrent.futures.ProcessPoolExecutor`
    boundary by pickle; the worker re-opens the on-disk graph from
    ``device_root``, or -- when ``shm`` carries a
    :class:`~repro.core.shm.SharedGraphDescriptor` -- attaches the published
    shared-memory segments and slices its windows zero-copy (no file I/O at
    all).  All replicas of the oriented graph are byte-identical and the
    MGT worker's I/O accounting is analytic, so the outcome is independent
    of which machine's copy (or which shared segment) the task reads.

    ``kernel_tier`` is the kernel tier (``"numpy"`` or ``"cffi"``) active
    in the master when it built the task.  The worker switches to it before
    it scans, so a pool follows its master whichever tier the pool's
    processes started on.
    """

    index: int
    device_root: str
    device_block_size: int
    disk_model: DiskModel
    graph_name: str
    num_vertices: int
    num_edges: int
    max_degree: int
    config: PDTLConfig
    start: int
    stop: int
    sink_kind: str
    kernel_tier: str
    shm: SharedGraphDescriptor | None = None
    #: pid of the process that built the task; lets a traced chunk decide
    #: whether it runs in a worker process (where per-task process-counter
    #: deltas are exact) or in the master (where the run-level delta wins)
    master_pid: int = 0

    @classmethod
    def from_graph(
        cls,
        index: int,
        graph: GraphFile,
        config: PDTLConfig,
        start: int,
        stop: int,
        sink_kind: str,
        shm: SharedGraphDescriptor | None = None,
    ) -> "ChunkTask":
        return cls(
            index=index,
            device_root=str(graph.device.root),
            device_block_size=graph.device.block_size,
            disk_model=graph.device.model,
            graph_name=graph.name,
            num_vertices=graph.num_vertices,
            num_edges=graph.num_edges,
            max_degree=graph.max_degree,
            config=config,
            start=start,
            stop=stop,
            sink_kind=sink_kind,
            kernel_tier=kernel_backend.active_backend(),
            shm=shm,
            master_pid=os.getpid(),
        )


@dataclass
class ChunkOutcome:
    """The result of one chunk execution, keyed by chunk index for merging.

    ``triples`` holds the listed triangles as an ``(k, 3)`` int64 array when
    the sink kind is ``"list"``; ``per_vertex`` the per-vertex counts when it
    is ``"per-vertex"``; ``support_positions``/``support_counts`` the chunk's
    partial edge supports in sparse aggregated form (strictly increasing
    oriented-edge positions with their counts -- the shape both the dense
    and the budget-bound spilling :class:`~repro.core.triangles.EdgeSupportSink`
    produce) when it is ``"edge-support"``.  Arrays pickle cleanly, so the
    same payload shape serves every backend.
    """

    index: int
    result: MGTResult
    triangles: int
    triples: np.ndarray | None = None
    per_vertex: np.ndarray | None = None
    support_positions: np.ndarray | None = None
    support_counts: np.ndarray | None = None
    #: traced-run payload (empty/None when tracing is off): the chunk's span
    #: events and its host-cache counter deltas, both picklable plain data
    events: tuple[SpanEvent, ...] = ()
    counters: dict[str, float] | None = None


def execute_chunk_task(task: ChunkTask) -> ChunkOutcome:
    """Run modified MGT over one chunk; module-level so it pickles.

    Each execution gets a private sink and private I/O counters, so
    outcomes can be merged in chunk-index order without caring which
    worker, thread or process produced them -- the "deterministic merge
    regardless of completion order" half of the scheduler contract.

    With a shared-memory descriptor the chunk runs against a zero-copy
    :class:`~repro.core.shm.SharedGraphView` (attached once per process,
    then cached); otherwise it re-opens the on-disk graph.  Both paths
    feed the identical analytic accounting, so every modelled number is
    bit-identical between them.

    The chunk scans on the master's kernel tier: a worker process whose
    tier differs switches to ``task.kernel_tier`` first.  In the master
    (the serial backend) the tiers always match, so a run never changes
    the tier of the process that started it.
    """
    trace = task.config.trace
    tracer = Tracer(track=f"chunk{task.index}") if trace else NULL_TRACER
    # process-global counters (shm attach cache, kernel dispatch) are only
    # delta'd per task inside a worker process, where tasks run one at a
    # time so the delta is exact; in the master process (serial backend)
    # the runner's run-level delta covers them without double counting
    counters_before = (
        snapshot_process_counters()
        if trace and os.getpid() != task.master_pid
        else None
    )
    if kernel_backend.active_backend() != task.kernel_tier:
        kernel_backend.activate(task.kernel_tier)
    device = None
    if task.shm is not None:
        graph = attach_view(task.shm, task.disk_model)
    else:
        device = BlockDevice(
            task.device_root,
            block_size=task.device_block_size,
            model=task.disk_model,
        )
        graph = GraphFile(
            device=device,
            name=task.graph_name,
            num_vertices=task.num_vertices,
            num_edges=task.num_edges,
            directed=True,
            max_degree=task.max_degree,
        )
    sink_kind = task.sink_kind
    # The edge-support sink honours the worker's memory budget M: when the
    # dense per-edge support array would exceed it, positions spill as
    # sorted runs to a private host-side scratch file (below the modelled
    # accounting) and the outcome is assembled from the bounded external
    # merge.
    spill_scratch: tempfile.TemporaryDirectory | None = None
    spill_device: BlockDevice | None = None
    if sink_kind == "edge-support":
        spill_scratch = tempfile.TemporaryDirectory(prefix="pdtl_spill_")
        spill_device = BlockDevice(
            spill_scratch.name,
            block_size=task.device_block_size,
            model=task.disk_model,
        )
        sink = make_sink(
            sink_kind,
            num_vertices=task.num_vertices,
            graph=graph,
            spill_file=spill_device.open("supports.run"),
            memory_budget_bytes=task.config.memory_per_proc,
        )
    else:
        sink = make_sink(sink_kind, num_vertices=task.num_vertices, graph=graph)
    try:
        worker = MGTWorker(
            graph,
            task.config,
            range_start=task.start,
            range_stop=task.stop,
            tracer=tracer,
        )
        with tracer.span(
            "chunk",
            cat="chunk",
            chunk=task.index,
            start=task.start,
            stop=task.stop,
            sink=sink_kind,
        ) as chunk_span:
            result = worker.run(sink)
            chunk_span.annotate(
                triangles=result.triangles, windows=result.iterations
            )
        triples: np.ndarray | None = None
        per_vertex: np.ndarray | None = None
        support_positions: np.ndarray | None = None
        support_counts: np.ndarray | None = None
        if sink_kind == "list":
            triples = np.array(
                [(t.cone, t.v, t.w) for t in sink.triangles], dtype=np.int64
            ).reshape(-1, 3)
        elif sink_kind == "per-vertex":
            per_vertex = sink.per_vertex
        elif sink_kind == "edge-support":
            parts = list(sink.iter_position_counts())
            if parts:
                support_positions = np.concatenate([p for p, _ in parts])
                support_counts = np.concatenate([c for _, c in parts])
            else:
                support_positions = np.empty(0, dtype=np.int64)
                support_counts = np.empty(0, dtype=np.int64)
    finally:
        if spill_scratch is not None:
            spill_scratch.cleanup()
    events: tuple[SpanEvent, ...] = ()
    counters: dict[str, float] | None = None
    if trace:
        events = tracer.events
        counters = {}
        if counters_before is not None:
            counters.update(
                counter_delta(snapshot_process_counters(), counters_before)
            )
        if device is not None:
            for key, value in device.host_counters.as_dict().items():
                if value:
                    counters[f"blockio.{key}"] = value
        if spill_device is not None:
            for key, value in spill_device.host_counters.as_dict().items():
                if value:
                    counters[f"spill.{key}"] = value
        if sink_kind == "edge-support":
            if sink.spill_run_count:
                counters["sink.spill_runs"] = sink.spill_run_count
                counters["sink.spilled_positions"] = sink.spilled_positions
    return ChunkOutcome(
        index=task.index,
        result=result,
        triangles=result.triangles,
        triples=triples,
        per_vertex=per_vertex,
        support_positions=support_positions,
        support_counts=support_counts,
        events=events,
        counters=counters,
    )


def merge_mgt_results(results: Sequence[MGTResult], block_size: int) -> MGTResult:
    """Fold the per-chunk results of one worker into a single report.

    Every total is an integer sum, so it does not depend on the order of
    ``results``.  ``range_start``/``range_stop`` become the envelope of the
    worker's chunks, which need not be contiguous under dynamic scheduling.
    """
    io_stats = IOStats(block_size=block_size)
    for result in results:
        io_stats.merge(result.io_stats)
    return MGTResult(
        triangles=sum(r.triangles for r in results),
        iterations=sum(r.iterations for r in results),
        cpu_ps=sum(r.cpu_ps for r in results),
        io_stats=io_stats,
        intersections=sum(r.intersections for r in results),
        edges_processed=sum(r.edges_processed for r in results),
        range_start=min((r.range_start for r in results), default=0),
        range_stop=max((r.range_stop for r in results), default=0),
        peak_memory_bytes=max((r.peak_memory_bytes for r in results), default=0),
        cpu_operations=sum(r.cpu_operations for r in results),
    )


# ---------------------------------------------------------------------------
# the pull-based schedule
# ---------------------------------------------------------------------------


@dataclass
class ScheduleResult:
    """Who ran what, in modelled time, under the pull-based protocol.

    ``assignments[w]`` lists the chunk indices worker ``w`` completed, in
    pull order; ``stolen[w]`` counts how many of them a naive contiguous
    chunk split would have given to a different worker; ``retried[w]`` the
    chunks ``w`` re-executed after their original holder was killed.
    ``start_ps[c]`` and ``charged_ps[c]`` place chunk ``c`` on its worker's
    modelled timeline: where it started and what it was charged, straggler
    factor included; ``worker_ps[w]`` is where worker ``w``'s timeline ends.
    """

    assignments: list[list[int]]
    worker_ps: list[int]
    start_ps: list[int]
    charged_ps: list[int]
    stolen: list[int]
    retried: list[list[int]]
    failed_workers: list[int] = field(default_factory=list)
    #: queue depth observed at every pull attempt (including the pull on
    #: which a worker dies), in pull order -- deterministic observability
    queue_depths: list[int] = field(default_factory=list)

    @property
    def num_workers(self) -> int:
        return len(self.assignments)

    @property
    def max_queue_depth(self) -> int:
        return max(self.queue_depths, default=0)

    @property
    def total_steals(self) -> int:
        return sum(self.stolen)

    @property
    def total_retries(self) -> int:
        return sum(len(r) for r in self.retried)

    def owner_of(self) -> dict[int, int]:
        """Map every completed chunk index to the worker that completed it."""
        owners: dict[int, int] = {}
        for worker, indices in enumerate(self.assignments):
            for index in indices:
                owners[index] = worker
        return owners


class DynamicScheduler:
    """Deterministic replay of the pull-based chunk protocol in modelled time.

    Parameters
    ----------
    chunks:
        the window-aligned chunks, in file order; they seed the shared deque.
    num_workers:
        the ``N·P`` simulated processors pulling from the deque.
    failure_after:
        fault injection -- ``{worker: k}`` kills worker ``w`` the moment it
        pulls its ``k+1``-th chunk; the chunk it was holding goes to the back
        of the deque for the survivors (``k = 0`` means the worker dies on
        its very first pull and completes nothing).
    straggler_factors:
        heterogeneity injection -- ``{worker: factor}`` multiplies the
        modelled cost of every chunk that worker completes, modelling a slow
        machine; the greedy pull order automatically routes fewer chunks to
        it.

    :meth:`schedule` replays the protocol against the per-chunk modelled
    costs: the alive worker with the smallest accumulated time pulls the
    next chunk, which is exactly the completion-order behaviour of a real
    shared-queue crew.  The replay is a pure function of its costs, which
    are host-independent only under ``PDTLConfig.modelled_cpu``: measured
    CPU time is part of them otherwise.
    """

    def __init__(
        self,
        chunks: Sequence[Chunk],
        num_workers: int,
        failure_after: Mapping[int, int] | None = None,
        straggler_factors: Mapping[int, float] | None = None,
    ) -> None:
        if num_workers <= 0:
            raise ConfigurationError("num_workers must be positive")
        self.chunks = list(chunks)
        self.num_workers = int(num_workers)
        self.failure_after = dict(failure_after or {})
        self.straggler_factors = dict(straggler_factors or {})
        for worker in (*self.failure_after, *self.straggler_factors):
            if not 0 <= worker < self.num_workers:
                raise ConfigurationError(
                    f"injection spec names worker {worker}, but only "
                    f"{self.num_workers} workers exist"
                )

    def static_owners(self) -> list[int]:
        """The naive contiguous chunk split, the baseline for steal counting.

        Chunk ``c``'s *home* worker is the one a static equal split of the
        chunk list would assign it to; a pull by anyone else is a steal.
        """
        owners = [0] * len(self.chunks)
        for worker, (lo, hi) in enumerate(
            chunk_ranges(len(self.chunks), self.num_workers)
        ):
            for index in range(lo, hi):
                owners[index] = worker
        return owners

    def schedule(self, costs: Sequence[int]) -> ScheduleResult:
        """Replay the pull protocol against per-chunk modelled costs in
        picoseconds.  A straggler's factor scales each chunk it completes,
        rounded to whole picoseconds once per chunk."""
        if len(costs) != len(self.chunks):
            raise ConfigurationError(
                f"got {len(costs)} costs for {len(self.chunks)} chunks"
            )
        pending: deque[Chunk] = deque(self.chunks)
        times = [0] * self.num_workers
        start_ps = [0] * len(self.chunks)
        charged_ps = [0] * len(self.chunks)
        completed = [0] * self.num_workers
        alive = [True] * self.num_workers
        assignments: list[list[int]] = [[] for _ in range(self.num_workers)]
        stolen = [0] * self.num_workers
        retried: list[list[int]] = [[] for _ in range(self.num_workers)]
        failed_workers: list[int] = []
        needs_retry: set[int] = set()
        homes = self.static_owners()
        queue_depths: list[int] = []

        while pending:
            queue_depths.append(len(pending))
            puller = min(
                (w for w in range(self.num_workers) if alive[w]),
                key=lambda w: (times[w], w),
                default=None,
            )
            if puller is None:
                raise SchedulingError(
                    f"all {self.num_workers} workers were killed by the failure "
                    f"spec with {len(pending)} chunks still pending"
                )
            chunk = pending.popleft()
            threshold = self.failure_after.get(puller)
            if threshold is not None and completed[puller] >= threshold:
                # the worker dies holding this chunk: hand it to the survivors
                alive[puller] = False
                failed_workers.append(puller)
                needs_retry.add(chunk.index)
                pending.append(chunk)
                continue
            factor = self.straggler_factors.get(puller)
            cost = costs[chunk.index]
            charged_ps[chunk.index] = cost if factor is None else round(cost * factor)
            start_ps[chunk.index] = times[puller]
            times[puller] += charged_ps[chunk.index]
            completed[puller] += 1
            assignments[puller].append(chunk.index)
            if homes[chunk.index] != puller:
                stolen[puller] += 1
            if chunk.index in needs_retry:
                needs_retry.discard(chunk.index)
                retried[puller].append(chunk.index)

        return ScheduleResult(
            assignments=assignments,
            worker_ps=times,
            start_ps=start_ps,
            charged_ps=charged_ps,
            stolen=stolen,
            retried=retried,
            failed_workers=failed_workers,
            queue_depths=queue_depths,
        )
