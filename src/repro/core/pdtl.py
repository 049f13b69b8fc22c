"""The PDTL framework: master/worker protocol over the simulated cluster.

Section IV-B of the paper, step by step:

1. the **master** (node 0) applies the degree-based orientation to the
   input graph, using all of its cores (Figure 2);
2. the master computes the per-processor **edge ranges**, either naive or
   in-degree load-balanced (Figure 9);
3. the oriented graph is **replicated** to every client machine over the
   network (the copy times of Table III), together with each processor's
   configuration ``C_{i,j}``;
4. every processor runs **modified MGT** restricted to its edge range
   against its machine's local graph copy;
5. clients send their triangle counts (or lists) back to the master, which
   sums (or concatenates) them.

:class:`PDTLRunner` drives all five steps over a
:class:`~repro.cluster.cluster.Cluster` and collects both *measured* wall
times and *modelled* per-node CPU / I/O / network times, so a single run
can regenerate every evaluation figure that slices those quantities.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.cluster.cluster import Cluster
from repro.cluster.executor import ExecutionBackend, run_task_queue
from repro.cluster.metrics import ClusterMetrics
from repro.core.config import PDTLConfig
from repro.core.load_balance import EdgeRange, split_edges
from repro.core.mgt import MGTResult
from repro.core.orientation import orient_graph
from repro.core.shm import SharedGraphDescriptor, publish_graph, shm_available
from repro.core.scheduler import (
    Chunk,
    ChunkOutcome,
    ChunkTask,
    DynamicScheduler,
    ScheduleResult,
    execute_chunk_task,
    make_chunks,
    merge_mgt_results,
    resolve_chunk_edges,
)
from repro.core.triangles import CHUNK_SINK_KINDS, Triangle, oriented_edge_array
from repro.errors import ConfigurationError
from repro.externalmem.blockio import DiskModel
from repro.graph.binfmt import GraphFile, write_graph
from repro.graph.csr import CSRGraph
from repro.obs.export import ChunkSpan, RunTelemetry, WorkerTrack
from repro.obs.logconfig import warn_fallback
from repro.obs.metrics import (
    MetricsRegistry,
    counter_delta,
    snapshot_process_counters,
)
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.utils import Timer, ps_seconds

__all__ = ["PDTLRunner", "PDTLResult", "WorkerReport"]

_TRIANGLE_BYTES = 24  # three int64 vertex ids
_COUNT_BYTES = 8


@dataclass(frozen=True)
class WorkerReport:
    """One processor's merged MGT result, tagged with its cluster placement.

    ``edge_range`` is the *envelope* of the chunks the schedule replay gave
    the worker: its one pinned range under static scheduling, the chunks
    it pulled (not necessarily contiguous) under dynamic scheduling.
    ``chunks_completed``/``chunks_stolen``/``chunks_retried`` account for
    its queue activity, and ``failed`` marks a worker killed by the
    failure-injection spec.  ``calc_ps`` is where the replay ends the
    worker's timeline, straggler factor included; ``result`` holds the
    work it was counted.
    """

    node_index: int
    proc_index: int
    edge_range: EdgeRange
    result: MGTResult
    calc_ps: int
    chunks_completed: int
    chunks_stolen: int
    chunks_retried: int
    failed: bool

    @property
    def triangles(self) -> int:
        return self.result.triangles

    @property
    def calc_seconds(self) -> float:
        return ps_seconds(self.calc_ps)


@dataclass
class PDTLResult:
    """Everything a PDTL run produces: the answer plus the evaluation data.

    The timing fields mix measured and modelled seconds, aggregated the way
    the paper aggregates them:

    * ``orientation_seconds`` is the measured wall-clock time of the
      master's orientation on this host;
    * ``calc_seconds`` is the latest end of a worker timeline on the
      schedule replay, straggler factors included: each chunk is charged
      its CPU plus I/O time.  I/O time comes from the disk cost model; CPU
      time is measured thread CPU time unless ``config.modelled_cpu`` is
      set.  Both are summed in integer picoseconds (:attr:`metrics`) and
      converted once;
    * ``total_seconds`` is ``orientation_seconds`` (wall clock) plus the
      slowest node's copy and calculation time (modelled copy, and the
      calculation time above);
    * ``wall_seconds`` is the elapsed wall-clock time of the whole run.

    ``network_bytes`` follows the sink kind: a counting run ships one
    count per result message, every other kind ships its real payload.
    """

    config: PDTLConfig
    triangles: int
    orientation_seconds: float
    calc_seconds: float
    total_seconds: float
    wall_seconds: float
    network_bytes: int
    network_messages: int
    workers: list[WorkerReport] = field(default_factory=list)
    metrics: ClusterMetrics = field(default_factory=ClusterMetrics)
    edge_ranges: list[EdgeRange] = field(default_factory=list)
    triangle_list: list[Triangle] | None = None
    per_vertex_counts: np.ndarray | None = None
    edge_supports: np.ndarray | None = None
    oriented_edges: np.ndarray | None = None
    max_out_degree: int = 0
    num_chunks: int = 0
    shm_used: bool = False
    #: structured observability payload of a traced run (``config.trace``);
    #: ``None`` when tracing was off.  Instrumentation only: no other field
    #: of this result depends on whether it was collected.
    telemetry: RunTelemetry | None = None

    @property
    def average_copy_seconds(self) -> float:
        return self.metrics.average_copy_seconds(exclude_master=True)

    @property
    def modelled_setup_seconds(self) -> float:
        """Modelled master-device time of the preprocessing phase (staging,
        orientation, replication reads) -- identical on every backend."""
        return self.metrics.setup_io_stats.device_seconds

    @property
    def total_cpu_seconds(self) -> float:
        return self.metrics.total_cpu_seconds

    @property
    def total_io_seconds(self) -> float:
        return self.metrics.total_io_seconds

    def node_breakdown(self) -> list[dict[str, float]]:
        """Per-node CPU / I/O / copy / calc rows (Figures 7-8, Table IV)."""
        return self.metrics.as_rows()


class PDTLRunner:
    """Drives the full PDTL pipeline for one configuration.

    Parameters
    ----------
    config:
        the (N, P, M, B) environment plus algorithm switches.
    backend:
        how per-core MGT jobs execute on the host
        (``serial`` in this process, or ``processes`` on the persistent
        process pool); the modelled results are backend-independent.
    storage_root:
        optional directory for the simulated machines' disks; a temporary
        directory per machine is used when omitted.
    disk_model / bandwidth_bytes_per_s:
        override the disk and network performance models.
    """

    def __init__(
        self,
        config: PDTLConfig,
        backend: ExecutionBackend | str = ExecutionBackend.SERIAL,
        storage_root: str | Path | None = None,
        disk_model: DiskModel | None = None,
        bandwidth_bytes_per_s: float | None = None,
    ) -> None:
        self.config = config
        self.backend = ExecutionBackend(backend)
        self.storage_root = storage_root
        self.disk_model = disk_model
        self.bandwidth_bytes_per_s = bandwidth_bytes_per_s

    # -- public API -------------------------------------------------------------------

    def run(
        self,
        graph: CSRGraph | GraphFile,
        sink_kind: str = "count",
    ) -> PDTLResult:
        """Count (or list) all triangles of ``graph`` under this configuration.

        ``graph`` may be an in-memory undirected CSR graph (it is written to
        the master's disk first, as a real deployment would have it on disk
        already) or an on-disk undirected graph already living on a device.

        ``sink_kind`` selects what each worker does with its triangles:
        ``"count"`` (matches the paper's measurements), ``"list"`` (collect
        :class:`Triangle` records), ``"per-vertex"`` (per-vertex triangle
        counts for clustering-coefficient style analyses) or
        ``"edge-support"`` (per-oriented-edge triangle supports, the input
        of the k-truss decomposition in :mod:`repro.analytics`).  This is
        the one place a kind is checked: any other raises
        :class:`~repro.errors.ConfigurationError`.  The kind also sizes
        every result message the network charges: one count for
        ``"count"`` (Theorem IV.3's counting convention), the triangles
        for ``"list"``, and a dense array for the other two.
        """
        if sink_kind not in CHUNK_SINK_KINDS:
            raise ConfigurationError(
                f"unsupported sink kind {sink_kind!r}; supported kinds: "
                f"{', '.join(CHUNK_SINK_KINDS)}"
            )

        wall_timer = Timer().start()
        cluster = Cluster.from_config(
            self.config,
            storage_root=self.storage_root,
            disk_model=self.disk_model,
            bandwidth_bytes_per_s=self.bandwidth_bytes_per_s,
        )
        try:
            result = self._run_on_cluster(cluster, graph, sink_kind)
        finally:
            cluster.cleanup()
        result.wall_seconds = wall_timer.stop()
        return result

    # -- pipeline steps -----------------------------------------------------------------

    def _stage_input(self, cluster: Cluster, graph: CSRGraph | GraphFile) -> GraphFile:
        """Place the undirected input graph on the master's disk."""
        if isinstance(graph, GraphFile):
            if graph.directed:
                raise ConfigurationError("PDTL expects an undirected input graph")
            if graph.device is cluster.master.device:
                return graph
            return graph.copy_to(cluster.master.device, graph.name)
        if graph.directed:
            raise ConfigurationError("PDTL expects an undirected input graph")
        return write_graph(cluster.master.device, "input", graph)

    def _result_payload(self, sink_kind: str, triangles: int, graph: GraphFile) -> int:
        """Bytes of one result message from a worker to the master."""
        if sink_kind == "count":
            return _COUNT_BYTES
        if sink_kind == "per-vertex":
            # a worker ships its dense per-vertex count array
            return _COUNT_BYTES + graph.num_vertices * _COUNT_BYTES
        if sink_kind == "edge-support":
            # a worker ships its dense per-edge partial support array
            return _COUNT_BYTES + graph.num_edges * _COUNT_BYTES
        return _COUNT_BYTES + triangles * _TRIANGLE_BYTES

    def _execute_units(
        self,
        chunks: list[Chunk],
        unit_graphs: list[GraphFile],
        sink_kind: str,
        shm_descriptor: SharedGraphDescriptor | None = None,
    ) -> list[ChunkOutcome]:
        """Execute MGT over every chunk on the host backend.

        Each chunk becomes a self-contained, picklable
        :class:`~repro.core.scheduler.ChunkTask` with its own sink and I/O
        counters, executed by a pull-based worker crew
        (:func:`~repro.cluster.executor.run_task_queue`); outcomes come back
        in chunk order so every aggregation below is deterministic no matter
        which backend ran them, or in what order they finished.  With a
        shared-memory descriptor the tasks ship only the small segment
        descriptor and their chunk range -- never arrays -- and slice their
        windows zero-copy inside the workers.
        """
        tasks = [
            ChunkTask.from_graph(
                index=chunk.index,
                graph=graph,
                config=self.config,
                start=chunk.start,
                stop=chunk.stop,
                sink_kind=sink_kind,
                shm=shm_descriptor,
            )
            for chunk, graph in zip(chunks, unit_graphs)
        ]
        return run_task_queue(tasks, execute_chunk_task, backend=self.backend)

    def _publish_shared(self, oriented: GraphFile):
        """Publish the oriented graph to shared memory when configured.

        Returns the publication (owning the segments) or ``None``.  On a
        host without POSIX shared memory the runner degrades to the
        on-disk path with a warning -- results are bit-identical either
        way, only the wall clock differs.
        """
        if not self.config.shm:
            return None
        available, reason = shm_available()
        if not available:
            warn_fallback(
                "shm=True", reason, "on-disk window reads", stacklevel=4
            )
            return None
        return publish_graph(oriented)

    def _run_on_cluster(
        self, cluster: Cluster, graph: CSRGraph | GraphFile, sink_kind: str
    ) -> PDTLResult:
        config = self.config

        # Observability: a live tracer (master track) only when configured;
        # everything below feeds spans/phase deltas through it, and the
        # NULL_TRACER path records nothing and allocates nothing.  The
        # per-phase IOStats deltas are *snapshots* -- reading them never
        # mutates the accounting the untraced run produces.
        tracing = config.trace
        tracer = Tracer(track="master") if tracing else NULL_TRACER
        run_counters_before = snapshot_process_counters() if tracing else None
        phase_io: dict[str, object] = {}

        # Step 1: stage + orient on the master.  The master-device counters
        # are snapshotted here and again after replication, so the run's
        # metrics carry the modelled *setup* phase (staging + orientation +
        # replication reads) in isolation -- the quantity the preprocessing
        # equivalence suite asserts bit-identical across execution paths.
        master_stats = cluster.master.device.stats
        setup_baseline = master_stats.snapshot()
        phase_baseline = setup_baseline
        with tracer.span("stage_input", cat="phase"):
            source = self._stage_input(cluster, graph)
        if tracing:
            phase_io["stage_input"] = master_stats.delta(phase_baseline)
            phase_baseline = master_stats.snapshot()
        with tracer.span("orient", cat="phase"):
            # one chunk per master core, whatever the backend: the chunk
            # count fixes the charged reads, so IOStats and the modelled
            # setup time do not depend on the backend
            orientation = orient_graph(source, num_chunks=config.procs_per_node)
        if tracing:
            phase_io["orient"] = master_stats.delta(phase_baseline)
            phase_baseline = master_stats.snapshot()
        oriented = orientation.oriented

        # Step 2: work assignment -- the dynamic scheduler's window-aligned
        # chunk queue, or static edge ranges (load-balanced or naive), each
        # pinned to its processor: split_edges numbers them node-major, as
        # worker indices are
        owners: list[int] | None = None
        with tracer.span("plan", cat="phase", scheduling=config.scheduling):
            if config.scheduling == "dynamic":
                chunks = make_chunks(
                    oriented.num_edges, resolve_chunk_edges(config, oriented.num_edges)
                )
            else:
                ranges = split_edges(
                    num_edges=oriented.num_edges,
                    num_nodes=config.num_nodes,
                    procs_per_node=config.procs_per_node,
                    out_degrees=orientation.out_degrees,
                    in_degrees=orientation.in_degrees,
                    load_balanced=config.load_balanced,
                )
                chunks = [Chunk(i, r.start, r.stop) for i, r in enumerate(ranges)]
                owners = list(range(len(chunks)))

        # Step 3: replicate the oriented graph + send per-processor configs
        with tracer.span("replicate", cat="phase"):
            local_graphs = cluster.replicate_graph(oriented)
            for worker in range(config.total_processors):
                cluster.send_configuration(worker // config.procs_per_node)
        if tracing:
            phase_io["replicate"] = master_stats.delta(phase_baseline)

        # preprocessing complete: record the master's modelled setup phase
        cluster.metrics.setup_io_stats = master_stats.delta(setup_baseline)

        # Step 4: MGT execution on the host backend (placement-independent).
        # With shm enabled the oriented adjacency is published once into
        # named shared-memory segments; the publication is unlinked in the
        # finally below even when a task raises (failure injection, worker
        # crash), so no segment ever outlives the run.  A pinned range reads
        # its node's replica, as in the paper; a queued chunk the master's.
        unit_graphs = [
            local_graphs[0 if owners is None else owners[i] // config.procs_per_node]
            for i in range(len(chunks))
        ]
        publication = self._publish_shared(oriented)
        try:
            with tracer.span(
                "triangle_scan", cat="phase", units=len(chunks), sink=sink_kind
            ):
                outcomes = self._execute_units(
                    chunks,
                    unit_graphs,
                    sink_kind,
                    shm_descriptor=publication.descriptor if publication else None,
                )
        finally:
            if publication is not None:
                publication.unlink()

        # Step 5: aggregate at the master
        with tracer.span("aggregate", cat="phase"):
            reports, edge_ranges, schedule = self._aggregate(
                cluster, chunks, owners, outcomes, sink_kind, oriented
            )
        total_triangles = sum(outcome.triangles for outcome in outcomes)

        metrics = cluster.metrics
        calc_seconds = metrics.calc_seconds
        total_seconds = orientation.elapsed_seconds + ps_seconds(
            max((node.total_ps for node in metrics.nodes), default=0)
        )

        # merge sink payloads by unit index -- never by completion order
        triangle_list: list[Triangle] | None = None
        per_vertex: np.ndarray | None = None
        edge_supports: np.ndarray | None = None
        oriented_edges: np.ndarray | None = None
        if sink_kind == "list":
            triangle_list = [
                Triangle(int(u), int(v), int(w))
                for outcome in outcomes
                for u, v, w in outcome.triples
            ]
        elif sink_kind == "per-vertex":
            per_vertex = np.zeros(oriented.num_vertices, dtype=np.int64)
            for outcome in outcomes:
                per_vertex += outcome.per_vertex
        elif sink_kind == "edge-support":
            # partial supports combine exactly: integer addition in chunk
            # order, identical on every backend (each outcome's positions
            # are unique, so indexed addition is the sparse merge)
            edge_supports = np.zeros(oriented.num_edges, dtype=np.int64)
            for outcome in outcomes:
                edge_supports[outcome.support_positions] += outcome.support_counts
            oriented_edges = oriented_edge_array(oriented)

        telemetry: RunTelemetry | None = None
        if tracing:
            telemetry = self._build_telemetry(
                cluster,
                tracer,
                phase_io,
                chunks,
                outcomes,
                schedule,
                run_counters_before,
            )

        return PDTLResult(
            config=config,
            triangles=total_triangles,
            orientation_seconds=orientation.elapsed_seconds,
            calc_seconds=calc_seconds,
            total_seconds=total_seconds,
            wall_seconds=0.0,
            network_bytes=cluster.network.total_bytes,
            network_messages=cluster.network.total_messages,
            workers=reports,
            metrics=metrics,
            edge_ranges=edge_ranges,
            triangle_list=triangle_list,
            per_vertex_counts=per_vertex,
            edge_supports=edge_supports,
            oriented_edges=oriented_edges,
            max_out_degree=orientation.max_out_degree,
            num_chunks=len(chunks),
            shm_used=publication is not None,
            telemetry=telemetry,
        )

    def _build_telemetry(
        self,
        cluster: Cluster,
        tracer: Tracer,
        phase_io: dict,
        chunks: list[Chunk],
        outcomes: list[ChunkOutcome],
        schedule: ScheduleResult,
        run_counters_before: dict | None,
    ) -> RunTelemetry:
        """Assemble the traced run's telemetry: merged events, the unified
        metrics registry, and the modelled per-worker timeline.

        Everything here *reads* already-final state (snapshots, outcome
        payloads, the deterministic schedule replay), so assembly can never
        perturb the accounted results it describes.  Event order is
        deterministic: master events in enter order, then each chunk's
        events in chunk-index order -- never completion order.
        """
        config = self.config
        telemetry = RunTelemetry(
            backend=self.backend.value,
            scheduling=config.scheduling,
            num_workers=config.total_processors,
            procs_per_node=config.procs_per_node,
        )

        events = list(tracer.events)
        for outcome in outcomes:
            events.extend(outcome.events)
        telemetry.events = events

        # chunk -> modelled worker, and the modelled per-worker timeline
        # (the paper-model trace variant): the replay placed every chunk
        telemetry.chunk_owners = schedule.owner_of()
        telemetry.worker_tracks = [
            WorkerTrack(
                worker=worker,
                node=worker // config.procs_per_node,
                proc=worker % config.procs_per_node,
                spans=[
                    ChunkSpan(
                        index=index,
                        start_ps=schedule.start_ps[index],
                        duration_ps=schedule.charged_ps[index],
                        edges=chunks[index].num_edges,
                        triangles=outcomes[index].triangles,
                    )
                    for index in indices
                ],
            )
            for worker, indices in enumerate(schedule.assignments)
        ]
        telemetry.phase_ps = {phase: stats.device_ps for phase, stats in phase_io.items()}

        # the unified metrics registry (flattened into telemetry.counters)
        registry = MetricsRegistry()
        registry.add_iostats("io.setup", cluster.metrics.setup_io_stats)
        for phase, stats in phase_io.items():
            registry.add_iostats(f"io.phase.{phase}", stats)
        registry.set_gauge("cluster.calc_seconds", cluster.metrics.calc_seconds)
        registry.set_gauge(
            "cluster.total_cpu_seconds", cluster.metrics.total_cpu_seconds
        )
        registry.set_gauge(
            "cluster.total_io_seconds", cluster.metrics.total_io_seconds
        )
        registry.inc("network.bytes", cluster.network.total_bytes)
        registry.inc("network.messages", cluster.network.total_messages)
        registry.inc("scheduler.chunks", len(outcomes))
        registry.inc("scheduler.steals", schedule.total_steals)
        registry.inc("scheduler.retries", schedule.total_retries)
        registry.inc("scheduler.failed_workers", len(schedule.failed_workers))
        registry.set_gauge("scheduler.max_queue_depth", schedule.max_queue_depth)
        registry.observe_each("scheduler.queue_depth", schedule.queue_depths)
        for outcome in outcomes:
            if outcome.counters:
                registry.add_counts(outcome.counters, prefix="worker.")
        for key, value in cluster.master.device.host_counters.as_dict().items():
            if value:
                registry.inc(f"master.blockio.{key}", value)
        if run_counters_before is not None:
            # run-level process-global delta: exact totals for the serial
            # backend (everything runs in this process); the master-side
            # publish/attach share for the processes backend
            registry.add_counts(
                counter_delta(snapshot_process_counters(), run_counters_before),
                prefix="run.",
            )
        telemetry.counters = registry.as_dict()
        return telemetry

    def _aggregate(
        self,
        cluster: Cluster,
        chunks: list[Chunk],
        owners: list[int] | None,
        outcomes: list[ChunkOutcome],
        sink_kind: str,
        oriented: GraphFile,
    ) -> tuple[list[WorkerReport], list[EdgeRange], ScheduleResult]:
        """The paper's step 5: replay the plan and account it to the cluster.

        The deterministic modelled-time replay of :class:`DynamicScheduler`
        places every chunk on a worker: on its pinned owner (``owners``, the
        static plan) or on whichever worker pulls it first.  Each worker's
        per-chunk results are merged into one report, timed where the
        replay ends its timeline.  Each completed chunk is charged a result
        message back to the master, and each pulled chunk a hand-out
        message before it.
        """
        config = self.config
        schedule = DynamicScheduler(
            chunks,
            num_workers=config.total_processors,
            failure_after=config.failure_after,
            straggler_factors=config.straggler_factors,
        ).schedule([o.result.calc_ps for o in outcomes], owners=owners)
        failed = set(schedule.failed_workers)

        reports: list[WorkerReport] = []
        for worker, indices in enumerate(schedule.assignments):
            node, proc = divmod(worker, config.procs_per_node)
            merged = merge_mgt_results(
                [outcomes[i].result for i in indices], block_size=config.block_size
            )
            queue_activity = dict(
                calc_ps=schedule.worker_ps[worker],
                chunks_completed=len(indices),
                chunks_stolen=schedule.stolen[worker],
                chunks_retried=len(schedule.retried[worker]),
                failed=worker in failed,
            )
            envelope = EdgeRange(
                node_index=node,
                proc_index=proc,
                start=min((chunks[i].start for i in indices), default=0),
                stop=max((chunks[i].stop for i in indices), default=0),
            )
            reports.append(
                WorkerReport(
                    node_index=node,
                    proc_index=proc,
                    edge_range=envelope,
                    result=merged,
                    **queue_activity,
                )
            )
            cluster.metrics.node(node).add_worker(
                cpu_ps=merged.cpu_ps,
                triangles=merged.triangles,
                io_stats=merged.io_stats,
                **queue_activity,
            )
            for index in indices:
                if owners is None:
                    cluster.send_chunk_grant(node)
                cluster.send_result(
                    node,
                    self._result_payload(
                        sink_kind, outcomes[index].triangles, oriented
                    ),
                )

        # the chunk list itself (in file order) is the coverage record: every
        # chunk appears exactly once, owned by whichever worker completed it
        chunk_owners = schedule.owner_of()
        edge_ranges = [
            EdgeRange(
                node_index=chunk_owners[c.index] // config.procs_per_node,
                proc_index=chunk_owners[c.index] % config.procs_per_node,
                start=c.start,
                stop=c.stop,
            )
            for c in chunks
        ]
        return reports, edge_ranges, schedule
