"""One benchmark run in a fresh process: set up, measure, check, report.

``run.py`` starts this script in its own session and relays its output;
see ``README.md`` for the workloads and the metric glossary.  The last
line of standard output is the result object of the benchmark contract.
"""

from __future__ import annotations

import time

_PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import warnings  # noqa: E402
from dataclasses import replace  # noqa: E402
from multiprocessing import resource_tracker  # noqa: E402

import numpy as np  # noqa: E402

from repro.analytics.delta import GraphDelta  # noqa: E402
from repro.analytics.pipeline import run_analytics  # noqa: E402
from repro.analytics.truss import truss_decomposition  # noqa: E402
from repro.baselines.inmemory import forward_count  # noqa: E402
from repro.cluster.executor import run_task_queue, shutdown_process_pool  # noqa: E402
from repro.core import kernel_backend  # noqa: E402
from repro.core.config import PDTLConfig  # noqa: E402
from repro.core.pdtl import PDTLRunner  # noqa: E402
from repro.graph.csr import CSRGraph  # noqa: E402
from repro.graph.generators import power_law_degree_graph  # noqa: E402

from probe import LEAF_LAYERS, TELEMETRY_LEAVES, LayerProbe  # noqa: E402

IMPORT_S = time.perf_counter() - _PROCESS_START

#: sparse power-law graph of count_shm (160k vertices, 447,716 edges)
COUNT_GRAPH = {"n": 160_000, "exponent": 2.3, "min_degree": 2, "max_degree": 60}
#: dense power-law graph of truss_delta (13k vertices, 99,998 edges)
TRUSS_GRAPH = {"n": 13_000, "exponent": 2.1, "min_degree": 4, "max_degree": 300}
#: generator seed of both graphs, the one the repo's perf suite tracks them
#: with; ``--seed`` relabels their vertices (see ``seeded_graph``)
GRAPH_SEED = 7
#: count_shm's cluster shape, budget and host path
COUNT_CONFIG = {
    "procs_per_node": 2,
    "memory_per_proc": "16KB",
    "scheduling": "dynamic",
    "modelled_cpu": True,
    "shm": True,
}
#: set-up is repeated this many times per run and its median reported
SETUP_REPEATS = 3
#: edges per mutation batch, and batches applied after each base operation
BATCH_EDGES = 8
BATCHES_PER_ROUND = 16
BATCH_KINDS = ("delete", "insert", "mixed")
#: batch_p95_ms is the median of the p95 of consecutive blocks of this many
#: batches (10 samples beyond each block's p95), so a disturbance of the
#: host that lasts a few seconds moves one block, not the figure; a
#: workload with fewer batches sets smaller blocks (``p95_block``)
P95_BLOCK = 200
SHM_DIR = "/dev/shm"

#: (name, unit) of every end-to-end metric, printed with ``--trace 0``
END_TO_END = [
    ("run_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("batch_p50_ms", "ms"),
    ("batch_p95_ms", "ms"),
]
#: the fused kernels counted per layer; listed here rather than read from
#: the program so the metric names stay fixed when its registry changes
KERNELS = ("mgt_block_scan", "edge_support_accumulate", "triangle_edge_ids",
           "incidence_csr", "truss_peel_level")
#: (name, unit) of every per-layer metric, printed with ``--trace 1``
PER_LAYER = [
    ("graph.generate_s", "s"),
    ("graph.stage_s", "s"),
    ("orientation.s", "s"),
    ("pdtl.plan_s", "s"),
    ("pdtl.aggregate_s", "s"),
    ("pdtl.unattributed_s", "s"),
    ("obs.traced_op_s", "s"),
    ("cluster.replicate_s", "s"),
    ("network.bytes", "B"),
    ("network.messages", "count"),
    ("shm.publish_s", "s"),
    ("shm.published_mb", "MB"),
    ("executor.tasks", "count"),
    ("executor.workers", "count"),
    ("executor.busy_s", "s"),
    ("executor.wait_s", "s"),
    ("scheduler.chunks", "count"),
    ("scheduler.steals", "count"),
    ("scheduler.retries", "count"),
    ("mgt.windows", "count"),
    ("mgt.scan_s", "s"),
    ("mgt.chunk_p50_s", "s"),
    ("mgt.chunk_max_s", "s"),
    ("blockio.read_calls", "count"),
    ("blockio.bytes_read", "B"),
    ("blockio.modelled_s", "s"),
    ("blockio.fd_cache_lookups", "count"),
    ("blockio.fd_cache_hit_rate", "ratio"),
    *[(f"kernels.calls.{kernel}", "count") for kernel in KERNELS],
    ("kernels.compiled_share", "ratio"),
    ("sink.spill_runs", "count"),
    ("analytics.supports_s", "s"),
    ("analytics.canonicalise_s", "s"),
    ("truss.s", "s"),
    ("truss.rounds", "count"),
    ("delta.apply_ms.delete", "ms"),
    ("delta.apply_ms.insert", "ms"),
    ("delta.apply_ms.mixed", "ms"),
    ("delta.touched_edges", "count"),
    ("delta.replayed_levels", "count"),
    ("obs.trace_overhead_pct", "%"),
]


def seeded_graph(params: dict, seed: int) -> CSRGraph:
    """The tracked graph of ``params`` under a vertex relabelling drawn from
    ``seed``.

    Every seed gives another input (vertex order, hubs' ids, orientation
    ties) of the same size and triangle count.  Drawing the graph itself
    from the seed would move its triangle count by up to 40% between
    seeds, and the operation times with it.
    """
    base = power_law_degree_graph(seed=GRAPH_SEED, **params)
    perm = np.random.default_rng([seed, 0]).permutation(base.num_vertices)
    return CSRGraph.from_edgelist(base.relabeled(perm))


def modelled_fingerprint(result) -> str:
    """The modelled accounting of one PDTL run, as exact text.

    Every number here is charged by the I/O, network and CPU models, never
    measured, so it must be bit-identical across repeated, traced and
    untraced operations.
    """
    metrics = result.metrics
    return repr((
        result.triangles,
        result.num_chunks,
        result.calc_seconds,
        result.network_bytes,
        result.network_messages,
        metrics.setup_io_stats,
        metrics.nodes,
    ))


class Tally:
    """Operations attempted and failed, with the first few reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def fail(self, reason: str, count: int = 1) -> None:
        self.failed += count
        if len(self.problems) < 10:
            self.problems.append(reason)

    def attempt(self, fn):
        """Run one operation; a raise counts as a failure, never propagates."""
        self.attempted += 1
        try:
            return fn()
        except Exception as exc:  # noqa: BLE001 - the run reports it and goes on
            self.fail(f"{type(exc).__name__}: {exc}")
            return None


def timed(fn, probe: LayerProbe | None):
    """``(result or None, wall seconds)``, with the layer wrappers on when a
    probe is given."""
    if probe is None:
        start = time.perf_counter()
        result = fn()
        return result, time.perf_counter() - start
    with probe.installed():
        start = time.perf_counter()
        result = fn()
        return result, time.perf_counter() - start


class Workload:
    """What every workload shares: set-up repeats, the operation loop and
    layer records.

    A subclass provides ``generate`` (the seeded graph), ``prepare`` (the
    rest of the set-up), ``operation`` (one base operation), ``check`` (its
    oracle) and ``sizes``.
    """

    shm = False
    p95_block = P95_BLOCK

    def __init__(self) -> None:
        self.tally = Tally()
        self.probe = LayerProbe()
        self.reset_samples()
        self.reference: str | None = None
        self.num_chunks = 0
        self.tier = ""

    def reset_samples(self) -> None:
        self.op_s: list[float] = []
        self.traced_op_s: list[float] = []
        self.batch_s: list[float] = []
        self.layers: list[dict[str, float]] = []

    # -- set-up ------------------------------------------------------------

    def setup(self, seed: int, import_samples: list[float]) -> dict[str, float]:
        """Build the inputs ``SETUP_REPEATS`` times; median set-up seconds.

        Imports and the kernel-tier load happen once per process and are
        added to every repeat; graph generation and ``prepare`` repeat.
        The import time is the median of this process's and of
        ``import_samples``, the same imports timed in fresh interpreters.
        """
        import_s = statistics.median([IMPORT_S, *import_samples])
        start = time.perf_counter()
        self.tier = kernel_backend.active_backend()
        kernel_backend.warmup()
        tier_s = time.perf_counter() - start
        generate, totals = [], []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            self.generate(seed)
            generated = time.perf_counter()
            self.prepare(seed)
            generate.append(generated - start)
            totals.append(time.perf_counter() - start)
        return {
            "setup_s": import_s + tier_s + statistics.median(totals),
            "graph.generate_s": statistics.median(generate),
            "import_s": import_s,
            "tier_s": tier_s,
        }

    # -- one operation -----------------------------------------------------

    def timed_op(self, traced: bool) -> None:
        """One base operation, checked; a traced one leaves a layer record."""
        self.probe.begin()
        dispatch_before = kernel_backend.dispatch_counts()
        result, wall = timed(
            lambda: self.tally.attempt(lambda: self.operation(traced)),
            self.probe if traced else None,
        )
        if result is None:
            return
        pdtl = self.pdtl_result(result)
        self.num_chunks = pdtl.num_chunks
        problem = self.check(result)
        fingerprint = modelled_fingerprint(pdtl)
        if self.reference is None:
            self.reference = fingerprint
        elif fingerprint != self.reference:
            problem = problem or "modelled accounting differs between operations"
        if traced:
            record = self.layer_record(wall, pdtl, dispatch_before)
            if record["pdtl.unattributed_s"] < 0.0:
                problem = problem or "layer spans overlap: they exceed the op wall"
        if problem:
            self.tally.fail(problem)
        elif traced:
            self.traced_op_s.append(wall)
            self.layers.append(record)
        else:
            self.op_s.append(wall)

    def layer_record(self, wall: float, pdtl, dispatch_before) -> dict[str, float]:
        """Every per-layer metric of one traced operation."""
        record = {name: 0.0 for name, _ in PER_LAYER}
        record.update(self.probe.record)
        telemetry = pdtl.telemetry
        for event in telemetry.events:
            if event.name in TELEMETRY_LEAVES and event.track in ("master", "analytics"):
                record[TELEMETRY_LEAVES[event.name]] += event.duration
            elif event.cat == "kernel" and event.name == "window":
                record["mgt.windows"] += 1
        leaves = sum(record[name] for name in LEAF_LAYERS.values())
        leaves += sum(record[name] for name in TELEMETRY_LEAVES.values())
        record["pdtl.unattributed_s"] = wall - leaves
        record["obs.traced_op_s"] = wall

        tasks = self.probe.task_seconds
        workers = len(self.probe.pids)
        record["executor.tasks"] = len(tasks)
        record["executor.workers"] = workers
        record["executor.busy_s"] = sum(tasks)
        record["executor.wait_s"] = record["mgt.scan_s"] * workers - sum(tasks)
        record["mgt.chunk_p50_s"] = statistics.median(tasks)
        record["mgt.chunk_max_s"] = max(tasks)
        record["shm.published_mb"] = record.pop("shm.published_bytes", 0) / 2**20

        counters = telemetry.counters
        record["network.bytes"] = pdtl.network_bytes
        record["network.messages"] = pdtl.network_messages
        record["scheduler.chunks"] = pdtl.num_chunks
        record["scheduler.steals"] = counters.get("scheduler.steals", 0)
        record["scheduler.retries"] = counters.get("scheduler.retries", 0)
        record["sink.spill_runs"] = counters.get("worker.sink.spill_runs", 0)

        io = [pdtl.metrics.setup_io_stats] + [node.io_stats for node in pdtl.metrics.nodes]
        record["blockio.read_calls"] = sum(stats.read_calls for stats in io)
        record["blockio.bytes_read"] = sum(stats.bytes_read for stats in io)
        record["blockio.modelled_s"] = sum(stats.device_seconds for stats in io)
        hits = sum(v for k, v in counters.items() if k.endswith("blockio.fd_cache.hits"))
        misses = sum(v for k, v in counters.items() if k.endswith("blockio.fd_cache.misses"))
        record["blockio.fd_cache_lookups"] = hits + misses
        record["blockio.fd_cache_hit_rate"] = hits / (hits + misses) if hits + misses else 0.0

        # fused-kernel dispatches: this process's delta plus what pool
        # workers shipped back (the in-process share is already in the delta)
        dispatched = {
            key: value - dispatch_before.get(key, 0)
            for key, value in kernel_backend.dispatch_counts().items()
        }
        prefix = "worker.kernel.dispatch."
        for key, value in counters.items():
            if key.startswith(prefix):
                short = key[len(prefix):]
                dispatched[short] = dispatched.get(short, 0) + value
        compiled = 0
        for key, value in dispatched.items():
            kernel, tier = key.rsplit(".", 1)
            if kernel in KERNELS:
                record[f"kernels.calls.{kernel}"] += value
            if tier != "numpy":
                compiled += value
        total = sum(dispatched.values())
        record["kernels.compiled_share"] = compiled / total if total else 0.0
        return record

    # -- the measured loop -------------------------------------------------

    def measure(self, seconds: float, trace: bool) -> None:
        """Operate for ``seconds``, after one checked warm-up round.

        With ``trace`` the rounds alternate untraced and traced, so the
        overhead pairs share the host's state.  Past the deadline the loop
        only goes on (for at most a minute) until each kind has a sample.
        """
        self.round(traced=False)
        self.reset_samples()
        deadline = time.perf_counter() + seconds
        turn = 0
        while time.perf_counter() < deadline or (
            time.perf_counter() < deadline + 60.0
            and not (self.op_s and (self.traced_op_s or not trace))
        ):
            self.round(traced=trace and turn % 2 == 1)
            turn += 1

    def round(self, traced: bool) -> None:
        self.timed_op(traced)

    def batch_samples(self) -> list[float]:
        """Seconds of each batch: the unit one client waits on."""
        return self.batch_s


class CountWorkload(Workload):
    """Count the triangles of one sparse graph with ``PDTLRunner.run`` on
    the process pool, the graph published in shared memory."""

    shm = True
    #: a run holds only about 110 queries; blocks of 20 give five block
    #: p95s (each about a block's second-slowest query) to take the median of
    p95_block = 20

    def __init__(self) -> None:
        super().__init__()
        self.config = PDTLConfig(**COUNT_CONFIG)
        self.traced_config = replace(self.config, trace=True)

    def generate(self, seed: int) -> None:
        self.graph = seeded_graph(COUNT_GRAPH, seed)

    def prepare(self, seed: int) -> None:
        """Spawn a fresh pool: a crew of one process per CPU, the most the
        runner asks for."""
        shutdown_process_pool(wait=True)
        crew = os.cpu_count() or 1
        run_task_queue(list(range(crew)), abs, backend="processes")

    def prepare_oracle(self) -> None:
        self.expected = forward_count(self.graph)

    def operation(self, traced: bool):
        config = self.traced_config if traced else self.config
        return PDTLRunner(config, backend="processes").run(self.graph, sink_kind="count")

    def pdtl_result(self, result):
        return result

    def check(self, result) -> str | None:
        if result.triangles != self.expected:
            return f"counted {result.triangles} triangles, oracle says {self.expected}"
        if not result.shm_used:
            return "declared shm=True but the run read its windows from disk"
        return None

    def batch_samples(self) -> list[float]:
        # the client's unit of work is the count query itself
        return self.op_s

    def sizes(self) -> dict[str, int]:
        edges = self.graph.num_undirected_edges
        return {
            "vertices": self.graph.num_vertices,
            "edges": edges,
            "triangles": int(self.expected),
            "windows": -(-edges // self.config.window_edges),
            "chunks": self.num_chunks,
        }


class TrussDeltaWorkload(Workload):
    """Base ``run_analytics`` operations, each round followed by a closed
    loop (one client) of mutation batches chained through
    ``GraphDelta.apply(prev=...)``.

    Every round's chain starts again from the generated graph, so each
    batch acts on an input of the stated size however many rounds a run
    manages; the batch stream's generator carries on across rounds.
    """

    def generate(self, seed: int) -> None:
        self.graph = seeded_graph(TRUSS_GRAPH, seed)

    def prepare(self, seed: int) -> None:
        """The start of the batch chain: the graph's truss with its
        triangle table, and the batch stream's generator."""
        self.start = truss_decomposition(self.graph, keep_triangles=True)
        self.rng = np.random.default_rng([seed, 1])
        self.state = (self.graph, self.start)
        self.batches = 0
        self.end_triangles: list[int] = []

    def prepare_oracle(self) -> None:
        self.expected = forward_count(self.graph)

    def operation(self, traced: bool):
        # modelled CPU makes calc_seconds part of the bit-identity oracle
        return run_analytics(self.graph, backend="serial", modelled_cpu=True, trace=traced)

    def pdtl_result(self, result):
        return result.pdtl

    def check(self, result) -> str | None:
        if result.triangles != self.expected:
            return f"analytics found {result.triangles} triangles, oracle says {self.expected}"
        if not (
            np.array_equal(result.truss.trussness, self.start.trussness)
            and np.array_equal(result.edge_supports, self.start.support)
        ):
            return "analytics trussness or supports differ from the from-scratch truss"
        return None

    def round(self, traced: bool) -> None:
        self.timed_op(traced)
        self.state = (self.graph, self.start)
        chained = sum(self.batch(traced) for _ in range(BATCHES_PER_ROUND))
        self.check_chain(chained)

    def make_batch(self) -> tuple[GraphDelta, int, int]:
        """The next seeded batch: random deletions, wedge-closing insertions."""
        graph, truss = self.state
        kind = BATCH_KINDS[self.batches % len(BATCH_KINDS)]
        deletes = {"delete": BATCH_EDGES, "insert": 0, "mixed": BATCH_EDGES // 2}[kind]
        inserts = BATCH_EDGES - deletes
        edges = truss.edges
        deleted = edges[self.rng.choice(edges.shape[0], deletes, replace=False)]
        picked: set[tuple[int, int]] = set()
        indptr, indices = graph.indptr, graph.indices
        while len(picked) < inserts:
            u = int(self.rng.integers(graph.num_vertices))
            if indptr[u + 1] == indptr[u]:
                continue
            w = int(indices[self.rng.integers(indptr[u], indptr[u + 1])])
            v = int(indices[self.rng.integers(indptr[w], indptr[w + 1])])
            pair = (min(u, v), max(u, v))
            if v == u or pair in picked or graph.has_edge(u, v):
                continue
            picked.add(pair)
        inserted = np.array(sorted(picked), dtype=np.int64).reshape(-1, 2)
        return GraphDelta(insertions=inserted, deletions=deleted), inserts, deletes

    def batch(self, traced: bool) -> bool:
        """Apply the next batch to the chain; True if it was applied whole."""
        delta, inserts, deletes = self.make_batch()
        self.batches += 1
        graph, truss = self.state
        applied, wall = timed(
            lambda: self.tally.attempt(lambda: delta.apply(graph, prev=truss)),
            self.probe if traced else None,
        )
        if applied is None:
            return False
        if applied.inserted.shape[0] != inserts or applied.deleted.shape[0] != deletes:
            self.tally.fail("a batch mutation was dropped as a no-op")
            return False
        self.state = (applied.graph, applied.truss)
        if not traced:
            self.batch_s.append(wall)
        return True

    def check_chain(self, chained: int) -> None:
        """The round's oracle: the maintained truss against a from-scratch
        one of the round's final graph; a mismatch fails every batch the
        round applied."""
        graph, truss = self.state
        fresh = truss_decomposition(graph)
        self.end_triangles.append(int(fresh.support.sum()) // 3)
        if not (
            np.array_equal(fresh.edges, truss.edges)
            and np.array_equal(fresh.trussness, truss.trussness)
            and np.array_equal(fresh.support, truss.support)
        ):
            self.tally.fail(
                "maintained trussness differs from a from-scratch decomposition",
                count=chained,
            )

    def sizes(self) -> dict[str, int]:
        return {
            "vertices": self.graph.num_vertices,
            "edges": self.graph.num_undirected_edges,
            "triangles": int(self.expected),
            "windows": 1,
            "chunks": self.num_chunks,
            "batches": self.batches,
            # triangles of each round's final graph: flat when every round
            # starts from the generated graph
            "round_end_triangles_min": min(self.end_triangles, default=0),
            "round_end_triangles_max": max(self.end_triangles, default=0),
        }


WORKLOADS = {
    "count_shm": CountWorkload,
    "truss_delta": TrussDeltaWorkload,
}


def leaked_publications() -> list[str]:
    """Publications of this process whose shared-memory segments still exist.

    Called once the pool is reaped and before the resource tracker stops:
    the tracker would unlink every segment still registered, so this is the
    last point where a publication the program failed to unlink shows.
    """
    if not os.path.isdir(SHM_DIR):
        return []
    # segments are named pdtl-shm-<creator pid>-<publication>-<array>
    prefix = f"pdtl-shm-{os.getpid()}-"
    return sorted({
        "-".join(name.split("-")[:4]) for name in os.listdir(SHM_DIR)
        if name.startswith(prefix)
    })


def stop_resource_tracker() -> None:
    """Stop and reap the tracker ``SharedMemory(create=True)`` started; it
    would otherwise outlive the pool until this process exits."""
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def peak_rss_mb() -> float:
    """Peak resident MB of this process plus its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def percentile(values, q: float) -> float:
    """The ``q``-th percentile (linear interpolation); 0.0 without samples,
    which only a run whose every operation failed reports."""
    return float(np.percentile(values, q)) if len(values) else 0.0


def blocked_percentile(values, q: float, block: int) -> float:
    """Median of the ``q``-th percentiles of consecutive blocks of about
    ``block`` samples; the plain percentile below two blocks."""
    blocks = len(values) // block
    if blocks < 2:
        return percentile(values, q)
    return statistics.median(percentile(part, q) for part in np.array_split(values, blocks))


def end_to_end(workload: Workload, setup: dict[str, float]) -> dict[str, tuple[float, int]]:
    """``name -> (value, n)`` for every end-to-end metric."""
    batches_ms = [s * 1000.0 for s in workload.batch_samples()]
    return {
        "run_s": (percentile(workload.op_s, 50), len(workload.op_s)),
        "setup_s": (setup["setup_s"], SETUP_REPEATS),
        "peak_rss_mb": (peak_rss_mb(), 1),
        "batch_p50_ms": (percentile(batches_ms, 50), len(batches_ms)),
        "batch_p95_ms": (
            blocked_percentile(batches_ms, 95, workload.p95_block), len(batches_ms)),
    }


def per_layer(workload: Workload, setup: dict[str, float]) -> dict[str, tuple[float, int]]:
    """``name -> (value, n)`` for every per-layer metric.

    Operation layers are means over the traced operations, so the leaf
    layers plus ``pdtl.unattributed_s`` add up to ``obs.traced_op_s``.
    """
    n = len(workload.layers)
    values = {
        name: (statistics.fmean(r[name] for r in workload.layers) if n else 0.0, n)
        for name, _ in PER_LAYER
    }
    values["graph.generate_s"] = (setup["graph.generate_s"], SETUP_REPEATS)
    deltas = workload.probe.deltas
    for kind in BATCH_KINDS:
        ms = [d["seconds"] * 1000.0 for d in deltas if d["kind"] == kind]
        values[f"delta.apply_ms.{kind}"] = (percentile(ms, 50), len(ms))
    for field in ("touched_edges", "replayed_levels"):
        values[f"delta.{field}"] = (
            statistics.fmean(d[field] for d in deltas) if deltas else 0.0, len(deltas))
    untraced = percentile(workload.op_s, 50)
    traced = percentile(workload.traced_op_s, 50)
    overhead = (traced / untraced - 1.0) * 100.0 if untraced and traced else 0.0
    values["obs.trace_overhead_pct"] = (overhead, n)
    return values


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--prepare", action="store_true",
        help="only resolve (and on first use build) the kernel tier, and "
             "report this process's import seconds",
    )
    parser.add_argument(
        "--import-s", type=float, nargs="*", default=[],
        help="import seconds of --prepare runs, joined to this process's "
             "in the median that setup_s adds",
    )
    args = parser.parse_args(argv)
    if not args.prepare and args.workload is None:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.prepare:
        print(json.dumps({"kernel_tier": kernel_backend.active_backend(), "import_s": IMPORT_S}))
        return 0
    workload = WORKLOADS[args.workload]()
    trace = bool(args.trace)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            setup = workload.setup(args.seed, args.import_s)
            workload.prepare_oracle()
            workload.measure(args.seconds, trace)
        finally:
            shutdown_process_pool(wait=True)
            leaked = leaked_publications()
            stop_resource_tracker()
    if leaked:
        # each leaked publication was left by one operation
        workload.tally.fail(
            f"{len(leaked)} shared-memory publications outlived their run: {leaked[:3]}",
            count=min(len(leaked), workload.tally.attempted),
        )
    # read only now: the pool workers and the tracker have been reaped
    metrics = per_layer(workload, setup) if trace else end_to_end(workload, setup)
    units = dict(PER_LAYER if trace else END_TO_END)

    fallbacks = [
        f"{w.category.__name__}: {w.message}"
        for w in caught
        if issubclass(w.category, RuntimeWarning)
    ]
    correct = workload.tally.failed == 0 and not fallbacks
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "sizes": workload.sizes(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "kernel_tier": workload.tier,
        "shm": workload.shm,
        "setup_parts_s": {k: setup[k] for k in ("import_s", "tier_s", "graph.generate_s")},
        "import_samples_s": [IMPORT_S, *args.import_s],
        "modelled_sha256": hashlib.sha256((workload.reference or "").encode()).hexdigest(),
        "warnings": [f"{w.category.__name__}: {w.message}" for w in caught],
        "fallbacks": fallbacks,
        "problems": workload.tally.problems,
    }
    print("record " + json.dumps(record, sort_keys=True))
    for name, (value, n) in metrics.items():
        print(f"metric {name} = {value:.6g} {units[name]} (n={n})")
    print(json.dumps({
        "correct": correct,
        "attempted": workload.tally.attempted,
        "failed": workload.tally.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, (value, _) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
