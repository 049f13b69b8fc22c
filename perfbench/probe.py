"""Layer timing from outside the program.

While a :class:`LayerProbe` is installed, the layer entry points that
``PDTLRunner.run`` and ``run_analytics`` call are replaced by thin wrappers
that add the wall time of each call to the current operation's record.
Each name is replaced where its caller looks it up (``repro.core.pdtl``
imported ``write_graph``, ``orient_graph``, ``publish_graph`` and
``run_task_queue`` into its own namespace; ``repro.analytics.pipeline``
did the same with ``edge_supports`` and ``truss_decomposition``), so the
program is unchanged and the originals come back when the probe exits.

The chunk task is wrapped by :class:`TimedTask`, which runs inside
whichever process executes the task and sends its wall time and PID back
with the outcome.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager

import numpy as np

import repro.analytics.pipeline as pipeline_module
import repro.core.pdtl as pdtl_module
from repro.analytics.delta import GraphDelta
from repro.cluster.cluster import Cluster

#: wrapped entry point -> the layer metric its wall time is added to.  These
#: and the telemetry leaves below are the leaf layers of an operation: none
#: nests inside another, so their sum plus ``pdtl.unattributed_s`` is the
#: operation's wall time.
LEAF_LAYERS = {
    "write_graph": "graph.stage_s",
    "orient_graph": "orientation.s",
    "replicate_graph": "cluster.replicate_s",
    "publish_graph": "shm.publish_s",
    "run_task_queue": "mgt.scan_s",
    "truss_decomposition": "truss.s",
}
#: spans the runner records itself (telemetry events) that are also leaves
TELEMETRY_LEAVES = {
    "plan": "pdtl.plan_s",
    "aggregate": "pdtl.aggregate_s",
    "canonicalise": "analytics.canonicalise_s",
}


class TimedTask:
    """Picklable chunk-task wrapper: ``(outcome, wall seconds, pid)``."""

    def __init__(self, fn) -> None:
        self.fn = fn

    def __call__(self, task):
        start = time.perf_counter()
        outcome = self.fn(task)
        return outcome, time.perf_counter() - start, os.getpid()


def published_bytes(publication) -> int:
    """Bytes of every shared-memory segment one publication created."""
    descriptor = publication.descriptor
    total = 0
    for field in ("degrees", "adjacency", "offsets", "scan_sources", "scan_keys",
                  "order_keys"):
        spec = getattr(descriptor, field)
        if spec is not None:
            total += spec.num_items * np.dtype(spec.dtype).itemsize
    return total


def batch_kind(delta: GraphDelta) -> str:
    if delta.num_insertions and delta.num_deletions:
        return "mixed"
    return "insert" if delta.num_insertions else "delete"


class LayerProbe:
    """Per-operation layer record, filled by the wrappers while installed.

    ``begin()`` starts a fresh record; the wrappers add to it; the caller
    reads ``record``, ``task_seconds`` (one entry per chunk task) and
    ``pids`` (the processes that ran them) after the operation.  Times are
    wall seconds.
    """

    def __init__(self) -> None:
        self.record: dict[str, float] = {}
        self.task_seconds: list[float] = []
        self.pids: set[int] = set()
        self.deltas: list[dict] = []

    def begin(self) -> None:
        self.record = {}
        self.task_seconds = []
        self.pids = set()

    def _add(self, key: str, value: float) -> None:
        self.record[key] = self.record.get(key, 0.0) + value

    def _timed(self, key: str, fn):
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._add(key, time.perf_counter() - start)

        return wrapper

    def _scan(self, fn):
        """Time the whole scan, and each chunk task where it runs."""

        def scan(tasks, task_fn, *args, **kwargs):
            timed = fn(tasks, TimedTask(task_fn), *args, **kwargs)
            outcomes = []
            for outcome, seconds, pid in timed:
                outcomes.append(outcome)
                self.task_seconds.append(seconds)
                self.pids.add(pid)
            return outcomes

        return self._timed(LEAF_LAYERS["run_task_queue"], scan)

    def _publish(self, fn):
        timed = self._timed(LEAF_LAYERS["publish_graph"], fn)

        def wrapper(*args, **kwargs):
            publication = timed(*args, **kwargs)
            self._add("shm.published_bytes", published_bytes(publication))
            return publication

        return wrapper

    def _truss(self, fn):
        timed = self._timed(LEAF_LAYERS["truss_decomposition"], fn)

        def wrapper(*args, **kwargs):
            result = timed(*args, **kwargs)
            self._add("truss.rounds", result.rounds)
            return result

        return wrapper

    def _apply(self, fn):
        def wrapper(delta, *args, **kwargs):
            start = time.perf_counter()
            result = fn(delta, *args, **kwargs)
            self.deltas.append(
                {
                    "kind": batch_kind(delta),
                    "seconds": time.perf_counter() - start,
                    "touched_edges": result.touched_edges,
                    "replayed_levels": result.replayed_levels,
                }
            )
            return result

        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every layer entry point; restore the originals on exit."""
        patches = [
            (pdtl_module, "write_graph", self._timed(
                LEAF_LAYERS["write_graph"], pdtl_module.write_graph)),
            (pdtl_module, "orient_graph", self._timed(
                LEAF_LAYERS["orient_graph"], pdtl_module.orient_graph)),
            (pdtl_module, "publish_graph", self._publish(pdtl_module.publish_graph)),
            (pdtl_module, "run_task_queue", self._scan(pdtl_module.run_task_queue)),
            (Cluster, "replicate_graph", self._timed(
                LEAF_LAYERS["replicate_graph"], Cluster.replicate_graph)),
            # a parent: the whole PDTL run of run_analytics, never summed
            (pipeline_module, "edge_supports", self._timed(
                "analytics.supports_s", pipeline_module.edge_supports)),
            (pipeline_module, "truss_decomposition", self._truss(
                pipeline_module.truss_decomposition)),
            (GraphDelta, "apply", self._apply(GraphDelta.apply)),
        ]
        originals = [(owner, name, getattr(owner, name)) for owner, name, _ in patches]
        try:
            for owner, name, wrapper in patches:
                setattr(owner, name, wrapper)
            yield self
        finally:
            for owner, name, original in originals:
                setattr(owner, name, original)
