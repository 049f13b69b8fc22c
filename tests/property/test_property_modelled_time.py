"""Modelled time is a sum of integer picoseconds, so no total depends on
the order or grouping of its terms.

* the same charges, fed to one :class:`IOStats` in any order or split
  across several merged in any order, give identical counters;
* :func:`merge_mgt_results` and the node and cluster roll-ups give the
  same totals for any permutation of the same chunk outcomes;
* the shared-memory scan's one charge per chunk equals the streaming
  loop's per-read charges, at a rate that is no whole number of
  picoseconds per byte (123 B/s) and at any seek latency;
* every time a run reports -- the cluster's, each worker's and each
  node's -- is where the schedule replay ends a worker timeline, under
  random stragglers (both plans) and failures (dynamic), on every
  backend, traced or not; a straggler stretches time, not counted work.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.cluster.metrics import ClusterMetrics
from repro.core.config import PDTLConfig
from repro.core.mgt import MGTWorker
from repro.core.orientation import orient_graph
from repro.core.pdtl import PDTLRunner
from repro.core.scheduler import make_chunks, merge_mgt_results
from repro.core.shm import SharedGraphView, publish_graph, shm_available
from repro.externalmem.blockio import BlockDevice, DiskModel
from repro.externalmem.iostats import IOStats
from repro.graph.binfmt import write_graph
from repro.graph.csr import CSRGraph
from repro.graph.generators import rmat
from repro.utils import ps_per_unit, ps_seconds, whole_ps

SETTINGS = dict(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)

#: a rate that is a whole number of picoseconds per byte, one that is not,
#: and the disk and network defaults
RATES = st.sampled_from([123.0, 1e6, 500e6, 1.25e9])
CHARGES = st.lists(
    st.tuples(st.integers(0, 10**7), st.booleans(), st.booleans()), max_size=40
)


def _charge(stats: IOStats, model: DiskModel, nbytes: int, sequential: bool, write: bool):
    """One access as a block device charges it."""
    blocks = -(-nbytes // stats.block_size)
    if write:
        stats.record_write(blocks, nbytes, sequential)
    else:
        stats.record_read(blocks, nbytes, sequential)
    stats.device_ps += model.transfer_ps(nbytes, sequential)


@given(
    charges=CHARGES,
    bandwidth=RATES,
    seek=st.floats(0.0, 0.01),
    parts=st.integers(1, 5),
    seed=st.integers(0, 2**32 - 1),
)
@settings(**SETTINGS)
def test_charges_give_the_same_counters_in_any_order_or_grouping(
    charges, bandwidth, seek, parts, seed
):
    model = DiskModel(bandwidth_bytes_per_s=bandwidth, seek_latency_s=seek)
    rng = np.random.default_rng(seed)
    in_order = IOStats(block_size=512)
    for charge in charges:
        _charge(in_order, model, *charge)
    split = [IOStats(block_size=512) for _ in range(parts)]
    for i in rng.permutation(len(charges)):
        _charge(split[rng.integers(parts)], model, *charges[i])
    merged = IOStats(block_size=512)
    for i in rng.permutation(parts):
        merged.merge(split[i])
    assert merged.as_dict() == in_order.as_dict()
    # and both are the linear model's closed form
    nbytes = sum(n for n, _, _ in charges)
    seeks = sum(not sequential for _, sequential, _ in charges)
    assert in_order.device_ps == (
        nbytes * ps_per_unit(bandwidth) + seeks * whole_ps(seek)
    )


@pytest.fixture(scope="module")
def chunk_results(tmp_path_factory):
    """Real per-chunk MGT results, charged at 123 B/s with measured CPU."""
    device = BlockDevice(
        tmp_path_factory.mktemp("disk"),
        block_size=512,
        model=DiskModel(bandwidth_bytes_per_s=123.0, seek_latency_s=3.3e-5),
    )
    graph = CSRGraph.from_edgelist(rmat(7, edge_factor=8, seed=11))
    oriented = orient_graph(write_graph(device, "g", graph)).oriented
    config = PDTLConfig(memory_per_proc=2048, block_size=512)
    chunks = make_chunks(oriented.num_edges, 64)
    assert len(chunks) >= 8
    return [
        MGTWorker(oriented, config, range_start=c.start, range_stop=c.stop).run()
        for c in chunks
    ]


def _roll_up(results, owners, chunk_order, worker_order, procs_per_node: int):
    """Each worker's chunks merged in ``chunk_order``, then the workers added
    to their nodes in ``worker_order``."""
    merged = {
        w: merge_mgt_results([results[i] for i in chunk_order if owners[i] == w], 512)
        for w in worker_order
    }
    metrics = ClusterMetrics()
    for w in worker_order:
        metrics.node(w // procs_per_node).add_worker(
            merged[w].cpu_ps,
            merged[w].triangles,
            merged[w].io_stats,
            calc_ps=merged[w].calc_ps,
        )
    return [merged[w] for w in sorted(merged)], metrics


@given(seed=st.integers(0, 2**32 - 1), procs_per_node=st.integers(1, 3))
@settings(**SETTINGS)
def test_roll_ups_are_the_same_for_any_chunk_order(chunk_results, seed, procs_per_node):
    rng = np.random.default_rng(seed)
    chunks, workers = len(chunk_results), 2 * procs_per_node
    owners = rng.integers(workers, size=chunks).tolist()
    reference, expected = _roll_up(
        chunk_results, owners, range(chunks), range(workers), procs_per_node
    )
    merged, metrics = _roll_up(
        chunk_results,
        owners,
        rng.permutation(chunks).tolist(),
        rng.permutation(workers).tolist(),
        procs_per_node,
    )
    assert merged == reference
    for ours, theirs in zip(metrics.nodes, expected.nodes):
        assert (ours.cpu_ps, ours.calc_ps, ours.io_stats) == (
            theirs.cpu_ps,
            theirs.calc_ps,
            theirs.io_stats,
        )
        assert sorted(ours.worker_calc_ps) == sorted(theirs.worker_calc_ps)
    for name in ("calc_seconds", "total_cpu_seconds", "total_io_seconds"):
        assert getattr(metrics, name) == getattr(expected, name), name
    assert metrics.worker_imbalance() == expected.worker_imbalance()


@pytest.fixture(scope="module")
def oriented_123(tmp_path_factory):
    device = BlockDevice(
        tmp_path_factory.mktemp("disk"),
        block_size=512,
        model=DiskModel(bandwidth_bytes_per_s=123.0),
    )
    graph = CSRGraph.from_edgelist(rmat(7, edge_factor=8, seed=23))
    return orient_graph(write_graph(device, "g", graph))


@pytest.mark.skipif(
    not shm_available()[0], reason=f"POSIX shared memory unavailable: {shm_available()[1]}"
)
@given(
    seek=st.floats(0.0, 0.01),
    bounds=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
)
@settings(**SETTINGS)
def test_shared_scan_charge_equals_streaming_reads(oriented_123, seek, bounds):
    model = DiskModel(bandwidth_bytes_per_s=123.0, seek_latency_s=seek)
    oriented = oriented_123.oriented
    oriented.device.model = model
    start, stop = sorted(int(b * oriented.num_edges) for b in bounds)
    config = PDTLConfig(memory_per_proc=2048, block_size=512, modelled_cpu=True)
    streaming = MGTWorker(oriented, config, range_start=start, range_stop=stop).run()
    with publish_graph(oriented_123.graph) as publication:
        view = SharedGraphView(publication.descriptor, model)
        try:
            shared = MGTWorker(view, config, range_start=start, range_stop=stop).run()
        finally:
            view.close()
    assert shared.io_stats.as_dict() == streaming.io_stats.as_dict()
    assert shared.calc_ps == streaming.calc_ps


#: 2 nodes x 2 procs; a failure spec leaves at least one worker alive
PROCS_PER_NODE, WORKERS = 2, 4
STRAGGLERS = st.dictionaries(
    st.integers(0, WORKERS - 1), st.floats(0.25, 8.0), max_size=WORKERS
)
FAILURES = st.dictionaries(
    st.integers(0, WORKERS - 1), st.integers(0, 2), max_size=WORKERS - 1
)
PLAN_BACKENDS = [("serial", False), ("processes", False)] + (
    [("processes", True)] if shm_available()[0] else []
)


def _plan_run(graph, scheduling, backend="serial", shm=False, trace=False, **injections):
    config = PDTLConfig(
        num_nodes=WORKERS // PROCS_PER_NODE,
        procs_per_node=PROCS_PER_NODE,
        memory_per_proc=4096,
        block_size=512,
        modelled_cpu=True,
        scheduling=scheduling,
        shm=shm,
        trace=trace,
        **injections,
    )
    return PDTLRunner(config, backend=backend).run(graph)


def _reported_times(result):
    """Every per-worker, per-node and cluster time the result reports."""
    return (
        result.calc_seconds,
        [(w.calc_ps, w.calc_seconds) for w in result.workers],
        [(n.calc_ps, n.worker_calc_ps) for n in result.metrics.nodes],
        result.metrics.worker_imbalance(),
    )


@pytest.fixture(scope="module")
def plan_graph():
    return CSRGraph.from_edgelist(rmat(7, edge_factor=8, seed=17))


@pytest.fixture(scope="module")
def uninjected(plan_graph):
    return {
        scheduling: _plan_run(plan_graph, scheduling)
        for scheduling in ("static", "dynamic")
    }


@pytest.mark.parametrize("scheduling", ["static", "dynamic"])
@given(stragglers=STRAGGLERS, data=st.data())
@settings(**{**SETTINGS, "max_examples": 5})
def test_every_reported_time_is_the_replays(
    plan_graph, uninjected, scheduling, stragglers, data
):
    injections = dict(straggler_spec=stragglers)
    if scheduling == "dynamic":
        injections["failure_spec"] = data.draw(FAILURES, label="failures")
    reference = None
    for backend, shm in PLAN_BACKENDS:
        label = f"{backend}/shm={shm}"
        traced = _plan_run(plan_graph, scheduling, backend, shm, True, **injections)
        ends = [track.finish_ps for track in traced.telemetry.worker_tracks]
        assert [w.calc_ps for w in traced.workers] == ends, label
        assert traced.calc_seconds == ps_seconds(max(ends)), label
        for worker, end in zip(traced.workers, ends):
            assert worker.calc_seconds == ps_seconds(end), label
        alive = []
        for node in traced.metrics.nodes:
            on_node = traced.workers[
                node.node_index * PROCS_PER_NODE : (node.node_index + 1) * PROCS_PER_NODE
            ]
            assert node.calc_ps == max(w.calc_ps for w in on_node), label
            assert node.worker_calc_ps == [
                w.calc_ps for w in on_node if not w.failed
            ], label
            alive += node.worker_calc_ps
        assert traced.metrics.worker_imbalance() == (
            max(alive) * len(alive) / sum(alive) if sum(alive) else 1.0
        ), label
        untraced = _plan_run(plan_graph, scheduling, backend, shm, False, **injections)
        assert _reported_times(untraced) == _reported_times(traced), label
        reference = reference or _reported_times(traced)
        assert _reported_times(traced) == reference, label
        # a factor stretches the timeline, not the work each chunk was counted
        for name in ("total_cpu_seconds", "total_io_seconds"):
            assert getattr(traced, name) == getattr(uninjected[scheduling], name), (
                label,
                name,
            )
