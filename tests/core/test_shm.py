"""The shared-memory graph publication layer (``repro.core.shm``).

Covers the full lifecycle the PDTL runner exercises: publish → attach
(zero-copy views, same-process and cross-process) → unlink, plus the
properties the rest of the suite relies on -- bit-identical results
against the on-disk path, segment cleanup on success *and* on failure,
and no ``/dev/shm`` stragglers after any run.
"""

from __future__ import annotations

import errno
import glob
import os

import numpy as np
import pytest

from repro.baselines.inmemory import forward_count
from repro.core import kernel_backend, shm as shm_mod
from repro.core.config import PDTLConfig
from repro.core.mgt import MGTWorker, mgt_count
from repro.core.orientation import orient_csr, orient_graph
from repro.core.pdtl import PDTLRunner
from repro.core.scheduler import ChunkTask, execute_chunk_task
from repro.core.shm import (
    SHM_PREFIX,
    SharedGraphView,
    attach_view,
    detach_view,
    publish_graph,
    shm_available,
)
from repro.core.triangles import make_sink
from repro.errors import OutOfMemoryError, PDTLError
from repro.externalmem.blockio import BlockDevice, DiskModel
from repro.graph.binfmt import write_graph
from repro.graph.csr import CSRGraph
from repro.graph.edgelist import EdgeList
from repro.graph.generators import rmat

pytestmark = pytest.mark.skipif(
    not shm_available()[0],
    reason=f"POSIX shared memory unavailable: {shm_available()[1]}",
)


_COMPILED_OK, _COMPILED_DETAIL = kernel_backend.compiled_available()

#: the descriptor fields that name a published segment, with its dtype
_PUBLISHED_FIELDS = {
    "adjacency": "int64", "offsets": "int64", "in_offsets": "int64", "in_sources": "int32",
}


def _segments_on_host() -> list[str]:
    """Every live segment this module's publications could have created."""
    return glob.glob(f"/dev/shm/{SHM_PREFIX}-*")


@pytest.fixture
def orientation(tmp_path):
    device = BlockDevice(tmp_path / "disk", block_size=512)
    graph = CSRGraph.from_edgelist(rmat(6, edge_factor=8, seed=5))
    return orient_graph(write_graph(device, "g", graph))


@pytest.fixture
def oriented(orientation):
    """The oriented graph's files."""
    return orientation.oriented


@pytest.fixture
def oriented_csr(orientation):
    """The same oriented graph in memory, as the runner publishes it."""
    return orientation.graph


@pytest.fixture
def config() -> PDTLConfig:
    return PDTLConfig(memory_per_proc=4096, block_size=512, modelled_cpu=True)


class TestPublishAttach:
    def test_roundtrip_matches_file_reads(self, oriented, oriented_csr):
        with publish_graph(oriented_csr) as publication:
            view = SharedGraphView(publication.descriptor, oriented.device.model)
            np.testing.assert_array_equal(
                np.diff(view.cached_offsets), oriented.read_degrees()
            )
            np.testing.assert_array_equal(
                view.read_adjacency_range(0, oriented.num_edges),
                oriented.read_adjacency_range(0, oriented.num_edges),
            )
            np.testing.assert_array_equal(view.cached_offsets, oriented.offsets())
            assert view.num_vertices == oriented.num_vertices
            assert view.num_edges == oriented.num_edges
            assert view.max_degree == oriented.max_degree
            assert view.directed
            view.close()

    def test_views_are_zero_copy_and_read_only(self, oriented, oriented_csr):
        with publish_graph(oriented_csr) as publication:
            view = SharedGraphView(publication.descriptor, oriented.device.model)
            window = view.read_adjacency_range(0, min(8, oriented.num_edges))
            assert not window.flags.writeable
            # a slice of the mapping, not a copy
            assert window.base is not None
            with pytest.raises((ValueError, RuntimeError)):
                window[0] = -1
            view.close()

    def test_scan_invariants_published(self, oriented, oriented_csr):
        """The in-neighbour lists (the transpose, sources ascending per
        target, as int32) and the view's sorted packed edge keys."""
        with publish_graph(oriented_csr) as publication:
            view = SharedGraphView(publication.descriptor, oriented.device.model)
            adjacency = oriented.read_adjacency_range(0, oriented.num_edges)
            offsets = oriented.offsets()
            sources = np.repeat(
                np.arange(oriented.num_vertices, dtype=np.int64),
                np.diff(offsets).astype(np.int64),
            )
            expected_keys = sources * oriented.num_vertices + adjacency
            np.testing.assert_array_equal(view.scan_keys, expected_keys)
            assert bool(np.all(np.diff(view.scan_keys) >= 0))  # sorted haystack
            assert not view.scan_keys.flags.writeable
            assert view.in_sources.dtype == np.int32
            by_target = np.argsort(adjacency, kind="stable")
            np.testing.assert_array_equal(view.in_sources, sources[by_target])
            in_degrees = np.bincount(adjacency, minlength=oriented.num_vertices)
            np.testing.assert_array_equal(np.diff(view.in_offsets), in_degrees)
            assert view.in_offsets[0] == 0
            view.close()

    @pytest.mark.skipif(not _COMPILED_OK, reason=f"no C tier: {_COMPILED_DETAIL}")
    def test_tiers_publish_identical_segments(self, oriented, oriented_csr):
        """Both tiers publish the same four segments: the C tier's
        counting-sort in-lists, written in place, are byte for byte the
        numpy tier's sort-based arrays, in the same dtypes."""
        published = {}
        for tier in ("numpy", "cffi"):
            with kernel_backend.use(tier), publish_graph(oriented_csr) as publication:
                descriptor = publication.descriptor
                view = SharedGraphView(descriptor, oriented.device.model)
                arrays = (
                    view.read_adjacency_range(0, oriented.num_edges),
                    view.cached_offsets,
                    view.in_offsets,
                    view.in_sources,
                )
                assert {
                    name: getattr(descriptor, name).dtype for name in _PUBLISHED_FIELDS
                } == _PUBLISHED_FIELDS
                assert [a.dtype.name for a in arrays] == list(_PUBLISHED_FIELDS.values())
                published[tier] = [np.array(a) for a in arrays]
                view.close()
        for c_array, numpy_array in zip(published["cffi"], published["numpy"]):
            assert c_array.dtype == numpy_array.dtype
            assert c_array.tobytes() == numpy_array.tobytes()

    @pytest.mark.parametrize("failing", [0, 3], ids=["first-write", "last-write"])
    def test_failed_publication_leaves_no_segment(self, oriented_csr, monkeypatch, failing):
        """A write that fails after every segment exists (a full ``/dev/shm``
        here) fails the publication with its error; every segment is closed
        and unlinked.  The publication reads no file: a malformed graph
        file is refused by the orientation that reads it
        (``tests/core/test_orientation.py``)."""
        writes = []

        def pwrite(fd, data, offset):
            assert len(_segments_on_host()) == len(_PUBLISHED_FIELDS)
            writes.append(fd)
            if len(writes) > failing:
                raise OSError(errno.ENOSPC, "No space left on device")
            return real_pwrite(fd, data, offset)

        real_pwrite = os.pwrite
        monkeypatch.setattr(shm_mod.os, "pwrite", pwrite)
        with pytest.raises(OSError, match="No space left on device"):
            publish_graph(oriented_csr)
        assert len(writes) == failing + 1
        assert _segments_on_host() == []

    def test_out_of_bounds_range_rejected(self, oriented, oriented_csr):
        with publish_graph(oriented_csr) as publication:
            view = SharedGraphView(publication.descriptor, oriented.device.model)
            with pytest.raises(PDTLError):
                view.read_adjacency_range(0, oriented.num_edges + 1)
            with pytest.raises(PDTLError):
                view.read_adjacency_range(-1, 1)
            view.close()

    def test_attach_cache_returns_same_view(self, oriented, oriented_csr):
        publication = publish_graph(oriented_csr)
        try:
            model = oriented.device.model
            first = attach_view(publication.descriptor, model)
            second = attach_view(publication.descriptor, model)
            assert first is second
        finally:
            publication.unlink()
        # unlink dropped the same-process cached attachment too
        assert _segments_on_host() == []

    def test_oriented_publication_has_no_order_keys(self, oriented_csr):
        """``degrees``, ``scan_keys``, ``order_keys`` and ``scan_sources``
        stay on the descriptor and are always ``None``, so tools that size a
        publication field by field still find them."""
        with publish_graph(oriented_csr) as publication:
            descriptor = publication.descriptor
            assert descriptor.degrees is None
            assert descriptor.scan_keys is None
            assert descriptor.order_keys is None
            assert descriptor.scan_sources is None
            for name in _PUBLISHED_FIELDS:
                assert getattr(descriptor, name) is not None, name
            assert len(publication._segments) == len(_PUBLISHED_FIELDS)


class TestLifecycle:
    def test_unlink_removes_segments_and_is_idempotent(self, oriented_csr):
        publication = publish_graph(oriented_csr)
        names = [getattr(publication.descriptor, f).name for f in _PUBLISHED_FIELDS]
        for name in names:
            assert glob.glob(f"/dev/shm/{name}")
        publication.unlink()
        publication.unlink()  # idempotent
        for name in names:
            assert not glob.glob(f"/dev/shm/{name}")

    def test_attached_view_survives_unlink(self, oriented, oriented_csr):
        """POSIX keeps unlinked segments alive for existing mappings."""
        publication = publish_graph(oriented_csr)
        view = SharedGraphView(publication.descriptor, oriented.device.model)
        reference = oriented.read_adjacency_range(0, oriented.num_edges).copy()
        publication.unlink()
        np.testing.assert_array_equal(
            view.read_adjacency_range(0, oriented.num_edges), reference
        )
        view.close()
        assert _segments_on_host() == []

    def test_detach_view_without_attachment_is_noop(self):
        detach_view("no-such-token")

    def test_dead_attachment_swept_on_next_attach(self, oriented, oriented_csr):
        """A cached view whose publication was unlinked elsewhere (a pool
        worker's situation) is evicted -- and its memory released -- the
        next time the process attaches anything."""
        stale_pub = publish_graph(oriented_csr)
        stale_token = stale_pub.descriptor.token
        attach_view(stale_pub.descriptor, oriented.device.model)
        assert stale_token in shm_mod._ATTACHED
        # simulate the master unlinking in *another* process: remove the
        # segments without touching this process's cache
        for segment in stale_pub._segments:
            os.unlink(f"/dev/shm/{segment.name}")
            try:  # keep this process's resource tracker consistent
                from multiprocessing import resource_tracker

                resource_tracker.unregister(segment._name, "shared_memory")
            except Exception:
                pass
        fresh_pub = publish_graph(oriented_csr)
        try:
            view = attach_view(fresh_pub.descriptor, oriented.device.model)
            assert stale_token not in shm_mod._ATTACHED
            assert view.cached_offsets.shape[0] == oriented.num_vertices + 1
        finally:
            fresh_pub.unlink()
            stale_pub._unlinked = True  # segments already gone
        assert _segments_on_host() == []

    @pytest.mark.parametrize(
        "read",
        [
            lambda view: view.cached_offsets,
            lambda view: view.offsets(),
            lambda view: view.read_adjacency_range(0, 1),
            lambda view: view.scan_keys,
            lambda view: view.in_offsets,
            lambda view: view.in_sources,
        ],
        ids=["cached_offsets", "offsets", "read_adjacency_range", "scan_keys",
             "in_offsets", "in_sources"],
    )
    def test_closed_view_reports_closed_not_missing(self, oriented, oriented_csr, read):
        """Use-after-close of any published array is reported as a closed
        view, not as a missing array or a ``TypeError``."""
        with publish_graph(oriented_csr) as publication:
            view = SharedGraphView(publication.descriptor, oriented.device.model)
            view.close()
            with pytest.raises(PDTLError, match="is closed"):
                read(view)

    def test_closed_view_fails_the_worker_clearly(self, oriented, oriented_csr, config):
        with publish_graph(oriented_csr) as publication:
            view = SharedGraphView(publication.descriptor, oriented.device.model)
            view.close()
            with pytest.raises(PDTLError, match="is closed"):
                MGTWorker(view, config).run()

    def test_tokens_are_unique(self, oriented_csr):
        with publish_graph(oriented_csr) as first, publish_graph(oriented_csr) as second:
            assert first.descriptor.token != second.descriptor.token


class TestMGTOnSharedView:
    def test_counts_and_accounting_match_disk_path(self, oriented, oriented_csr, config):
        disk = mgt_count(oriented, config)
        with publish_graph(oriented_csr) as publication:
            view = SharedGraphView(publication.descriptor, oriented.device.model)
            shared = MGTWorker(view, config).run()
            view.close()
        assert shared.triangles == disk.triangles
        assert shared.iterations == disk.iterations
        assert shared.cpu_ps == disk.cpu_ps  # modelled_cpu
        assert shared.io_stats.device_ps == disk.io_stats.device_ps
        assert shared.io_stats.as_dict() == disk.io_stats.as_dict()
        assert shared.intersections == disk.intersections
        assert shared.cpu_operations == disk.cpu_operations
        assert shared.edges_processed == disk.edges_processed

    def test_edge_range_restriction_matches(self, oriented, oriented_csr, config):
        mid = oriented.num_edges // 2
        disk = MGTWorker(oriented, config, range_start=mid).run()
        with publish_graph(oriented_csr) as publication:
            view = SharedGraphView(publication.descriptor, oriented.device.model)
            shared = MGTWorker(view, config, range_start=mid).run()
            view.close()
        assert shared.triangles == disk.triangles
        assert shared.io_stats.as_dict() == disk.io_stats.as_dict()

    def test_chunk_task_executes_against_shared_segments(self, oriented, oriented_csr, config):
        with publish_graph(oriented_csr) as publication:
            task = ChunkTask(
                index=0,
                device_root=str(oriented.device.root),
                device_block_size=oriented.device.block_size,
                disk_model=DiskModel(),
                graph_name=oriented.name,
                num_vertices=oriented.num_vertices,
                num_edges=oriented.num_edges,
                max_degree=oriented.max_degree,
                config=config,
                start=0,
                stop=oriented.num_edges,
                sink_kind="count",
                kernel_tier=kernel_backend.active_backend(),
                shm=publication.descriptor,
            )
            outcome = execute_chunk_task(task)
            detach_view(publication.descriptor.token)
        assert outcome.triangles == mgt_count(oriented, config).triangles


def _cone_dag() -> CSRGraph:
    """Cone 0 points at all 79 other vertices; sparse extra edges run from
    the smaller id to the larger.  Most out-lists hold 0 to 2 entries, so
    window spans contain vertices of out-degree 0, lists straddle window
    boundaries, and cone 0's list is more than 32 times longer than its
    partner ``E_v`` (a lopsided pair: the walk tests cone 0's whole list
    against a short marked ``E_v``)."""
    n = 80
    rng = np.random.default_rng(3)
    spokes = np.stack([np.zeros(n - 1, dtype=np.int64), np.arange(1, n)], axis=1)
    extra = np.sort(rng.integers(1, n, size=(60, 2)), axis=1)
    edges = np.concatenate((spokes, extra[extra[:, 0] != extra[:, 1]]))
    return CSRGraph.from_edgelist(EdgeList(edges, n), directed=True)


#: oriented graphs off the easy path of the shared-memory window scan; the
#: rmat graph has more than 1024 vertices, so each scan charges two blocks
_SCAN_GRAPHS = {
    "rmat": lambda: orient_csr(CSRGraph.from_edgelist(rmat(11, edge_factor=8, seed=5))),
    "cone": _cone_dag,
    "empty": lambda: CSRGraph.empty(6, directed=True),
}


def _window_shapes(graph: CSRGraph, start: int, stop: int, window: int) -> set[str]:
    """Which hard cases the windows of ``[start, stop)`` contain."""
    offsets, adjacency = graph.indptr, graph.indices
    degrees = np.diff(offsets)
    sources = np.repeat(np.arange(graph.num_vertices), degrees)
    shapes = set()
    for lo in range(start, stop, window):
        hi = min(lo + window, stop)
        vlow = int(np.searchsorted(offsets, lo, side="right")) - 1
        vhigh = max(int(np.searchsorted(offsets, hi, side="left")) - 1, vlow)
        if (degrees[vlow : vhigh + 1] == 0).any():
            shapes.add("out-degree 0 in span")
        if offsets[vlow] < lo or offsets[vhigh + 1] > hi:
            shapes.add("straddling list")
        for v in range(vlow, vhigh + 1):
            d = min(offsets[v + 1], hi) - max(offsets[v], lo)
            if d > 0 and (degrees[sources[adjacency == v]] > 32 * d).any():
                shapes.add("lopsided pair")
    return shapes


def _scan_outcome(graph, config: PDTLConfig, start: int, stop: int, kind: str):
    """Everything one worker run reports, for ``kind``'s sink."""
    sink = make_sink(kind, num_vertices=graph.num_vertices, graph=graph)
    result = MGTWorker(graph, config, range_start=start, range_stop=stop).run(sink)
    payload = {
        "count": lambda: sink.count,
        "list": lambda: [(t.cone, t.v, t.w) for t in sink.triangles],
        "per-vertex": lambda: sink.per_vertex.tolist(),
        "edge-support": lambda: sink.supports().tolist(),
    }[kind]()
    return (
        payload,
        result.triangles,
        result.iterations,
        result.intersections,
        result.cpu_operations,
        result.cpu_ps,
        result.io_stats.as_dict(),
        result.peak_memory_bytes,
    )


class TestSharedScanMatchesDisk:
    """The in-list window scan against the streaming scan, off the easy
    path: a static three-way split (ranges not window-aligned) and the
    whole range, every sink kind, both kernel tiers."""

    @pytest.mark.parametrize("tier", ["numpy", "cffi"])
    @pytest.mark.parametrize("kind", ["count", "list", "per-vertex", "edge-support"])
    @pytest.mark.parametrize("name", sorted(_SCAN_GRAPHS))
    def test_worker_matches_disk(self, tmp_path, name, kind, tier):
        if tier == "cffi" and not kernel_backend.compiled_available()[0]:
            pytest.skip(f"no C tier: {kernel_backend.compiled_available()[1]}")
        graph = _SCAN_GRAPHS[name]()
        config = PDTLConfig(memory_per_proc=8192, block_size=512, modelled_cpu=True)
        window = config.window_edges
        m = graph.num_edges
        splits = [0, m // 3, 2 * m // 3, m]
        ranges = list(zip(splits[:-1], splits[1:])) + [(0, m)]
        if name == "cone":
            shapes = set().union(*(_window_shapes(graph, lo, hi, window) for lo, hi in ranges))
            assert shapes == {"out-degree 0 in span", "straddling list", "lopsided pair"}
        if m:
            assert any(bound % window for bound in splits[1:-1])

        oriented = write_graph(BlockDevice(tmp_path / "disk", block_size=512), name, graph)
        with kernel_backend.use(tier), publish_graph(graph) as publication:
            view = SharedGraphView(publication.descriptor, oriented.device.model)
            before = kernel_backend.dispatch_counts().get(f"mgt_chunk_scan.{tier}", 0)
            try:
                for lo, hi in ranges:
                    shared = _scan_outcome(view, config, lo, hi, kind)
                    disk = _scan_outcome(oriented, config, lo, hi, kind)
                    assert shared == disk, (lo, hi)
            finally:
                view.close()
            dispatched = kernel_backend.dispatch_counts().get(f"mgt_chunk_scan.{tier}", 0) - before
        # the shared path scanned every range with windows in one call
        assert dispatched == sum(hi > lo for lo, hi in ranges)

    @pytest.mark.parametrize("tier", ["numpy", "cffi"])
    def test_traced_chunk_records_every_window(self, tmp_path, tier):
        if tier == "cffi" and not _COMPILED_OK:
            pytest.skip(f"no C tier: {_COMPILED_DETAIL}")
        graph = _SCAN_GRAPHS["rmat"]()
        config = PDTLConfig(memory_per_proc=8192, block_size=512, trace=True)
        start, stop = graph.num_edges // 3, 2 * graph.num_edges // 3
        oriented = write_graph(BlockDevice(tmp_path / "disk", block_size=512), "g", graph)
        with kernel_backend.use(tier), publish_graph(graph) as publication:
            task = ChunkTask(
                index=0,
                device_root=str(oriented.device.root),
                device_block_size=oriented.device.block_size,
                disk_model=DiskModel(),
                graph_name=oriented.name,
                num_vertices=oriented.num_vertices,
                num_edges=oriented.num_edges,
                max_degree=oriented.max_degree,
                config=config,
                start=start,
                stop=stop,
                sink_kind="count",
                kernel_tier=tier,
                shm=publication.descriptor,
            )
            outcome = execute_chunk_task(task)
            detach_view(publication.descriptor.token)
        (chunk,) = [e for e in outcome.events if e.name == "chunk"]
        windows = [e for e in outcome.events if e.name == "window"]
        result = outcome.result
        assert result.iterations > 1
        assert len(windows) == result.iterations
        assert [e.args_dict["window"] for e in windows] == list(range(result.iterations))
        bounds = [e.args_dict["start"] for e in windows] + [windows[-1].args_dict["stop"]]
        assert bounds[0] == start and bounds[-1] == stop
        assert all(e.args_dict["stop"] == b for e, b in zip(windows, bounds[1:]))
        ends = [chunk.start] + [e.start + e.duration for e in windows]
        assert all(e.cat == "kernel" and e.depth == chunk.depth + 1 for e in windows)
        assert all(e.start >= end for e, end in zip(windows, ends))
        assert ends[-1] <= chunk.start + chunk.duration
        assert sum(e.args_dict["pairs"] for e in windows) == result.intersections


class TestWindowBudget:
    """A window whose ``edg`` and ``ind`` arrays overflow the budget fails
    the run with the error of its ``ind`` allocation, on every path."""

    @pytest.mark.parametrize("tier", ["numpy", "cffi"])
    @pytest.mark.parametrize("path", ["disk", "shm"])
    def test_oversized_window_span_raises(self, tmp_path, path, tier):
        if tier == "cffi" and not _COMPILED_OK:
            pytest.skip(f"no C tier: {_COMPILED_DETAIL}")
        # the triangles {0, 1, 2} and {1997, 1998, 1999}: the one window
        # spans 1,999 vertices, so ind needs 2 x 8 x 1,999 = 31,984 bytes,
        # and 8,192 - 16 (nm) - 16 (nmp) - 48 (edg) = 8,112 are free
        n = 2000
        ends = (0, n - 3)
        edges = [(a + i, a + j) for a in ends for i, j in ((0, 1), (0, 2), (1, 2))]
        graph = orient_csr(CSRGraph.from_edgelist(EdgeList(np.array(edges), n)))
        config = PDTLConfig(memory_per_proc=8192, block_size=512)
        oriented = write_graph(BlockDevice(tmp_path / "disk", block_size=512), "g", graph)
        message = (
            "allocation of 31984 bytes exceeds available budget of 8112 bytes "
            "(allocation 'ind' on budget of 8.0KiB)"
        )
        with kernel_backend.use(tier), publish_graph(graph) as publication:
            view = SharedGraphView(publication.descriptor, oriented.device.model)
            try:
                with pytest.raises(OutOfMemoryError) as raised:
                    MGTWorker(view if path == "shm" else oriented, config).run()
            finally:
                view.close()
        assert str(raised.value) == message


class TestRunnerIntegration:
    def _config(self, **overrides) -> PDTLConfig:
        base = dict(
            num_nodes=2,
            procs_per_node=2,
            memory_per_proc=4096,
            block_size=512,
            modelled_cpu=True,
            shm=True,
        )
        base.update(overrides)
        return PDTLConfig(**base)

    def test_no_segment_survives_a_run(self, rmat_small):
        expected = forward_count(rmat_small)
        for backend in ("serial", "processes"):
            result = PDTLRunner(self._config(), backend=backend).run(rmat_small)
            assert result.triangles == expected
            assert result.shm_used
            assert _segments_on_host() == [], backend

    @pytest.mark.parametrize("tier, builds", [("numpy", 1), ("cffi", 0)])
    def test_scan_builds_keys_once_per_view(self, rmat_small, monkeypatch, tier, builds):
        """No segment carries the packed edge keys.  On the numpy tier every
        chunk of a serial run scans through the one cached view, which
        builds them on first use, so once per run, not once per chunk; the
        C tier never builds them."""
        if tier == "cffi" and not _COMPILED_OK:
            pytest.skip(f"no C tier: {_COMPILED_DETAIL}")
        built = []
        build = shm_mod.kernels.csr_packed_keys
        monkeypatch.setattr(
            shm_mod.kernels, "csr_packed_keys",
            lambda *args: built.append(1) or build(*args),
        )
        config = self._config(scheduling="dynamic")
        with kernel_backend.use(tier):
            result = PDTLRunner(config, backend="serial").run(rmat_small)
        assert result.shm_used and result.num_chunks > 1
        assert result.triangles == forward_count(rmat_small)
        assert len(built) == builds
        assert _segments_on_host() == []

    def test_cleanup_under_failure_injection(self, rmat_small):
        config = self._config(scheduling="dynamic", failure_spec={0: 1, 2: 0})
        for backend in ("serial", "processes"):
            result = PDTLRunner(config, backend=backend).run(rmat_small)
            assert result.triangles == forward_count(rmat_small)
            assert result.metrics.total_chunks_retried >= 1
            assert _segments_on_host() == [], backend

    def test_cleanup_when_a_task_raises(self, rmat_small, monkeypatch):
        import repro.core.pdtl as pdtl_mod

        def boom(task):
            raise RuntimeError("injected task failure")

        monkeypatch.setattr(pdtl_mod, "execute_chunk_task", boom)
        with pytest.raises(RuntimeError, match="injected task failure"):
            PDTLRunner(self._config(), backend="serial").run(rmat_small)
        assert _segments_on_host() == []

    def test_shm_matches_disk_exactly(self, rmat_small):
        for scheduling in ("static", "dynamic"):
            disk = PDTLRunner(
                self._config(shm=False, scheduling=scheduling), backend="serial"
            ).run(rmat_small)
            shared = PDTLRunner(
                self._config(scheduling=scheduling), backend="serial"
            ).run(rmat_small)
            assert shared.triangles == disk.triangles
            assert shared.calc_seconds == disk.calc_seconds
            assert shared.total_io_seconds == disk.total_io_seconds
            assert shared.total_cpu_seconds == disk.total_cpu_seconds
            assert not disk.shm_used and shared.shm_used

    @pytest.mark.parametrize("kept", ["first", "second"])
    def test_asymmetric_input_matches_disk(self, kept):
        """An undirected CSRGraph that stores one edge of a triangle in one
        direction only.  write_graph does not check symmetry, and the shm
        in-lists are the transpose of the oriented adjacency, so the shm
        path lists the disk path's triangles, in the same order, under the
        same IOStats.  (Reading the in-lists off the entries orientation
        drops would give the transpose only for symmetric inputs.)"""
        full = CSRGraph.from_edgelist(rmat(6, edge_factor=8, seed=5))
        u = next(x for x in range(full.num_vertices) if full.degree(x))
        v = int(full.neighbors(u)[0])
        drop_from, dropped = (v, u) if kept == "first" else (u, v)
        at = int(full.indptr[drop_from]) + int(np.searchsorted(full.neighbors(drop_from), dropped))
        graph = CSRGraph(
            np.concatenate([full.indptr[: drop_from + 1], full.indptr[drop_from + 1 :] - 1]),
            np.delete(full.indices, at),
        )
        assert not graph.is_undirected_consistent()
        runs = {
            shm: PDTLRunner(
                self._config(shm=shm, scheduling="dynamic"), backend="serial"
            ).run(graph, sink_kind="list")
            for shm in (False, True)
        }
        disk, shared = runs[False], runs[True]
        assert shared.shm_used and not disk.shm_used
        assert shared.triangles == disk.triangles > 0
        assert shared.triangle_list == disk.triangle_list
        assert shared.metrics.setup_io_stats.as_dict() == disk.metrics.setup_io_stats.as_dict()
        for shared_node, disk_node in zip(shared.metrics.nodes, disk.metrics.nodes):
            assert shared_node.io_stats.as_dict() == disk_node.io_stats.as_dict()
        assert _segments_on_host() == []

    def test_straggler_spec_reroutes_chunks_and_keeps_counts(self, rmat_small):
        expected = forward_count(rmat_small)
        config = self._config(
            num_nodes=1,
            procs_per_node=2,
            scheduling="dynamic",
            straggler_spec={0: 25.0},
        )
        result = PDTLRunner(config, backend="serial").run(rmat_small)
        assert result.triangles == expected
        slow, fast = result.workers
        # the deterministic pull replay routes most chunks to the fast worker
        assert slow.chunks_completed < fast.chunks_completed
        assert slow.chunks_completed + fast.chunks_completed == result.num_chunks
        assert _segments_on_host() == []


class TestAvailabilityGuard:
    def _config(self) -> PDTLConfig:
        return PDTLConfig(memory_per_proc=4096, block_size=512, shm=True)

    def test_probe_reports_available_here(self):
        assert shm_available() == (True, "")

    def test_runner_falls_back_with_warning_when_unavailable(
        self, rmat_small, monkeypatch
    ):
        import repro.core.pdtl as pdtl_mod

        monkeypatch.setattr(
            pdtl_mod, "shm_available", lambda: (False, "no /dev/shm mount")
        )
        with pytest.warns(RuntimeWarning, match="no /dev/shm mount"):
            result = PDTLRunner(self._config(), backend="serial").run(rmat_small)
        assert result.triangles == forward_count(rmat_small)
        assert not result.shm_used

    def test_fallback_results_identical(self, rmat_small, monkeypatch):
        """The fallback's modelled numbers equal the shm run's: a host
        without /dev/shm loses wall clock, never accounting."""
        import repro.core.pdtl as pdtl_mod

        config = PDTLConfig(
            num_nodes=2,
            procs_per_node=2,
            memory_per_proc=4096,
            block_size=512,
            modelled_cpu=True,
            shm=True,
        )
        reference = PDTLRunner(config, backend="serial").run(rmat_small)
        assert reference.shm_used
        monkeypatch.setattr(
            pdtl_mod, "shm_available", lambda: (False, "no /dev/shm mount")
        )
        with pytest.warns(RuntimeWarning):
            fallback = PDTLRunner(config, backend="serial").run(rmat_small)
        assert not fallback.shm_used
        assert fallback.triangles == reference.triangles
        assert fallback.calc_seconds == reference.calc_seconds
        assert fallback.total_io_seconds == reference.total_io_seconds
        assert fallback.modelled_setup_seconds == reference.modelled_setup_seconds
        assert (
            fallback.metrics.setup_io_stats.as_dict()
            == reference.metrics.setup_io_stats.as_dict()
        )
        assert _segments_on_host() == []

    def test_publish_raises_when_unavailable(self, oriented_csr, monkeypatch):
        monkeypatch.setattr(shm_mod, "_AVAILABLE", (False, "probe failed"))
        with pytest.raises(PDTLError, match="probe failed"):
            publish_graph(oriented_csr)
        monkeypatch.setattr(shm_mod, "_AVAILABLE", None)
        assert shm_available()[0]
