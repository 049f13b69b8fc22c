"""Unit tests for triangle records and sinks."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.triangles import (
    CountingSink,
    FileSink,
    ListingSink,
    PerVertexCountSink,
    Triangle,
    make_sink,
)
from repro.utils import ceil_div


class TestTriangle:
    def test_vertex_set(self):
        t = Triangle(0, 1, 2)
        assert t.as_vertex_set() == frozenset({0, 1, 2})

    def test_iteration(self):
        assert tuple(Triangle(3, 4, 5)) == (3, 4, 5)

    def test_ordering_and_equality(self):
        assert Triangle(0, 1, 2) == Triangle(0, 1, 2)
        assert Triangle(0, 1, 2) < Triangle(0, 1, 3)

    def test_hashable(self):
        assert len({Triangle(0, 1, 2), Triangle(0, 1, 2)}) == 1


class TestCountingSink:
    def test_add_and_batch(self):
        sink = CountingSink()
        sink.add(0, 1, 2)
        sink.add_batch(0, 1, np.array([3, 4, 5]))
        assert sink.count == 4

    def test_empty_batch(self):
        sink = CountingSink()
        sink.add_batch(0, 1, np.empty(0, dtype=np.int64))
        assert sink.count == 0

    def test_merge(self):
        a, b = CountingSink(), CountingSink()
        a.add(0, 1, 2)
        b.add_batch(1, 2, np.array([3, 4]))
        a.merge(b)
        assert a.count == 3


class TestListingSink:
    def test_collects_triangles(self):
        sink = ListingSink()
        sink.add(0, 1, 2)
        sink.add_batch(0, 3, np.array([4, 5]))
        assert sink.count == 3
        assert Triangle(0, 3, 4) in sink.triangles

    def test_vertex_sets(self):
        sink = ListingSink()
        sink.add(0, 1, 2)
        assert sink.vertex_sets() == {frozenset({0, 1, 2})}

    def test_merge(self):
        a, b = ListingSink(), ListingSink()
        a.add(0, 1, 2)
        b.add(3, 4, 5)
        a.merge(b)
        assert a.count == 2
        assert len(a.triangles) == 2


class TestFileSink:
    def test_write_and_read_back(self, device):
        sink = FileSink(device.open("triangles.bin"), buffer_triangles=2)
        sink.add(0, 1, 2)
        sink.add_batch(3, 4, np.array([5, 6, 7]))
        triangles = sink.read_all()
        assert sink.count == 4
        assert Triangle(0, 1, 2) in triangles
        assert Triangle(3, 4, 7) in triangles

    def test_buffering_flushes_automatically(self, device):
        file = device.open("triangles.bin")
        sink = FileSink(file, buffer_triangles=1)
        sink.add(0, 1, 2)
        sink.add(1, 2, 3)
        # with a 1-triangle buffer both adds must already be on disk
        assert file.num_items() >= 3

    def test_output_charged_to_device(self, device):
        device.stats.reset()
        sink = FileSink(device.open("triangles.bin"), buffer_triangles=1)
        for i in range(10):
            sink.add(i, i + 1, i + 2)
        sink.flush()
        assert device.stats.bytes_written >= 10 * 24

    def test_empty_batch_noop(self, device):
        sink = FileSink(device.open("t.bin"))
        sink.add_batch(0, 1, np.empty(0, dtype=np.int64))
        assert sink.count == 0
        assert sink.read_all() == []


class TestPerVertexCountSink:
    def test_single_triangle(self):
        sink = PerVertexCountSink(5)
        sink.add(0, 1, 2)
        assert sink.per_vertex.tolist() == [1, 1, 1, 0, 0]

    def test_batch(self):
        sink = PerVertexCountSink(6)
        sink.add_batch(0, 1, np.array([2, 3]))
        assert sink.per_vertex.tolist() == [2, 2, 1, 1, 0, 0]
        assert sink.count == 2

    def test_repeated_w_in_batch(self):
        sink = PerVertexCountSink(4)
        sink.add_batch(0, 1, np.array([2, 2]))
        assert sink.per_vertex[2] == 2

    def test_merge(self):
        a, b = PerVertexCountSink(3), PerVertexCountSink(3)
        a.add(0, 1, 2)
        b.add(0, 1, 2)
        a.merge(b)
        assert a.count == 2
        assert a.per_vertex.tolist() == [2, 2, 2]


class TestMakeSink:
    def test_count(self):
        assert isinstance(make_sink("count"), CountingSink)

    def test_list(self):
        assert isinstance(make_sink("list"), ListingSink)

    def test_per_vertex(self):
        sink = make_sink("per-vertex", num_vertices=4)
        assert isinstance(sink, PerVertexCountSink)

    def test_per_vertex_requires_size(self):
        with pytest.raises(ValueError):
            make_sink("per-vertex")

    def test_file_requires_file(self):
        with pytest.raises(ValueError):
            make_sink("file")

    def test_file(self, device):
        sink = make_sink("file", file=device.open("t.bin"))
        assert isinstance(sink, FileSink)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            make_sink("bogus")


class TestFileSinkBlockAlignedCharge:
    """Buffered FileSink flushes must charge exactly the ideal T/B output I/O."""

    def test_charge_equals_ideal_block_count(self, device):
        # device block size is 512; the sink rounds its buffer to whole blocks
        device.stats.reset()
        sink = FileSink(device.open("triangles.bin"), buffer_triangles=100)
        n = 10_000
        ws = np.arange(2, 2 + n, dtype=np.int64)
        sink.add_batch(0, 1, ws)
        sink.flush()
        total_bytes = n * 24
        ideal_blocks = ceil_div(total_bytes, device.block_size)
        assert device.stats.bytes_written == total_bytes
        assert device.stats.blocks_written == ideal_blocks
        assert sink.count == n

    def test_interleaved_adds_still_aligned(self, device):
        device.stats.reset()
        sink = FileSink(device.open("triangles.bin"), buffer_triangles=64)
        rng = np.random.default_rng(3)
        total = 0
        for _ in range(200):
            k = int(rng.integers(1, 40))
            sink.add_triples(
                rng.integers(0, 50, k), rng.integers(0, 50, k), rng.integers(0, 50, k)
            )
            total += k
        for i in range(37):
            sink.add(i, i + 1, i + 2)
            total += 1
        sink.flush()
        assert sink.count == total
        assert device.stats.bytes_written == total * 24
        assert device.stats.blocks_written == ceil_div(total * 24, device.block_size)

    def test_large_batch_exceeding_buffer(self, device):
        sink = FileSink(device.open("triangles.bin"), buffer_triangles=8)
        n = 5_000
        sink.add_triples(
            np.arange(n, dtype=np.int64),
            np.arange(n, dtype=np.int64) + 1,
            np.arange(n, dtype=np.int64) + 2,
        )
        triangles = sink.read_all()
        assert len(triangles) == n
        assert triangles[0] == Triangle(0, 1, 2)
        assert triangles[-1] == Triangle(n - 1, n, n + 1)


class TestEdgeSupportSink:
    """Dense and spilling accumulation of per-edge triangle supports."""

    @pytest.fixture()
    def oriented_stream(self):
        """An oriented CSR graph, its edge keys, and its full triangle stream."""
        from repro.core import kernels
        from repro.core.orientation import orient_csr
        from repro.core.triangles import oriented_edge_keys
        from repro.graph.csr import CSRGraph
        from repro.graph.generators import rmat

        oriented = orient_csr(CSRGraph.from_edgelist(rmat(6, edge_factor=8, seed=21)))
        keys = oriented_edge_keys(oriented)
        cones, vs, ws, _ = kernels.triangle_range(
            oriented.indptr, oriented.indices, 0, oriented.num_vertices,
            want_triples=True,
        )
        return oriented, keys, (cones, vs, ws)

    def test_dense_support_sums_to_three_triangles(self, oriented_stream):
        from repro.core.triangles import EdgeSupportSink

        oriented, keys, (cones, vs, ws) = oriented_stream
        sink = EdgeSupportSink(keys, oriented.num_vertices)
        sink.add_triples(cones, vs, ws)
        assert not sink.spilling
        assert sink.count == ws.shape[0]
        assert int(sink.supports().sum()) == 3 * sink.count

    def test_scalar_and_batch_paths_agree(self, oriented_stream):
        from repro.core.triangles import EdgeSupportSink

        oriented, keys, (cones, vs, ws) = oriented_stream
        batched = EdgeSupportSink(keys, oriented.num_vertices)
        batched.add_triples(cones, vs, ws)
        scalar = EdgeSupportSink(keys, oriented.num_vertices)
        for u, v, w in zip(cones.tolist(), vs.tolist(), ws.tolist()):
            scalar.add(u, v, w)
        np.testing.assert_array_equal(scalar.supports(), batched.supports())

    def test_merge_combines_partials_exactly(self, oriented_stream):
        from repro.core.triangles import EdgeSupportSink

        oriented, keys, (cones, vs, ws) = oriented_stream
        whole = EdgeSupportSink(keys, oriented.num_vertices)
        whole.add_triples(cones, vs, ws)
        merged = EdgeSupportSink(keys, oriented.num_vertices)
        cut = ws.shape[0] // 3
        for lo, hi in ((0, cut), (cut, 2 * cut), (2 * cut, ws.shape[0])):
            part = EdgeSupportSink(keys, oriented.num_vertices)
            part.add_triples(cones[lo:hi], vs[lo:hi], ws[lo:hi])
            merged.merge(part)
        np.testing.assert_array_equal(merged.supports(), whole.supports())
        assert merged.count == whole.count

    def test_non_edge_triangle_raises(self, oriented_stream):
        from repro.core.triangles import EdgeSupportSink

        oriented, keys, _ = oriented_stream
        sink = EdgeSupportSink(keys, oriented.num_vertices)
        with pytest.raises(ValueError):
            sink.add(0, oriented.num_vertices - 1, oriented.num_vertices - 2)

    def test_spill_requires_file(self, oriented_stream):
        from repro.core.triangles import EdgeSupportSink

        oriented, keys, _ = oriented_stream
        with pytest.raises(ValueError):
            EdgeSupportSink(keys, oriented.num_vertices, memory_budget_bytes=8)

    def test_spill_matches_dense(self, oriented_stream, tmp_path):
        from repro.core.triangles import EdgeSupportSink
        from repro.externalmem.blockio import BlockDevice

        oriented, keys, (cones, vs, ws) = oriented_stream
        dense = EdgeSupportSink(keys, oriented.num_vertices)
        dense.add_triples(cones, vs, ws)
        device = BlockDevice(tmp_path, block_size=512)
        spill = EdgeSupportSink(
            keys,
            oriented.num_vertices,
            spill_file=device.open("spill.run"),
            memory_budget_bytes=256,  # far below the dense array: many runs
        )
        assert spill.spilling
        step = 23  # ragged batches so runs straddle triangle boundaries
        for lo in range(0, ws.shape[0], step):
            spill.add_triples(
                cones[lo : lo + step], vs[lo : lo + step], ws[lo : lo + step]
            )
        np.testing.assert_array_equal(spill.supports(), dense.supports())

    def test_spill_iter_positions_strictly_increasing(
        self, oriented_stream, tmp_path
    ):
        from repro.core.triangles import EdgeSupportSink
        from repro.externalmem.blockio import BlockDevice

        oriented, keys, (cones, vs, ws) = oriented_stream
        device = BlockDevice(tmp_path, block_size=512)
        spill = EdgeSupportSink(
            keys,
            oriented.num_vertices,
            spill_file=device.open("spill.run"),
            memory_budget_bytes=128,
        )
        spill.add_triples(cones, vs, ws)
        positions = []
        total = 0
        for pos, cnt in spill.iter_position_counts(buffer_items=13):
            positions.append(pos)
            total += int(cnt.sum())
        merged = np.concatenate(positions)
        assert np.all(np.diff(merged) > 0)  # unique and sorted across batches
        assert total == 3 * ws.shape[0]

    def test_spill_io_is_deterministic(self, oriented_stream, tmp_path):
        """Identical streams + budget => identical spill IOStats."""
        from repro.core.triangles import EdgeSupportSink
        from repro.externalmem.blockio import BlockDevice

        oriented, keys, (cones, vs, ws) = oriented_stream
        stats = []
        for run in range(2):
            device = BlockDevice(tmp_path / f"dev{run}", block_size=512)
            sink = EdgeSupportSink(
                keys,
                oriented.num_vertices,
                spill_file=device.open("spill.run"),
                memory_budget_bytes=256,
            )
            sink.add_triples(cones, vs, ws)
            sink.supports()
            stats.append(device.stats.as_dict())
        assert stats[0] == stats[1]

    def _spill_sink(self, keys, num_vertices, device, budget=64):
        from repro.core.triangles import EdgeSupportSink

        return EdgeSupportSink(
            keys,
            num_vertices,
            spill_file=device.open("s.run"),
            memory_budget_bytes=budget,
        )

    def test_cross_mode_merge_both_orders(self, oriented_stream, tmp_path):
        """Regression: merge used to require dense mode on both sides.

        A spilled sink must merge into a dense one (runs drained through
        the bounded k-way merge) and vice versa (batches re-recorded
        through the spill buffer), in either order, with a tiny budget.
        """
        from repro.core.triangles import EdgeSupportSink
        from repro.externalmem.blockio import BlockDevice

        oriented, keys, (cones, vs, ws) = oriented_stream
        whole = EdgeSupportSink(keys, oriented.num_vertices)
        whole.add_triples(cones, vs, ws)
        cut = ws.shape[0] // 2

        # dense.merge(spilled)
        dense = EdgeSupportSink(keys, oriented.num_vertices)
        dense.add_triples(cones[:cut], vs[:cut], ws[:cut])
        spill = self._spill_sink(
            keys, oriented.num_vertices, BlockDevice(tmp_path / "a", block_size=512)
        )
        spill.add_triples(cones[cut:], vs[cut:], ws[cut:])
        dense.merge(spill)
        np.testing.assert_array_equal(dense.supports(), whole.supports())
        assert dense.count == whole.count

        # spilled.merge(dense)
        spill2 = self._spill_sink(
            keys, oriented.num_vertices, BlockDevice(tmp_path / "b", block_size=512)
        )
        spill2.add_triples(cones[cut:], vs[cut:], ws[cut:])
        dense2 = EdgeSupportSink(keys, oriented.num_vertices)
        dense2.add_triples(cones[:cut], vs[:cut], ws[:cut])
        spill2.merge(dense2)
        assert spill2.spilling
        np.testing.assert_array_equal(spill2.supports(), whole.supports())
        assert spill2.count == whole.count

    def test_cross_mode_merge_empty_sides(self, oriented_stream, tmp_path):
        from repro.core.triangles import EdgeSupportSink
        from repro.externalmem.blockio import BlockDevice

        oriented, keys, (cones, vs, ws) = oriented_stream
        whole = EdgeSupportSink(keys, oriented.num_vertices)
        whole.add_triples(cones, vs, ws)

        # empty spilled side folded into a populated dense side, and an
        # empty dense side folded into a populated spilled one
        dense = EdgeSupportSink(keys, oriented.num_vertices)
        dense.add_triples(cones, vs, ws)
        empty_spill = self._spill_sink(
            keys, oriented.num_vertices, BlockDevice(tmp_path / "a", block_size=512)
        )
        dense.merge(empty_spill)
        np.testing.assert_array_equal(dense.supports(), whole.supports())

        spill = self._spill_sink(
            keys, oriented.num_vertices, BlockDevice(tmp_path / "b", block_size=512)
        )
        spill.add_triples(cones, vs, ws)
        spill.merge(EdgeSupportSink(keys, oriented.num_vertices))
        np.testing.assert_array_equal(spill.supports(), whole.supports())

    def test_spill_spill_merge(self, oriented_stream, tmp_path):
        from repro.externalmem.blockio import BlockDevice

        oriented, keys, (cones, vs, ws) = oriented_stream
        cut = ws.shape[0] // 2
        a = self._spill_sink(
            keys, oriented.num_vertices, BlockDevice(tmp_path / "a", block_size=512)
        )
        a.add_triples(cones[:cut], vs[:cut], ws[:cut])
        b = self._spill_sink(
            keys, oriented.num_vertices, BlockDevice(tmp_path / "b", block_size=512)
        )
        b.add_triples(cones[cut:], vs[cut:], ws[cut:])
        a.merge(b)
        from repro.core.triangles import EdgeSupportSink

        whole = EdgeSupportSink(keys, oriented.num_vertices)
        whole.add_triples(cones, vs, ws)
        np.testing.assert_array_equal(a.supports(), whole.supports())

    def test_cross_mode_merge_io_deterministic(self, oriented_stream, tmp_path):
        """Same streams + budget => identical IOStats for the cross merge."""
        from repro.core.triangles import EdgeSupportSink
        from repro.externalmem.blockio import BlockDevice

        oriented, keys, (cones, vs, ws) = oriented_stream
        stats = []
        for run in range(2):
            device = BlockDevice(tmp_path / f"dev{run}", block_size=512)
            spill = self._spill_sink(keys, oriented.num_vertices, device, budget=256)
            spill.add_triples(cones, vs, ws)
            dense = EdgeSupportSink(keys, oriented.num_vertices)
            dense.merge(spill)
            stats.append(device.stats.as_dict())
        assert stats[0] == stats[1]

    def test_merge_edge_count_mismatch_raises(self, oriented_stream):
        from repro.core.triangles import EdgeSupportSink

        oriented, keys, _ = oriented_stream
        a = EdgeSupportSink(keys, oriented.num_vertices)
        b = EdgeSupportSink(keys[:-1], oriented.num_vertices)
        with pytest.raises(ValueError):
            a.merge(b)


class TestEdgeSupportSinkIds:
    """A pair with an id outside ``[0, n)`` is no edge, whatever key it
    packs into, on both kernel tiers."""

    #: oriented edges (0, 1), (0, 4), (1, 2), (1, 3), (2, 3) of a graph on
    #: 5 vertices, with the one triangle (1, 2, 3)
    INDPTR = np.array([0, 2, 4, 5, 5, 5], dtype=np.int64)
    INDICES = np.array([1, 4, 2, 3, 3], dtype=np.int64)

    @pytest.fixture(params=["numpy", "cffi"])
    def tier(self, request):
        from repro.core import kernel_backend

        if request.param == "cffi" and not kernel_backend.compiled_available()[0]:
            pytest.skip(f"no C tier: {kernel_backend.compiled_available()[1]}")
        with kernel_backend.use(request.param):
            yield request.param

    def _sink(self, with_offsets: bool):
        from repro.core import kernels
        from repro.core.triangles import EdgeSupportSink

        keys = kernels.csr_packed_keys(self.INDPTR, self.INDICES)
        offsets = self.INDPTR if with_offsets else None
        return EdgeSupportSink(keys, 5, offsets=offsets)

    @pytest.mark.parametrize("with_offsets", [True, False], ids=["offsets", "derived"])
    @pytest.mark.parametrize(
        "triple",
        [
            (2, 3, -2),  # (2, -2) packs as (1, 3) and (3, -2) as (2, 3)
            (0, 1, 8),  # (0, 8) packs as (1, 3) and (1, 8) as (2, 3)
            (1, 2, 5),  # 5 = n: (1, 5) and (2, 5) pack as no edge
            (5, 1, 2),  # a source id of n has no row
        ],
    )
    def test_ids_outside_the_graph_raise_untouched(self, tier, triple, with_offsets):
        sink = self._sink(with_offsets)
        sink.add_triples(*(np.array([x], dtype=np.int64) for x in (1, 2, 3)))
        before = sink.supports().copy()
        us, vs, ws = (np.array([x], dtype=np.int64) for x in triple)
        with pytest.raises(ValueError, match="not an oriented edge"):
            sink.add_triples(us, vs, ws)
        np.testing.assert_array_equal(sink.supports(), before)
        assert sink.count == 1
        assert before.tolist() == [0, 0, 1, 1, 1]

    def test_factory_hands_the_sink_the_graph_offsets(self):
        from repro.core.orientation import orient_csr
        from repro.core.triangles import _oriented_edge_index
        from repro.graph.csr import CSRGraph
        from repro.graph.generators import rmat

        oriented = orient_csr(CSRGraph.from_edgelist(rmat(6, edge_factor=8, seed=21)))
        keys, offsets = _oriented_edge_index(oriented)
        np.testing.assert_array_equal(offsets, oriented.indptr)
        n = oriented.num_vertices
        derived = np.searchsorted(keys, np.arange(n + 1, dtype=np.int64) * n)
        np.testing.assert_array_equal(derived, offsets)


class TestOrientedEdgeKeyCache:
    """The per-process cache of file-backed oriented edge keys."""

    @pytest.fixture()
    def counted_builds(self, monkeypatch):
        """An empty cache, and a list that grows by one per key build."""
        from repro.core import kernels, triangles

        monkeypatch.setattr(triangles, "_EDGE_KEY_CACHE", {})
        builds = []
        real = kernels.csr_packed_keys

        def counting(*args):
            builds.append(1)
            return real(*args)

        monkeypatch.setattr(kernels, "csr_packed_keys", counting)
        return triangles._EDGE_KEY_CACHE, builds

    def test_repeated_runs_keep_no_deleted_file(self, counted_builds):
        # every run stages its oriented file in a directory its cleanup
        # deletes: a later lookup drops the dead entry before adding its own
        from repro.analytics import run_analytics
        from repro.graph.csr import CSRGraph
        from repro.graph.generators import rmat

        cache, _ = counted_builds
        graph = CSRGraph.from_edgelist(rmat(7, edge_factor=8, seed=3))
        for _ in range(4):
            run_analytics(graph, backend="serial")
        assert len(cache) <= 1

    def test_chunked_run_builds_its_keys_once(self, counted_builds):
        from repro.core.config import PDTLConfig
        from repro.core.pdtl import PDTLRunner
        from repro.graph.csr import CSRGraph
        from repro.graph.generators import rmat

        cache, builds = counted_builds
        graph = CSRGraph.from_edgelist(rmat(8, edge_factor=8, seed=4))
        config = PDTLConfig(
            num_nodes=1, procs_per_node=2, memory_per_proc="16KB",
            scheduling="dynamic",
        )
        result = PDTLRunner(config, backend="serial").run(
            graph, sink_kind="edge-support"
        )
        assert result.num_chunks > 1
        assert len(builds) == 1
        assert len(cache) == 1


class TestEdgeSupportSinkDelta:
    """from_supports re-hydration + signed merge_delta (dynamic-graph path)."""

    @pytest.fixture()
    def sink_state(self):
        from repro.core import kernels
        from repro.core.orientation import orient_csr
        from repro.core.triangles import EdgeSupportSink, oriented_edge_keys
        from repro.graph.csr import CSRGraph
        from repro.graph.generators import rmat

        oriented = orient_csr(CSRGraph.from_edgelist(rmat(6, edge_factor=8, seed=5)))
        keys = oriented_edge_keys(oriented)
        cones, vs, ws, _ = kernels.triangle_range(
            oriented.indptr, oriented.indices, 0, oriented.num_vertices,
            want_triples=True,
        )
        sink = EdgeSupportSink(keys, oriented.num_vertices)
        sink.add_triples(cones, vs, ws)
        return oriented, keys, sink

    def test_from_supports_round_trip(self, sink_state):
        from repro.core.triangles import EdgeSupportSink

        oriented, keys, sink = sink_state
        rehydrated = EdgeSupportSink.from_supports(
            keys, oriented.num_vertices, sink.supports()
        )
        np.testing.assert_array_equal(rehydrated.supports(), sink.supports())
        assert rehydrated.count == sink.count
        # copied, not aliased
        rehydrated.support[0] += 1
        assert rehydrated.support[0] == sink.supports()[0] + 1

    def test_from_supports_rejects_bad_input(self, sink_state):
        from repro.core.triangles import EdgeSupportSink

        oriented, keys, sink = sink_state
        with pytest.raises(ValueError):
            EdgeSupportSink.from_supports(
                keys, oriented.num_vertices, sink.supports()[:-1]
            )
        bad = sink.supports().copy()
        bad[0] = -1
        with pytest.raises(ValueError):
            EdgeSupportSink.from_supports(keys, oriented.num_vertices, bad)

    def test_merge_delta_is_exact_integer_addition(self, sink_state):
        oriented, keys, sink = sink_state
        before = sink.supports().copy()
        positions = np.array([0, 2, 2, 1], dtype=np.int64)
        deltas = np.array([1, -1, 2, 0], dtype=np.int64)
        sink.merge_delta(positions, deltas)
        want = before.copy()
        np.add.at(want, positions, deltas)
        np.testing.assert_array_equal(sink.supports(), want)

    def test_merge_delta_negative_result_rejected_untouched(self, sink_state):
        oriented, keys, sink = sink_state
        before = sink.supports().copy()
        huge = np.int64(before.max() + 1)
        with pytest.raises(ValueError):
            sink.merge_delta(np.array([0]), np.array([-huge]))
        np.testing.assert_array_equal(sink.supports(), before)

    def test_merge_delta_out_of_range_rejected(self, sink_state):
        oriented, keys, sink = sink_state
        with pytest.raises(ValueError):
            sink.merge_delta(np.array([sink.num_edges]), np.array([1]))
        with pytest.raises(ValueError):
            sink.merge_delta(np.array([0, 1]), np.array([1]))

    def test_merge_delta_spill_mode_refused(self, sink_state, tmp_path):
        from repro.core.triangles import EdgeSupportSink
        from repro.externalmem.blockio import BlockDevice

        oriented, keys, _ = sink_state
        device = BlockDevice(tmp_path, block_size=512)
        spill = EdgeSupportSink(
            keys,
            oriented.num_vertices,
            spill_file=device.open("s.run"),
            memory_budget_bytes=64,
        )
        with pytest.raises(ValueError):
            spill.merge_delta(np.array([0]), np.array([1]))


class TestSinkRegistry:
    def test_registered_kinds(self):
        from repro.core.triangles import CHUNK_SINK_KINDS, sink_kinds

        assert set(CHUNK_SINK_KINDS) <= set(sink_kinds())
        assert "file" in sink_kinds()

    def test_normalize_underscore_spelling(self):
        from repro.core.triangles import normalize_sink_kind

        assert normalize_sink_kind("edge_support") == "edge-support"
        assert normalize_sink_kind("per_vertex") == "per-vertex"
        assert normalize_sink_kind("count") == "count"

    def test_make_edge_support_from_graph(self):
        from repro.core.orientation import orient_csr
        from repro.core.triangles import EdgeSupportSink, make_sink
        from repro.graph.csr import CSRGraph
        from repro.graph.generators import complete_graph

        oriented = orient_csr(CSRGraph.from_edgelist(complete_graph(5)))
        sink = make_sink("edge_support", graph=oriented)
        assert isinstance(sink, EdgeSupportSink)
        assert sink.num_edges == oriented.num_edges

    def test_edge_support_without_graph_raises(self):
        with pytest.raises(ValueError):
            make_sink("edge-support")

    def test_per_vertex_accepts_graph_context(self):
        from repro.core.orientation import orient_csr
        from repro.graph.csr import CSRGraph
        from repro.graph.generators import complete_graph

        oriented = orient_csr(CSRGraph.from_edgelist(complete_graph(5)))
        sink = make_sink("per-vertex", graph=oriented)
        assert sink.per_vertex.shape[0] == 5

    def test_custom_registration_dispatches(self):
        from repro.core.triangles import (
            _SINK_FACTORIES,
            CountingSink,
            make_sink,
            register_sink,
        )

        @register_sink("test-custom")
        def _factory(**_context):
            return CountingSink()

        try:
            assert isinstance(make_sink("test_custom"), CountingSink)
        finally:
            del _SINK_FACTORIES["test-custom"]

    def test_unknown_kind_raises_not_falls_through(self):
        with pytest.raises(ValueError):
            make_sink("definitely-not-registered")
