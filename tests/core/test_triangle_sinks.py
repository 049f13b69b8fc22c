"""Unit tests for triangle records and sinks."""

from __future__ import annotations

from collections import Counter
from functools import lru_cache

import numpy as np
import pytest

from repro.core.triangles import (
    CHUNK_SINK_KINDS,
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


def _i64(*values: int) -> np.ndarray:
    return np.array(values, dtype=np.int64)


class TestCountingSink:
    def test_add_triples_counts_rows(self):
        sink = CountingSink()
        sink.add_triples(_i64(0), _i64(1), _i64(2))
        sink.add_triples(_i64(0, 0, 0), _i64(1, 1, 1), _i64(3, 4, 5))
        assert sink.count == 4

    def test_empty_batch(self):
        sink = CountingSink()
        empty = np.empty(0, dtype=np.int64)
        sink.add_triples(empty, empty, empty)
        assert sink.count == 0


class TestListingSink:
    def test_collects_triangles(self):
        sink = ListingSink()
        sink.add_triples(_i64(0), _i64(1), _i64(2))
        sink.add_triples(_i64(0, 0), _i64(3, 3), _i64(4, 5))
        assert sink.count == 3
        assert Triangle(0, 3, 4) in sink.triangles
        # reported order is kept: the runner's listing order rests on it
        assert sink.triangles == [Triangle(0, 1, 2), Triangle(0, 3, 4), Triangle(0, 3, 5)]

    def test_vertex_sets(self):
        sink = ListingSink()
        sink.add_triples(_i64(0), _i64(1), _i64(2))
        assert sink.vertex_sets() == {frozenset({0, 1, 2})}


class TestFileSink:
    def test_write_and_read_back(self, device):
        sink = FileSink(device.open("triangles.bin"), buffer_triangles=2)
        sink.add_triples(_i64(0), _i64(1), _i64(2))
        sink.add_triples(_i64(3, 3, 3), _i64(4, 4, 4), _i64(5, 6, 7))
        triangles = sink.read_all()
        assert sink.count == 4
        assert Triangle(0, 1, 2) in triangles
        assert Triangle(3, 4, 7) in triangles

    def test_buffering_flushes_automatically(self, device):
        file = device.open("triangles.bin")
        sink = FileSink(file, buffer_triangles=1)
        sink.add_triples(_i64(0), _i64(1), _i64(2))
        sink.add_triples(_i64(1), _i64(2), _i64(3))
        # with a 1-triangle buffer both reports must already be on disk
        assert file.num_items() >= 3

    def test_output_charged_to_device(self, device):
        device.stats.reset()
        sink = FileSink(device.open("triangles.bin"), buffer_triangles=1)
        for i in range(10):
            sink.add_triples(_i64(i), _i64(i + 1), _i64(i + 2))
        sink.flush()
        assert device.stats.bytes_written >= 10 * 24

    def test_empty_batch_noop(self, device):
        sink = FileSink(device.open("t.bin"))
        empty = np.empty(0, dtype=np.int64)
        sink.add_triples(empty, empty, empty)
        assert sink.count == 0
        assert sink.read_all() == []


class TestPerVertexCountSink:
    def test_single_triangle(self):
        sink = PerVertexCountSink(5)
        sink.add_triples(_i64(0), _i64(1), _i64(2))
        assert sink.per_vertex.tolist() == [1, 1, 1, 0, 0]

    def test_batch(self):
        sink = PerVertexCountSink(6)
        sink.add_triples(_i64(0, 0), _i64(1, 1), _i64(2, 3))
        assert sink.per_vertex.tolist() == [2, 2, 1, 1, 0, 0]
        assert sink.count == 2

    def test_repeated_ids_in_batch(self):
        # a vertex repeated within one column counts once per row
        sink = PerVertexCountSink(4)
        sink.add_triples(_i64(0, 0), _i64(1, 1), _i64(2, 2))
        assert sink.per_vertex.tolist() == [2, 2, 2, 0]

    def test_enumerated_stream_matches_per_triangle_count(self):
        oriented, (cones, vs, ws), _, _ = _support_case("rmat")
        sink = PerVertexCountSink(oriented.num_vertices)
        sink.add_triples(cones, vs, ws)
        want = Counter(x for row in zip(cones.tolist(), vs.tolist(), ws.tolist()) for x in row)
        assert sink.per_vertex.tolist() == [want[x] for x in range(oriented.num_vertices)]
        assert sink.count == ws.shape[0]


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

    def test_file_kind_is_not_built(self):
        # a FileSink binds a host-local file: its callers build it directly
        with pytest.raises(ValueError, match="unknown sink kind"):
            make_sink("file")

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            make_sink("bogus")

    @pytest.mark.parametrize("kind", CHUNK_SINK_KINDS)
    def test_every_chunk_kind_builds_a_fresh_sink(self, kind):
        from repro.core.orientation import orient_csr
        from repro.core.triangles import EdgeSupportSink
        from repro.graph.csr import CSRGraph
        from repro.graph.generators import complete_graph

        oriented = orient_csr(CSRGraph.from_edgelist(complete_graph(5)))
        want = {
            "count": CountingSink,
            "list": ListingSink,
            "per-vertex": PerVertexCountSink,
            "edge-support": EdgeSupportSink,
        }[kind]
        sinks = [make_sink(kind, graph=oriented) for _ in range(2)]
        assert all(type(sink) is want for sink in sinks)
        assert sinks[0] is not sinks[1]
        assert all(sink.count == 0 for sink in sinks)
        # only the hyphenated names are kinds
        if "-" in kind:
            with pytest.raises(ValueError, match="unknown sink kind"):
                make_sink(kind.replace("-", "_"), graph=oriented)


class TestFileSinkBlockAlignedCharge:
    """Buffered FileSink flushes must charge exactly the ideal T/B output I/O."""

    def test_charge_equals_ideal_block_count(self, device):
        # device block size is 512; the sink rounds its buffer to whole blocks
        device.stats.reset()
        sink = FileSink(device.open("triangles.bin"), buffer_triangles=100)
        n = 10_000
        ws = np.arange(2, 2 + n, dtype=np.int64)
        sink.add_triples(np.zeros(n, dtype=np.int64), np.ones(n, dtype=np.int64), ws)
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
            sink.add_triples(_i64(i), _i64(i + 1), _i64(i + 2))
            total += 1
        sink.flush()
        assert sink.count == total
        assert device.stats.bytes_written == total * 24
        assert device.stats.blocks_written == ceil_div(total * 24, device.block_size)

    @pytest.mark.parametrize(
        "block_size, buffer_triangles",
        [(512, 64), (512, 100), (512, 1000), (512, 4096),
         (4096, 512), (4096, 600), (4096, 1000), (4096, 4096)],
    )
    def test_charge_is_ideal_for_every_whole_quantum_buffer(
        self, tmp_path, block_size, buffer_triangles
    ):
        # a buffer of at least lcm(B, 24) / 24 triangles (64 at B = 512,
        # 512 at B = 4096) is rounded up to whole blocks, so ragged batches
        # still charge exactly the ideal output blocks
        from repro.externalmem.blockio import BlockDevice

        device = BlockDevice(tmp_path, block_size=block_size)
        sink = FileSink(device.open("triangles.bin"), buffer_triangles=buffer_triangles)
        rng = np.random.default_rng(block_size + buffer_triangles)
        total = 0
        while total < 7_000:
            k = int(rng.integers(0, 300))
            sink.add_triples(*(rng.integers(0, 1_000, k) for _ in range(3)))
            total += k
        sink.flush()
        assert sink.count == total
        assert device.stats.bytes_written == total * 24
        assert device.stats.blocks_written == ceil_div(total * 24, block_size)

    def test_buffer_below_one_quantum_is_honoured(self, device):
        # 3 triangles is below the 64-triangle quantum at B = 512: the sink
        # keeps the small buffer and flushes every third report
        file = device.open("triangles.bin")
        sink = FileSink(file, buffer_triangles=3)
        for i in range(7):
            sink.add_triples(_i64(i), _i64(i + 1), _i64(i + 2))
        assert file.num_items() == 6 * 3
        assert device.stats.write_calls == 2
        assert len(sink.read_all()) == 7

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
    """Dense and spilling accumulation of credited per-edge supports."""

    @pytest.fixture()
    def oriented_stream(self):
        """An oriented CSR graph and the adjacency positions of every
        triangle's three edges."""
        oriented, _, positions, _ = _support_case("rmat")
        return oriented, positions

    def test_dense_support_sums_to_three_triangles(self, oriented_stream):
        from repro.core.triangles import EdgeSupportSink

        oriented, positions = oriented_stream
        sink = EdgeSupportSink(oriented.num_edges)
        sink.credit(positions)
        assert not sink.spilling
        assert sink.count == positions.shape[0]
        assert int(sink.supports().sum()) == 3 * sink.count

    def test_spill_requires_file(self, oriented_stream):
        from repro.core.triangles import EdgeSupportSink

        oriented, _ = oriented_stream
        with pytest.raises(ValueError):
            EdgeSupportSink(oriented.num_edges, memory_budget_bytes=8)

    def test_spill_matches_dense(self, oriented_stream, tmp_path):
        from repro.core.triangles import EdgeSupportSink
        from repro.externalmem.blockio import BlockDevice

        oriented, positions = oriented_stream
        dense = EdgeSupportSink(oriented.num_edges)
        dense.credit(positions)
        device = BlockDevice(tmp_path, block_size=512)
        spill = EdgeSupportSink(
            oriented.num_edges,
            spill_file=device.open("spill.run"),
            memory_budget_bytes=256,  # far below the dense array: many runs
        )
        assert spill.spilling
        step = 23  # ragged batches so runs straddle triangle boundaries
        for lo in range(0, positions.shape[0], step):
            spill.credit(positions[lo : lo + step])
        np.testing.assert_array_equal(spill.supports(), dense.supports())
        assert spill.count == dense.count

    @pytest.mark.parametrize("budget", [8, 64, 256, 1024])
    @pytest.mark.parametrize("buffer_items", [1, 3, 64, 8192])
    def test_spill_equals_dense_for_every_budget_and_buffer(
        self, oriented_stream, tmp_path, budget, buffer_items
    ):
        from repro.core.triangles import EdgeSupportSink
        from repro.externalmem.blockio import BlockDevice

        oriented, positions = oriented_stream
        dense = EdgeSupportSink(oriented.num_edges)
        dense.credit(positions)
        spill = EdgeSupportSink(
            oriented.num_edges,
            spill_file=BlockDevice(tmp_path, block_size=512).open("spill.run"),
            memory_budget_bytes=budget,
        )
        assert spill.spilling
        spill.credit(positions)
        got = np.zeros(spill.num_edges, dtype=np.int64)
        last = -1
        for pos, counts in spill.iter_position_counts(buffer_items=buffer_items):
            assert int(pos[0]) > last and np.all(np.diff(pos) > 0)
            last = int(pos[-1])
            got[pos] = counts
        np.testing.assert_array_equal(got, dense.supports())
        # one run per filled buffer of max(budget / 8, 16) positions
        records = positions.size
        assert spill.spilled_positions == records
        assert spill.spill_run_count == ceil_div(records, max(budget // 8, 16))

    def test_dense_iteration_yields_each_nonzero_position_once(self, oriented_stream):
        from repro.core.triangles import EdgeSupportSink

        oriented, positions = oriented_stream
        sink = EdgeSupportSink(oriented.num_edges)
        sink.credit(positions)
        (pos, counts), = list(sink.iter_position_counts())
        np.testing.assert_array_equal(pos, np.flatnonzero(sink.supports()))
        np.testing.assert_array_equal(counts, sink.supports()[pos])

    @pytest.mark.parametrize("spill", [False, True], ids=["dense", "spill"])
    def test_a_sink_without_triangles_yields_nothing(
        self, oriented_stream, tmp_path, spill
    ):
        from repro.core.triangles import EdgeSupportSink
        from repro.externalmem.blockio import BlockDevice

        oriented, _ = oriented_stream
        sink = EdgeSupportSink(
            oriented.num_edges,
            spill_file=BlockDevice(tmp_path, block_size=512).open("s.run"),
            memory_budget_bytes=64 if spill else None,
        )
        assert sink.spilling is spill
        assert list(sink.iter_position_counts()) == []
        assert not sink.supports().any()
        assert sink.spill_run_count == 0

    def test_spill_iter_positions_strictly_increasing(
        self, oriented_stream, tmp_path
    ):
        from repro.core.triangles import EdgeSupportSink
        from repro.externalmem.blockio import BlockDevice

        oriented, positions = oriented_stream
        device = BlockDevice(tmp_path, block_size=512)
        spill = EdgeSupportSink(
            oriented.num_edges,
            spill_file=device.open("spill.run"),
            memory_budget_bytes=128,
        )
        spill.credit(positions)
        merged_parts = []
        total = 0
        for pos, cnt in spill.iter_position_counts(buffer_items=13):
            merged_parts.append(pos)
            total += int(cnt.sum())
        merged = np.concatenate(merged_parts)
        assert np.all(np.diff(merged) > 0)  # unique and sorted across batches
        assert total == positions.size

    def test_spill_io_is_deterministic(self, oriented_stream, tmp_path):
        """Identical streams + budget => identical spill IOStats."""
        from repro.core.triangles import EdgeSupportSink
        from repro.externalmem.blockio import BlockDevice

        oriented, positions = oriented_stream
        stats = []
        for run in range(2):
            device = BlockDevice(tmp_path / f"dev{run}", block_size=512)
            sink = EdgeSupportSink(
                oriented.num_edges,
                spill_file=device.open("spill.run"),
                memory_budget_bytes=256,
            )
            sink.credit(positions)
            sink.supports()
            stats.append(device.stats.as_dict())
        assert stats[0] == stats[1]


@lru_cache(maxsize=None)
def _support_case(graph_name: str):
    """An oriented graph, its triangle stream, the adjacency positions of
    each triangle's edges (looked up in a dictionary of the adjacency), and
    the supports those positions add up to."""
    from repro.core import kernels
    from repro.core.orientation import orient_csr
    from repro.graph.csr import CSRGraph
    from repro.graph.generators import complete_graph, power_law_degree_graph, rmat

    edges = {
        "rmat": lambda: rmat(6, edge_factor=8, seed=21),
        "power-law": lambda: power_law_degree_graph(
            150, exponent=2.1, min_degree=2, max_degree=40, seed=4
        ),
        "complete": lambda: complete_graph(7),
    }[graph_name]()
    oriented = orient_csr(CSRGraph.from_edgelist(edges))
    cones, vs, ws, _ = kernels.NUMPY_IMPLS["triangle_range"](
        oriented.indptr, oriented.indices, 0, oriented.num_vertices, kernels.EMIT_TRIPLES
    )
    position = {
        (u, v): p
        for p, (u, v) in enumerate(
            zip(oriented.edge_sources().tolist(), oriented.indices.tolist())
        )
    }
    positions = np.array(
        [
            [position[u, v], position[u, w], position[v, w]]
            for u, v, w in zip(cones.tolist(), vs.tolist(), ws.tolist())
        ],
        dtype=np.int64,
    ).reshape(-1, 3)
    want = np.bincount(positions.reshape(-1), minlength=oriented.num_edges)
    return oriented, (cones, vs, ws), positions, want


class TestEdgeSupportSinkCredit:
    """``credit`` adds the supports of the positions it is handed, however
    the stream is split into batches."""

    @pytest.mark.parametrize("graph_name", ["rmat", "power-law", "complete"])
    @pytest.mark.parametrize("step", [None, 17], ids=["one-batch", "ragged"])
    def test_supports_match_per_triangle_lookup(self, graph_name, step):
        from repro.core.triangles import EdgeSupportSink

        oriented, _, positions, want = _support_case(graph_name)
        assert positions.shape[0] > 0
        sink = EdgeSupportSink(oriented.num_edges)
        step = step or positions.shape[0]
        for lo in range(0, positions.shape[0], step):
            sink.credit(positions[lo : lo + step])
        np.testing.assert_array_equal(sink.supports(), want)
        assert sink.count == positions.shape[0]

    @pytest.mark.parametrize("spill", [False, True], ids=["dense", "spill"])
    def test_empty_batch_records_nothing(self, tmp_path, spill):
        from repro.core.triangles import EdgeSupportSink
        from repro.externalmem.blockio import BlockDevice

        oriented, _, _, _ = _support_case("complete")
        sink = EdgeSupportSink(
            oriented.num_edges,
            spill_file=BlockDevice(tmp_path, block_size=512).open("s.run"),
            memory_budget_bytes=8 if spill else None,
        )
        sink.credit(np.empty((0, 3), dtype=np.int64))
        assert sink.count == 0
        assert sink.spilled_positions == 0
        assert not sink.supports().any()


class TestEdgeSupportSinkPositions:
    """A position outside ``[0, num_edges)`` is no edge: the batch raises
    with the sink untouched, dense or spilling."""

    @pytest.mark.parametrize("spill", [False, True], ids=["dense", "spill"])
    @pytest.mark.parametrize(
        "row",
        [(-1, 0, 1), (0, -1, 1), (0, 1, 10), (10, 0, 1), (0, 2**62, 1)],
        ids=["negative-first", "negative-second", "m-third", "m-first", "huge"],
    )
    def test_positions_outside_the_edges_raise_untouched(self, tmp_path, spill, row):
        from repro.core.triangles import EdgeSupportSink
        from repro.externalmem.blockio import BlockDevice

        sink = EdgeSupportSink(
            10,
            spill_file=BlockDevice(tmp_path, block_size=512).open("s.run"),
            memory_budget_bytes=64 if spill else None,
        )
        sink.credit(np.array([[2, 3, 4]], dtype=np.int64))
        before = sink.supports().copy()
        batch = np.array([[5, 6, 7], row], dtype=np.int64)
        with pytest.raises(ValueError, match="not an oriented edge"):
            sink.credit(batch)
        np.testing.assert_array_equal(sink.supports(), before)
        assert sink.count == 1
        assert before.tolist() == [0, 0, 1, 1, 1, 0, 0, 0, 0, 0]


class TestEdgeSupportSinkFactory:
    """The factory sizes the sink from the oriented graph and reads none
    of its adjacency, on disk or in memory."""

    @pytest.mark.parametrize("graph_name", ["rmat", "complete", "edgeless"])
    def test_file_backed_graph_is_not_read(self, tmp_path, graph_name):
        from repro.core.triangles import EdgeSupportSink
        from repro.externalmem.blockio import BlockDevice
        from repro.graph.binfmt import write_graph
        from repro.graph.csr import CSRGraph

        if graph_name == "edgeless":
            oriented = CSRGraph(np.zeros(5, dtype=np.int64), np.empty(0, dtype=np.int64), True)
        else:
            oriented = _support_case(graph_name)[0]
        device = BlockDevice(tmp_path, block_size=512)
        graph_file = write_graph(device, "oriented", oriented)
        before = device.stats.as_dict()
        sink = make_sink("edge-support", graph=graph_file)
        assert isinstance(sink, EdgeSupportSink)
        assert sink.num_edges == oriented.num_edges
        assert not sink.supports().any()
        assert device.stats.as_dict() == before  # no read was charged


class TestEdgeSupportSinkDelta:
    """from_supports re-hydration + signed merge_delta (dynamic-graph path)."""

    @pytest.fixture()
    def sink_state(self):
        from repro.core.triangles import EdgeSupportSink

        oriented, _, positions, _ = _support_case("power-law")
        sink = EdgeSupportSink(oriented.num_edges)
        sink.credit(positions)
        return oriented, sink

    def test_from_supports_round_trip(self, sink_state):
        from repro.core.triangles import EdgeSupportSink

        oriented, sink = sink_state
        rehydrated = EdgeSupportSink.from_supports(sink.supports())
        np.testing.assert_array_equal(rehydrated.supports(), sink.supports())
        assert rehydrated.count == sink.count
        assert rehydrated.num_edges == oriented.num_edges
        # copied, not aliased
        rehydrated.support[0] += 1
        assert rehydrated.support[0] == sink.supports()[0] + 1

    def test_from_supports_rejects_negative_supports(self, sink_state):
        from repro.core.triangles import EdgeSupportSink

        _, sink = sink_state
        bad = sink.supports().copy()
        bad[-1] = -1
        with pytest.raises(ValueError, match="non-negative"):
            EdgeSupportSink.from_supports(bad)

    def test_merge_delta_is_exact_integer_addition(self, sink_state):
        _, sink = sink_state
        before = sink.supports().copy()
        positions = np.array([0, 2, 2, 1], dtype=np.int64)
        deltas = np.array([1, -1, 2, 0], dtype=np.int64)
        sink.merge_delta(positions, deltas)
        want = before.copy()
        np.add.at(want, positions, deltas)
        np.testing.assert_array_equal(sink.supports(), want)

    def test_merge_delta_updates_the_touched_positions_in_place(self, sink_state):
        _, sink = sink_state
        array = sink.support
        before = array.copy()
        positions = np.array([7, 3, 7, 3, 5], dtype=np.int64)
        deltas = np.array([2, 1, -1, 4, 0], dtype=np.int64)
        sink.merge_delta(positions, deltas)
        assert sink.support is array
        want = before.copy()
        want[3] += 5
        want[7] += 1
        np.testing.assert_array_equal(array, want)

    def test_merge_delta_takes_each_position_net(self, sink_state):
        # the first delta alone would drive support 0 below zero; the net
        # change of the position does not
        _, sink = sink_state
        before = sink.supports().copy()
        low = np.int64(before[0] + 1)
        sink.merge_delta(np.array([0, 0]), np.array([-low, 1]))
        assert sink.supports()[0] == 0
        np.testing.assert_array_equal(sink.supports()[1:], before[1:])

    def test_merge_delta_negative_result_rejected_untouched(self, sink_state):
        _, sink = sink_state
        before = sink.supports().copy()
        huge = np.int64(before.max() + 1)
        with pytest.raises(ValueError):
            sink.merge_delta(np.array([1, 0, 1]), np.array([1, -huge, 1]))
        np.testing.assert_array_equal(sink.supports(), before)

    def test_merge_delta_out_of_range_rejected(self, sink_state):
        _, sink = sink_state
        before = sink.supports().copy()
        with pytest.raises(ValueError):
            sink.merge_delta(np.array([sink.num_edges]), np.array([1]))
        with pytest.raises(ValueError):
            sink.merge_delta(np.array([0, -1]), np.array([1, 1]))
        with pytest.raises(ValueError):
            sink.merge_delta(np.array([0, 1]), np.array([1]))
        np.testing.assert_array_equal(sink.supports(), before)

    def test_merge_delta_spill_mode_refused(self, sink_state, tmp_path):
        from repro.core.triangles import EdgeSupportSink
        from repro.externalmem.blockio import BlockDevice

        oriented, _ = sink_state
        device = BlockDevice(tmp_path, block_size=512)
        spill = EdgeSupportSink(
            oriented.num_edges,
            spill_file=device.open("s.run"),
            memory_budget_bytes=64,
        )
        with pytest.raises(ValueError):
            spill.merge_delta(np.array([0]), np.array([1]))


class TestSinkKinds:
    def test_make_edge_support_from_graph(self):
        from repro.core.orientation import orient_csr
        from repro.core.triangles import EdgeSupportSink, make_sink
        from repro.graph.csr import CSRGraph
        from repro.graph.generators import complete_graph

        oriented = orient_csr(CSRGraph.from_edgelist(complete_graph(5)))
        sink = make_sink("edge-support", graph=oriented)
        assert isinstance(sink, EdgeSupportSink)
        assert sink.num_edges == oriented.num_edges

    def test_edge_support_without_graph_raises(self):
        with pytest.raises(ValueError):
            make_sink("edge-support")

    @pytest.mark.parametrize("budget, spilling", [(None, False), (8, True), (1 << 20, False)])
    def test_edge_support_takes_the_spill_context(self, tmp_path, budget, spilling):
        from repro.core.orientation import orient_csr
        from repro.externalmem.blockio import BlockDevice
        from repro.graph.csr import CSRGraph
        from repro.graph.generators import complete_graph

        oriented = orient_csr(CSRGraph.from_edgelist(complete_graph(8)))
        sink = make_sink(
            "edge-support",
            graph=oriented,
            spill_file=BlockDevice(tmp_path, block_size=512).open("s.run"),
            memory_budget_bytes=budget,
        )
        assert sink.spilling is spilling
        assert sink.num_edges == oriented.num_edges

    def test_per_vertex_accepts_graph_context(self):
        from repro.core.orientation import orient_csr
        from repro.graph.csr import CSRGraph
        from repro.graph.generators import complete_graph

        oriented = orient_csr(CSRGraph.from_edgelist(complete_graph(5)))
        sink = make_sink("per-vertex", graph=oriented)
        assert sink.per_vertex.shape[0] == 5

    def test_unknown_kind_raises_not_falls_through(self):
        with pytest.raises(ValueError):
            make_sink("definitely-not-registered")
