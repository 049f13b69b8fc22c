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


@pytest.fixture(params=["numpy", "cffi"])
def tier(request):
    """Run a test under each kernel tier; the C tier's sink takes the fused
    accumulate, the numpy tier's the batched position search."""
    from repro.core import kernel_backend

    if request.param == "cffi" and not kernel_backend.compiled_available()[0]:
        pytest.skip(f"no C tier: {kernel_backend.compiled_available()[1]}")
    with kernel_backend.use(request.param):
        fused = kernel_backend.fused("edge_support_accumulate")
        assert (fused is not None) == (request.param == "cffi")
        yield request.param


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
        oriented, _, (cones, vs, ws), _ = _support_case("rmat")
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
        # the underscore spelling builds the same kind
        assert type(make_sink(kind.replace("-", "_"), graph=oriented)) is want


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

    def test_non_edge_triangle_raises(self, oriented_stream):
        from repro.core.triangles import EdgeSupportSink

        oriented, keys, _ = oriented_stream
        sink = EdgeSupportSink(keys, oriented.num_vertices)
        n = oriented.num_vertices
        with pytest.raises(ValueError):
            sink.add_triples(_i64(0), _i64(n - 1), _i64(n - 2))

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

    @pytest.mark.parametrize("budget", [8, 64, 256, 1024])
    @pytest.mark.parametrize("buffer_items", [1, 3, 64, 8192])
    def test_spill_equals_dense_for_every_budget_and_buffer(
        self, oriented_stream, tmp_path, budget, buffer_items
    ):
        from repro.core.triangles import EdgeSupportSink
        from repro.externalmem.blockio import BlockDevice

        oriented, keys, (cones, vs, ws) = oriented_stream
        dense = EdgeSupportSink(keys, oriented.num_vertices)
        dense.add_triples(cones, vs, ws)
        spill = EdgeSupportSink(
            keys,
            oriented.num_vertices,
            spill_file=BlockDevice(tmp_path, block_size=512).open("spill.run"),
            memory_budget_bytes=budget,
        )
        assert spill.spilling
        spill.add_triples(cones, vs, ws)
        got = np.zeros(spill.num_edges, dtype=np.int64)
        last = -1
        for positions, counts in spill.iter_position_counts(buffer_items=buffer_items):
            assert int(positions[0]) > last and np.all(np.diff(positions) > 0)
            last = int(positions[-1])
            got[positions] = counts
        np.testing.assert_array_equal(got, dense.supports())
        # one run per filled buffer of max(budget / 8, 16) positions
        records = 3 * ws.shape[0]
        assert spill.spilled_positions == records
        assert spill.spill_run_count == ceil_div(records, max(budget // 8, 16))

    def test_dense_iteration_yields_each_nonzero_position_once(self, oriented_stream):
        from repro.core.triangles import EdgeSupportSink

        oriented, keys, (cones, vs, ws) = oriented_stream
        sink = EdgeSupportSink(keys, oriented.num_vertices)
        sink.add_triples(cones, vs, ws)
        (positions, counts), = list(sink.iter_position_counts())
        np.testing.assert_array_equal(positions, np.flatnonzero(sink.supports()))
        np.testing.assert_array_equal(counts, sink.supports()[positions])

    @pytest.mark.parametrize("spill", [False, True], ids=["dense", "spill"])
    def test_a_sink_without_triangles_yields_nothing(
        self, oriented_stream, tmp_path, spill
    ):
        from repro.core.triangles import EdgeSupportSink
        from repro.externalmem.blockio import BlockDevice

        oriented, keys, _ = oriented_stream
        sink = EdgeSupportSink(
            keys,
            oriented.num_vertices,
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

@lru_cache(maxsize=None)
def _support_case(graph_name: str):
    """An oriented graph, its edge keys, its triangle stream, and the
    supports a per-triangle dictionary lookup of the three edges gives."""
    from repro.core import kernels
    from repro.core.orientation import orient_csr
    from repro.core.triangles import oriented_edge_keys
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
    keys = oriented_edge_keys(oriented)
    cones, vs, ws, _ = kernels.NUMPY_IMPLS["triangle_range"](
        oriented.indptr, oriented.indices, 0, oriented.num_vertices, True
    )
    n = oriented.num_vertices
    position = {key: p for p, key in enumerate(keys.tolist())}
    want = np.zeros(keys.shape[0], dtype=np.int64)
    for u, v, w in zip(cones.tolist(), vs.tolist(), ws.tolist()):
        for a, b in ((u, v), (u, w), (v, w)):
            want[position[a * n + b]] += 1
    return oriented, keys, (cones, vs, ws), want


class TestEdgeSupportSinkTiers:
    """Dense ``add_triples`` on both kernel tiers -- the C tier's fused
    accumulate and the numpy tier's batched position search -- records the
    supports of a per-triangle lookup, whether the sink is handed the
    graph's offsets or derives them from the keys."""

    @pytest.mark.parametrize("graph_name", ["rmat", "power-law", "complete"])
    @pytest.mark.parametrize("step", [None, 17], ids=["one-batch", "ragged"])
    @pytest.mark.parametrize("with_offsets", [True, False], ids=["offsets", "derived"])
    def test_supports_match_per_triangle_lookup(
        self, tier, graph_name, step, with_offsets
    ):
        from repro.core.triangles import EdgeSupportSink

        oriented, keys, (cones, vs, ws), want = _support_case(graph_name)
        assert ws.shape[0] > 0
        sink = EdgeSupportSink(
            keys,
            oriented.num_vertices,
            offsets=oriented.indptr if with_offsets else None,
        )
        step = step or ws.shape[0]
        for lo in range(0, ws.shape[0], step):
            sink.add_triples(cones[lo : lo + step], vs[lo : lo + step], ws[lo : lo + step])
        np.testing.assert_array_equal(sink.supports(), want)
        assert sink.count == ws.shape[0]

    @pytest.mark.parametrize("spill", [False, True], ids=["dense", "spill"])
    def test_empty_batch_records_nothing(self, tier, tmp_path, spill):
        from repro.core.triangles import EdgeSupportSink
        from repro.externalmem.blockio import BlockDevice

        oriented, keys, _, _ = _support_case("complete")
        sink = EdgeSupportSink(
            keys,
            oriented.num_vertices,
            spill_file=BlockDevice(tmp_path, block_size=512).open("s.run"),
            memory_budget_bytes=8 if spill else None,
        )
        empty = np.empty(0, dtype=np.int64)
        sink.add_triples(empty, empty, empty)
        assert sink.count == 0
        assert sink.spilled_positions == 0
        assert not sink.supports().any()


class TestOrientedEdgeKeys:
    """File-backed oriented edge keys are read from the adjacency file on
    every call and match the in-memory graph's."""

    @pytest.mark.parametrize("graph_name", ["rmat", "complete", "edgeless"])
    def test_file_backed_keys_match_the_in_memory_graph(self, tmp_path, graph_name):
        from repro.core import kernels
        from repro.core.triangles import EdgeSupportSink, _oriented_edge_index, oriented_edge_keys
        from repro.externalmem.blockio import BlockDevice
        from repro.graph.binfmt import write_graph
        from repro.graph.csr import CSRGraph

        if graph_name == "edgeless":
            oriented = CSRGraph(np.zeros(5, dtype=np.int64), np.empty(0, dtype=np.int64), True)
        else:
            oriented = _support_case(graph_name)[0]
        graph_file = write_graph(BlockDevice(tmp_path, block_size=512), "oriented", oriented)
        keys, offsets = _oriented_edge_index(graph_file)
        np.testing.assert_array_equal(
            keys, kernels.csr_packed_keys(oriented.indptr, oriented.indices)
        )
        np.testing.assert_array_equal(offsets, oriented.indptr)
        np.testing.assert_array_equal(oriented_edge_keys(graph_file), keys)
        sink = make_sink("edge-support", graph=graph_file)
        assert isinstance(sink, EdgeSupportSink)
        assert sink.num_edges == oriented.num_edges


class TestEdgeSupportSinkIds:
    """A pair with an id outside ``[0, n)`` is no edge, whatever key it
    packs into, on both kernel tiers."""

    #: oriented edges (0, 1), (0, 4), (1, 2), (1, 3), (2, 3) of a graph on
    #: 5 vertices, with the one triangle (1, 2, 3)
    INDPTR = np.array([0, 2, 4, 5, 5, 5], dtype=np.int64)
    INDICES = np.array([1, 4, 2, 3, 3], dtype=np.int64)

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


class TestSinkKinds:
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
        assert sink._offsets is oriented.indptr

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
