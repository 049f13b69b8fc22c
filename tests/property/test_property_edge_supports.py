"""Property tests: the edge supports the MGT scans credit by position.

Both scans hand the edge-support sink each triangle's three edges as the
adjacency positions they read them at (``EMIT_POSITIONS``).  This suite
pins what the sink ends up holding:

* against :func:`~repro.analytics.truss.undirected_edge_supports`, an
  independent intersection count, and against each other, over the run
  matrix: both kernel tiers, the serial and processes backends, shm on and
  off, dense and spilling sinks, and one, several and window-sized chunks
  (with shm off and dynamic chunks, every chunk task builds its sink over
  the on-disk graph);
* each scan's crediting mode on the C tier against its numpy twin: the
  same batches in the same order, on random graphs cut into many windows
  and scan blocks, and the same positions a lookup of the listed triangles
  gives;
* ``truss_decomposition`` given a run's orientation and its supports
  against the standalone call: the run's orientation passes the entry for
  entry check, its supports land in canonical order, and the result is
  the same, triangle table row for row.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import PDTLConfig, PDTLRunner
from repro.analytics.truss import (
    canonical_edges,
    truss_decomposition,
    undirected_edge_supports,
)
from repro.core import kernel_backend
from repro.core.mgt import MGTWorker
from repro.core.orientation import orient_csr
from repro.core.shm import SharedGraphView, publish_graph, shm_available
from repro.core.triangles import EdgeSupportSink, ListingSink
from repro.externalmem.blockio import BlockDevice, DiskModel
from repro.graph.binfmt import write_graph
from repro.graph.csr import CSRGraph
from repro.graph.edgelist import EdgeList
from repro.graph.generators import power_law_degree_graph, rmat

_COMPILED, _COMPILED_REASON = kernel_backend.compiled_available()
_SHM, _SHM_REASON = shm_available()

TIERS = pytest.mark.parametrize(
    "tier",
    [
        "numpy",
        pytest.param(
            "cffi",
            marks=pytest.mark.skipif(not _COMPILED, reason=f"no C tier: {_COMPILED_REASON}"),
        ),
    ],
)

SETTINGS = dict(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)

#: (name, config overrides): one range, four static ranges that do not fall
#: on window borders, and one chunk per memory window
CHUNKINGS = {
    "one-range": {},
    "static-2x2": {"num_nodes": 2, "procs_per_node": 2},
    "window-chunks": {"procs_per_node": 2, "scheduling": "dynamic", "chunk_edges": 1},
}
#: per-processor memory under which the dense support array fits, and one
#: far below it, under which every chunk task's sink spills
BUDGETS = {"dense": "16KB", "spill": 4096}


@lru_cache(maxsize=None)
def _graph(name: str) -> CSRGraph:
    edges = {
        "rmat": lambda: rmat(8, edge_factor=6, seed=17),
        "power-law": lambda: power_law_degree_graph(
            400, exponent=2.2, min_degree=2, max_degree=40, seed=9
        ),
    }[name]()
    return CSRGraph.from_edgelist(edges)


@lru_cache(maxsize=None)
def _reference(name: str) -> np.ndarray:
    graph = _graph(name)
    return undirected_edge_supports(graph, canonical_edges(graph))


def _canonical(result) -> np.ndarray:
    """A run's supports, from adjacency order into canonical edge order."""
    oriented = result.oriented_edges
    low = np.minimum(oriented[:, 0], oriented[:, 1])
    high = np.maximum(oriented[:, 0], oriented[:, 1])
    return result.edge_supports[np.lexsort((high, low))]


_RUNS: dict[tuple, np.ndarray] = {}


@pytest.mark.parametrize("graph_name", ["rmat", "power-law"])
@pytest.mark.parametrize("chunking", sorted(CHUNKINGS))
@pytest.mark.parametrize("sink", sorted(BUDGETS))
@pytest.mark.parametrize("shm", [False, True], ids=["disk", "shm"])
@pytest.mark.parametrize("backend", ["serial", "processes"])
@TIERS
def test_credited_supports_match_the_intersection_count(
    tier, backend, shm, sink, chunking, graph_name
):
    if shm and not _SHM:
        pytest.skip(f"no shared memory: {_SHM_REASON}")
    graph = _graph(graph_name)
    config = PDTLConfig(
        memory_per_proc=BUDGETS[sink],
        block_size=512,
        modelled_cpu=True,
        shm=shm,
        **CHUNKINGS[chunking],
    )
    if sink == "spill":
        assert graph.num_undirected_edges * 8 > config.memory_per_proc
    else:
        assert graph.num_undirected_edges * 8 <= config.memory_per_proc
    with kernel_backend.use(tier):
        result = PDTLRunner(config, backend=backend).run(graph, sink_kind="edge-support")
    if chunking != "one-range":
        assert result.num_chunks > 1
    assert result.shm_used is shm
    supports = _canonical(result)
    np.testing.assert_array_equal(supports, _reference(graph_name))
    assert int(result.edge_supports.sum()) == 3 * result.triangles
    # and every run of the matrix credits the same array, position for position
    reference_run = _RUNS.setdefault((graph_name,), result.edge_supports)
    np.testing.assert_array_equal(result.edge_supports, reference_run)


# -- each scan's crediting mode against its numpy twin ------------------------


class _RecordingSink(EdgeSupportSink):
    """An edge-support sink that keeps every credited batch as handed in."""

    __slots__ = ("batches",)

    def __init__(self, num_edges: int) -> None:
        super().__init__(num_edges)
        self.batches: list[np.ndarray] = []

    def credit(self, positions: np.ndarray) -> None:
        self.batches.append(np.array(positions, dtype=np.int64))
        super().credit(positions)


@st.composite
def oriented_graphs(draw):
    """A random oriented graph, dense enough for triangles."""
    n = draw(st.integers(min_value=3, max_value=40))
    m = draw(st.integers(min_value=0, max_value=min(200, n * (n - 1) // 2)))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    if m == 0:
        return orient_csr(CSRGraph.empty(n))
    rng = np.random.default_rng(seed)
    iu, iv = np.triu_indices(n, k=1)
    chosen = rng.choice(iu.shape[0], size=m, replace=False)
    edges = np.stack([iu[chosen], iv[chosen]], axis=1)
    return orient_csr(CSRGraph.from_edgelist(EdgeList(edges, n)))


def _lookup_positions(oriented: CSRGraph, triples) -> np.ndarray:
    """The adjacency positions of each listed triangle's three edges."""
    position = {
        (u, v): p
        for p, (u, v) in enumerate(
            zip(oriented.edge_sources().tolist(), oriented.indices.tolist())
        )
    }
    return np.array(
        [[position[u, v], position[u, w], position[v, w]] for u, v, w in triples],
        dtype=np.int64,
    ).reshape(-1, 3)


#: 51-edge memory windows, each within the 4 KB budget however many of the
#: graph's 40 vertices it spans
WINDOWED = PDTLConfig(
    memory_per_proc=4096, memory_fill_fraction=0.1, block_size=256, modelled_cpu=True
)


def _scan(graph, oriented: CSRGraph, tier: str, start: int, stop: int, config=WINDOWED):
    """The credited batches and the listed triangles of one worker range."""
    with kernel_backend.use(tier):
        credited = _RecordingSink(oriented.num_edges)
        MGTWorker(graph, config, range_start=start, range_stop=stop).run(credited)
        listed = ListingSink()
        MGTWorker(graph, config, range_start=start, range_stop=stop).run(listed)
    return credited, [tuple(t) for t in listed.triangles]


def _ranges(m: int, data) -> list[tuple[int, int]]:
    cut = data.draw(st.integers(min_value=0, max_value=m))
    return [(0, m), (0, cut), (cut, m)]


@pytest.mark.skipif(not _COMPILED, reason=f"no C tier: {_COMPILED_REASON}")
@given(oriented=oriented_graphs(), data=st.data())
@settings(**SETTINGS)
def test_streaming_scan_credits_like_its_numpy_twin(tmp_path_factory, oriented, data):
    """The compiled block scan and the numpy chain credit the same batches
    in the same order; the positions are the listed triangles' edges, in
    listing order."""
    device = BlockDevice(tmp_path_factory.mktemp("disk"), block_size=256)
    graph = write_graph(device, "oriented", oriented)
    for start, stop in _ranges(oriented.num_edges, data):
        compiled, listed = _scan(graph, oriented, "cffi", start, stop)
        twin, twin_listed = _scan(graph, oriented, "numpy", start, stop)
        assert listed == twin_listed
        assert len(compiled.batches) == len(twin.batches)
        for got, want in zip(compiled.batches, twin.batches):
            np.testing.assert_array_equal(got, want)
        stream = (
            np.concatenate(compiled.batches) if compiled.batches
            else np.empty((0, 3), dtype=np.int64)
        )
        np.testing.assert_array_equal(stream, _lookup_positions(oriented, listed))
        np.testing.assert_array_equal(compiled.supports(), twin.supports())


@pytest.mark.skipif(not _COMPILED, reason=f"no C tier: {_COMPILED_REASON}")
def test_streaming_scan_credits_across_scan_blocks(tmp_path):
    """A graph of 3,000 vertices: three scan blocks of 1,024 cone vertices
    per window, so the block scan credits positions past its first block."""
    oriented = orient_csr(
        CSRGraph.from_edgelist(
            power_law_degree_graph(3000, exponent=2.2, min_degree=3, max_degree=60, seed=5)
        )
    )
    config = PDTLConfig(memory_per_proc="64KB", memory_fill_fraction=0.25, modelled_cpu=True)
    assert oriented.num_edges > config.window_edges
    graph = write_graph(BlockDevice(tmp_path, block_size=4096), "oriented", oriented)
    m = oriented.num_edges
    for start, stop in [(0, m), (m // 3, m)]:
        compiled, listed = _scan(graph, oriented, "cffi", start, stop, config)
        twin, twin_listed = _scan(graph, oriented, "numpy", start, stop, config)
        assert listed == twin_listed and listed
        assert len(compiled.batches) == len(twin.batches) > 3
        for got, want in zip(compiled.batches, twin.batches):
            np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(
            np.concatenate(compiled.batches), _lookup_positions(oriented, listed)
        )


@pytest.mark.skipif(not _COMPILED, reason=f"no C tier: {_COMPILED_REASON}")
@pytest.mark.skipif(not _SHM, reason=f"no shared memory: {_SHM_REASON}")
@given(oriented=oriented_graphs(), data=st.data())
@settings(**SETTINGS)
def test_shared_scan_credits_like_its_numpy_twin(oriented, data):
    """The compiled chunk scan and its numpy twin credit one identical
    batch per range, in the walk's v-major order; its rows are the listed
    triangles' edges."""
    with publish_graph(oriented) as publication:
        view = SharedGraphView(publication.descriptor, DiskModel())
        try:
            for start, stop in _ranges(oriented.num_edges, data):
                compiled, listed = _scan(view, oriented, "cffi", start, stop)
                twin, twin_listed = _scan(view, oriented, "numpy", start, stop)
                assert listed == twin_listed
                assert len(compiled.batches) == len(twin.batches) <= 1
                for got, want in zip(compiled.batches, twin.batches):
                    np.testing.assert_array_equal(got, want)
                rows = (
                    compiled.batches[0] if compiled.batches
                    else np.empty((0, 3), dtype=np.int64)
                )
                want_rows = _lookup_positions(oriented, listed)
                np.testing.assert_array_equal(
                    rows[np.lexsort(rows.T[::-1])], want_rows[np.lexsort(want_rows.T[::-1])]
                )
        finally:
            view.close()


# -- the truss on a run's own orientation -------------------------------------


@TIERS
@pytest.mark.parametrize("graph_name", ["rmat", "power-law"])
def test_truss_on_the_run_orientation_matches_the_standalone_truss(tier, graph_name):
    graph = _graph(graph_name)
    with kernel_backend.use(tier):
        result = PDTLRunner(PDTLConfig(modelled_cpu=True)).run(graph, sink_kind="edge-support")
        walked = truss_decomposition(
            graph,
            supports=result.edge_supports,
            keep_triangles=True,
            oriented_edges=result.oriented_edges,
        )
        standalone = truss_decomposition(graph, keep_triangles=True)
    np.testing.assert_array_equal(walked.edges, standalone.edges)
    np.testing.assert_array_equal(walked.support, standalone.support)
    np.testing.assert_array_equal(walked.trussness, standalone.trussness)
    np.testing.assert_array_equal(walked.tri_edges, standalone.tri_edges)
    assert walked.rounds == standalone.rounds
