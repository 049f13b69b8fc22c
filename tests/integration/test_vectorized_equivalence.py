"""Golden equivalence of every vectorised hot path against its serial reference.

The baselines' per-vertex loops and the MGT scan path run vectorised;
these tests pin each such path against (a) the frozen golden triangle
counts and (b) the retained scalar implementations
(:mod:`repro.baselines.reference_impl`), so a silent count divergence in
any vectorised kernel fails loudly.  The MGT scan path is also pinned across its two kernel tiers and
between the on-disk graph and its shared-memory view.  The CI perf-smoke
job runs this module alongside the perf microbenchmarks.
"""

from __future__ import annotations

import pytest

from test_golden_counts import GOLDEN

from repro.baselines.cttp import run_cttp
from repro.baselines.inmemory import forward_count, forward_list, per_vertex_triangle_counts
from repro.baselines.opt import run_opt
from repro.baselines.patric import run_patric
from repro.baselines.powergraph import run_powergraph
from repro.baselines.reference_impl import forward_count_scalar
from repro.core import kernel_backend
from repro.core.config import PDTLConfig
from repro.core.mgt import MGTWorker, mgt_count
from repro.core.orientation import orient_csr, orient_graph
from repro.core.shm import SharedGraphView, publish_graph, shm_available
from repro.core.triangles import ListingSink
from repro.externalmem.blockio import BlockDevice
from repro.graph.binfmt import write_graph
from repro.graph.csr import CSRGraph


_COMPILED_OK, _COMPILED_TIER = kernel_backend.compiled_available()
_SHM_OK, _SHM_DETAIL = shm_available()


@pytest.fixture(params=sorted(GOLDEN))
def golden_case(request):
    name = request.param
    thunk, count = GOLDEN[name]
    return name, CSRGraph.from_edgelist(thunk()), count


class TestVectorizedBaselinesMatchGolden:
    def test_forward_count(self, golden_case):
        name, graph, count = golden_case
        assert forward_count(graph) == count, name

    def test_forward_count_matches_scalar_reference(self, golden_case):
        name, graph, count = golden_case
        assert forward_count(graph) == forward_count_scalar(graph), name

    def test_forward_list_size(self, golden_case):
        name, graph, count = golden_case
        assert len(forward_list(graph)) == count, name

    def test_per_vertex_counts_sum(self, golden_case):
        name, graph, count = golden_case
        # every triangle contributes to exactly three vertices
        assert int(per_vertex_triangle_counts(graph).sum()) == 3 * count, name

    def test_opt(self, golden_case):
        name, graph, count = golden_case
        assert run_opt(graph, num_threads=2).triangles == count, name

    def test_patric(self, golden_case):
        name, graph, count = golden_case
        result = run_patric(graph, num_processors=3, memory_per_processor="64MB")
        assert result.triangles == count, name

    def test_cttp(self, golden_case):
        name, graph, count = golden_case
        assert run_cttp(graph, num_reducers=3).triangles == count, name

    def test_powergraph(self, golden_case):
        name, graph, count = golden_case
        result = run_powergraph(graph, num_machines=3, memory_per_machine="64MB")
        assert result.triangles == count, name


class TestMGTScanPathEquivalence:
    """Single-core MGT over the golden graphs: the compiled kernel tier and
    the shared-memory view change no count, no listing order and no I/O
    counter.  Each path orients on its own fresh device, so the whole
    IOStats dicts compare bit for bit."""

    def _oriented(self, root, graph):
        device = BlockDevice(root, block_size=512)
        return orient_graph(write_graph(device, "g", graph)).oriented

    def _config(self) -> PDTLConfig:
        return PDTLConfig(memory_per_proc=4096, block_size=512, modelled_cpu=True)

    def _summary(self, result, device) -> tuple:
        return (
            result.triangles,
            result.iterations,
            result.cpu_operations,
            result.intersections,
            result.cpu_ps,
            result.io_stats.device_ps,
            result.io_stats.as_dict(),
            device.stats.as_dict(),
        )

    @pytest.mark.skipif(not _COMPILED_OK, reason=f"no compiled tier: {_COMPILED_TIER}")
    def test_counts_and_iostats_identical_across_tiers(self, golden_case, tmp_path):
        name, graph, count = golden_case
        outcomes = {}
        for tier in ("numpy", _COMPILED_TIER):
            oriented = self._oriented(tmp_path / tier, graph)
            with kernel_backend.use(tier):
                result = mgt_count(oriented, self._config())
            outcomes[tier] = self._summary(result, oriented.device)
        assert outcomes["numpy"][0] == count, name
        assert outcomes[_COMPILED_TIER] == outcomes["numpy"], name

    @pytest.mark.skipif(not _COMPILED_OK, reason=f"no compiled tier: {_COMPILED_TIER}")
    def test_listing_order_identical_across_tiers(self, golden_case, tmp_path):
        name, graph, count = golden_case
        listings = {}
        for tier in ("numpy", _COMPILED_TIER):
            oriented = self._oriented(tmp_path / tier, graph)
            sink = ListingSink()
            with kernel_backend.use(tier):
                mgt_count(oriented, self._config(), sink)
            listings[tier] = [tuple(t) for t in sink.triangles]
        assert len(listings["numpy"]) == count, name
        assert listings[_COMPILED_TIER] == listings["numpy"], name

    @pytest.mark.skipif(not _SHM_OK, reason=f"POSIX shared memory unavailable: {_SHM_DETAIL}")
    def test_shared_view_matches_disk(self, golden_case, tmp_path):
        name, graph, count = golden_case
        disk_graph = self._oriented(tmp_path / "disk", graph)
        disk = self._summary(mgt_count(disk_graph, self._config()), disk_graph.device)
        device = BlockDevice(tmp_path / "shm", block_size=512)
        orientation = orient_graph(write_graph(device, "g", graph))
        shared_graph = orientation.oriented
        oriented_stats = shared_graph.device.stats.as_dict()
        with publish_graph(orientation.graph) as publication:
            view = SharedGraphView(publication.descriptor, shared_graph.device.model)
            try:
                result = MGTWorker(view, self._config()).run()
            finally:
                view.close()
        shared = self._summary(result, shared_graph.device)
        assert disk[0] == count, name
        assert shared[:7] == disk[:7], name
        # the view charges the worker's own counters, never the device's
        assert shared[7] == oriented_stats, name


def test_baselines_agree_with_each_other():
    """Cross-check the five vectorised baselines on one non-golden graph."""
    from repro.graph.generators import rmat

    graph = CSRGraph.from_edgelist(rmat(8, edge_factor=6, seed=13))
    expected = forward_count_scalar(graph)
    assert forward_count(graph) == expected
    assert run_opt(graph).triangles == expected
    assert run_patric(graph, num_processors=2).triangles == expected
    assert run_cttp(graph).triangles == expected
    assert run_powergraph(graph, num_machines=2).triangles == expected
