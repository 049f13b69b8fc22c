"""Integration tests for the one-call analytics pipeline."""

from __future__ import annotations

import numpy as np
import pytest

from repro import PDTLConfig, PDTLRunner, run_analytics
from repro.analytics import canonical_edges, undirected_edge_supports
from repro.baselines.inmemory import forward_count
from repro.graph.csr import CSRGraph
from repro.graph.generators import rmat
from repro.graph.properties import clustering_coefficient, transitivity


@pytest.fixture(scope="module")
def graph() -> CSRGraph:
    return CSRGraph.from_edgelist(rmat(7, edge_factor=8, seed=13))


@pytest.fixture(scope="module")
def result(graph):
    return run_analytics(
        graph,
        num_nodes=2,
        procs_per_node=2,
        memory_per_proc="64KB",
        scheduling="dynamic",
        modelled_cpu=True,
    )


class TestDerivations:
    def test_triangles_match_reference(self, graph, result):
        assert result.triangles == forward_count(graph)
        assert int(result.edge_supports.sum()) == 3 * result.triangles

    def test_edges_are_canonical(self, graph, result):
        np.testing.assert_array_equal(result.edges, canonical_edges(graph))

    def test_supports_match_direct_kernel(self, graph, result):
        np.testing.assert_array_equal(
            result.edge_supports, undirected_edge_supports(graph, result.edges)
        )

    def test_per_vertex_matches_separate_pdtl_run(self, graph, result):
        separate = PDTLRunner(PDTLConfig(), backend="serial").run(
            graph, sink_kind="per-vertex"
        )
        np.testing.assert_array_equal(
            result.per_vertex_counts, separate.per_vertex_counts
        )

    def test_clustering_and_transitivity(self, graph, result):
        np.testing.assert_allclose(
            result.clustering,
            clustering_coefficient(graph, result.per_vertex_counts),
        )
        assert result.transitivity == transitivity(graph, result.triangles)

    def test_truss_starts_from_pipeline_supports(self, result):
        np.testing.assert_array_equal(result.truss.support, result.edge_supports)
        assert result.max_truss_k == result.truss.max_k
        assert np.all(result.truss.trussness <= result.edge_supports + 2)


class TestDriver:
    def test_backends_agree(self, graph, result):
        pooled = run_analytics(
            graph,
            backend="processes",
            num_nodes=2,
            procs_per_node=2,
            memory_per_proc="64KB",
            scheduling="dynamic",
            modelled_cpu=True,
        )
        np.testing.assert_array_equal(
            pooled.edge_supports, result.edge_supports
        )
        np.testing.assert_array_equal(
            pooled.truss.trussness, result.truss.trussness
        )
        assert pooled.pdtl.calc_seconds == result.pdtl.calc_seconds

    def test_spilling_workers_match_dense_workers(self, graph, result):
        """With a tiny memory budget every chunk task's support sink spills
        sorted runs to scratch and merges them externally; the merged
        supports must equal the dense-path run bit for bit."""
        m = result.num_edges
        tiny = run_analytics(
            graph,
            num_nodes=2,
            procs_per_node=2,
            memory_per_proc=4096,  # dense support array is m*8 > 4096
            block_size=512,
            scheduling="dynamic",
            modelled_cpu=True,
        )
        assert m * 8 > 4096  # the budget really forces the spill path
        np.testing.assert_array_equal(tiny.edge_supports, result.edge_supports)
        np.testing.assert_array_equal(tiny.truss.trussness, result.truss.trussness)

    def test_accepts_on_disk_graph(self, graph, result, tmp_path):
        from repro.externalmem.blockio import BlockDevice
        from repro.graph.binfmt import write_graph

        device = BlockDevice(tmp_path, block_size=4096)
        on_disk = write_graph(device, "input", graph)
        disk_result = run_analytics(on_disk)
        np.testing.assert_array_equal(
            disk_result.edge_supports, result.edge_supports
        )

    def test_rejects_directed_graph(self, graph):
        from repro.core.orientation import orient_csr

        with pytest.raises(ValueError):
            run_analytics(orient_csr(graph))

    def test_config_and_overrides_are_exclusive(self, graph):
        with pytest.raises(ValueError):
            run_analytics(graph, config=PDTLConfig(), num_nodes=2)

    def test_report_renders_tables(self, result):
        text = result.report()
        assert "Triangle analytics" in text
        assert "k-truss decomposition" in text
        assert str(result.triangles) in text

    def test_summary_rows_metrics(self, result):
        rows = {row["metric"]: row["value"] for row in result.summary_rows()}
        assert rows["triangles"] == result.triangles
        assert rows["max truss k"] == result.max_truss_k


def _doctor(monkeypatch, change):
    """Make run_analytics's PDTL run hand back a changed result."""
    import repro.analytics.pipeline as pipeline

    honest = pipeline.edge_supports

    def doctored(*args, **kwargs):
        result = honest(*args, **kwargs)
        change(result)
        return result

    monkeypatch.setattr(pipeline, "edge_supports", doctored)


def _tier(tier):
    from repro.core import kernel_backend

    if tier == "cffi" and not kernel_backend.compiled_available()[0]:
        pytest.skip(f"no C tier: {kernel_backend.compiled_available()[1]}")
    return kernel_backend.use(tier)


class TestEngineOrientationChecks:
    """The truss walks the run's own orientation only after checking it
    entry for entry against the input graph, and cross-checks the run's
    supports against its own enumeration, on both kernel tiers."""

    @staticmethod
    def _reverse(result):
        # an oriented edge pointing down the degree order
        result.oriented_edges[5] = result.oriented_edges[5, ::-1].copy()

    @staticmethod
    def _drop(result):
        result.oriented_edges = np.delete(result.oriented_edges, 7, axis=0)
        result.edge_supports = np.delete(result.edge_supports, 7)

    @staticmethod
    def _duplicate(result):
        result.oriented_edges = np.insert(
            result.oriented_edges, 3, result.oriented_edges[3], axis=0
        )
        result.edge_supports = np.insert(result.edge_supports, 3, result.edge_supports[3])

    @pytest.mark.parametrize("tier", ["numpy", "cffi"])
    @pytest.mark.parametrize("fault", ["_reverse", "_drop", "_duplicate"])
    def test_a_doctored_orientation_raises(self, graph, monkeypatch, tier, fault):
        _doctor(monkeypatch, getattr(self, fault))
        with _tier(tier), pytest.raises(ValueError, match="going up the degree order"):
            run_analytics(graph, modelled_cpu=True)

    @pytest.mark.parametrize("tier", ["numpy", "cffi"])
    def test_doctored_supports_raise_the_cross_check(self, graph, monkeypatch, tier):
        def bump(result):
            result.edge_supports[11] += 1

        _doctor(monkeypatch, bump)
        with _tier(tier), pytest.raises(ValueError, match="disagree"):
            run_analytics(graph, modelled_cpu=True)

    @pytest.mark.parametrize("tier", ["numpy", "cffi"])
    def test_the_honest_run_passes_both_checks(self, graph, result, tier):
        with _tier(tier):
            honest = run_analytics(graph, modelled_cpu=True)
        np.testing.assert_array_equal(honest.truss.trussness, result.truss.trussness)
