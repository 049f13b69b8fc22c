"""GraphDelta: batch mutations with incremental truss maintenance.

Every test here holds the delta path to the oracle discipline: the
incrementally-maintained :class:`TrussResult` must equal a from-scratch
``truss_decomposition`` of the mutated graph exactly -- trussness,
supports, canonical edges and vertex universe -- on every backend and
kernel tier, with and without tracing, and under failure/straggler/jitter
injection (which may only perturb the engine's schedule, never the
analytics).
"""

import hashlib

import numpy as np
import pytest

from repro.analytics import GraphDelta, run_analytics, truss_decomposition
from repro.analytics.truss import canonical_edges
from repro.core import kernel_backend
from repro.core.shm import shm_available
from repro.core.triangles import EdgeSupportSink
from repro.graph.csr import CSRGraph
from repro.graph.edgelist import EdgeList
from repro.graph.generators import (
    complete_graph,
    power_law_degree_graph,
    ring_graph,
    rmat,
)

BACKENDS = (
    ("serial", "serial", False),
    ("processes", "processes", False),
    ("processes+shm", "processes", True),
)

_SHM_OK, _SHM_REASON = shm_available()
_COMPILED_OK, _COMPILED_TIER = kernel_backend.compiled_available()


@pytest.fixture(scope="module")
def graph() -> CSRGraph:
    return CSRGraph.from_edgelist(rmat(7, edge_factor=8, seed=13))


@pytest.fixture(scope="module")
def base(graph):
    return truss_decomposition(graph, keep_triangles=True)


def _oracle_check(applied):
    """Pin the applied result to the from-scratch decomposition."""
    oracle = truss_decomposition(applied.graph)
    assert applied.graph.num_vertices == oracle.num_vertices
    assert np.array_equal(applied.truss.edges, oracle.edges)
    assert np.array_equal(applied.truss.support, oracle.support)
    assert np.array_equal(applied.truss.trussness, oracle.trussness)
    return oracle


def _some_edges(graph, count, seed):
    edges = canonical_edges(graph)
    rng = np.random.default_rng(seed)
    return edges[rng.choice(edges.shape[0], size=count, replace=False)]


def _wedge_closing_edges(graph, count, rng):
    """``count`` absent edges ``(u, v)`` that close a wedge ``u - w - v``."""
    indptr, indices = graph.indptr, graph.indices
    picked = set()
    while len(picked) < count:
        u = int(rng.integers(graph.num_vertices))
        if indptr[u + 1] == indptr[u]:
            continue
        w = int(indices[rng.integers(indptr[u], indptr[u + 1])])
        v = int(indices[rng.integers(indptr[w], indptr[w + 1])])
        if u != v and not graph.has_edge(u, v):
            picked.add((min(u, v), max(u, v)))
    return np.array(sorted(picked), dtype=np.int64).reshape(-1, 2)


def _absent_edges(graph, count, seed):
    n = graph.num_vertices
    present = set(map(tuple, canonical_edges(graph).tolist()))
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        u, v = sorted(rng.integers(0, n, size=2).tolist())
        if u != v and (u, v) not in present:
            present.add((u, v))
            out.append((u, v))
    return np.array(out, dtype=np.int64)


# -- API semantics ---------------------------------------------------------


class TestGraphDeltaAPI:
    def test_chainable_and_counted(self):
        delta = GraphDelta().insert_edges([(0, 1)]).delete_edges([(2, 3), (4, 5)])
        assert delta.num_insertions == 1
        assert delta.num_deletions == 2

    def test_constructor_batches(self):
        delta = GraphDelta(insertions=[(0, 1)], deletions=[(1, 2)])
        assert delta.num_insertions == 1
        assert delta.num_deletions == 1

    def test_reusable(self, graph, base):
        delta = GraphDelta(deletions=_some_edges(graph, 4, seed=0))
        first = delta.apply(graph, prev=base, verify=True)
        second = delta.apply(graph, prev=base, verify=True)
        assert np.array_equal(first.truss.trussness, second.truss.trussness)
        assert np.array_equal(first.deleted, second.deleted)

    def test_directed_graph_rejected(self):
        directed = CSRGraph.from_edgelist(
            EdgeList(np.array([[0, 1]], dtype=np.int64), 2), directed=True
        )
        with pytest.raises(ValueError, match="undirected"):
            GraphDelta(insertions=[(0, 1)]).apply(directed)

    def test_self_loop_rejected(self, graph):
        with pytest.raises(ValueError, match="self-loop"):
            GraphDelta(insertions=[(3, 3)]).apply(graph)

    def test_out_of_range_rejected(self, graph):
        n = graph.num_vertices
        with pytest.raises(ValueError, match="vertex universe"):
            GraphDelta(deletions=[(0, n)]).apply(graph)

    def test_prev_universe_mismatch_rejected(self, graph, base):
        other = CSRGraph.from_edgelist(ring_graph(graph.num_vertices + 1))
        with pytest.raises(ValueError, match="vertex universe"):
            GraphDelta(insertions=[(0, 2)]).apply(other, prev=base)

    def test_supports_length_mismatch_rejected(self, graph, base):
        bad = np.zeros(base.support.shape[0] + 1, dtype=np.int64)
        with pytest.raises(ValueError, match="supports"):
            GraphDelta(insertions=[(0, 2)]).apply(graph, prev=base, supports=bad)

    def test_spilled_sink_rejected(self, graph, base, tmp_path):
        from repro.core import kernels
        from repro.externalmem.blockio import BlockDevice

        device = BlockDevice(tmp_path, block_size=512)
        keys = kernels.packed_keys(
            base.edges[:, 0], base.edges[:, 1], graph.num_vertices
        )
        sink = EdgeSupportSink(
            keys,
            graph.num_vertices,
            spill_file=device.open("s.run"),
            memory_budget_bytes=64,
        )
        assert sink.spilling
        with pytest.raises(ValueError, match="dense"):
            GraphDelta(deletions=[(0, 1)]).apply(graph, prev=base, supports=sink)


# -- oracle equality -------------------------------------------------------


class TestDeltaOracle:
    def test_mixed_batch(self, graph, base):
        delta = GraphDelta(
            insertions=_absent_edges(graph, 6, seed=1),
            deletions=_some_edges(graph, 6, seed=2),
        )
        applied = delta.apply(graph, prev=base, verify=True)
        oracle = _oracle_check(applied)
        assert applied.truss.max_k == oracle.max_k

    def test_noop_batch_replays_nothing(self, graph, base):
        absent = _absent_edges(graph, 3, seed=3)
        delta = GraphDelta(deletions=absent, insertions=canonical_edges(graph)[:3])
        applied = delta.apply(graph, prev=base, verify=True)
        assert applied.inserted.shape == (0, 2)
        assert applied.deleted.shape == (0, 2)
        assert applied.touched_edges == 0
        assert applied.replayed_levels == 0
        assert np.array_equal(applied.truss.trussness, base.trussness)

    def test_insert_and_delete_same_edge_survives(self, graph, base):
        absent = _absent_edges(graph, 1, seed=4)
        delta = GraphDelta(insertions=absent, deletions=absent)
        applied = delta.apply(graph, prev=base, verify=True)
        assert np.array_equal(applied.inserted, absent)
        assert applied.deleted.shape == (0, 2)

    def test_self_inverse_round_trip(self, graph, base):
        edges = _some_edges(graph, 8, seed=5)
        removed = GraphDelta(deletions=edges).apply(graph, prev=base, verify=True)
        restored = GraphDelta(insertions=edges).apply(
            removed.graph, prev=removed.truss, supports=removed.sink, verify=True
        )
        assert np.array_equal(restored.truss.edges, base.edges)
        assert np.array_equal(restored.truss.trussness, base.trussness)
        assert np.array_equal(restored.truss.support, base.support)

    def test_delete_all_edges(self, base):
        small = CSRGraph.from_edgelist(complete_graph(6))
        prev = truss_decomposition(small, keep_triangles=True)
        applied = GraphDelta(deletions=canonical_edges(small)).apply(
            small, prev=prev, verify=True
        )
        assert applied.graph.num_vertices == 6
        assert applied.truss.edges.shape == (0, 2)
        assert applied.truss.max_k == 0

    def test_insert_into_empty_graph(self):
        empty = CSRGraph.from_edgelist(EdgeList(np.empty((0, 2), dtype=np.int64), 5))
        prev = truss_decomposition(empty, keep_triangles=True)
        applied = GraphDelta(insertions=canonical_edges(
            CSRGraph.from_edgelist(complete_graph(5))
        )).apply(empty, prev=prev, verify=True)
        assert applied.graph.num_vertices == 5
        assert applied.truss.max_k == 5 - 2 + 2  # K5 is a 5-truss
        _oracle_check(applied)

    def test_without_prev_is_cold_but_correct(self, graph):
        delta = GraphDelta(deletions=_some_edges(graph, 5, seed=6))
        applied = delta.apply(graph, verify=True)
        _oracle_check(applied)

    def test_without_retained_triangles_slow_path(self, graph):
        prev = truss_decomposition(graph)  # no tri_edges retained
        assert prev.tri_edges is None
        delta = GraphDelta(deletions=_some_edges(graph, 5, seed=7))
        applied = delta.apply(graph, prev=prev, verify=True)
        _oracle_check(applied)

    def test_chained_batches(self, graph, base):
        state_graph, state_truss, state_sink = graph, base, None
        for seed in range(3):
            delta = GraphDelta(
                insertions=_absent_edges(state_graph, 4, seed=10 + seed),
                deletions=_some_edges(state_graph, 4, seed=20 + seed),
            )
            applied = delta.apply(
                state_graph, prev=state_truss, supports=state_sink, verify=True
            )
            state_graph, state_truss, state_sink = (
                applied.graph,
                applied.truss,
                applied.sink,
            )
        _oracle_check(applied)

    def test_seeded_chain_is_pinned(self):
        # twelve chained 8-edge batches (deletions, wedge-closing
        # insertions, both): touched edges, replayed levels, rounds and
        # the row order of the triangle table (as a digest) are part of
        # the result, so every batch's values are pinned
        graph = CSRGraph.from_edgelist(
            power_law_degree_graph(
                300, exponent=2.1, min_degree=3, max_degree=60, seed=5
            )
        )
        truss = truss_decomposition(graph, keep_triangles=True)
        rng = np.random.default_rng(2024)
        pinned = [
            (37, 0, 2, "fa05c37d48db7632"),
            (8, 3, 9, "f8a3818fff1ff67e"),
            (18, 3, 9, "f7d553531c47d119"),
            (24, 0, 2, "a9798d0c2291f420"),
            (8, 3, 9, "caa23c8be8980005"),
            (12, 3, 9, "74d72e71aba91d7d"),
            (31, 0, 1, "98c559f77a49a2d3"),
            (8, 3, 10, "ba050af547641ec8"),
            (20, 3, 10, "1585121bc71b5146"),
            (36, 0, 3, "b70689aaa90ab2c5"),
            (8, 3, 10, "1f07a301f3fdfc70"),
            (16, 2, 6, "890e0e60b308f1b3"),
        ]
        for step, want in enumerate(pinned):
            deletes = (8, 0, 4)[step % 3]
            deletions = truss.edges[
                rng.choice(truss.num_edges, deletes, replace=False)
            ]
            insertions = _wedge_closing_edges(graph, 8 - deletes, rng)
            applied = GraphDelta(insertions=insertions, deletions=deletions).apply(
                graph, prev=truss
            )
            rows = applied.truss.tri_edges.astype("<i8").tobytes()
            got = (
                applied.touched_edges,
                applied.replayed_levels,
                applied.truss.rounds,
                hashlib.sha256(rows).hexdigest()[:16],
            )
            assert got == want, f"batch {step}"
            graph, truss = applied.graph, applied.truss
        _oracle_check(applied)

    def test_truncated_replay_skips_high_levels(self, base):
        # a deep core (K12) with a pendant triangle: deleting only pendant
        # edges must not replay the core's high peel levels
        core = canonical_edges(CSRGraph.from_edgelist(complete_graph(12)))
        pendant = np.array([[0, 12], [1, 12], [12, 13]], dtype=np.int64)
        graph = CSRGraph.from_edgelist(
            EdgeList(np.concatenate([core, pendant]), 14)
        )
        prev = truss_decomposition(graph, keep_triangles=True)
        applied = GraphDelta(deletions=[(12, 13)]).apply(
            graph, prev=prev, verify=True
        )
        _oracle_check(applied)
        # full peel reaches k = 12; the pendant edges live at low levels
        assert prev.max_k == 12
        assert applied.replayed_levels < 12 - 2

    def test_cold_replay_runs_the_whole_level_loop(self, graph):
        # without a previous decomposition nothing takes over: the replay
        # scans every level the from-scratch decomposition scans
        from repro.analytics.truss import _peel

        applied = GraphDelta(insertions=_absent_edges(graph, 4, seed=33)).apply(
            graph, verify=True
        )
        oracle = truss_decomposition(applied.graph, keep_triangles=True)
        _, _, rounds, levels = _peel(oracle.tri_edges, oracle.support)
        assert applied.truss.rounds == oracle.rounds == rounds
        assert applied.replayed_levels == levels > 0


# -- kernel tiers ----------------------------------------------------------


class TestDeltaKernelTiers:
    def test_numpy_tier_matches_active(self, graph, base):
        delta = GraphDelta(
            insertions=_absent_edges(graph, 5, seed=8),
            deletions=_some_edges(graph, 5, seed=9),
        )
        active = delta.apply(graph, prev=base, verify=True)
        with kernel_backend.use("numpy"):
            numpy_tier = delta.apply(graph, prev=base, verify=True)
        assert np.array_equal(active.truss.trussness, numpy_tier.truss.trussness)
        assert np.array_equal(active.truss.support, numpy_tier.truss.support)
        assert active.replayed_levels == numpy_tier.replayed_levels

    @pytest.mark.skipif(not _COMPILED_OK, reason="no compiled kernel tier")
    @pytest.mark.parametrize("kind", ["insert", "delete", "mixed"])
    def test_compiled_tier_matches_numpy(self, graph, base, kind):
        insertions = _absent_edges(graph, 5, seed=8) if kind != "delete" else None
        deletions = _some_edges(graph, 5, seed=9) if kind != "insert" else None
        delta = GraphDelta(insertions=insertions, deletions=deletions)
        with kernel_backend.use(_COMPILED_TIER):
            compiled = delta.apply(graph, prev=base, verify=True)
        with kernel_backend.use("numpy"):
            numpy_tier = delta.apply(graph, prev=base, verify=True)
        assert np.array_equal(compiled.truss.edges, numpy_tier.truss.edges)
        assert np.array_equal(compiled.truss.trussness, numpy_tier.truss.trussness)
        assert np.array_equal(compiled.truss.support, numpy_tier.truss.support)
        assert compiled.truss.rounds == numpy_tier.truss.rounds
        assert compiled.replayed_levels == numpy_tier.replayed_levels
        assert compiled.touched_edges == numpy_tier.touched_edges


# -- telemetry -------------------------------------------------------------


class TestDeltaTelemetry:
    def test_trace_is_purely_observational(self, graph, base):
        from repro.obs.export import RunTelemetry

        delta = GraphDelta(
            insertions=_absent_edges(graph, 4, seed=11),
            deletions=_some_edges(graph, 4, seed=12),
        )
        telemetry = RunTelemetry(
            backend="serial", scheduling="static", num_workers=1, procs_per_node=1
        )
        traced = delta.apply(graph, prev=base, telemetry=telemetry, verify=True)
        untraced = delta.apply(graph, prev=base, verify=True)
        assert np.array_equal(traced.truss.trussness, untraced.truss.trussness)
        assert np.array_equal(traced.truss.support, untraced.truss.support)
        assert traced.touched_edges == untraced.touched_edges
        assert traced.replayed_levels == untraced.replayed_levels

        names = [event.name for event in telemetry.events]
        assert names == ["delta_normalise", "delta_support_merge", "delta_replay"]
        assert telemetry.counters["delta.batches"] == 1
        assert telemetry.counters["delta.touched_edges"] == traced.touched_edges
        assert telemetry.counters["delta.replayed_levels"] == traced.replayed_levels

    def test_fixpoint_batch_replays_no_levels(self):
        # deleting one edge of K8 demotes every edge from 8 to 7 through
        # the deletion fixpoint: its rounds are the decomposition's rounds,
        # and no peel level is replayed
        from repro.obs.export import RunTelemetry

        graph = CSRGraph.from_edgelist(complete_graph(8))
        prev = truss_decomposition(graph, keep_triangles=True)
        telemetry = RunTelemetry(
            backend="serial", scheduling="static", num_workers=1, procs_per_node=1
        )
        applied = GraphDelta(deletions=[(0, 1)]).apply(
            graph, prev=prev, telemetry=telemetry, verify=True
        )
        assert (prev.max_k, applied.truss.max_k) == (8, 7)
        assert applied.truss.rounds > 0
        assert applied.replayed_levels == 0
        assert telemetry.counters["delta.replayed_levels"] == 0
        (span,) = [e for e in telemetry.events if e.name == "delta_replay"]
        assert span.args_dict["replayed_levels"] == 0

    def test_counters_accumulate_across_batches(self, graph, base):
        from repro.obs.export import RunTelemetry

        telemetry = RunTelemetry(
            backend="serial", scheduling="static", num_workers=1, procs_per_node=1
        )
        delta = GraphDelta(deletions=_some_edges(graph, 3, seed=13))
        first = delta.apply(graph, prev=base, telemetry=telemetry)
        second = GraphDelta(insertions=first.deleted).apply(
            first.graph, prev=first.truss, supports=first.sink, telemetry=telemetry
        )
        assert telemetry.counters["delta.batches"] == 2
        assert telemetry.counters["delta.touched_edges"] == (
            first.touched_edges + second.touched_edges
        )


# -- pipeline integration --------------------------------------------------


class TestPipelineDeltas:
    @pytest.mark.parametrize(
        "label,backend,shm",
        BACKENDS,
        ids=[label for label, _, _ in BACKENDS],
    )
    def test_backend_equivalence_vs_fresh_run(self, graph, label, backend, shm):
        if shm and not _SHM_OK:
            pytest.skip(_SHM_REASON)
        delta = GraphDelta(
            insertions=_absent_edges(graph, 6, seed=14),
            deletions=_some_edges(graph, 6, seed=15),
        )
        result = run_analytics(
            graph,
            backend=backend,
            num_nodes=2,
            procs_per_node=2,
            memory_per_proc="64KB",
            scheduling="dynamic",
            modelled_cpu=True,
            shm=shm,
            deltas=delta,
        )
        assert result.deltas_applied == 1
        mutated = delta.apply(graph).graph
        fresh = run_analytics(
            mutated,
            num_nodes=2,
            procs_per_node=2,
            memory_per_proc="64KB",
            modelled_cpu=True,
        )
        assert result.triangles == fresh.triangles
        assert np.array_equal(result.edges, fresh.edges)
        assert np.array_equal(result.edge_supports, fresh.edge_supports)
        assert np.array_equal(result.truss.trussness, fresh.truss.trussness)
        assert np.array_equal(result.per_vertex_counts, fresh.per_vertex_counts)
        assert result.transitivity == fresh.transitivity
        assert np.array_equal(result.clustering, fresh.clustering)

    def test_injection_does_not_perturb_deltas(self, graph):
        delta = GraphDelta(deletions=_some_edges(graph, 5, seed=16))
        clean = run_analytics(
            graph,
            backend="serial",
            num_nodes=2,
            procs_per_node=2,
            memory_per_proc="64KB",
            scheduling="dynamic",
            modelled_cpu=True,
            deltas=delta,
        )
        injected = run_analytics(
            graph,
            backend="processes",
            num_nodes=2,
            procs_per_node=2,
            memory_per_proc="64KB",
            scheduling="dynamic",
            modelled_cpu=True,
            failure_spec={0: 1, 2: 0},
            host_jitter_seconds=0.01,
            deltas=delta,
        )
        assert clean.triangles == injected.triangles
        assert np.array_equal(clean.truss.trussness, injected.truss.trussness)
        assert np.array_equal(clean.edge_supports, injected.edge_supports)

    def test_delta_sequence_and_traced_report(self, graph):
        first = GraphDelta(deletions=_some_edges(graph, 4, seed=17))
        second = GraphDelta(insertions=_absent_edges(graph, 4, seed=18))
        result = run_analytics(
            graph,
            num_nodes=2,
            procs_per_node=2,
            memory_per_proc="64KB",
            modelled_cpu=True,
            trace=True,
            deltas=[first, second],
        )
        assert result.deltas_applied == 2
        telemetry = result.pdtl.telemetry
        assert telemetry is not None
        assert telemetry.counters["delta.batches"] == 2
        assert any(event.cat == "delta" for event in telemetry.events)
        report = result.report()
        assert "delta.batches" in report

        untraced = run_analytics(
            graph,
            num_nodes=2,
            procs_per_node=2,
            memory_per_proc="64KB",
            modelled_cpu=True,
            deltas=[first, second],
        )
        assert np.array_equal(
            result.truss.trussness, untraced.truss.trussness
        )
        assert result.triangles == untraced.triangles


class TestUnique:
    """The sort-and-mask ``_unique`` that the splices and the deletion
    fixpoint call in place of ``np.unique``: the sorted distinct values."""

    @pytest.mark.parametrize(
        "values",
        [[], [5], [3, 3, 3], [1, 2, 3], [9, -2, 9, 0, -2, 7],
         list(range(40, 0, -1)) + [25] * 5],
        ids=["empty", "single", "all-equal", "distinct-sorted", "negatives",
             "descending-with-repeats"],
    )
    def test_matches_np_unique(self, values):
        from repro.analytics.delta import _unique

        arr = np.array(values, dtype=np.int64)
        before = arr.copy()
        got = _unique(arr)
        np.testing.assert_array_equal(got, np.unique(arr))
        assert got.dtype == np.int64
        np.testing.assert_array_equal(arr, before)  # the input is not sorted in place
