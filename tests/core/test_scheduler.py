"""Unit tests for the dynamic chunk scheduler (chunking, pulls, failures)."""

from __future__ import annotations

import pickle

import pytest
from chunk_jitter import JitteredChunkTask

from repro.core import kernel_backend
from repro.core.config import PDTLConfig
from repro.core.mgt import mgt_count
from repro.core.orientation import orient_graph
from repro.core.scheduler import (
    ChunkTask,
    DynamicScheduler,
    chunks_cover_exactly,
    execute_chunk_task,
    make_chunks,
    merge_mgt_results,
    resolve_chunk_edges,
)
from repro.errors import ConfigurationError, SchedulingError
from repro.graph.binfmt import write_graph
from repro.graph.csr import CSRGraph
from repro.graph.generators import rmat


class TestChunking:
    def test_exact_partition(self):
        chunks = make_chunks(10, 3)
        assert [(c.start, c.stop) for c in chunks] == [(0, 3), (3, 6), (6, 9), (9, 10)]
        assert chunks_cover_exactly(chunks, 10)

    def test_empty_file_has_no_chunks(self):
        assert make_chunks(0, 5) == []
        assert chunks_cover_exactly([], 0)

    def test_chunk_indices_are_file_order(self):
        chunks = make_chunks(100, 7)
        assert [c.index for c in chunks] == list(range(len(chunks)))

    def test_invalid_sizes_rejected(self):
        with pytest.raises(ConfigurationError):
            make_chunks(10, 0)
        with pytest.raises(ConfigurationError):
            make_chunks(-1, 4)

    def test_resolved_size_is_whole_windows(self):
        config = PDTLConfig(memory_per_proc=16384, block_size=512)
        window = config.window_edges
        # explicit sizes round up to a whole number of windows
        assert resolve_chunk_edges(config.with_cores(2), 1) == window
        explicit = PDTLConfig(
            memory_per_proc=16384,
            block_size=512,
            scheduling="dynamic",
            chunk_edges=window + 1,
        )
        assert resolve_chunk_edges(explicit, 10 * window) == 2 * window

    def test_default_size_targets_chunks_per_worker(self):
        from repro.core.scheduler import DEFAULT_CHUNKS_PER_WORKER

        config = PDTLConfig(memory_per_proc=16384, block_size=512, procs_per_node=2)
        window = config.window_edges
        num_edges = 100 * window
        size = resolve_chunk_edges(config, num_edges)
        assert size % window == 0
        chunks = make_chunks(num_edges, size)
        target = config.total_processors * DEFAULT_CHUNKS_PER_WORKER
        assert target <= len(chunks) <= 2 * target


class TestPullSchedule:
    def test_uniform_costs_balance_exactly(self):
        chunks = make_chunks(8, 1)
        schedule = DynamicScheduler(chunks, num_workers=4).schedule([1.0] * 8)
        assert sorted(len(a) for a in schedule.assignments) == [2, 2, 2, 2]
        assert schedule.total_retries == 0

    def test_every_chunk_assigned_exactly_once(self):
        chunks = make_chunks(13, 1)
        schedule = DynamicScheduler(chunks, num_workers=3).schedule(
            [float(i % 5 + 1) for i in range(13)]
        )
        seen = sorted(i for a in schedule.assignments for i in a)
        assert seen == list(range(13))

    def test_greedy_routes_work_away_from_heavy_chunk(self):
        # one huge chunk first: its holder should get nothing else
        chunks = make_chunks(5, 1)
        costs = [100.0, 1.0, 1.0, 1.0, 1.0]
        schedule = DynamicScheduler(chunks, num_workers=2).schedule(costs)
        assert schedule.assignments[0] == [0]
        assert schedule.assignments[1] == [1, 2, 3, 4]

    def test_steals_counted_against_static_split(self):
        chunks = make_chunks(4, 1)
        # worker 0 is extremely slow on its first chunk, so worker 1 steals
        costs = [10.0, 1.0, 1.0, 1.0]
        schedule = DynamicScheduler(chunks, num_workers=2).schedule(costs)
        # static homes: chunks 0,1 -> worker 0; chunks 2,3 -> worker 1
        assert schedule.stolen[1] == 1  # worker 1 completed chunk 1
        assert schedule.total_steals == 1

    def test_straggler_factor_sheds_load(self):
        chunks = make_chunks(12, 1)
        fair = DynamicScheduler(chunks, num_workers=2).schedule([1.0] * 12)
        skewed = DynamicScheduler(
            chunks, num_workers=2, straggler_factors={0: 5.0}
        ).schedule([1.0] * 12)
        assert len(fair.assignments[0]) == 6
        assert len(skewed.assignments[0]) < len(skewed.assignments[1])

    def test_schedule_is_deterministic(self):
        chunks = make_chunks(20, 1)
        costs = [float((7 * i) % 11 + 1) for i in range(20)]
        first = DynamicScheduler(chunks, num_workers=4).schedule(costs)
        second = DynamicScheduler(chunks, num_workers=4).schedule(costs)
        assert first.assignments == second.assignments
        assert first.worker_ps == second.worker_ps

    def test_cost_count_mismatch_rejected(self):
        chunks = make_chunks(4, 1)
        with pytest.raises(ConfigurationError):
            DynamicScheduler(chunks, num_workers=2).schedule([1.0])


class TestFailureInjection:
    def test_failed_workers_chunk_is_reexecuted(self):
        chunks = make_chunks(6, 1)
        schedule = DynamicScheduler(
            chunks, num_workers=2, failure_after={0: 1}
        ).schedule([1.0] * 6)
        assert schedule.failed_workers == [0]
        # worker 0 completed exactly one chunk before dying
        assert len(schedule.assignments[0]) == 1
        # the chunk it died holding was completed by worker 1
        assert schedule.total_retries == 1
        assert schedule.retried[1] != []
        seen = sorted(i for a in schedule.assignments for i in a)
        assert seen == list(range(6))

    def test_worker_dying_on_first_pull_completes_nothing(self):
        chunks = make_chunks(4, 1)
        schedule = DynamicScheduler(
            chunks, num_workers=2, failure_after={0: 0}
        ).schedule([1.0] * 4)
        assert schedule.assignments[0] == []
        assert sorted(schedule.assignments[1]) == [0, 1, 2, 3]

    def test_all_workers_dead_raises(self):
        chunks = make_chunks(4, 1)
        scheduler = DynamicScheduler(
            chunks, num_workers=2, failure_after={0: 0, 1: 0}
        )
        with pytest.raises(SchedulingError):
            scheduler.schedule([1.0] * 4)

    def test_unknown_worker_in_spec_rejected(self):
        with pytest.raises(ConfigurationError):
            DynamicScheduler(make_chunks(2, 1), num_workers=2, failure_after={5: 1})


class TestChunkTaskExecution:
    @pytest.fixture()
    def oriented(self, device):
        graph = CSRGraph.from_edgelist(rmat(6, edge_factor=8, seed=9))
        gf = write_graph(device, "g", graph)
        return orient_graph(gf).oriented

    def test_chunked_outcomes_sum_to_single_core_count(self, oriented):
        config = PDTLConfig(memory_per_proc=2048, block_size=512)
        expected = mgt_count(oriented, config).triangles
        chunks = make_chunks(oriented.num_edges, config.window_edges)
        assert len(chunks) > 1
        outcomes = [
            execute_chunk_task(
                ChunkTask.from_graph(c.index, oriented, config, c.start, c.stop, "count")
            )
            for c in chunks
        ]
        assert sum(o.triangles for o in outcomes) == expected

    def test_chunk_task_roundtrips_through_pickle(self, oriented):
        config = PDTLConfig(memory_per_proc=2048, block_size=512)
        task = ChunkTask.from_graph(0, oriented, config, 0, oriented.num_edges, "count")
        clone = pickle.loads(pickle.dumps(task))
        assert execute_chunk_task(clone).triangles == mgt_count(oriented, config).triangles

    def test_merge_preserves_totals(self, oriented):
        config = PDTLConfig(memory_per_proc=2048, block_size=512)
        chunks = make_chunks(oriented.num_edges, config.window_edges)
        results = [
            execute_chunk_task(
                ChunkTask.from_graph(c.index, oriented, config, c.start, c.stop, "count")
            ).result
            for c in chunks
        ]
        merged = merge_mgt_results(results, block_size=config.block_size)
        assert merged.triangles == sum(r.triangles for r in results)
        assert merged.edges_processed == oriented.num_edges
        assert merged.range_start == 0
        assert merged.range_stop == oriented.num_edges
        assert merged.cpu_operations == sum(r.cpu_operations for r in results)

    def test_merge_of_nothing_is_empty(self):
        merged = merge_mgt_results([], block_size=512)
        assert merged.triangles == 0
        assert merged.edges_processed == 0

    def test_host_jitter_does_not_change_outcomes(self, oriented):
        config = PDTLConfig(memory_per_proc=4096, block_size=512, modelled_cpu=True)
        task = ChunkTask.from_graph(0, oriented, config, 0, oriented.num_edges, "count")
        results = []
        for run in (execute_chunk_task, JitteredChunkTask(execute_chunk_task, 0.005)):
            outcome = run(task)
            results.append(
                (outcome.triangles, outcome.result.cpu_ps, outcome.result.io_stats.device_ps)
            )
        assert results[0] == results[1]

    @pytest.mark.parametrize("tier", ["numpy", "cffi", "auto"])
    def test_task_carries_the_master_tier(self, oriented, tier):
        """A task records the tier the master resolved, never ``auto``, and
        runs on it wherever it lands."""
        if not kernel_backend.compiled_available()[0]:
            pytest.skip(f"no C tier: {kernel_backend.compiled_available()[1]}")
        config = PDTLConfig(memory_per_proc=2048, block_size=512)
        with kernel_backend.use(tier) as active:
            task = ChunkTask.from_graph(0, oriented, config, 0, oriented.num_edges, "count")
        assert task.kernel_tier == active
        other = "cffi" if active == "numpy" else "numpy"
        with kernel_backend.use(other):
            before = kernel_backend.dispatch_counts()
            execute_chunk_task(task)
            after = kernel_backend.dispatch_counts()
            # a worker on another tier switches to the task's
            assert kernel_backend.active_backend() == active
        key = f"mgt_block_scan.{active}"
        assert after.get(key, 0) > before.get(key, 0)


class TestConfigKnobs:
    def test_scheduling_validated(self):
        with pytest.raises(ConfigurationError):
            PDTLConfig(scheduling="adaptive")

    def test_failure_spec_normalised_from_dict(self):
        config = PDTLConfig(
            procs_per_node=4, scheduling="dynamic", failure_spec={2: 1, 0: 3}
        )
        assert config.failure_spec == ((0, 3), (2, 1))
        assert config.failure_after == {0: 3, 2: 1}

    def test_failure_spec_requires_dynamic(self):
        with pytest.raises(ConfigurationError):
            PDTLConfig(procs_per_node=2, failure_spec={0: 1})

    def test_failure_spec_must_leave_a_survivor(self):
        with pytest.raises(ConfigurationError):
            PDTLConfig(
                procs_per_node=2, scheduling="dynamic", failure_spec={0: 0, 1: 0}
            )

    def test_failure_spec_worker_bounds_checked(self):
        with pytest.raises(ConfigurationError):
            PDTLConfig(procs_per_node=2, scheduling="dynamic", failure_spec={7: 1})

    def test_chunk_edges_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            PDTLConfig(scheduling="dynamic", chunk_edges=0)

    def test_chunk_edges_requires_dynamic(self):
        with pytest.raises(ConfigurationError):
            PDTLConfig(chunk_edges=4096)
