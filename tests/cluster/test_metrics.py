"""Unit tests for per-node and cluster metrics."""

from __future__ import annotations

import pytest

from repro.cluster.metrics import ClusterMetrics, NodeMetrics
from repro.externalmem.iostats import IOStats
from repro.utils import PS_PER_SECOND

PS = PS_PER_SECOND


def make_io(blocks: int = 1, device_ps: int = 0) -> IOStats:
    stats = IOStats()
    stats.record_read(blocks, blocks * 512, True)
    stats.device_ps += device_ps
    return stats


class TestNodeMetrics:
    def test_add_worker_accumulates(self):
        node = NodeMetrics(node_index=0)
        node.add_worker(
            cpu_ps=PS,
            triangles=10,
            io_stats=make_io(device_ps=PS // 2),
            calc_ps=3 * PS // 2,
        )
        node.add_worker(
            cpu_ps=2 * PS,
            triangles=5,
            io_stats=make_io(device_ps=PS // 4),
            calc_ps=9 * PS // 4,
        )
        assert node.cpu_ps == 3 * PS
        assert node.io_stats.device_ps == 3 * PS // 4
        assert node.as_dict()["io_seconds"] == 0.75
        assert node.triangles == 15
        assert node.workers == 2
        assert node.io_stats.blocks_read == 2

    def test_calc_seconds_is_max_worker_time(self):
        node = NodeMetrics(node_index=0)
        # 1.5 s and 0.3 s
        node.add_worker(PS, 0, make_io(device_ps=PS // 2), calc_ps=3 * PS // 2)
        node.add_worker(PS // 5, 0, make_io(device_ps=PS // 10), calc_ps=3 * PS // 10)
        assert node.calc_ps == 3 * PS // 2
        assert node.as_dict()["calc_seconds"] == 1.5

    def test_total_seconds_includes_copy(self):
        node = NodeMetrics(node_index=1, copy_ps=2 * PS)
        node.add_worker(PS, 0, make_io(), calc_ps=PS)
        assert node.total_ps == 3 * PS

    def test_as_dict_keys(self):
        d = NodeMetrics(node_index=2).as_dict()
        assert d["node"] == 2
        assert "cpu_seconds" in d and "copy_seconds" in d


class TestClusterMetrics:
    def test_node_creates_on_demand(self):
        metrics = ClusterMetrics()
        metrics.node(2).copy_ps = PS
        assert len(metrics.nodes) == 3
        assert metrics.nodes[2].copy_ps == PS

    def test_totals(self):
        metrics = ClusterMetrics()
        metrics.node(0).add_worker(
            PS, 10, make_io(device_ps=PS // 2), calc_ps=3 * PS // 2
        )
        metrics.node(1).add_worker(
            2 * PS, 20, make_io(device_ps=3 * PS // 2), calc_ps=7 * PS // 2
        )
        assert metrics.total_cpu_seconds == 3.0
        assert metrics.total_io_seconds == 2.0
        assert metrics.total_triangles == 30

    def test_calc_seconds_is_struggler_node(self):
        metrics = ClusterMetrics()
        metrics.node(0).add_worker(PS, 0, make_io(), calc_ps=PS)
        metrics.node(1).add_worker(4 * PS, 0, make_io(), calc_ps=4 * PS)
        assert metrics.calc_seconds == 4.0

    def test_average_copy_excludes_master(self):
        metrics = ClusterMetrics()
        metrics.node(0).copy_ps = 100 * PS  # master (should be excluded)
        metrics.node(1).copy_ps = 2 * PS
        metrics.node(2).copy_ps = 4 * PS
        assert metrics.average_copy_seconds() == pytest.approx(3.0)

    def test_average_copy_single_node(self):
        metrics = ClusterMetrics()
        metrics.node(0).copy_ps = 5 * PS
        assert metrics.average_copy_seconds() == pytest.approx(5.0)

    def test_imbalance_ratio(self):
        metrics = ClusterMetrics()
        metrics.node(0).add_worker(PS, 0, make_io(), calc_ps=PS)
        metrics.node(1).add_worker(
            13 * PS // 10, 0, make_io(), calc_ps=13 * PS // 10
        )
        assert metrics.imbalance_ratio() == pytest.approx(1.3)

    def test_imbalance_ratio_empty(self):
        assert ClusterMetrics().imbalance_ratio() == 1.0

    def test_as_rows(self):
        metrics = ClusterMetrics()
        metrics.node(0)
        metrics.node(1)
        rows = metrics.as_rows()
        assert len(rows) == 2
        assert rows[1]["node"] == 1


class TestChunkAccounting:
    def test_chunk_counters_accumulate(self):
        node = NodeMetrics(node_index=0)
        node.add_worker(
            PS, 0, make_io(), calc_ps=PS, chunks_completed=3, chunks_stolen=1
        )
        node.add_worker(
            PS, 0, make_io(), calc_ps=PS, chunks_completed=2, chunks_retried=1
        )
        assert node.chunks_completed == 5
        assert node.chunks_stolen == 1
        assert node.chunks_retried == 1
        assert node.as_dict()["chunks_completed"] == 5

    def test_static_defaults_count_one_unit_per_worker(self):
        node = NodeMetrics(node_index=0)
        node.add_worker(PS, 0, make_io(), calc_ps=PS)
        assert node.chunks_completed == 1
        assert node.chunks_stolen == 0

    def test_cluster_chunk_totals(self):
        metrics = ClusterMetrics()
        metrics.node(0).add_worker(PS, 0, make_io(), calc_ps=PS, chunks_completed=4)
        metrics.node(1).add_worker(
            PS,
            0,
            make_io(),
            calc_ps=PS,
            chunks_completed=2,
            chunks_stolen=2,
            chunks_retried=1,
        )
        assert metrics.total_chunks_completed == 6
        assert metrics.total_chunks_stolen == 2
        assert metrics.total_chunks_retried == 1

    def test_worker_imbalance_is_max_over_mean(self):
        metrics = ClusterMetrics()
        metrics.node(0).add_worker(3 * PS, 0, make_io(), calc_ps=3 * PS)
        metrics.node(0).add_worker(PS, 0, make_io(), calc_ps=PS)
        metrics.node(1).add_worker(2 * PS, 0, make_io(), calc_ps=2 * PS)
        # workers: 3.0, 1.0, 2.0 -> max 3.0 / mean 2.0
        assert metrics.worker_imbalance() == pytest.approx(1.5)

    def test_worker_imbalance_degenerate_cases(self):
        assert ClusterMetrics().worker_imbalance() == 1.0
        metrics = ClusterMetrics()
        metrics.node(0).add_worker(0, 0, make_io(), calc_ps=0)
        assert metrics.worker_imbalance() == 1.0

    def test_failed_workers_excluded_from_imbalance_sample(self):
        metrics = ClusterMetrics()
        metrics.node(0).add_worker(2 * PS, 0, make_io(), calc_ps=2 * PS)
        metrics.node(0).add_worker(2 * PS, 0, make_io(), calc_ps=2 * PS)
        # a killed worker's near-zero time must not deflate the mean
        metrics.node(1).add_worker(0, 0, make_io(), calc_ps=0, failed=True)
        assert metrics.worker_imbalance() == pytest.approx(1.0)
        # but an idle-yet-alive worker is genuine imbalance
        metrics.node(1).add_worker(0, 0, make_io(), calc_ps=0)
        assert metrics.worker_imbalance() == pytest.approx(1.5)
