"""Unit tests for simulated machines and the cluster container."""

from __future__ import annotations

import pytest

from repro.cluster.cluster import Cluster
from repro.cluster.machine import Machine
from repro.cluster.network import Network
from repro.core.config import PDTLConfig
from repro.errors import ConfigurationError
from repro.graph.binfmt import write_graph
from repro.graph.csr import CSRGraph
from repro.graph.generators import rmat


class TestMachine:
    def test_defaults_and_total_memory(self, tmp_path):
        m = Machine(index=1, num_cores=4, memory_per_core="1MB", storage_root=tmp_path)
        assert m.total_memory == 4 * 1024 * 1024
        assert not m.is_master
        assert m.device.root.exists()

    def test_master_flag(self, tmp_path):
        assert Machine(0, 1, 1024, storage_root=tmp_path).is_master

    def test_invalid_cores(self, tmp_path):
        with pytest.raises(ConfigurationError):
            Machine(0, 0, 1024, storage_root=tmp_path)

    def test_invalid_memory(self, tmp_path):
        with pytest.raises((ConfigurationError, ValueError)):
            Machine(0, 1, 0, storage_root=tmp_path)

    def test_tempdir_cleanup(self):
        m = Machine(index=0, num_cores=1, memory_per_core=1024)
        root = m.device.root
        assert root.exists()
        m.cleanup()
        assert not root.exists()

    def test_describe(self, tmp_path):
        text = Machine(2, 8, "512KB", storage_root=tmp_path).describe()
        assert "index=2" in text and "cores=8" in text


class TestClusterConstruction:
    def test_from_config(self, tmp_path):
        config = PDTLConfig(num_nodes=3, procs_per_node=2, memory_per_proc="1MB")
        cluster = Cluster.from_config(config, storage_root=tmp_path)
        assert cluster.num_nodes == 3
        assert cluster.total_cores == 6
        assert cluster.total_memory == 6 * 1024 * 1024
        assert cluster.master.index == 0

    def test_machine_accessor_bounds(self, tmp_path):
        cluster = Cluster.from_config(PDTLConfig(num_nodes=2), storage_root=tmp_path)
        assert cluster.machine(1).index == 1
        with pytest.raises(ConfigurationError):
            cluster.machine(5)

    def test_requires_machines(self):
        with pytest.raises(ConfigurationError):
            Cluster(machines=[], network=Network(num_nodes=1))

    def test_network_size_mismatch_rejected(self, tmp_path):
        machines = [Machine(0, 1, 1024, storage_root=tmp_path)]
        with pytest.raises(ConfigurationError):
            Cluster(machines=machines, network=Network(num_nodes=2))

    def test_machine_index_mismatch_rejected(self, tmp_path):
        machines = [Machine(1, 1, 1024, storage_root=tmp_path)]
        with pytest.raises(ConfigurationError):
            Cluster(machines=machines, network=Network(num_nodes=1))

    def test_bandwidth_override(self, tmp_path):
        cluster = Cluster.from_config(
            PDTLConfig(num_nodes=2),
            storage_root=tmp_path,
            bandwidth_bytes_per_s=123.0,
        )
        assert cluster.network.link(0, 1).bandwidth_bytes_per_s == 123.0

    def test_negative_bandwidth_refused(self, tmp_path):
        # before, -1.0 was taken as a free link: a copy cost only its latency
        with pytest.raises(ValueError):
            Cluster.from_config(
                PDTLConfig(num_nodes=2), storage_root=tmp_path, bandwidth_bytes_per_s=-1.0
            )

    def test_context_manager_cleans_up(self):
        with Cluster.from_config(PDTLConfig(num_nodes=2)) as cluster:
            roots = [m.device.root for m in cluster.machines]
            assert all(r.exists() for r in roots)
        assert not any(r.exists() for r in roots)


class TestReplication:
    @pytest.fixture
    def cluster_and_graph(self, tmp_path):
        config = PDTLConfig(num_nodes=3, procs_per_node=2, memory_per_proc="1MB")
        cluster = Cluster.from_config(config, storage_root=tmp_path)
        graph = CSRGraph.from_edgelist(rmat(6, edge_factor=6, seed=0))
        gf = write_graph(cluster.master.device, "g", graph)
        return cluster, graph, gf

    def test_replicate_copies_to_all_nodes(self, cluster_and_graph):
        cluster, graph, gf = cluster_and_graph
        copies = cluster.replicate_graph(gf)
        assert set(copies) == {0, 1, 2}
        for node, local in copies.items():
            assert local.to_csr() == graph
            assert local.device is cluster.machine(node).device

    def test_replicate_charges_copy_time_and_bytes(self, cluster_and_graph):
        cluster, graph, gf = cluster_and_graph
        cluster.replicate_graph(gf)
        assert cluster.metrics.node(0).copy_ps == 0
        for node in (1, 2):
            assert cluster.metrics.node(node).copy_ps > 0
            assert cluster.metrics.node(node).bytes_received >= gf.size_bytes
        assert cluster.network.bytes_by_label("graph-copy") >= 2 * gf.size_bytes

    def test_replicate_requires_graph_on_master(self, cluster_and_graph, tmp_path):
        cluster, graph, _ = cluster_and_graph
        foreign = write_graph(cluster.machine(1).device, "foreign", graph)
        with pytest.raises(ConfigurationError):
            cluster.replicate_graph(foreign)

    def test_configuration_and_result_messages(self, cluster_and_graph):
        cluster, _, _ = cluster_and_graph
        cluster.send_configuration(1)
        cluster.send_result(1, 8)
        assert cluster.network.bytes_by_label("configuration") > 0
        assert cluster.network.bytes_by_label("result") == 8
        assert cluster.metrics.node(0).bytes_received == 8
