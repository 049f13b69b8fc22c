"""Unit tests for the simulated network."""

from __future__ import annotations

import pytest

from repro.cluster.network import Network, NetworkLink
from repro.errors import NetworkError
from repro.utils import PS_PER_SECOND


PS = PS_PER_SECOND


class TestNetworkLink:
    def test_transfer_time_scales_with_size(self):
        link = NetworkLink(0, 1, bandwidth_bytes_per_s=1e6, latency_s=0.0)
        assert link.transfer_ps(2_000_000) == 2 * PS

    def test_latency_added(self):
        link = NetworkLink(0, 1, bandwidth_bytes_per_s=1e9, latency_s=0.5)
        assert link.transfer_ps(0) == PS // 2

    def test_negative_bytes_rejected(self):
        with pytest.raises(ValueError):
            NetworkLink(0, 1).transfer_ps(-1)

    def test_zero_bandwidth_is_free(self):
        link = NetworkLink(0, 1, bandwidth_bytes_per_s=0.0, latency_s=0.0)
        assert link.transfer_ps(1 << 30) == 0

    @pytest.mark.parametrize(
        "kwargs", [{"bandwidth_bytes_per_s": -1.0}, {"latency_s": -3.0}]
    )
    def test_negative_rate_refused(self, kwargs):
        with pytest.raises(ValueError):
            NetworkLink(0, 1, **kwargs)


class TestNetwork:
    def test_full_mesh_created(self):
        net = Network(num_nodes=3)
        assert len(net.links) == 6
        assert net.link(0, 2).src == 0

    def test_single_node_network(self):
        net = Network(num_nodes=1)
        assert net.links == {}

    def test_invalid_size(self):
        with pytest.raises(NetworkError):
            Network(num_nodes=0)

    def test_self_link_rejected(self):
        with pytest.raises(NetworkError):
            Network(num_nodes=2).link(1, 1)

    def test_unknown_node_rejected(self):
        net = Network(num_nodes=2)
        with pytest.raises(NetworkError):
            net.transfer(0, 5, 100)

    def test_transfer_records_and_times(self):
        net = Network(num_nodes=2)
        net.set_link(0, 1, bandwidth_bytes_per_s=1e6, latency_s=0.0)
        ps = net.transfer(0, 1, 500_000, label="graph-copy")
        assert ps == PS // 2
        assert net.transfers[-1].ps == ps
        assert net.total_bytes == 500_000
        assert net.total_messages == 1
        assert net.bytes_by_label("graph-copy") == 500_000

    def test_self_transfer_is_free_and_not_counted(self):
        net = Network(num_nodes=2)
        assert net.transfer(0, 0, 1000) == 0
        assert net.total_bytes == 0
        assert net.total_messages == 0

    def test_per_node_accounting(self):
        net = Network(num_nodes=3)
        net.transfer(0, 1, 100)
        net.transfer(0, 2, 200)
        net.transfer(1, 0, 50)
        assert net.bytes_sent_by(0) == 300
        assert net.bytes_received_by(1) == 100
        assert net.bytes_received_by(0) == 50

    def test_set_link_overrides(self):
        net = Network(num_nodes=2)
        net.set_link(0, 1, bandwidth_bytes_per_s=1.0, latency_s=0.0)
        assert net.transfer(0, 1, 10) == 10 * PS

    @pytest.mark.parametrize(
        "kwargs", [{"bandwidth_bytes_per_s": -1.0}, {"latency_s": -3.0}]
    )
    def test_set_link_refuses_negative_rate(self, kwargs):
        # before, latency_s=-3.0 made a 10-byte transfer cost -2.999999992 s
        net = Network(num_nodes=2)
        before = net.link(0, 1)
        rates = (before.bandwidth_bytes_per_s, before.latency_s)
        with pytest.raises(ValueError):
            net.set_link(0, 1, **kwargs)
        assert (before.bandwidth_bytes_per_s, before.latency_s) == rates

    def test_reset_clears_transfers(self):
        net = Network(num_nodes=2)
        net.transfer(0, 1, 10)
        net.reset()
        assert net.total_bytes == 0
