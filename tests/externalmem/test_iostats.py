"""Unit tests for IOStats counters and the Aggarwal–Vitter scan cost."""

from __future__ import annotations

import pytest

from repro.externalmem.iostats import IOStats, scan_io_cost


class TestIOStats:
    def test_initial_state(self):
        stats = IOStats(block_size=1024)
        assert stats.total_blocks == 0
        assert stats.total_bytes == 0
        assert stats.device_seconds == 0.0

    def test_record_read(self):
        stats = IOStats()
        stats.record_read(blocks=3, nbytes=100, sequential=True)
        stats.record_read(blocks=2, nbytes=50, sequential=False)
        assert stats.blocks_read == 5
        assert stats.sequential_reads == 3
        assert stats.random_reads == 2
        assert stats.bytes_read == 150
        assert stats.read_calls == 2

    def test_record_write(self):
        stats = IOStats()
        stats.record_write(blocks=4, nbytes=200, sequential=True)
        assert stats.blocks_written == 4
        assert stats.sequential_writes == 4
        assert stats.bytes_written == 200

    def test_merge(self):
        a = IOStats()
        a.record_read(2, 100, True)
        a.device_ps += 500_000_000_000
        b = IOStats()
        b.record_write(3, 200, False)
        b.device_ps += 250_000_000_000
        a.merge(b)
        assert a.total_blocks == 5
        assert a.total_bytes == 300
        assert a.device_ps == 750_000_000_000
        assert a.device_seconds == 0.75

    def test_snapshot_is_independent(self):
        a = IOStats()
        a.record_read(1, 10, True)
        snap = a.snapshot()
        a.record_read(1, 10, True)
        assert snap.blocks_read == 1
        assert a.blocks_read == 2

    def test_reset_preserves_block_size(self):
        a = IOStats(block_size=2048)
        a.record_read(1, 10, True)
        a.reset()
        assert a.blocks_read == 0
        assert a.block_size == 2048

    def test_as_dict_keys(self):
        d = IOStats().as_dict()
        assert "blocks_read" in d and "device_ps" in d


class TestScanCost:
    def test_exact_multiple(self):
        assert scan_io_cost(1000, 100) == 10

    def test_rounds_up(self):
        assert scan_io_cost(1001, 100) == 11

    def test_zero_elements(self):
        assert scan_io_cost(0, 100) == 0

    def test_invalid_block(self):
        with pytest.raises(ValueError):
            scan_io_cost(10, 0)
