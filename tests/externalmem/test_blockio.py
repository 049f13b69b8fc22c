"""Unit tests for the simulated block device and block files."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import PDTLError
from repro.externalmem.blockio import BlockDevice, BlockFile, DiskModel
from repro.utils import ceil_div


class TestDeviceBasics:
    def test_creates_root_directory(self, tmp_path):
        root = tmp_path / "nested" / "disk"
        BlockDevice(root)
        assert root.is_dir()

    def test_block_size_parsing(self, tmp_path):
        dev = BlockDevice(tmp_path, block_size="4k")
        assert dev.block_size == 4096

    def test_invalid_block_size(self, tmp_path):
        with pytest.raises(ValueError):
            BlockDevice(tmp_path, block_size=0)

    def test_file_lifecycle(self, tmp_path):
        dev = BlockDevice(tmp_path)
        assert not dev.exists("a.bin")
        dev.open("a.bin")
        assert dev.exists("a.bin")
        assert dev.file_size("a.bin") == 0
        dev.delete("a.bin")
        assert not dev.exists("a.bin")

    def test_list_files(self, tmp_path):
        dev = BlockDevice(tmp_path)
        dev.open("b.bin")
        dev.open("a.bin")
        assert dev.list_files() == ["a.bin", "b.bin"]

    def test_clear_removes_everything(self, tmp_path):
        dev = BlockDevice(tmp_path)
        dev.open("a.bin").append_array(np.arange(10))
        dev.clear()
        assert dev.list_files() == []

    def test_path_escape_rejected(self, tmp_path):
        dev = BlockDevice(tmp_path / "disk")
        with pytest.raises(PDTLError):
            dev.path("../outside.bin")


class TestAccounting:
    def test_sequential_read_counts_blocks(self, tmp_path):
        dev = BlockDevice(tmp_path, block_size=64)
        f = dev.open("data.bin")
        f.append_array(np.arange(100, dtype=np.int64))  # 800 bytes
        dev.stats.reset()
        f.read_array(0, 100)
        assert dev.stats.blocks_read == ceil_div(800, 64)
        assert dev.stats.bytes_read == 800
        assert dev.stats.read_calls == 1

    def test_write_accounting(self, tmp_path):
        dev = BlockDevice(tmp_path, block_size=64)
        f = dev.open("data.bin")
        f.append_array(np.arange(16, dtype=np.int64))  # 128 bytes = 2 blocks
        assert dev.stats.blocks_written == 2
        assert dev.stats.bytes_written == 128

    def test_sequential_vs_random_classification(self, tmp_path):
        dev = BlockDevice(tmp_path, block_size=64)
        f = dev.open("data.bin")
        f.append_array(np.arange(200, dtype=np.int64))
        dev.stats.reset()
        f.read_array(0, 8)     # block 0: head is at the end of the write -> random
        f.read_array(8, 8)     # block 1: follows block 0 -> sequential
        f.read_array(16, 8)    # block 2: sequential continuation
        f.read_array(120, 8)   # far block -> random
        assert dev.stats.sequential_reads == 2
        assert dev.stats.random_reads == 2

    def test_device_time_accumulates(self, tmp_path):
        model = DiskModel(bandwidth_bytes_per_s=1e6, seek_latency_s=0.0)
        dev = BlockDevice(tmp_path, block_size=64, model=model)
        f = dev.open("data.bin")
        f.append_array(np.arange(1000, dtype=np.int64))
        before = dev.stats.device_ps
        f.read_array(0, 1000)
        # 8000 bytes at 1 MB/s = 8 ms
        assert dev.stats.device_ps - before == 8_000_000_000

    def test_copy_file_charges_both_devices(self, tmp_path):
        src = BlockDevice(tmp_path / "src", block_size=64)
        dst = BlockDevice(tmp_path / "dst", block_size=64)
        f = src.open("data.bin")
        f.append_array(np.arange(64, dtype=np.int64))
        src.stats.reset()
        nbytes = src.copy_file("data.bin", dst)
        assert nbytes == 512
        assert src.stats.bytes_read == 512
        assert dst.stats.bytes_written == 512
        assert dst.file_size("data.bin") == 512

    def test_copy_missing_file_raises(self, tmp_path):
        src = BlockDevice(tmp_path / "src")
        dst = BlockDevice(tmp_path / "dst")
        with pytest.raises(PDTLError):
            src.copy_file("missing.bin", dst)


class TestBlockFile:
    def test_array_roundtrip(self, tmp_path):
        dev = BlockDevice(tmp_path)
        f = dev.open("arr.bin")
        data = np.arange(50, dtype=np.int64)
        f.append_array(data)
        np.testing.assert_array_equal(f.read_array(0, 50), data)

    def test_partial_reads(self, tmp_path):
        dev = BlockDevice(tmp_path)
        f = dev.open("arr.bin")
        f.append_array(np.arange(100, dtype=np.int64))
        np.testing.assert_array_equal(f.read_array(10, 5), np.arange(10, 15))

    def test_write_at_offset(self, tmp_path):
        dev = BlockDevice(tmp_path)
        f = dev.open("arr.bin")
        f.append_array(np.zeros(10, dtype=np.int64))
        f.write_array(np.array([7, 8], dtype=np.int64), offset_items=3)
        out = f.read_array(0, 10)
        assert out[3] == 7 and out[4] == 8 and out[0] == 0

    def test_other_dtypes(self, tmp_path):
        dev = BlockDevice(tmp_path)
        f = dev.open("f64.bin")
        data = np.linspace(0, 1, 20)
        f.append_array(data)
        np.testing.assert_allclose(f.read_array(0, 20, dtype=np.float64), data)

    @pytest.mark.parametrize(
        "data",
        [
            np.arange(12, dtype=np.int64).reshape(6, 2),
            np.arange(24, dtype=np.int64)[::2],
            np.arange(7, dtype=np.int32),
            np.empty(0, dtype=np.int64),
        ],
        ids=["rows", "strided", "int32", "empty"],
    )
    def test_array_writes_store_and_charge_every_byte(self, tmp_path, data):
        """Arrays are written from a byte view, not a ``tobytes`` copy: the
        file holds the array's bytes and the accounting charges its byte
        count (not its item count) on both write paths."""
        dev = BlockDevice(tmp_path, block_size=8)
        appended, written = dev.open("appended.bin"), dev.open("written.bin")
        assert appended.append_array(data) == data.size
        assert written.write_array(data) == data.size
        assert dev.stats.bytes_written == 2 * data.nbytes
        expected = np.ascontiguousarray(data).tobytes()
        assert dev.path("appended.bin").read_bytes() == expected
        assert dev.path("written.bin").read_bytes() == expected

    def test_num_items(self, tmp_path):
        dev = BlockDevice(tmp_path)
        f = dev.open("arr.bin")
        f.append_array(np.arange(12, dtype=np.int64))
        assert f.num_items() == 12
        assert f.num_items(dtype=np.int32) == 24

    def test_iter_chunks_covers_file(self, tmp_path):
        dev = BlockDevice(tmp_path)
        f = dev.open("arr.bin")
        data = np.arange(105, dtype=np.int64)
        f.append_array(data)
        chunks = list(f.iter_chunks(20))
        assert sum(c.shape[0] for c in chunks) == 105
        np.testing.assert_array_equal(np.concatenate(chunks), data)

    def test_iter_chunks_invalid(self, tmp_path):
        dev = BlockDevice(tmp_path)
        f = dev.open("arr.bin")
        with pytest.raises(ValueError):
            list(f.iter_chunks(0))

    def test_truncate(self, tmp_path):
        dev = BlockDevice(tmp_path)
        f = dev.open("arr.bin")
        f.append_array(np.arange(10, dtype=np.int64))
        f.truncate(0)
        assert f.size_bytes == 0

    def test_negative_offsets_rejected(self, tmp_path):
        dev = BlockDevice(tmp_path)
        f = dev.open("arr.bin")
        with pytest.raises(ValueError):
            f.read_bytes(-1, 4)
        with pytest.raises(ValueError):
            f.write_bytes(-1, b"xx")

    def test_delete_via_file_handle(self, tmp_path):
        dev = BlockDevice(tmp_path)
        f = dev.open("arr.bin")
        f.delete()
        assert not dev.exists("arr.bin")


class TestDiskModel:
    def test_sequential_faster_than_random(self):
        model = DiskModel(bandwidth_bytes_per_s=100e6, seek_latency_s=1e-3)
        assert model.transfer_ps(4096, True) < model.transfer_ps(4096, False)

    def test_zero_bandwidth_means_free_transfer(self):
        model = DiskModel(bandwidth_bytes_per_s=0.0, seek_latency_s=0.0)
        assert model.transfer_ps(1 << 20, True) == 0

    def test_rate_is_rounded_not_the_charge(self):
        # 123 B/s is 8,130,081,300.8 ps per byte: rounded once, to 8,130,081,301
        model = DiskModel(bandwidth_bytes_per_s=123.0, seek_latency_s=1e-4)
        assert model.transfer_ps(3, True) == 3 * 8_130_081_301
        assert model.transfer_ps(3, False) == 3 * 8_130_081_301 + 100_000_000

    @pytest.mark.parametrize(
        "kwargs", [{"bandwidth_bytes_per_s": -1e6}, {"seek_latency_s": -1.0}]
    )
    def test_negative_rate_refused(self, kwargs):
        # before, these charged -0.004096 s and -0.999991808 s per access
        with pytest.raises(ValueError):
            DiskModel(**kwargs)


class TestFdCache:
    """The raw-fd cache must be transparent and bounded."""

    def test_reads_after_many_files(self, tmp_path):
        from repro.externalmem import blockio

        dev = BlockDevice(tmp_path)
        many = blockio.MAX_CACHED_FDS + 20
        for i in range(many):
            dev.open(f"f{i}.bin").append_array(np.array([i], dtype=np.int64))
        # every file readable even though early descriptors were evicted
        for i in range(many):
            assert int(dev.open(f"f{i}.bin").read_array(0, 1)[0]) == i
        assert len(dev._fds) <= blockio.MAX_CACHED_FDS

    def test_delete_then_recreate(self, tmp_path):
        dev = BlockDevice(tmp_path)
        f = dev.open("x.bin")
        f.append_array(np.arange(4, dtype=np.int64))
        dev.delete("x.bin")
        assert not dev.exists("x.bin")
        g = dev.open("x.bin")
        assert g.num_items() == 0
        g.append_array(np.array([7], dtype=np.int64))
        assert int(dev.open("x.bin").read_array(0, 1)[0]) == 7

    def test_device_close_idempotent(self, tmp_path):
        dev = BlockDevice(tmp_path)
        dev.open("a.bin").append_array(np.arange(3, dtype=np.int64))
        dev.close()
        dev.close()
        # reads transparently reopen descriptors
        assert dev.open("a.bin").num_items() == 3

    def test_delete_while_descriptor_pinned(self, tmp_path):
        import os

        dev = BlockDevice(tmp_path)
        f = dev.open("pinned.bin")
        f.append_array(np.arange(4, dtype=np.int64))
        entry = dev._acquire_fd("pinned.bin", f.path, create=False)
        dev.delete("pinned.bin")  # must not close the pinned descriptor
        assert len(os.pread(entry.fd, 8, 0)) == 8  # still readable
        dev._release_fd(entry)  # last release closes it
        with pytest.raises(OSError):
            os.fstat(entry.fd)
        # the name is gone and can be recreated independently
        g = dev.open("pinned.bin")
        assert g.num_items() == 0

    def test_append_after_read_is_visible(self, tmp_path):
        dev = BlockDevice(tmp_path, block_size=512)
        f = dev.open("data.bin")
        f.append_array(np.arange(10, dtype=np.int64))
        assert f.read_array(0, 10)[-1] == 9
        f.append_array(np.arange(10, 20, dtype=np.int64))
        assert np.array_equal(f.read_array(0, 20), np.arange(20))

    def test_empty_file_reads(self, tmp_path):
        dev = BlockDevice(tmp_path, block_size=512)
        f = dev.open("empty.bin")
        assert f.read_bytes(0, 100) == b""

    def test_copy_file_refreshes_open_destination(self, tmp_path):
        src = BlockDevice(tmp_path / "src", block_size=512)
        dst = BlockDevice(tmp_path / "dst", block_size=512)
        a = src.open("a.bin")
        a.append_array(np.arange(20, dtype=np.int64))
        src.copy_file("a.bin", dst)
        d = dst.open("a.bin")
        assert np.array_equal(d.read_array(0, 20), np.arange(20))
        b = src.open("a.bin")
        b.write_array(np.full(20, 9, dtype=np.int64))
        src.copy_file("a.bin", dst)
        assert np.array_equal(d.read_array(0, 20), np.full(20, 9))

    def test_write_through_one_handle_visible_to_another(self, tmp_path):
        dev = BlockDevice(tmp_path, block_size=512)
        reader = dev.open("data.bin")
        writer = dev.open("data.bin")
        writer.append_array(np.arange(64, dtype=np.int64))
        np.testing.assert_array_equal(reader.read_array(0, 64), np.arange(64))
        writer.write_array(np.arange(100, 164, dtype=np.int64))
        np.testing.assert_array_equal(reader.read_array(0, 64), np.arange(100, 164))

    def test_truncate_then_read(self, tmp_path):
        dev = BlockDevice(tmp_path, block_size=512)
        f = dev.open("data.bin")
        f.append_array(np.arange(50, dtype=np.int64))
        f.read_array(0, 50)  # descriptor now cached
        f.truncate(8 * 10)
        assert f.num_items() == 10
        np.testing.assert_array_equal(f.read_array(0, 50), np.arange(10))

    def test_close_drops_cached_descriptors(self, tmp_path):
        dev = BlockDevice(tmp_path, block_size=512)
        f = dev.open("data.bin")
        f.append_array(np.arange(10, dtype=np.int64))
        f.read_array(0, 10)
        assert dev._fds
        dev.close()
        assert not dev._fds
        np.testing.assert_array_equal(f.read_array(0, 10), np.arange(10))

    def test_cold_and_warm_descriptors_read_and_charge_identically(self, tmp_path):
        """Closing every cached descriptor before each access changes no
        byte read and no counter: the cache sits below the accounting."""
        outcomes = {}
        for cold in (False, True):
            dev = BlockDevice(tmp_path / f"cold_{cold}", block_size=512)
            dev.open("data.bin").append_array(np.arange(1000, dtype=np.int64))
            dev.open("other.bin").append_array(np.arange(64, dtype=np.int64))
            dev.stats.reset()
            f, g = dev.open("data.bin"), dev.open("other.bin")
            accesses = [
                (f, 0, 256),
                (f, 4096, 512),  # random jump
                (f, 7900, 400),  # short read at EOF
                (g, 8, 128),
                (f, 256, 8192),
                (f, 0, 0),  # zero-length
            ]
            data = []
            for handle, offset, nbytes in accesses:
                if cold:
                    dev.close()
                data.append(handle.read_bytes(offset, nbytes))
            outcomes[cold] = (data, dev.stats.as_dict(), dev.host_counters.as_dict())
        warm, cold = outcomes[False], outcomes[True]
        assert cold[0] == warm[0]
        assert cold[1] == warm[1]
        # only the host counters see the difference: one miss per cold access
        assert warm[2]["fd_cache.hits"] == 6
        assert cold[2]["fd_cache.misses"] == warm[2]["fd_cache.misses"] + 6


class TestPreadPath:
    """Reads go straight to ``os.pread`` on the cached descriptor: exact
    bytes for any offset and length, charged exactly once."""

    def _filled(self, tmp_path, n_items=5000):
        dev = BlockDevice(tmp_path, block_size=512)
        data = np.arange(n_items, dtype=np.int64)
        dev.open("data.bin").append_array(data)
        return dev, dev.open("data.bin"), data

    def test_random_reads_match_written_data(self, tmp_path):
        dev, f, data = self._filled(tmp_path)
        rng = np.random.default_rng(0)
        for _ in range(50):
            off = int(rng.integers(0, data.shape[0]))
            count = int(rng.integers(0, data.shape[0] - off + 1))
            np.testing.assert_array_equal(
                f.read_array(off, count), data[off : off + count]
            )

    def test_read_spanning_many_blocks(self, tmp_path):
        dev, f, data = self._filled(tmp_path)
        dev.stats.reset()
        np.testing.assert_array_equal(f.read_array(3, 4000), data[3:4003])
        # bytes [24, 32024) touch blocks 0..62 in one call
        assert dev.stats.blocks_read == 63
        assert dev.stats.read_calls == 1

    def test_read_past_eof_truncates(self, tmp_path):
        dev, f, data = self._filled(tmp_path, n_items=100)
        dev.stats.reset()
        raw = f.read_bytes(90 * 8, 1000)
        assert len(raw) == 10 * 8
        np.testing.assert_array_equal(np.frombuffer(raw, dtype=np.int64), data[90:])
        # only the bytes that exist are charged
        assert dev.stats.bytes_read == 10 * 8
        assert dev.stats.blocks_read == 1

    def test_chunked_scan_accounting_is_exact(self, tmp_path):
        dev, f, _ = self._filled(tmp_path, n_items=4096)
        dev.stats.reset()
        for offset in range(0, 4096, 128):
            f.read_array(offset, 128)  # 1 KB = 2 blocks per call
        assert dev.stats.read_calls == 32
        assert dev.stats.bytes_read == 4096 * 8
        assert dev.stats.blocks_read == 64
        # the head sits at the end of the write, so only the first call seeks
        assert dev.stats.random_reads == 2
        assert dev.stats.sequential_reads == 62
