"""Unit tests for external merge sort of edge files."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.externalmem.blockio import BlockDevice
from repro.externalmem.extsort import (
    _sort_window_fast,
    external_sort_edges,
    read_edge_file,
    write_edge_file,
)


def random_edges(m: int, n: int, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.integers(0, n, size=(m, 2), dtype=np.int64)


def is_lexsorted(edges: np.ndarray) -> bool:
    if edges.shape[0] <= 1:
        return True
    keys = edges[:, 0] * (edges[:, 1].max() + 1 if edges.size else 1) + edges[:, 1]
    # robust check without overflow concerns for test sizes
    for i in range(1, edges.shape[0]):
        a, b = edges[i - 1], edges[i]
        if (a[0], a[1]) > (b[0], b[1]):
            return False
    return True


class TestEdgeFileHelpers:
    def test_write_read_roundtrip(self, device):
        edges = random_edges(50, 20)
        write_edge_file(device, "edges.bin", edges)
        np.testing.assert_array_equal(read_edge_file(device, "edges.bin"), edges)

    def test_empty_file(self, device):
        write_edge_file(device, "empty.bin", np.empty((0, 2), dtype=np.int64))
        assert read_edge_file(device, "empty.bin").shape == (0, 2)


class TestExternalSort:
    def test_sorts_small_input_in_one_run(self, device):
        edges = random_edges(100, 30, seed=1)
        write_edge_file(device, "in.bin", edges)
        result = external_sort_edges(device, "in.bin", "out.bin", memory_bytes=1 << 20)
        assert result.num_runs == 1
        assert result.merge_passes == 0
        out = read_edge_file(device, "out.bin")
        assert is_lexsorted(out)
        assert out.shape == edges.shape

    def test_multi_run_merge(self, device):
        edges = random_edges(2000, 100, seed=2)
        write_edge_file(device, "in.bin", edges)
        # memory for only ~128 edges per run -> many runs and >= 1 merge pass
        result = external_sort_edges(device, "in.bin", "out.bin", memory_bytes=2048)
        assert result.num_runs > 1
        assert result.merge_passes >= 1
        out = read_edge_file(device, "out.bin")
        assert is_lexsorted(out)

    def test_output_is_permutation_of_input(self, device):
        edges = random_edges(500, 40, seed=3)
        write_edge_file(device, "in.bin", edges)
        external_sort_edges(device, "in.bin", "out.bin", memory_bytes=4096)
        out = read_edge_file(device, "out.bin")
        expected = edges[np.lexsort((edges[:, 1], edges[:, 0]))]
        np.testing.assert_array_equal(out, expected)

    def test_already_sorted_input(self, device):
        edges = random_edges(300, 30, seed=4)
        edges = edges[np.lexsort((edges[:, 1], edges[:, 0]))]
        write_edge_file(device, "in.bin", edges)
        external_sort_edges(device, "in.bin", "out.bin", memory_bytes=2048)
        np.testing.assert_array_equal(read_edge_file(device, "out.bin"), edges)

    def test_empty_input(self, device):
        write_edge_file(device, "in.bin", np.empty((0, 2), dtype=np.int64))
        result = external_sort_edges(device, "in.bin", "out.bin", memory_bytes=4096)
        assert result.num_edges == 0
        assert read_edge_file(device, "out.bin").shape == (0, 2)

    def test_duplicates_preserved(self, device):
        edges = np.array([[1, 2]] * 10 + [[0, 5]] * 5, dtype=np.int64)
        write_edge_file(device, "in.bin", edges)
        external_sort_edges(device, "in.bin", "out.bin", memory_bytes=512)
        out = read_edge_file(device, "out.bin")
        assert out.shape[0] == 15
        assert (out[:5] == [0, 5]).all()
        assert (out[5:] == [1, 2]).all()

    def test_input_left_intact(self, device):
        edges = random_edges(200, 20, seed=5)
        write_edge_file(device, "in.bin", edges)
        external_sort_edges(device, "in.bin", "out.bin", memory_bytes=1024)
        np.testing.assert_array_equal(read_edge_file(device, "in.bin"), edges)

    def test_temporary_runs_cleaned_up(self, device):
        edges = random_edges(1000, 50, seed=6)
        write_edge_file(device, "in.bin", edges)
        external_sort_edges(device, "in.bin", "out.bin", memory_bytes=1024)
        leftovers = [f for f in device.list_files() if f.startswith("_extsort")]
        assert leftovers == []

    def test_too_small_memory_rejected(self, device):
        write_edge_file(device, "in.bin", random_edges(10, 5))
        with pytest.raises(ConfigurationError):
            external_sort_edges(device, "in.bin", "out.bin", memory_bytes=16)

    def test_io_is_accounted(self, device):
        edges = random_edges(1000, 50, seed=7)
        write_edge_file(device, "in.bin", edges)
        device.stats.reset()
        external_sort_edges(device, "in.bin", "out.bin", memory_bytes=2048)
        # at minimum the input is read once and the output written once
        assert device.stats.bytes_read >= edges.nbytes
        assert device.stats.bytes_written >= edges.nbytes

    def test_invalid_merge_impl_rejected(self, device):
        write_edge_file(device, "in.bin", random_edges(10, 5))
        with pytest.raises(ConfigurationError):
            external_sort_edges(
                device, "in.bin", "out.bin", memory_bytes=4096, merge_impl="bogus"
            )


class TestFanInDerivation:
    """The derived fan-in must actually scale with the memory cap."""

    def _fan_in_for(self, device, memory_bytes: int) -> int:
        edges = random_edges(200, 30, seed=8)
        write_edge_file(device, "in.bin", edges)
        result = external_sort_edges(
            device, "in.bin", "fanout.bin", memory_bytes=memory_bytes
        )
        return result.fan_in

    def test_fan_in_scales_with_memory(self, device):
        # device block size is 512 bytes -> 32 edges per stream buffer
        small = self._fan_in_for(device, 1024)       # 64 edges of memory
        medium = self._fan_in_for(device, 16 * 1024)  # 1024 edges
        large = self._fan_in_for(device, 1 << 20)     # plenty
        assert small < medium < large
        # memory_edges // buffer_edges - 1, clamped to [2, 64]
        assert small == 2                                  # 64 // 32 - 1 == 1 -> clamp
        assert medium == (16 * 1024 // 16) // (512 // 16) - 1  # == 31

    def test_fan_in_clamped(self, device):
        assert self._fan_in_for(device, 256) == 2       # lower clamp
        assert self._fan_in_for(device, 1 << 24) == 64  # upper clamp

    def test_explicit_fan_in_respected(self, device):
        edges = random_edges(500, 30, seed=9)
        write_edge_file(device, "in.bin", edges)
        result = external_sort_edges(
            device, "in.bin", "out.bin", memory_bytes=1024, fan_in=3
        )
        assert result.fan_in == 3
        assert is_lexsorted(read_edge_file(device, "out.bin"))

    def test_phase_timings_recorded(self, device):
        edges = random_edges(2000, 50, seed=10)
        write_edge_file(device, "in.bin", edges)
        result = external_sort_edges(device, "in.bin", "out.bin", memory_bytes=1024)
        assert result.merge_passes >= 1
        assert result.formation_seconds > 0.0
        assert result.merge_seconds > 0.0


class TestMergeEdgeCases:
    """Edge cases the vectorised-merge rewrite left thin, exercised for
    both merge implementations."""

    def _out_bytes(self, device, name="out.bin") -> bytes:
        path = device.path(name)
        return path.read_bytes() if path.exists() else b""

    @pytest.mark.parametrize("merge_impl", ["vectorized", "heapq"])
    def test_empty_input_file(self, device, merge_impl):
        write_edge_file(device, "in.bin", np.empty((0, 2), dtype=np.int64))
        result = external_sort_edges(
            device,
            "in.bin",
            "out.bin",
            memory_bytes=4096,
            merge_impl=merge_impl,
        )
        assert result.num_edges == 0
        assert result.num_runs == 0
        assert result.merge_passes == 0
        assert read_edge_file(device, "out.bin").shape == (0, 2)

    @pytest.mark.parametrize("merge_impl", ["vectorized", "heapq"])
    def test_single_run_smaller_than_one_block(self, device, merge_impl):
        """A run below the device block size (512 B = 32 edges here) still
        round-trips through run formation and the final copy exactly."""
        edges = random_edges(20, 10, seed=3)
        write_edge_file(device, "in.bin", edges)
        result = external_sort_edges(
            device,
            "in.bin",
            "out.bin",
            memory_bytes=1 << 16,
            merge_impl=merge_impl,
        )
        assert result.num_runs == 1
        assert result.merge_passes == 0
        out = read_edge_file(device, "out.bin")
        assert out.nbytes < device.block_size
        expected = edges[np.lexsort((edges[:, 1], edges[:, 0]))]
        np.testing.assert_array_equal(out, expected)

    def test_fan_in_clamped_low_end_to_end(self, device):
        """Derived fan-in at the lower clamp (2): many binary merge passes,
        both merge impls byte-identical."""
        edges = random_edges(600, 40, seed=4)
        write_edge_file(device, "in.bin", edges)
        outputs = {}
        for merge_impl in ("vectorized", "heapq"):
            result = external_sort_edges(
                device,
                "in.bin",
                f"out_{merge_impl}.bin",
                memory_bytes=256,  # 16 edges/run, buffer 32 edges -> clamp at 2
                merge_impl=merge_impl,
            )
            assert result.fan_in == 2
            assert result.merge_passes >= 5  # ceil(log2(38 runs))
            outputs[merge_impl] = self._out_bytes(device, f"out_{merge_impl}.bin")
        assert outputs["vectorized"] == outputs["heapq"] != b""
        assert is_lexsorted(read_edge_file(device, "out_vectorized.bin"))

    def test_fan_in_clamped_high_end_to_end(self, device):
        """Derived fan-in at the upper clamp (64): one wide merge pass."""
        edges = random_edges(8000, 300, seed=5)
        write_edge_file(device, "in.bin", edges)
        result = external_sort_edges(
            device,
            "in.bin",
            "out.bin",
            memory_bytes=36864,  # 2304 edges -> 2304//32 - 1 = 71 -> clamp 64
        )
        assert result.fan_in == 64
        assert result.num_runs == 4
        assert result.merge_passes == 1
        assert is_lexsorted(read_edge_file(device, "out.bin"))

    def test_merge_impls_byte_identical_on_radix_sorted_runs(self, device):
        """heapq vs vectorized merges of the radix-sorted runs: identical
        output bytes and identical accounting."""
        edges = random_edges(3000, 120, seed=6)
        write_edge_file(device, "in.bin", edges)
        stats = {}
        for merge_impl in ("vectorized", "heapq"):
            baseline = device.stats.snapshot()
            external_sort_edges(
                device,
                "in.bin",
                f"out_{merge_impl}.bin",
                memory_bytes=2048,
                merge_impl=merge_impl,
            )
            stats[merge_impl] = device.stats.delta(baseline)
        assert (
            self._out_bytes(device, "out_vectorized.bin")
            == self._out_bytes(device, "out_heapq.bin")
            != b""
        )
        v, h = stats["vectorized"].as_dict(), stats["heapq"].as_dict()
        v.pop("device_seconds"), h.pop("device_seconds")  # float base differs
        assert v == h

    def test_negative_ids_fall_back_to_lexsort(self, device):
        """Unpackable windows (negative ids) take the stable-lexsort
        fallback in run formation and the heapq merge -- the output is
        still the lexicographic order."""
        rng = np.random.default_rng(7)
        edges = rng.integers(-50, 50, size=(900, 2), dtype=np.int64)
        write_edge_file(device, "in.bin", edges)
        result = external_sort_edges(device, "in.bin", "out.bin", memory_bytes=1024)
        assert result.num_runs > 1
        np.testing.assert_array_equal(
            read_edge_file(device, "out.bin"),
            edges[np.lexsort((edges[:, 1], edges[:, 0]))],
        )


_INT32_MAX = 2**31 - 1


def _with_rows(rows: list[tuple[int, int]], seed: int) -> np.ndarray:
    """A shuffled window of small random edges plus the given extreme rows."""
    rng = np.random.default_rng(seed)
    small = rng.integers(0, 40, size=(200, 2), dtype=np.int64)
    window = np.vstack([small, np.array(rows, dtype=np.int64)])
    return window[rng.permutation(window.shape[0])]


_WINDOWS = {
    "empty": lambda: np.empty((0, 2), dtype=np.int64),
    "single": lambda: np.array([[5, 3]], dtype=np.int64),
    "all_equal": lambda: np.full((50, 2), 7, dtype=np.int64),
    "all_zero": lambda: np.zeros((20, 2), dtype=np.int64),
    "reverse_sorted": lambda: np.stack(
        [np.repeat(np.arange(30, 0, -1), 3), np.tile([9, 4, 1], 30)], axis=1
    ).astype(np.int64),
    "random_duplicates": lambda: random_edges(500, 30, seed=8),
    # max_src * (max_dst + 1) + max_dst == 2**63 - 1: the last packable window
    "at_packing_limit": lambda: _with_rows([(2**32 - 1, _INT32_MAX)], seed=9),
    # one past it: the stable lexsort fallback
    "past_packing_limit": lambda: _with_rows([(2**32, _INT32_MAX)], seed=10),
    "negative_ids": lambda: _with_rows([(-3, 4), (2, -7)], seed=11),
}


class TestRadixWindowSort:
    """``_sort_window_fast`` is run formation's only window sort: on every
    window, packable or not, it must equal the stable lexsort byte for
    byte and report the window's extrema."""

    @pytest.mark.parametrize("case", sorted(_WINDOWS))
    def test_matches_lexsort_and_reports_extrema(self, case):
        window = _WINDOWS[case]()
        fast, max_src, max_dst, min_value = _sort_window_fast(window)
        expected = window[np.lexsort((window[:, 1], window[:, 0]))]
        assert fast.dtype == np.int64
        assert fast.shape == window.shape
        assert np.ascontiguousarray(fast).tobytes() == expected.tobytes()
        if window.shape[0] == 0:
            assert (max_src, max_dst, min_value) == (-1, -1, 0)
        else:
            assert max_src == int(window[:, 0].max())
            assert max_dst == int(window[:, 1].max())
            assert min_value == int(window.min())
