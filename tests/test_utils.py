"""Unit tests for repro.utils helpers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.utils import (
    Timer,
    ceil_div,
    chunk_ranges,
    even_splits,
    format_seconds,
    format_size,
    parse_size,
    prefix_sums,
)


class TestParseSize:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("1024", 1024),
            ("1KB", 1024),
            ("1k", 1024),
            ("2MB", 2 * 1024**2),
            ("1.5GiB", int(1.5 * 1024**3)),
            ("3TB", 3 * 1024**4),
            (4096, 4096),
            (12.7, 12),
        ],
    )
    def test_valid(self, text, expected):
        assert parse_size(text) == expected

    @pytest.mark.parametrize("bad", ["", "abc", "12XB", -1])
    def test_invalid(self, bad):
        with pytest.raises(ValueError):
            parse_size(bad)

    def test_format_roundtrip(self):
        assert format_size(1024) == "1.0KiB"
        assert format_size(500) == "500B"
        assert format_size(3 * 1024**3) == "3.0GiB"


class TestDurations:
    def test_format(self):
        assert format_seconds(164.2) == "2m44.2s"
        assert format_seconds(4644.5) == "1h17m24.5s"
        assert format_seconds(0.3) == "0.3s"
        assert format_seconds(-5.0).startswith("-")


class TestTimers:
    def test_timer_context(self):
        with Timer() as t:
            pass
        assert t.elapsed >= 0.0

    def test_timer_accumulates(self):
        t = Timer()
        t.start()
        t.stop()
        first = t.elapsed
        t.start()
        t.stop()
        assert t.elapsed >= first

    def test_stop_without_start(self):
        with pytest.raises(RuntimeError):
            Timer().stop()


class TestChunking:
    def test_chunk_ranges_cover(self):
        ranges = chunk_ranges(10, 3)
        assert ranges == [(0, 4), (4, 7), (7, 10)]

    def test_chunk_ranges_more_chunks_than_items(self):
        ranges = chunk_ranges(2, 5)
        assert ranges[0] == (0, 1)
        assert ranges[-1] == (2, 2)
        assert sum(b - a for a, b in ranges) == 2

    def test_chunk_ranges_invalid(self):
        with pytest.raises(ValueError):
            chunk_ranges(5, 0)
        with pytest.raises(ValueError):
            chunk_ranges(-1, 2)

    def test_even_splits_balances_weights(self):
        weights = np.array([10, 1, 1, 1, 1, 1, 1, 10], dtype=float)
        ranges = even_splits(weights, 2)
        totals = [weights[a:b].sum() for a, b in ranges]
        assert abs(totals[0] - totals[1]) <= 10

    def test_even_splits_zero_weights_fall_back_to_equal(self):
        ranges = even_splits(np.zeros(9), 3)
        assert [b - a for a, b in ranges] == [3, 3, 3]

    def test_even_splits_empty(self):
        assert even_splits(np.array([]), 3) == [(0, 0)] * 3

    def test_even_splits_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            even_splits(np.array([1.0, -1.0]), 2)

    def test_prefix_sums(self):
        out = prefix_sums([2, 0, 3])
        assert out.tolist() == [0, 2, 2, 5]
        assert prefix_sums([]).tolist() == [0]


class TestIntegerHelpers:
    def test_ceil_div(self):
        assert ceil_div(10, 3) == 4
        assert ceil_div(9, 3) == 3
        assert ceil_div(0, 5) == 0
        with pytest.raises(ValueError):
            ceil_div(1, 0)
