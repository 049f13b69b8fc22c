"""Property-based tests for the external-memory substrate."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.externalmem.blockio import BlockDevice
from repro.externalmem.iostats import scan_io_cost
from repro.externalmem.memory import MemoryBudget
from repro.errors import OutOfMemoryError

SETTINGS = dict(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)


@given(
    num_elements=st.integers(min_value=0, max_value=10**7),
    block=st.integers(min_value=1, max_value=10**5),
)
@settings(max_examples=60, deadline=None)
def test_scan_cost_is_tight_ceiling(num_elements, block):
    cost = scan_io_cost(num_elements, block)
    assert cost * block >= num_elements
    assert (cost - 1) * block < num_elements or cost == 0


@given(
    allocations=st.lists(
        st.tuples(st.text(alphabet="abcdef", min_size=1, max_size=3), st.integers(0, 500)),
        min_size=0,
        max_size=20,
    ),
    capacity=st.integers(min_value=1, max_value=2000),
)
@settings(max_examples=60, deadline=None)
def test_memory_budget_never_exceeds_capacity(allocations, capacity):
    budget = MemoryBudget(capacity)
    for name, size in allocations:
        try:
            budget.allocate(name, size)
        except OutOfMemoryError:
            pass
        assert budget.used <= budget.capacity
        assert budget.peak_usage <= budget.capacity


@given(
    data=st.lists(st.integers(-(2**40), 2**40), min_size=0, max_size=300),
    chunk=st.integers(min_value=1, max_value=64),
)
@settings(**SETTINGS)
def test_blockfile_roundtrip_and_chunked_read(tmp_path_factory, data, chunk):
    device = BlockDevice(tmp_path_factory.mktemp("blockio"), block_size=128)
    f = device.open("data.bin")
    arr = np.array(data, dtype=np.int64)
    f.append_array(arr)
    np.testing.assert_array_equal(f.read_array(0, arr.shape[0]), arr)
    chunks = list(f.iter_chunks(chunk))
    joined = np.concatenate(chunks) if chunks else np.empty(0, dtype=np.int64)
    np.testing.assert_array_equal(joined, arr)


@given(
    reads=st.lists(
        st.tuples(st.integers(0, 900), st.integers(1, 100)), min_size=1, max_size=30
    )
)
@settings(**SETTINGS)
def test_block_accounting_bounds(tmp_path_factory, reads):
    """Blocks read are always enough to cover the bytes read, and never more
    than bytes/block + 1 extra block per call."""
    device = BlockDevice(tmp_path_factory.mktemp("acct"), block_size=64)
    f = device.open("data.bin")
    f.append_array(np.arange(1000, dtype=np.int64))
    device.stats.reset()
    total_bytes = 0
    for offset, count in reads:
        f.read_array(offset, count)
        total_bytes += count * 8
    stats = device.stats
    assert stats.bytes_read == total_bytes
    assert stats.blocks_read * 64 >= total_bytes
    assert stats.blocks_read <= total_bytes // 64 + 2 * len(reads)
    assert stats.sequential_reads + stats.random_reads == stats.blocks_read
