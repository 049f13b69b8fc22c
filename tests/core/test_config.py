"""Unit tests for PDTLConfig."""

from __future__ import annotations

from dataclasses import fields

import pytest

from repro.core.config import PDTLConfig
from repro.errors import ConfigurationError


class TestValidation:
    def test_defaults_are_valid(self):
        cfg = PDTLConfig()
        assert cfg.num_nodes == 1
        assert cfg.procs_per_node == 1
        assert cfg.total_processors == 1

    def test_memory_string_parsing(self):
        cfg = PDTLConfig(memory_per_proc="8MB")
        assert cfg.memory_per_proc == 8 * 1024 * 1024

    def test_zero_nodes_rejected(self):
        with pytest.raises(ConfigurationError):
            PDTLConfig(num_nodes=0)

    def test_zero_procs_rejected(self):
        with pytest.raises(ConfigurationError):
            PDTLConfig(procs_per_node=0)

    def test_block_larger_than_memory_rejected(self):
        with pytest.raises(ConfigurationError):
            PDTLConfig(memory_per_proc=1024, block_size=4096)

    def test_invalid_fill_fraction(self):
        with pytest.raises(ConfigurationError):
            PDTLConfig(memory_fill_fraction=1.0)
        with pytest.raises(ConfigurationError):
            PDTLConfig(memory_fill_fraction=0.0)

    def test_negative_memory_rejected(self):
        with pytest.raises((ConfigurationError, ValueError)):
            PDTLConfig(memory_per_proc=-5)

    def test_straggler_spec_normalised_from_dict(self):
        cfg = PDTLConfig(
            procs_per_node=4, scheduling="dynamic", straggler_spec={2: 3.0, 0: 1.5}
        )
        assert cfg.straggler_spec == ((0, 1.5), (2, 3.0))
        assert cfg.straggler_factors == {0: 1.5, 2: 3.0}

    def test_straggler_spec_rejects_bad_factors_and_workers(self):
        with pytest.raises(ConfigurationError):
            PDTLConfig(procs_per_node=2, scheduling="dynamic", straggler_spec={0: 0.0})
        with pytest.raises(ConfigurationError):
            PDTLConfig(procs_per_node=2, scheduling="dynamic", straggler_spec={9: 2.0})
        with pytest.raises(ConfigurationError):
            PDTLConfig(
                procs_per_node=2,
                scheduling="dynamic",
                straggler_spec=[(0, 2.0), (0, 3.0)],
            )

    def test_shm_flag_defaults_off_and_is_hashable(self):
        assert PDTLConfig().shm is False
        cfg = PDTLConfig(shm=True, scheduling="dynamic", straggler_spec={0: 2.0})
        hash(cfg)  # frozen config stays hashable with the new spec tuples


class TestDerivedQuantities:
    def test_total_processors_and_memory(self):
        cfg = PDTLConfig(num_nodes=3, procs_per_node=4, memory_per_proc=1024 * 1024)
        assert cfg.total_processors == 12
        assert cfg.total_memory == 12 * 1024 * 1024

    def test_window_edges(self):
        cfg = PDTLConfig(memory_per_proc=1024, block_size=512, memory_fill_fraction=0.5)
        assert cfg.window_edges == 64  # 512 bytes / 8

    def test_block_items(self):
        cfg = PDTLConfig(block_size=4096)
        assert cfg.block_items == 512

    def test_single_core_restriction(self):
        cfg = PDTLConfig(num_nodes=4, procs_per_node=8)
        single = cfg.single_core()
        assert single.num_nodes == 1
        assert single.procs_per_node == 1
        assert single.memory_per_proc == cfg.memory_per_proc

    def test_with_cores_nodes_memory(self):
        cfg = PDTLConfig()
        assert cfg.with_cores(8).procs_per_node == 8
        assert cfg.with_nodes(3).num_nodes == 3
        assert cfg.with_memory("2MB").memory_per_proc == 2 * 1024 * 1024

    def test_describe_mentions_parameters(self):
        text = PDTLConfig(num_nodes=2, procs_per_node=3).describe()
        assert "N=2" in text and "P=3" in text
        assert "sink" not in text  # the kind is run()'s, not the config's

    def test_frozen(self):
        cfg = PDTLConfig()
        with pytest.raises(AttributeError):
            cfg.num_nodes = 5  # type: ignore[misc]


class TestFields:
    def test_fields_are_the_environment_model(self):
        """(N, P, M, B), the ``c`` constant, the range split and the run's
        host switches -- the sink kind is an argument of ``run()``, and the
        kernel tier belongs to the process, not to a run."""
        assert [f.name for f in fields(PDTLConfig)] == [
            "num_nodes", "procs_per_node", "memory_per_proc", "block_size",
            "memory_fill_fraction", "load_balanced", "scheduling", "chunk_edges",
            "failure_spec", "straggler_spec", "modelled_cpu", "shm", "trace",
        ]
