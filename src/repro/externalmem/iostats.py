"""I/O statistics counters and the Aggarwal–Vitter scan cost.

Two distinct things live here on purpose:

* :class:`IOStats` counts what a :class:`~repro.externalmem.blockio.BlockDevice`
  *actually did* (block reads/writes, sequential vs. random, bytes moved,
  modelled device picoseconds);
* :func:`scan_io_cost` computes what the theory says a sequential scan
  *should* cost, so benchmarks can compare measured counters against the
  Theorem IV.2 / IV.3 predictions.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields, replace

from repro.utils import ps_seconds

__all__ = ["IOStats", "scan_io_cost"]


@dataclass
class IOStats:
    """Mutable block-I/O counters attached to a block device or file.

    ``sequential_reads`` counts block reads whose block id directly follows
    the previously read block of the same file (the cheap case in the
    external-memory model); everything else is a ``random_read``.  The same
    split applies to writes.  ``device_ps`` accumulates the modelled
    transfer time, in whole picoseconds, that the owning device's
    bandwidth/latency model charges; it is what the Figure 6-8 I/O-vs-CPU
    breakdowns report.  Every counter is an integer, so merging counters in
    any order or grouping gives the same totals.
    """

    block_size: int = 4096
    blocks_read: int = 0
    blocks_written: int = 0
    sequential_reads: int = 0
    random_reads: int = 0
    sequential_writes: int = 0
    random_writes: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    read_calls: int = 0
    write_calls: int = 0
    device_ps: int = 0

    @property
    def device_seconds(self) -> float:
        return ps_seconds(self.device_ps)

    @property
    def total_blocks(self) -> int:
        return self.blocks_read + self.blocks_written

    @property
    def total_bytes(self) -> int:
        return self.bytes_read + self.bytes_written

    def record_read(self, blocks: int, nbytes: int, sequential: bool) -> None:
        self.blocks_read += blocks
        self.bytes_read += nbytes
        self.read_calls += 1
        if sequential:
            self.sequential_reads += blocks
        else:
            self.random_reads += blocks

    def record_write(self, blocks: int, nbytes: int, sequential: bool) -> None:
        self.blocks_written += blocks
        self.bytes_written += nbytes
        self.write_calls += 1
        if sequential:
            self.sequential_writes += blocks
        else:
            self.random_writes += blocks

    def merge(self, other: "IOStats") -> None:
        """Accumulate another counter set into this one (block size kept)."""
        for name in _COUNTER_FIELDS:
            setattr(self, name, getattr(self, name) + getattr(other, name))

    def reset(self) -> None:
        block_size = self.block_size
        self.__init__(block_size=block_size)  # type: ignore[misc]

    def snapshot(self) -> "IOStats":
        """Return an independent copy of the current counters."""
        return replace(self)

    def delta(self, baseline: "IOStats") -> "IOStats":
        """Counters accumulated since ``baseline`` (an earlier snapshot).

        Used to isolate one phase of a run -- e.g. the master's
        preprocessing I/O -- so tests can assert that two execution
        strategies charged exactly the same accounting for that phase.
        """
        diff = IOStats(block_size=self.block_size)
        for name in _COUNTER_FIELDS:
            setattr(diff, name, getattr(self, name) - getattr(baseline, name))
        return diff

    def as_dict(self) -> dict[str, int]:
        """Every field, in declaration order."""
        return asdict(self)


#: Every IOStats field except the block size is an additive counter;
#: merge() and delta() iterate this so new counters join them automatically.
_COUNTER_FIELDS = tuple(f.name for f in fields(IOStats) if f.name != "block_size")


def scan_io_cost(num_elements: int, block_size_elements: int) -> int:
    """``scan(N) = ⌈N / B⌉`` block I/Os for reading N elements sequentially."""
    if block_size_elements <= 0:
        raise ValueError("block size must be positive")
    if num_elements <= 0:
        return 0
    return -(-num_elements // block_size_elements)
