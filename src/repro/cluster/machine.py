"""Simulated machines: cores, memory, and a local block-device disk.

Every node of the paper's clusters stores its own copy of the graph on a
local SSD ("we store a graph copy locally, since each graph is read at
least once per processor", section V-B).  :class:`Machine` therefore owns
a private :class:`~repro.externalmem.blockio.BlockDevice` rooted in its own
directory, a core count, and the per-core memory size; the PDTL master
copies the oriented graph onto each machine's device before the triangle
phase starts.
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import ConfigurationError
from repro.externalmem.blockio import BlockDevice, DiskModel
from repro.utils import format_size, parse_size

__all__ = ["Machine"]


@dataclass
class Machine:
    """One simulated cluster node.

    Parameters
    ----------
    index:
        node id; node 0 is always the master.
    num_cores:
        ``P`` for this machine.
    memory_per_core:
        ``M`` bytes for each of its cores.
    device:
        the machine's local disk.  When omitted, a temporary directory is
        created (and remembered so :meth:`cleanup` can delete it).
    """

    index: int
    num_cores: int
    memory_per_core: int
    device: BlockDevice
    _owns_tempdir: bool = field(default=False, repr=False)
    _tempdir: tempfile.TemporaryDirectory | None = field(default=None, repr=False)

    def __init__(
        self,
        index: int,
        num_cores: int,
        memory_per_core: int | str,
        device: BlockDevice | None = None,
        block_size: int = 4096,
        disk_model: DiskModel | None = None,
        storage_root: str | Path | None = None,
    ) -> None:
        if num_cores <= 0:
            raise ConfigurationError(f"machine {index} needs at least one core")
        self.index = int(index)
        self.num_cores = int(num_cores)
        self.memory_per_core = parse_size(memory_per_core)
        if self.memory_per_core <= 0:
            raise ConfigurationError("memory_per_core must be positive")
        self._owns_tempdir = False
        self._tempdir = None
        if device is not None:
            self.device = device
        else:
            if storage_root is not None:
                root = Path(storage_root) / f"node{index}"
            else:
                self._tempdir = tempfile.TemporaryDirectory(prefix=f"pdtl_node{index}_")
                self._owns_tempdir = True
                root = Path(self._tempdir.name)
            self.device = BlockDevice(root, block_size=block_size, model=disk_model)

    # -- capacity ------------------------------------------------------------------

    @property
    def total_memory(self) -> int:
        """``P · M`` for this machine."""
        return self.num_cores * self.memory_per_core

    @property
    def is_master(self) -> bool:
        return self.index == 0

    def describe(self) -> str:
        return (
            f"Machine(index={self.index}, cores={self.num_cores}, "
            f"memory/core={format_size(self.memory_per_core)}, "
            f"disk={self.device.root})"
        )

    def cleanup(self) -> None:
        """Delete the machine's temporary storage (no-op for shared devices)."""
        if self._owns_tempdir and self._tempdir is not None:
            self._tempdir.cleanup()
            self._tempdir = None
