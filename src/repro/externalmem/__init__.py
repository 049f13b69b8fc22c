"""External-memory substrate: block-granular I/O and memory budgets.

The paper's analysis follows the Aggarwal–Vitter I/O model: a disk with
block size ``B`` and a memory of size ``M``, where reading ``N``
consecutive elements costs ``scan(N) = Θ(N/B)`` I/Os.  The paper's input
is already in its sorted binary format, so the ``sort(N)`` term that
Theorem IV.2 adds for an unsorted input is never paid here.  This
subpackage provides a concrete substrate for those abstractions:

* :class:`~repro.externalmem.blockio.BlockDevice` -- a simulated disk that
  wraps a real directory, tracks every block read/written, distinguishes
  sequential from random accesses, and can model a bandwidth cap (the
  "SSD capped at 500 MB/s" effect of the paper's Figure 2).
* :class:`~repro.externalmem.blockio.BlockFile` -- a file on a block
  device with typed numpy read/write helpers.
* :class:`~repro.externalmem.memory.MemoryBudget` -- a per-processor memory
  budget ``M`` that raises :class:`~repro.errors.OutOfMemoryError` on
  over-allocation (this is how partition-based baselines fail on large
  graphs the way PowerGraph does in Table VI).
* :class:`~repro.externalmem.iostats.IOStats` -- the counters, and the
  analytic ``scan`` formula used both for accounting and for the
  cost-model validation benchmarks.
"""

from repro.externalmem.blockio import BlockDevice, BlockFile
from repro.externalmem.iostats import IOStats, scan_io_cost
from repro.externalmem.memory import MemoryBudget

__all__ = [
    "BlockDevice",
    "BlockFile",
    "IOStats",
    "MemoryBudget",
    "scan_io_cost",
]
