"""Exception hierarchy for the PDTL reproduction library.

All library-specific errors derive from :class:`PDTLError` so callers can
catch a single base class.  The most important subclass is
:class:`OutOfMemoryError`, which the simulated memory budgets and the
partition-based baselines (PowerGraph/PATRIC-style) raise when a requested
allocation exceeds the configured per-machine memory -- this is how the
reproduction models the "F" (out-of-memory) entries of Table VI and
Table XIV of the paper.
"""

from __future__ import annotations


class PDTLError(Exception):
    """Base class for all errors raised by :mod:`repro`."""


class GraphFormatError(PDTLError):
    """Raised when an on-disk or in-memory graph violates format invariants.

    The modified MGT algorithm (paper section IV-A1) requires the adjacency
    file to be sorted by source vertex and, within each adjacency list, by
    destination vertex.  Violations of that contract raise this error rather
    than silently missing triangles (the failure mode the paper observed in
    the original MGT binary).
    """


class OutOfMemoryError(PDTLError):
    """Raised when an allocation exceeds a simulated memory budget.

    Mirrors the out-of-memory failures ("F") the paper reports for
    PowerGraph on Yahoo and RMAT-28/29 (Table VI, Table XIV).
    """

    def __init__(self, requested: int, available: int, context: str = "") -> None:
        self.requested = int(requested)
        self.available = int(available)
        self.context = context
        msg = (
            f"allocation of {requested} bytes exceeds available budget of "
            f"{available} bytes"
        )
        if context:
            msg += f" ({context})"
        super().__init__(msg)


class ConfigurationError(PDTLError):
    """Raised for invalid cluster / PDTL configurations.

    Examples: zero processors, block size larger than memory, or a memory
    budget too small to satisfy the small-degree assumption
    (``d*_max <= c * M / 2``) for the graph being processed.
    """


class NetworkError(PDTLError):
    """Raised for simulated network failures (unknown node, link down)."""


class SchedulingError(PDTLError):
    """Raised when the dynamic chunk scheduler cannot make progress.

    The only way this happens is that every simulated worker has been killed
    by the failure-injection spec while chunks are still pending: with at
    least one surviving worker the pull-based queue always drains, because a
    lost worker's unfinished chunk is re-enqueued for the survivors.
    """
