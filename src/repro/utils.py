"""Small shared utilities: timing, size parsing, deterministic RNG, chunking.

The rest of the library never calls :func:`numpy.random.seed` globally;
instead every stochastic component accepts either an integer seed or a
:class:`numpy.random.Generator` and routes it through :func:`as_rng`, which
keeps experiments reproducible and lets property-based tests inject their
own entropy.
"""

from __future__ import annotations

import re
import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "as_rng",
    "parse_size",
    "format_size",
    "format_seconds",
    "PS_PER_SECOND",
    "whole_ps",
    "ps_per_unit",
    "ps_seconds",
    "check_non_negative",
    "Timer",
    "chunk_ranges",
    "even_splits",
    "prefix_sums",
]


def as_rng(seed: int | np.random.Generator | None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``seed``.

    ``None`` produces a default, non-deterministic generator; an ``int``
    produces a deterministic one; an existing generator is passed through
    unchanged.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


_SIZE_UNITS = {
    "": 1,
    "b": 1,
    "k": 1024,
    "kb": 1024,
    "kib": 1024,
    "m": 1024**2,
    "mb": 1024**2,
    "mib": 1024**2,
    "g": 1024**3,
    "gb": 1024**3,
    "gib": 1024**3,
    "t": 1024**4,
    "tb": 1024**4,
    "tib": 1024**4,
}

_SIZE_RE = re.compile(r"^\s*([0-9]*\.?[0-9]+)\s*([a-zA-Z]*)\s*$")


def parse_size(size: int | float | str) -> int:
    """Parse a human-readable byte size such as ``"8GB"`` or ``"512k"``.

    Integers and floats are returned as-is (rounded to int).  Units are
    interpreted as binary (1K = 1024 bytes), matching how the paper quotes
    memory budgets.
    """
    if isinstance(size, (int, float)) and not isinstance(size, bool):
        if size < 0:
            raise ValueError(f"size must be non-negative, got {size}")
        return int(size)
    match = _SIZE_RE.match(str(size))
    if not match:
        raise ValueError(f"cannot parse size {size!r}")
    value, unit = match.groups()
    unit = unit.lower()
    if unit not in _SIZE_UNITS:
        raise ValueError(f"unknown size unit {unit!r} in {size!r}")
    return int(float(value) * _SIZE_UNITS[unit])


def format_size(num_bytes: int | float) -> str:
    """Format ``num_bytes`` as a human-readable string (binary units)."""
    num = float(num_bytes)
    for unit in ("B", "KiB", "MiB", "GiB", "TiB", "PiB"):
        if abs(num) < 1024.0 or unit == "PiB":
            if unit == "B":
                return f"{int(num)}{unit}"
            return f"{num:.1f}{unit}"
        num /= 1024.0
    raise AssertionError("unreachable")


def format_seconds(seconds: float) -> str:
    """Format a duration the way the paper's tables do (``1h17m24.5s``)."""
    if seconds < 0:
        return "-" + format_seconds(-seconds)
    hours = int(seconds // 3600)
    minutes = int((seconds % 3600) // 60)
    secs = seconds - hours * 3600 - minutes * 60
    if hours:
        return f"{hours}h{minutes:02d}m{secs:04.1f}s"
    if minutes:
        return f"{minutes}m{secs:04.1f}s"
    return f"{secs:.1f}s"


#: Modelled time is an integer count of picoseconds.  Every rate the models
#: charge is a whole number of picoseconds per unit, so a sum of charges is
#: exact and does not depend on the order or grouping of its terms.
PS_PER_SECOND = 10**12


def whole_ps(seconds: float) -> int:
    """``seconds`` rounded to whole picoseconds."""
    return round(seconds * PS_PER_SECOND)


def ps_per_unit(units_per_second: float) -> int:
    """Whole picoseconds per unit at ``units_per_second``; a zero rate is free."""
    return round(PS_PER_SECOND / units_per_second) if units_per_second else 0


def ps_seconds(ps: int) -> float:
    """``ps`` picoseconds in seconds, for reports (correctly rounded)."""
    return ps / PS_PER_SECOND


def check_non_negative(**values: float) -> None:
    """Refuse a negative (or NaN) rate or latency of a cost model, which
    would charge negative time."""
    for name, value in values.items():
        if not value >= 0:
            raise ValueError(f"{name} must be non-negative, got {value}")


@dataclass
class Timer:
    """A tiny wall-clock timer usable as a context manager.

    >>> with Timer() as t:
    ...     pass
    >>> t.elapsed >= 0.0
    True
    """

    elapsed: float = 0.0
    _start: float | None = None

    def start(self) -> "Timer":
        self._start = time.perf_counter()
        return self

    def stop(self) -> float:
        if self._start is None:
            raise RuntimeError("Timer.stop() called before start()")
        self.elapsed += time.perf_counter() - self._start
        self._start = None
        return self.elapsed

    def __enter__(self) -> "Timer":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.stop()


def chunk_ranges(total: int, chunks: int) -> list[tuple[int, int]]:
    """Split ``range(total)`` into ``chunks`` contiguous half-open ranges.

    The ranges cover ``[0, total)`` exactly, are non-overlapping and differ
    in length by at most one element.  Used for the naive (non
    load-balanced) edge split and for parallel orientation.
    """
    if chunks <= 0:
        raise ValueError(f"chunks must be positive, got {chunks}")
    if total < 0:
        raise ValueError(f"total must be non-negative, got {total}")
    base, extra = divmod(total, chunks)
    ranges: list[tuple[int, int]] = []
    start = 0
    for i in range(chunks):
        length = base + (1 if i < extra else 0)
        ranges.append((start, start + length))
        start += length
    return ranges


def even_splits(weights: Sequence[float] | np.ndarray, parts: int) -> list[tuple[int, int]]:
    """Split indices ``[0, len(weights))`` into ``parts`` contiguous ranges
    with approximately equal total weight.

    This is the core of the paper's load-balancing step: weights are the
    per-edge in-degree estimates and the returned ranges keep edges
    contiguous (a hard requirement of the PDTL protocol) while equalising
    expected intersection work.  A simple greedy sweep against the ideal
    per-part quota is used; it is ``O(len(weights))``.
    """
    if parts <= 0:
        raise ValueError(f"parts must be positive, got {parts}")
    w = np.asarray(weights, dtype=np.float64)
    n = w.shape[0]
    if n == 0:
        return [(0, 0) for _ in range(parts)]
    if np.any(w < 0):
        raise ValueError("weights must be non-negative")
    cumulative = np.cumsum(w)
    total = float(cumulative[-1])
    if total == 0.0:
        return chunk_ranges(n, parts)
    boundaries = [0]
    for part in range(1, parts):
        target = total * part / parts
        # first index whose cumulative weight reaches the target
        idx = int(np.searchsorted(cumulative, target, side="left")) + 1
        idx = max(idx, boundaries[-1])
        idx = min(idx, n)
        boundaries.append(idx)
    boundaries.append(n)
    return [(boundaries[i], boundaries[i + 1]) for i in range(parts)]


def prefix_sums(values: Sequence[int] | np.ndarray) -> np.ndarray:
    """Exclusive prefix sums (length ``len(values) + 1``), as int64.

    ``prefix_sums(degrees)`` is the CSR ``indptr`` array.
    """
    arr = np.asarray(values, dtype=np.int64)
    out = np.zeros(arr.shape[0] + 1, dtype=np.int64)
    np.cumsum(arr, out=out[1:])
    return out


def ceil_div(a: int, b: int) -> int:
    """Integer ceiling division; ``ceil_div(0, b) == 0``."""
    if b <= 0:
        raise ValueError(f"divisor must be positive, got {b}")
    return -(-a // b)
