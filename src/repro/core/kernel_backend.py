"""Kernel-tier selection: a two-state numpy|C switch for the hot primitives.

:mod:`repro.core.kernels` evaluates every hot path with batched numpy,
3-5 full-array passes per primitive with materialised intermediates.  The
*compiled* tier, :mod:`repro.core.kernels_cffi`, fuses each chain into one
allocation-free C loop, built once into a cached extension module.

The tier is a property of the process, chosen in three ways only: the
``KERNEL_BACKEND`` environment variable (default ``"auto"``), read on the
first dispatch; an explicit :func:`activate`, which overrides it; and
:func:`use`, which switches for the length of a ``with`` block and then
restores the previous choice.  ``auto`` takes the C tier when it works and
numpy otherwise, silently; an explicit ``cffi`` that does not work
degrades to numpy with one :class:`RuntimeWarning` naming the reason.  A
run reads the tier and never chooses one: every chunk task carries the
master's resolved tier (``ChunkTask.kernel_tier``), and a pool worker on
another tier activates the master's before it scans.

Availability is *whole-tier*: one cached probe per process builds or loads
the extension, runs every kernel once on a miniature graph and compares it
with its numpy twin.  Any build failure, crash or disagreement refuses the
whole tier, so a process runs either every kernel in C or every kernel in
numpy.  Dispatch happens inside :mod:`repro.core.kernels` (primitives) and
via :func:`fused` (the multi-pass entry points of the MGT worker and the
truss peeler, and the master's orientation filter, shared-memory
transpose and format check).

Both tiers are bit-identical by contract: triangle counts, listing order,
edge supports, IOStats and modelled operation counts do not change with
the tier (``tests/cluster/test_backend_equivalence.py`` enforces this
across all four execution backends).
"""

from __future__ import annotations

import os
import warnings
from contextlib import contextmanager
from typing import Callable, Iterator

import numpy as np

from repro.core import kernels
from repro.errors import ConfigurationError
from repro.obs.logconfig import fallback_message

__all__ = [
    "BACKEND_NAMES",
    "activate",
    "active_backend",
    "compiled_available",
    "dispatch_counts",
    "fused",
    "initialize_default",
    "reset_dispatch_counts",
    "use",
    "warmup",
]

#: Accepted values for ``KERNEL_BACKEND``, :func:`activate` and :func:`use`.
BACKEND_NAMES = ("auto", "numpy", "cffi")

# resolved state: what was asked for and what we ended up with
_requested: str | None = None
_resolved: str | None = None

# the per-process probe result: (C registry or None, reason it is None)
_probe: tuple[dict[str, Callable] | None, str] | None = None
_warned: set[str] = set()

# per-process fused-dispatch counts, keyed "<kernel>.<tier>"; plain int
# increments (observability only, harvested by repro.obs.metrics)
_dispatch_counts: dict[str, int] = {}


def dispatch_counts() -> dict[str, int]:
    """Copy of this process's fused-kernel dispatch counts.

    Keys are ``"<kernel>.<tier>"`` (``"mgt_block_scan.cffi"``,
    ``"truss_peel_level.numpy"``); a :func:`fused` call that found no
    compiled implementation counts as a numpy dispatch, since that is the
    path the caller takes.
    """
    return dict(_dispatch_counts)


def reset_dispatch_counts() -> None:
    _dispatch_counts.clear()


def _warn(key: str, message: str) -> None:
    if key in _warned:
        return
    _warned.add(key)
    warnings.warn(message, RuntimeWarning, stacklevel=3)


def _same(got, want) -> bool:
    if isinstance(want, tuple):
        return isinstance(got, tuple) and len(got) == len(want) and all(map(_same, got, want))
    return np.array_equal(got, want)


def _self_check(registry: dict[str, Callable]) -> None:
    """Run every C kernel once on a miniature graph; raise on any mismatch.

    The graph is the oriented triangle-plus-tail 0->{1,2}, 1->2, 3->{} --
    small, but every branch (hits, misses, empty lists) runs.  Primitives
    are compared with their numpy twins; the fused kernels with the
    one-triangle answer their numpy caller chains produce, and the
    preprocessing kernels with the graph's orientation, transpose and
    format check; the orientation filter also on lists with each format
    fault.
    """

    def i64(*values: int) -> np.ndarray:
        return np.array(values, dtype=np.int64)

    indptr, indices = i64(0, 2, 3, 3, 3), i64(1, 2, 2)
    us, vs = i64(0), i64(1)
    # the adjacency positions of the triangle's edges (0, 1), (0, 2) and
    # (1, 2), which are also their canonical edge ids
    tri = i64(0, 1, 2)
    block_scan = (indices, i64(0, 2, 3), indices, 0, 2, i64(0, 2, 3, 3), i64(2, 1, 0))
    in_sources = np.array([0, 0, 1], dtype=np.int32)  # 1 <- {0}, 2 <- {0, 1}
    chunk_scan = (indptr, indices, i64(0, 0, 1, 3, 3), in_sources, i64(0, 2, 3), i64(0, 1),
                  i64(0, 1))
    cases = {
        "triangle_range": ((indptr, indices, 0, 4, kernels.EMIT_TRIPLES), None),
        "edge_intersections": ((indptr, indices, us, vs, True), None),
        "edge_common_neighbors": ((indptr, indices, us, vs), None),
        # MGT window [0, 2] over the block of vertices 0 and 1
        "mgt_block_scan": (
            (*block_scan, np.zeros(4, dtype=np.uint8), kernels.EMIT_TRIPLES),
            (1, 1, 1, [0], [1], [2]),
        ),
        # the entries as the windows [0, 2) and [2, 3), walked through the
        # in-lists 1 <- {0}, 2 <- {0, 1}: only (0, 1) of the second pairs
        "mgt_chunk_scan": (
            (*chunk_scan, kernels.EMIT_TRIPLES, False),
            (1, 1, 1, [0], [1], [2], None, None),
        ),
        # peel the triangle's three edges at k = 3 in one round
        "truss_peel_level": (
            (3, np.ones(3, dtype=bool), np.ones(3, dtype=np.int64), np.zeros(3, dtype=np.int64),
             i64(0, 1, 2, 3), i64(0, 0, 0), tri, np.ones(1, dtype=bool)),
            (3, 1),
        ),
        "incidence_csr": ((tri, 3), (i64(0, 1, 2, 3), i64(0, 0, 0))),
        # orient the undirected graph 0-1, 0-2, 1-2 plus the isolated 3
        # (degree keys 2|0, 2|1, 2|2, 0|3) into the graph above
        "orient_range": (
            (i64(1, 2, 0, 2, 0, 1), (i64(2, 2, 2, 0) << 32) | i64(0, 1, 2, 3),
             i64(0, 2, 4, 6, 6), 0, 4, np.empty(4, np.int64), np.empty(6, np.int64)),
            (i64(2, 1, 0, 0), indices, (-1, -1, -1)),
        ),
        # the graph's in-lists
        "in_lists": (
            (indptr, indices, np.empty(5, np.int64), np.empty(3, np.int32)),
            (i64(0, 0, 1, 3, 3), in_sources),
        ),
        # 0 -> [1, 1] repeats, 2 -> [3, 0] decreases, nobody loops
        "csr_violations": ((i64(0, 2, 4, 6, 6), i64(1, 1, 0, 3, 3, 0)), (2, -1, 0)),
    }
    checks = list(cases.items()) + [
        # the walk's count and positions modes, and the scans' crediting
        # mode: the triangle's three adjacency positions
        ("triangle_range", ((indptr, indices, 0, 4, kernels.EMIT_COUNT), None)),
        ("triangle_range", ((indptr, indices, 0, 4, kernels.EMIT_POSITIONS), ([tri], 4))),
        ("mgt_block_scan", (
            (*block_scan, np.zeros(4, dtype=np.int64), kernels.EMIT_POSITIONS),
            (1, 1, 1, [tri], None, None),
        )),
        ("mgt_chunk_scan", (
            (*chunk_scan, kernels.EMIT_POSITIONS, False),
            (1, 1, 1, [tri], None, None, None, None),
        )),
        # the filter's format check: 0 -> [2, 1] decreases, 1 -> [0, 1, 2]
        # loops and 2 -> [0, 1, 1] repeats (degree keys 2|0, 3|1, 3|2, 0|3)
        ("orient_range", (
            (i64(2, 1, 0, 1, 2, 0, 1, 1), (i64(2, 3, 3, 0) << 32) | i64(0, 1, 2, 3),
             i64(0, 2, 5, 8, 8), 0, 4, np.empty(4, np.int64), np.empty(8, np.int64)),
            (i64(2, 1, 0, 0), i64(2, 1, 2), (0, 1, 2)),
        )),
    ]
    for name, (args, want) in checks:
        got = registry[name](*args)
        if want is None:
            twin_args = args[:4] + (None, True) if name == "edge_intersections" else args
            want = kernels.NUMPY_IMPLS[name](*twin_args)
        if not _same(got, want):
            raise RuntimeError(f"kernel {name!r} disagrees with numpy on the self-check")


def _probe_c_tier() -> tuple[dict[str, Callable] | None, str]:
    """Build or load the C tier and self-check it, once per process."""
    global _probe
    if _probe is None:
        try:
            from repro.core import kernels_cffi

            registry = kernels_cffi.build_registry()
            _self_check(registry)
            _probe = (registry, "")
        except Exception as exc:  # noqa: BLE001 - the probe must not raise
            _probe = (None, f"{type(exc).__name__}: {exc}")
    return _probe


def compiled_available() -> tuple[bool, str]:
    """``(True, "cffi")`` when the C tier works, else ``(False, reason)``.

    Shaped for ``pytest.mark.skipif`` skip-with-reason, like
    ``shm_available()``.
    """
    registry, reason = _probe_c_tier()
    return (True, "cffi") if registry is not None else (False, reason)


def _validate(name: str) -> str:
    name = str(name).lower()
    if name not in BACKEND_NAMES:
        raise ConfigurationError(f"kernel tier must be one of {BACKEND_NAMES}, got {name!r}")
    return name


def activate(name: str) -> str:
    """Select the kernel tier; returns the tier actually in effect.

    ``auto`` takes the C tier when it works, silently; an explicit ``cffi``
    that does not work falls back to ``numpy`` with one
    :class:`RuntimeWarning` per process.
    """
    global _requested, _resolved
    name = _validate(name)
    registry = None
    if name != "numpy":
        registry, reason = _probe_c_tier()
        if registry is None and name == "cffi":
            _warn("fallback:cffi", fallback_message(
                "kernel backend 'cffi'", f"it is unavailable ({reason})", "the numpy tier"
            ))
    kernels._ACTIVE_IMPLS.clear()
    kernels._ACTIVE_IMPLS.update(registry or {})
    kernels._BACKEND_READY = True
    _requested = name
    _resolved = "numpy" if registry is None else "cffi"
    return _resolved


def initialize_default() -> str:
    """Resolve the tier from ``KERNEL_BACKEND`` (default ``auto``) once.

    Called lazily from the first kernel dispatch; a later explicit
    :func:`activate` overrides it.
    """
    if _resolved is not None and kernels._BACKEND_READY:
        return _resolved
    requested = os.environ.get("KERNEL_BACKEND", "auto").strip().lower() or "auto"
    if requested not in BACKEND_NAMES:
        _warn(
            f"env:{requested}",
            f"ignoring KERNEL_BACKEND={requested!r}: must be one of "
            f"{BACKEND_NAMES}; using 'auto'",
        )
        requested = "auto"
    return activate(requested)


def active_backend() -> str:
    """The tier currently in effect (resolving the default on first call)."""
    return initialize_default()


def fused(name: str):
    """The active fused entry point ``name``, or ``None`` for the numpy path."""
    if not kernels._BACKEND_READY:
        initialize_default()
    impl = kernels._ACTIVE_IMPLS.get(name)
    key = f"{name}.{'numpy' if impl is None else 'cffi'}"
    _dispatch_counts[key] = _dispatch_counts.get(key, 0) + 1
    return impl


def warmup() -> tuple[str, ...]:
    """Resolve the tier now; returns the names of the active C kernels.

    The probe has already run every kernel once, so this only moves the
    one-time build-or-load out of the first timed region (the perf
    benchmarks call it between ``use(...)`` and the first measurement).
    """
    active_backend()
    return tuple(sorted(kernels._ACTIVE_IMPLS))


@contextmanager
def use(name: str) -> Iterator[str]:
    """Switch the kernel tier for the length of a ``with`` block.

    Runs started inside the block scan on this tier, in the master and in
    every pool worker (each chunk task carries it).  Restores the previous
    request on exit; the probe is cached, so the switch never rebuilds.
    """
    global _requested, _resolved
    prev = _requested
    try:
        yield activate(name)
    finally:
        if prev is None:
            # nothing was ever requested explicitly: return to lazy default
            kernels._ACTIVE_IMPLS.clear()
            kernels._BACKEND_READY = False
            _requested = _resolved = None
        else:
            activate(prev)
