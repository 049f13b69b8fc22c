"""Zero-copy shared-memory publication of the oriented adjacency.

The ``processes`` backend used to make every worker re-open the oriented
graph files and re-read each MGT memory window (plus every full-graph scan
block) from disk through its own descriptors -- the duplicated host reads
bounded multicore scaling long before the CPUs did.  This module publishes
the oriented graph **once** into named :mod:`multiprocessing.shared_memory`
segments so workers slice memory windows zero-copy:

* :func:`publish_graph` writes what the window scan reads into four named
  segments: the adjacency array of the oriented graph the master holds in
  memory after orienting it, its vertex offsets (its ``indptr``) and its
  in-neighbour lists (``in_offsets``, and ``in_sources`` as int32, built
  by the C tier's ``in_lists`` counting sort), each with one ``pwrite``,
  and returns a :class:`SharedGraphPublication` whose small
  :class:`SharedGraphDescriptor` (segment names + dtypes + shapes) is all
  that ever crosses a process boundary;
* :class:`SharedGraphView` reconstructs zero-copy, read-only numpy views
  from a descriptor inside a worker and exposes the exact read API
  :class:`~repro.core.mgt.MGTWorker` needs
  (:attr:`~SharedGraphView.cached_offsets`,
  :meth:`~SharedGraphView.read_adjacency_range`), so the worker's analytic
  I/O accounting is **bit-identical** to the on-disk path -- the data just
  arrives without syscalls or copies;
* :func:`attach_view` caches attachments per process (keyed by the
  publication token), so a persistent pool worker maps each segment once
  and serves every subsequent chunk task from the existing mapping.

Everything here sits strictly below the accounting layer, like the fd
cache in :mod:`repro.externalmem.blockio`: the
publication reads no file at all, and a view never touches an
:class:`~repro.externalmem.iostats.IOStats` counter -- the MGT worker keeps
charging its modelled reads exactly as before.

Platform notes
--------------
POSIX shared memory lives in ``/dev/shm``; :func:`shm_available` probes for
it once so callers (and tests) can skip with a reason on platforms without
it.  On Python < 3.13 *attaching* via
:class:`multiprocessing.shared_memory.SharedMemory` also registers the
segment with the ``multiprocessing.resource_tracker`` -- under the default
``fork`` start method the whole process tree shares one tracker, so an
attach-side unregister would delete the master's create-side registration
(its leak safety net), and a worker exiting with the registration intact
would warn about "leaked" segments it never owned.  :func:`_attach_segment`
therefore sidesteps the tracker entirely where possible: on Linux the
segment is simply the file ``/dev/shm/<name>``, so attach is a plain
``open`` + ``mmap`` (read-only), invisible to the tracker.  On platforms
without that path it falls back to ``SharedMemory`` attach, accepting a
cosmetic tracker warning at worker shutdown -- documented, never harmful,
because publications are unlinked by the master before the pool exits.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass

import numpy as np

from repro.core import kernel_backend, kernels
from repro.errors import GraphFormatError, PDTLError
from repro.externalmem.blockio import DiskModel
from repro.graph.csr import CSRGraph
from repro.utils import prefix_sums

__all__ = [
    "SHM_PREFIX",
    "SharedArraySpec",
    "SharedGraphDescriptor",
    "SharedGraphPublication",
    "SharedGraphView",
    "attach_cache_stats",
    "attach_view",
    "detach_view",
    "publish_graph",
    "shm_available",
]

#: Prefix of every segment name this module creates; the leak checks in the
#: test suite scan ``/dev/shm`` for stragglers carrying it.
SHM_PREFIX = "pdtl-shm"

_TOKEN_LOCK = threading.Lock()
_TOKEN_COUNTER = 0

_AVAILABLE: tuple[bool, str] | None = None


def shm_available() -> tuple[bool, str]:
    """Probe (once) whether POSIX shared memory works on this host.

    Returns ``(True, "")`` when a tiny segment can be created, filled the
    way :func:`publish_graph` fills one (through its descriptor) and
    unlinked; otherwise ``(False, reason)`` so callers can skip or fall
    back with an explanation (e.g. no ``/dev/shm`` mount, a platform
    without :mod:`multiprocessing.shared_memory`, or one whose segments
    take no ``pwrite``).
    """
    global _AVAILABLE
    if _AVAILABLE is not None:
        return _AVAILABLE
    try:
        from multiprocessing import shared_memory

        probe = shared_memory.SharedMemory(create=True, size=8)
        try:
            _fill_segment(probe, np.ones(8, dtype=np.uint8))
        finally:
            probe.close()
            probe.unlink()
    except Exception as exc:  # pragma: no cover - platform-dependent
        _AVAILABLE = (False, f"POSIX shared memory unavailable: {exc!r}")
    else:
        _AVAILABLE = (True, "")
    return _AVAILABLE


def _new_token() -> str:
    """A process-unique publication token (also the segment-name stem)."""
    global _TOKEN_COUNTER
    with _TOKEN_LOCK:
        _TOKEN_COUNTER += 1
        return f"{SHM_PREFIX}-{os.getpid()}-{_TOKEN_COUNTER}"


_DEV_SHM = "/dev/shm"


class _MappedSegment:
    """A read-only attach to a named segment via plain ``mmap``.

    On Linux a POSIX shared-memory object *is* the file
    ``/dev/shm/<name>``; mapping it directly shares the same physical
    pages as ``SharedMemory`` would, without ever talking to the
    ``multiprocessing.resource_tracker`` (see module docs).  The mapping
    stays valid after the master unlinks the segment -- POSIX keeps the
    memory alive for existing maps.
    """

    __slots__ = ("buf", "_mmap")

    def __init__(self, path: str) -> None:
        import mmap

        with open(path, "rb") as handle:
            self._mmap = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
        self.buf = memoryview(self._mmap)

    def close(self) -> None:
        try:
            self.buf.release()
        finally:
            self._mmap.close()


def _attach_segment(name: str):
    """Attach read-only to a published segment; tracker-free on Linux."""
    path = os.path.join(_DEV_SHM, name)
    if os.path.exists(path):
        return _MappedSegment(path)
    # portable fallback: SharedMemory attach; on Python < 3.13 this
    # re-registers the name with the (possibly private) resource tracker,
    # which may print a cosmetic leaked-segment warning when a non-forked
    # worker exits -- harmless, the master has unlinked by then
    from multiprocessing import shared_memory

    return shared_memory.SharedMemory(name=name, create=False)


@dataclass(frozen=True)
class SharedArraySpec:
    """``(segment name, dtype, shape)`` -- everything needed to rebuild a
    zero-copy numpy view of one published array inside any process."""

    name: str
    dtype: str
    shape: tuple[int, ...]

    @property
    def num_items(self) -> int:
        n = 1
        for dim in self.shape:
            n *= dim
        return n


@dataclass(frozen=True)
class SharedGraphDescriptor:
    """The small, picklable handle to one published graph.

    Carries the array specs plus the graph metadata a worker needs to run
    MGT without ever opening the on-disk files.  ``token`` identifies the
    publication; worker-side attachments are cached by it.

    Besides the graph's adjacency and vertex offsets, a publication carries
    its in-neighbour lists, the one pure function of the graph that every
    worker would otherwise recompute: ``in_offsets`` (n + 1 int64 entries)
    and ``in_sources`` (E int32 entries), the transpose of the adjacency,
    sources ascending per target.  A memory window's candidate pairs
    ``(u, v)`` are exactly the in-edges of the vertices ``v`` whose
    out-lists meet the window, so one transpose serves every window of
    every edge range.
    """

    token: str
    adjacency: SharedArraySpec
    offsets: SharedArraySpec
    in_offsets: SharedArraySpec
    in_sources: SharedArraySpec
    num_vertices: int
    num_edges: int
    directed: bool
    max_degree: int
    #: always ``None``: publications carry no degree array (workers read the
    #: offsets), no packed edge keys (a view builds them for the numpy
    #: window scan, :attr:`SharedGraphView.scan_keys`), no per-entry sources
    #: (the window scan walks ``in_sources``) and no degree-order keys.  The
    #: fields stay so tools that sum a publication's segments by field name
    #: (``getattr(descriptor, "scan_keys")``) keep working.
    degrees: SharedArraySpec | None = None
    scan_keys: SharedArraySpec | None = None
    scan_sources: SharedArraySpec | None = None
    order_keys: SharedArraySpec | None = None


class SharedGraphPublication:
    """Master-side owner of the published segments.

    The publication holds the created :class:`SharedMemory` objects alive;
    :meth:`unlink` (idempotent, also the context-manager exit) closes the
    mappings and removes the segments from ``/dev/shm``.  Workers that are
    still attached keep their mappings until they close them -- POSIX keeps
    unlinked segments alive for existing maps -- so unlinking after the
    last task completes is always safe.
    """

    def __init__(self, descriptor: SharedGraphDescriptor, segments) -> None:
        self.descriptor = descriptor
        self._segments = list(segments)
        self._unlinked = False

    def unlink(self) -> None:
        """Close and remove every segment of this publication (idempotent)."""
        if self._unlinked:
            return
        self._unlinked = True
        # drop any same-process cached view first (the serial backend
        # attaches in this very process)
        detach_view(self.descriptor.token)
        for shm in self._segments:
            try:
                shm.close()
            finally:
                try:
                    shm.unlink()
                except FileNotFoundError:  # pragma: no cover - already gone
                    pass

    close = unlink

    def __enter__(self) -> "SharedGraphPublication":
        return self

    def __exit__(self, *exc: object) -> None:
        self.unlink()

    def __del__(self) -> None:  # pragma: no cover - GC order dependent
        try:
            self.unlink()
        except Exception:
            pass


def _in_lists_numpy(
    offsets: np.ndarray,
    adjacency: np.ndarray,
    in_offsets: np.ndarray,
    in_sources: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """The numpy twin of the C tier's ``in_lists``: fill the int64
    ``in_offsets`` and the int32 ``in_sources`` of the graph ``(offsets,
    adjacency)``, raising the C tier's error at an id outside the graph."""
    n = offsets.shape[0] - 1
    kernels._require_int32_ids(n)
    if adjacency.shape[0] and (adjacency.min() < 0 or adjacency.max() >= n):
        p = int(np.flatnonzero((adjacency < 0) | (adjacency >= n))[0])
        raise GraphFormatError(
            f"adjacency entry {p} holds id {int(adjacency[p])} outside [0, {n})"
        )
    # sorting the unique packed (target, source) keys orders the entries by
    # target, sources ascending -- one sort, no stable argsort
    in_keys = kernels.packed_keys(adjacency, kernels.window_sources(offsets, 0, n), n)
    in_keys.sort()
    in_offsets[:] = prefix_sums(np.bincount(adjacency, minlength=n))
    in_sources[:] = in_keys % n
    return in_offsets, in_sources


def _fill_segment(shm, array: np.ndarray) -> None:
    """Write ``array`` into the fresh segment ``shm`` through its file
    descriptor, from the start.

    One ``os.pwrite`` fills a segment of this reproduction's sizes; the
    loop only serves a short write.  Filling through the descriptor, never
    through the creator's writable mapping, spares the master one page
    fault per page of the segment.
    """
    data = memoryview(array).cast("B")
    written = 0
    while written < len(data):
        # a POSIX SharedMemory keeps its segment's descriptor open as _fd
        written += os.pwrite(shm._fd, data[written:], written)


def publish_graph(graph: CSRGraph) -> SharedGraphPublication:
    """Publish an oriented graph held in memory into named shared-memory
    segments.

    One copy per host, of what the window scan reads: the adjacency array,
    the vertex offsets (the graph's ``indptr``) and the in-neighbour lists
    (see :class:`SharedGraphDescriptor`) each get a segment named after a
    fresh publication token.  The in-lists come from one pass of the C
    tier's ``in_lists`` counting sort, or from its numpy twin, into private
    arrays.  No file is read: the graph is the one
    :func:`~repro.core.orientation.orient_graph` returns, checked while it
    was filtered, so no I/O counter anywhere moves -- publication is a
    host-side optimisation, invisible to the simulation.  The four segments
    are created first and then each is filled by one ``os.pwrite``; if
    anything fails, every segment is closed and unlinked before the error
    propagates.
    """
    available, reason = shm_available()
    if not available:
        raise PDTLError(f"cannot publish graph to shared memory: {reason}")
    from multiprocessing import shared_memory

    n, m = graph.num_vertices, graph.num_edges
    in_offsets = np.empty(n + 1, dtype=np.int64)
    in_sources = np.empty(m, dtype=np.int32)
    in_lists = kernel_backend.fused("in_lists") or _in_lists_numpy
    in_lists(graph.indptr, graph.indices, in_offsets, in_sources)
    arrays = {
        "adj": np.ascontiguousarray(graph.indices, dtype=np.int64),
        "off": np.ascontiguousarray(graph.indptr, dtype=np.int64),
        "ino": in_offsets,
        "ins": in_sources,
    }

    token = _new_token()
    segments: list = []
    specs: dict[str, SharedArraySpec] = {}
    try:
        for suffix, array in arrays.items():
            name = f"{token}-{suffix}"
            # POSIX segments must be non-empty; over-allocate one byte for
            # empty arrays and let the spec's shape carry the truth
            segments.append(
                shared_memory.SharedMemory(name=name, create=True, size=max(array.nbytes, 1))
            )
            specs[suffix] = SharedArraySpec(
                name=name, dtype=array.dtype.name, shape=array.shape
            )
        for shm, array in zip(segments, arrays.values()):
            _fill_segment(shm, array)
    except BaseException:
        for shm in segments:
            try:
                shm.unlink()
            except FileNotFoundError:
                pass
            shm.close()
        raise

    descriptor = SharedGraphDescriptor(
        token=token,
        adjacency=specs["adj"],
        offsets=specs["off"],
        in_offsets=specs["ino"],
        in_sources=specs["ins"],
        num_vertices=n,
        num_edges=m,
        directed=graph.directed,
        max_degree=graph.max_degree,
    )
    return SharedGraphPublication(descriptor, segments)


class _SharedDevice:
    """The sliver of the :class:`~repro.externalmem.blockio.BlockDevice`
    surface MGT's accounting helpers use: just the disk performance model.
    The shared view has no real device -- reads are memory slices -- but the
    modelled transfer times must keep coming from the same model the
    on-disk path would have used."""

    __slots__ = ("model",)

    def __init__(self, model: DiskModel) -> None:
        self.model = model


class SharedGraphView:
    """Worker-side zero-copy handle to a published oriented graph.

    Mirrors the :class:`~repro.graph.binfmt.GraphFile` read API that
    :class:`~repro.core.mgt.MGTWorker` uses, but every read is a read-only
    numpy slice of the shared segments: no file descriptors, no syscalls,
    no copies.  ``cached_offsets`` exposes the published vertex-offset
    array, which the worker reads instead of the degree file (it still
    charges the modelled degree-file read), and ``in_offsets``/
    ``in_sources`` the in-neighbour lists its window scan walks.  Every
    array accessor of a closed view raises :class:`~repro.errors.PDTLError`.
    """

    def __init__(self, descriptor: SharedGraphDescriptor, model: DiskModel) -> None:
        self.descriptor = descriptor
        self.device = _SharedDevice(model)
        self._segments: list = []
        self._adjacency = self._attach(descriptor.adjacency)
        self._offsets = self._attach(descriptor.offsets)
        self._in_offsets = self._attach(descriptor.in_offsets)
        self._in_sources = self._attach(descriptor.in_sources)
        self._scan_keys: np.ndarray | None = None
        self._closed = False

    def _attach(self, spec: SharedArraySpec) -> np.ndarray:
        """Attach one published array."""
        shm = _attach_segment(spec.name)
        self._segments.append(shm)
        return self._as_view(shm, spec)

    @staticmethod
    def _as_view(shm, spec: SharedArraySpec) -> np.ndarray:
        if spec.num_items == 0:
            array = np.empty(spec.shape, dtype=np.dtype(spec.dtype))
        else:
            array = np.ndarray(spec.shape, dtype=np.dtype(spec.dtype), buffer=shm.buf)
        array.flags.writeable = False  # shared data: nobody mutates it
        return array

    # -- GraphFile-compatible metadata ------------------------------------------------

    @property
    def num_vertices(self) -> int:
        return self.descriptor.num_vertices

    @property
    def num_edges(self) -> int:
        return self.descriptor.num_edges

    @property
    def directed(self) -> bool:
        return self.descriptor.directed

    @property
    def max_degree(self) -> int:
        return self.descriptor.max_degree

    # -- GraphFile-compatible reads (zero-copy) ----------------------------------------

    def _require(self, array: np.ndarray) -> np.ndarray:
        if self._closed:
            raise PDTLError(
                f"shared graph view of {self.descriptor.token!r} is closed"
            )
        return array

    @property
    def cached_offsets(self) -> np.ndarray:
        """The published exclusive prefix sums of the degree array."""
        return self._require(self._offsets)

    @property
    def scan_keys(self) -> np.ndarray:
        """Globally sorted packed ``(source, destination)`` keys (length E),
        built on first use and kept: only the numpy window scan reads them,
        and a cached view serves every chunk of its process."""
        offsets = self._require(self._offsets)
        if self._scan_keys is None:
            keys = kernels.csr_packed_keys(offsets, self._adjacency)
            keys.flags.writeable = False
            self._scan_keys = keys
        return self._scan_keys

    @property
    def in_offsets(self) -> np.ndarray:
        """Offsets of each vertex's in-neighbour list (length n + 1)."""
        return self._require(self._in_offsets)

    @property
    def in_sources(self) -> np.ndarray:
        """In-neighbour lists, sources ascending per target (length E)."""
        return self._require(self._in_sources)

    def offsets(self) -> np.ndarray:
        return self._require(self._offsets)

    def read_adjacency_range(self, start_edge: int, count: int) -> np.ndarray:
        adjacency = self._require(self._adjacency)
        if start_edge < 0 or count < 0 or start_edge + count > self.num_edges:
            raise PDTLError(
                f"adjacency range [{start_edge}, {start_edge + count}) out of "
                f"bounds (shared graph has {self.num_edges} entries)"
            )
        return adjacency[start_edge : start_edge + count]

    # -- lifecycle ---------------------------------------------------------------------

    def close(self) -> None:
        """Unmap the segments (idempotent).  Views handed out earlier must
        not be dereferenced afterwards."""
        if self._closed:
            return
        self._closed = True
        self._adjacency = self._offsets = None  # type: ignore[assignment]
        self._in_offsets = self._in_sources = self._scan_keys = None  # type: ignore[assignment]
        for shm in self._segments:
            try:
                shm.close()
            except Exception:  # pragma: no cover - best effort unmap
                pass


# -- per-process attachment cache -----------------------------------------------------
#
# A persistent pool worker executes many chunk tasks against the same
# publication; attaching per task would re-mmap the segments hundreds of
# times.  The cache keys attachments by publication token.  Cache
# management only ever *drops references* -- it never calls close() on a
# view, because a concurrent run in the same process may still be reading
# it; CPython refcounting unmaps the segments the moment the last reader
# lets go (``_MappedSegment``/``SharedMemory`` both release their mapping
# on deallocation).  Staleness of an already-unlinked publication (whose
# mapping is the only thing keeping its memory alive) is therefore bounded
# two ways: every attach sweeps entries whose backing ``/dev/shm`` file is
# gone, and the cache never holds more than _MAX_ATTACHED entries, so at
# most one dead graph copy can stay pinned per process on hosts without
# the sweepable mmap path.

_ATTACH_LOCK = threading.Lock()
_ATTACHED: dict[str, SharedGraphView] = {}
_MAX_ATTACHED = 2

# attach-cache effectiveness (observability only; harvested by
# repro.obs.metrics via before/after snapshots)
_ATTACH_STATS = {"hits": 0, "misses": 0}


def attach_cache_stats() -> dict[str, int]:
    """Copy of this process's attach-cache hit/miss counters."""
    with _ATTACH_LOCK:
        return dict(_ATTACH_STATS)


def _sweep_dead_locked() -> None:
    """Drop cached views whose segments were unlinked; caller holds the lock."""
    for token, view in list(_ATTACHED.items()):
        path = os.path.join(_DEV_SHM, view.descriptor.adjacency.name)
        if isinstance(view._segments[0], _MappedSegment) and not os.path.exists(path):
            del _ATTACHED[token]


def attach_view(descriptor: SharedGraphDescriptor, model: DiskModel) -> SharedGraphView:
    """Return the process-local cached view for ``descriptor`` (attaching on
    first use).  Thread-safe: concurrent callers in one process share one
    mapping."""
    with _ATTACH_LOCK:
        _sweep_dead_locked()
        view = _ATTACHED.pop(descriptor.token, None)
        if view is not None:
            _ATTACHED[descriptor.token] = view  # bump LRU recency
            _ATTACH_STATS["hits"] += 1
            return view
        _ATTACH_STATS["misses"] += 1
    view = SharedGraphView(descriptor, model)
    with _ATTACH_LOCK:
        existing = _ATTACHED.get(descriptor.token)
        if existing is not None:
            view.close()  # fresh, never handed out -- safe to unmap now
            return existing
        _ATTACHED[descriptor.token] = view
        while len(_ATTACHED) > _MAX_ATTACHED:
            oldest = next(iter(_ATTACHED))  # insertion order = LRU order
            del _ATTACHED[oldest]  # dropped, not closed: readers may remain
    return view


def detach_view(token: str) -> None:
    """Forget the cached attachment for ``token`` (no-op if absent).

    The view is not closed -- a concurrent reader may still hold it; the
    mapping is released when the last reference dies.
    """
    with _ATTACH_LOCK:
        _ATTACHED.pop(token, None)


def _reset_worker_cache() -> None:
    """Forget inherited attachments in a fresh pool worker.

    Under the ``fork`` start method a worker inherits the parent's cache
    dict *and* its mappings; the entries are valid but belong to the
    parent's lifecycle, so the worker starts from an empty cache without
    closing them (closing would just unmap the child's copy -- harmless --
    but keeping them would let the child double-close on eviction).
    """
    global _ATTACHED
    with _ATTACH_LOCK:
        _ATTACHED = {}
