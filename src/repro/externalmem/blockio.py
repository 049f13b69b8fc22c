"""Simulated block device over a real directory, with full I/O accounting.

PDTL is an external-memory algorithm, so the *unit of cost* is the block
transfer, not the byte.  :class:`BlockDevice` wraps a directory of ordinary
files but routes every read and write through block-granular accounting:

* each access is rounded out to whole blocks of ``block_size`` bytes;
* an access is *sequential* if it starts at the block immediately after the
  previous access to the same file (the cheap case of the Aggarwal–Vitter
  model), otherwise it is *random*;
* when a bandwidth/latency model is configured, the device also accumulates
  the modelled transfer time, which is what the paper's Figures 6–8
  ("I/O seconds" per node) correspond to in this reproduction.

The files themselves are real files on the host filesystem so that the
data genuinely leaves process memory -- the memory budget of an MGT worker
only ever holds the ``Θ(M)`` edge window plus per-vertex scratch arrays,
exactly as in the paper.

One host-side layer sits **strictly below** the accounting, so it changes
wall-clock cost only -- never a single counter of
:class:`~repro.externalmem.iostats.IOStats` nor a microsecond of modelled
device time: the device keeps a bounded, thread-safe cache of raw file
descriptors and serves reads/writes with ``os.pread``/``os.pwrite``,
instead of re-opening the file on every call (the dominant host cost of
the fine-grained access patterns the external sort and the MGT scans
issue).
"""

from __future__ import annotations

import os
import shutil
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import numpy as np

from repro.errors import PDTLError
from repro.externalmem.iostats import IOStats
from repro.utils import ceil_div, parse_size

__all__ = ["BlockDevice", "BlockFile", "DEFAULT_BLOCK_SIZE", "HostCounters"]

DEFAULT_BLOCK_SIZE = 4096

#: Upper bound on cached file descriptors per device; least-recently-used
#: idle descriptors are closed first.  Keeps a long pytest session with
#: hundreds of scratch devices well under the process fd limit.
MAX_CACHED_FDS = 128


class HostCounters:
    """Host-side cache effectiveness counters for one :class:`BlockDevice`.

    These count what the fd cache *below* the accounting actually did --
    cache hits vs ``os.open`` calls.  They are observability only: plain
    integer increments under the cache's existing lock, and nothing in the
    accounting layer reads them.
    """

    __slots__ = ("fd_cache_hits", "fd_cache_misses")

    def __init__(self) -> None:
        self.fd_cache_hits = 0
        self.fd_cache_misses = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "fd_cache.hits": self.fd_cache_hits,
            "fd_cache.misses": self.fd_cache_misses,
        }


class _FdEntry:
    """A cached descriptor with a pin count.

    ``refs`` counts in-flight ``pread``/``pwrite`` users; ``closed`` marks
    entries evicted from the cache (or whose file was deleted) while still
    pinned -- the last :meth:`BlockDevice._release_fd` closes those, so a
    descriptor can never be closed (and its number never kernel-reused)
    under a concurrent user.
    """

    __slots__ = ("fd", "refs", "closed", "append_lock")

    def __init__(self, fd: int) -> None:
        self.fd = fd
        self.refs = 0
        self.closed = False
        # serializes the size-probe + pwrite pair of append_bytes; a plain
        # pwrite-at-fstat-size is not atomic the way O_APPEND writes were
        self.append_lock = threading.Lock()


@dataclass
class DiskModel:
    """Simple performance model for a simulated disk.

    ``bandwidth_bytes_per_s`` caps sequential throughput;
    ``seek_latency_s`` is added per random access.  The defaults model the
    Samsung 840 SSD used in the paper's local machines (~500 MB/s
    sequential, ~0.1 ms access).
    """

    bandwidth_bytes_per_s: float = 500e6
    seek_latency_s: float = 1e-4

    def transfer_time(self, nbytes: int, sequential: bool) -> float:
        time = nbytes / self.bandwidth_bytes_per_s if self.bandwidth_bytes_per_s else 0.0
        if not sequential:
            time += self.seek_latency_s
        return time


class BlockDevice:
    """A directory-backed simulated disk with block-level accounting.

    Parameters
    ----------
    root:
        directory that holds the device's files (created if missing).
    block_size:
        block size ``B`` in bytes; all I/O is rounded to whole blocks.
    model:
        optional :class:`DiskModel` used to accumulate modelled device time.
    """

    def __init__(
        self,
        root: str | os.PathLike[str],
        block_size: int | str = DEFAULT_BLOCK_SIZE,
        model: DiskModel | None = None,
    ) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.block_size = parse_size(block_size)
        if self.block_size <= 0:
            raise ValueError("block_size must be positive")
        self.model = model if model is not None else DiskModel()
        self.stats = IOStats(block_size=self.block_size)
        self._last_block: dict[str, int] = {}
        # raw-fd cache (host-side only, invisible to the accounting)
        self._fd_lock = threading.Lock()
        self._fds: dict[str, _FdEntry] = {}
        # resolved-path cache: Path.resolve() costs a realpath() walk per
        # component, which dominated fine-grained access patterns
        self._root_resolved = self.root.resolve()
        self._path_cache: dict[str, Path] = {}
        # host-cache effectiveness counters (observability only)
        self.host_counters = HostCounters()

    # -- file management -------------------------------------------------------

    def path(self, name: str) -> Path:
        cached = self._path_cache.get(name)
        if cached is not None:
            return cached
        p = (self.root / name).resolve()
        if self._root_resolved not in p.parents and p != self._root_resolved:
            raise PDTLError(f"file name {name!r} escapes the device root")
        self._path_cache[name] = p
        return p

    def open(self, name: str) -> "BlockFile":
        """Open (or create) a file on this device."""
        return BlockFile(self, name)

    def exists(self, name: str) -> bool:
        return self.path(name).exists()

    def file_size(self, name: str) -> int:
        p = self.path(name)
        return p.stat().st_size if p.exists() else 0

    def delete(self, name: str) -> None:
        self._close_fd(name)
        p = self.path(name)
        if p.exists():
            p.unlink()
        self._last_block.pop(name, None)

    def list_files(self) -> list[str]:
        return sorted(
            str(p.relative_to(self.root)) for p in self.root.rglob("*") if p.is_file()
        )

    def clear(self) -> None:
        """Delete every file on the device (used between benchmark repetitions,
        mirroring the paper's explicit clearing of disk caches)."""
        for name in self.list_files():
            self.delete(name)
        for child in self.root.iterdir():
            if child.is_dir():
                shutil.rmtree(child)
        self._last_block.clear()

    def copy_file(self, name: str, other: "BlockDevice", dest_name: str | None = None) -> int:
        """Copy a file to another device, charging a full sequential scan on
        both sides.  Returns the number of bytes copied.

        This is the primitive behind the master-to-client graph duplication
        whose cost Table III reports as "avg copy time".
        """
        dest_name = dest_name if dest_name is not None else name
        src_path = self.path(name)
        if not src_path.exists():
            raise PDTLError(f"cannot copy missing file {name!r}")
        nbytes = src_path.stat().st_size
        dst_path = other.path(dest_name)
        dst_path.parent.mkdir(parents=True, exist_ok=True)
        other._close_fd(dest_name)
        shutil.copyfile(src_path, dst_path)
        blocks = ceil_div(nbytes, self.block_size) if nbytes else 0
        self.stats.record_read(blocks, nbytes, sequential=True)
        self.stats.add_device_time(self.model.transfer_time(nbytes, sequential=True))
        dst_blocks = ceil_div(nbytes, other.block_size) if nbytes else 0
        other.stats.record_write(dst_blocks, nbytes, sequential=True)
        other.stats.add_device_time(other.model.transfer_time(nbytes, sequential=True))
        return nbytes

    # -- raw-fd cache (below the accounting layer) -------------------------------

    def _acquire_fd(self, name: str, path: Path, create: bool) -> _FdEntry:
        """Check a pinned descriptor entry for ``name`` out of the cache
        (opening it on a miss); must be paired with :meth:`_release_fd` on
        the *returned entry*.

        The pin count keeps the descriptor alive across eviction and
        :meth:`delete`, and releasing by entry (not by name) means a
        delete-and-recreate of the same name can never unpin the new
        file's descriptor.
        """
        with self._fd_lock:
            entry = self._fds.pop(name, None)
            if entry is not None:
                self._fds[name] = entry  # re-insert to bump LRU recency
                entry.refs += 1
                self.host_counters.fd_cache_hits += 1
                return entry
            self.host_counters.fd_cache_misses += 1
        flags = os.O_RDWR | (os.O_CREAT if create else 0)
        fd = os.open(path, flags, 0o644)
        with self._fd_lock:
            entry = self._fds.get(name)
            if entry is not None:
                # another thread opened it concurrently; keep theirs
                os.close(fd)
            else:
                entry = _FdEntry(fd)
                self._fds[name] = entry
                self._evict_locked()
            entry.refs += 1
            return entry

    def _release_fd(self, entry: _FdEntry) -> None:
        with self._fd_lock:
            entry.refs -= 1
            close_now = entry.closed and entry.refs == 0
        if close_now:
            os.close(entry.fd)

    def _evict_locked(self) -> None:
        if len(self._fds) <= MAX_CACHED_FDS:
            return
        for name in list(self._fds):
            if len(self._fds) <= MAX_CACHED_FDS:
                break
            entry = self._fds[name]
            if entry.refs == 0:
                del self._fds[name]
                entry.closed = True
                os.close(entry.fd)

    def _close_fd(self, name: str) -> None:
        with self._fd_lock:
            entry = self._fds.pop(name, None)
            if entry is None:
                return
            entry.closed = True
            close_now = entry.refs == 0
        if close_now:
            os.close(entry.fd)

    def close(self) -> None:
        """Close every cached descriptor (idempotent; pinned descriptors are
        closed by their last release)."""
        with self._fd_lock:
            entries = list(self._fds.values())
            self._fds.clear()
            for entry in entries:
                entry.closed = True
            to_close = [entry.fd for entry in entries if entry.refs == 0]
        for fd in to_close:
            try:
                os.close(fd)
            except OSError:  # pragma: no cover - already closed elsewhere
                pass

    def __del__(self) -> None:  # pragma: no cover - interpreter shutdown order
        try:
            self.close()
        except Exception:
            pass

    # -- accounting primitives ---------------------------------------------------

    def charge_read(self, name: str, offset: int, nbytes: int) -> None:
        """Charge the accounting for a read served out-of-band.

        Orientation uses this to keep the modelled I/O of its chunked scan
        independent of how the chunks execute: the chunks read their bytes
        below the accounting (raw ``np.fromfile``), and the master charges
        each window here, in chunk order.  Block rounding,
        sequential/random classification and modelled device time are
        exactly what a real :meth:`BlockFile.read_bytes` of the same
        ``(offset, nbytes)`` would have recorded.
        """
        self._account(name, offset, nbytes, write=False)

    def _account(self, name: str, offset: int, nbytes: int, write: bool) -> None:
        if nbytes <= 0:
            return
        block_size = self.block_size
        first_block = offset // block_size
        last_block = (offset + nbytes - 1) // block_size
        blocks = last_block - first_block + 1
        # -1 is the "never accessed" sentinel: it makes the first access
        # sequential exactly when it starts at block 0, like the previous
        # None-based logic, with a single dict lookup on this hot path
        last = self._last_block.get(name, -1)
        sequential = first_block - 1 <= last <= first_block
        self._last_block[name] = last_block
        if write:
            self.stats.record_write(blocks, nbytes, sequential)
        else:
            self.stats.record_read(blocks, nbytes, sequential)
        self.stats.add_device_time(self.model.transfer_time(nbytes, sequential))


def _byte_view(arr: np.ndarray) -> np.ndarray:
    """A contiguous array's bytes as a flat uint8 view, without a copy.

    Flat bytes, so that ``len`` is the byte count the accounting charges:
    the ``len`` of an int64 view would be its item count.
    """
    return arr.reshape(-1).view(np.uint8)


class BlockFile:
    """A single file on a :class:`BlockDevice` with typed numpy helpers.

    All byte offsets are explicit; the file object itself is stateless apart
    from its parent device's sequential/random tracking.  Numeric data is stored little-endian int64 unless a
    dtype is given.
    """

    def __init__(self, device: BlockDevice, name: str) -> None:
        self.device = device
        self.name = name
        self.path = device.path(name)
        # create the file on first open so size/read of a fresh file behave
        # (cheap when the descriptor is already cached)
        with device._fd_lock:
            known = name in device._fds
        if not known and not self.path.exists():
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self.path.touch()

    def _pread(self, nbytes: int, offset: int) -> bytes:
        entry = self.device._acquire_fd(self.name, self.path, create=False)
        try:
            return os.pread(entry.fd, nbytes, offset)
        finally:
            self.device._release_fd(entry)

    # -- raw byte interface -------------------------------------------------------

    @property
    def size_bytes(self) -> int:
        return self.path.stat().st_size

    def read_bytes(self, offset: int, nbytes: int) -> bytes:
        if offset < 0 or nbytes < 0:
            raise ValueError("offset and nbytes must be non-negative")
        data = self._pread(nbytes, offset)
        self.device._account(self.name, offset, len(data), write=False)
        return data

    def write_bytes(self, offset: int, data: bytes) -> int:
        if offset < 0:
            raise ValueError("offset must be non-negative")
        entry = self.device._acquire_fd(self.name, self.path, create=True)
        try:
            os.pwrite(entry.fd, data, offset)
        finally:
            self.device._release_fd(entry)
        self.device._account(self.name, offset, len(data), write=True)
        return len(data)

    def append_bytes(self, data: bytes) -> int:
        entry = self.device._acquire_fd(self.name, self.path, create=True)
        try:
            with entry.append_lock:
                offset = os.fstat(entry.fd).st_size
                os.pwrite(entry.fd, data, offset)
        finally:
            self.device._release_fd(entry)
        self.device._account(self.name, offset, len(data), write=True)
        return len(data)

    def truncate(self, nbytes: int = 0) -> None:
        entry = self.device._acquire_fd(self.name, self.path, create=False)
        try:
            os.ftruncate(entry.fd, nbytes)
        finally:
            self.device._release_fd(entry)

    # -- typed numpy interface -------------------------------------------------------

    def write_array(self, array: np.ndarray, offset_items: int = 0) -> int:
        """Write a 1-D numpy array at an item offset; returns items written."""
        arr = np.ascontiguousarray(array)
        self.write_bytes(offset_items * arr.dtype.itemsize, _byte_view(arr))
        return int(arr.size)

    def append_array(self, array: np.ndarray) -> int:
        arr = np.ascontiguousarray(array)
        self.append_bytes(_byte_view(arr))
        return int(arr.size)

    def read_array(
        self, offset_items: int, num_items: int, dtype: np.dtype | type = np.int64
    ) -> np.ndarray:
        """Read ``num_items`` elements of ``dtype`` starting at an item offset."""
        dt = np.dtype(dtype)
        raw = self.read_bytes(offset_items * dt.itemsize, num_items * dt.itemsize)
        return np.frombuffer(raw, dtype=dt).copy()

    def num_items(self, dtype: np.dtype | type = np.int64) -> int:
        dt = np.dtype(dtype)
        return self.size_bytes // dt.itemsize

    def iter_chunks(
        self, chunk_items: int, dtype: np.dtype | type = np.int64
    ) -> Iterator[np.ndarray]:
        """Sequentially stream the whole file in chunks of ``chunk_items``."""
        if chunk_items <= 0:
            raise ValueError("chunk_items must be positive")
        total = self.num_items(dtype)
        offset = 0
        while offset < total:
            count = min(chunk_items, total - offset)
            yield self.read_array(offset, count, dtype)
            offset += count

    def delete(self) -> None:
        self.device.delete(self.name)
