"""Execution backends for the per-core MGT jobs.

A PDTL run launches MGT work on the reproduction host; how that work is
actually executed is orthogonal to the simulation (the modelled
CPU/I/O/network times are identical either way), so the backend is
pluggable:

* ``serial``   -- run jobs one after another in the calling process; fully
  deterministic, used by the test suite;
* ``processes`` -- a **persistent** :class:`concurrent.futures.ProcessPoolExecutor`
  with one worker per usable CPU, the paper's one MGT process per
  processor (section IV-B); job callables and results must be picklable
  (the dynamic scheduler's :class:`~repro.core.scheduler.ChunkTask` path
  is).  The pool is created once, sized at the CPUs this process may use,
  and reused across every ``run_task_queue`` call (and across scheduler
  rounds), so repeated runs pay the worker spawn cost exactly once.  Each
  worker runs an initializer that resets the process-local shared-memory
  attachment cache (:mod:`repro.core.shm`), after which chunk tasks attach
  published graph segments once and serve every later task zero-copy.

The pool is the only mechanism this package uses to run work
concurrently.  Its work queue is pull-based: every task is submitted up
front and each worker takes the next one when it finishes its last, so a
slow task only delays the worker holding it.  Results come back in task
order.

Each ``processes`` call *leases* the pool for its whole length, in one
``with`` block that is released on every exit path -- the shape of
pygolang's ``sync.WorkGroup`` used as a ``with`` block.  Two events retire
the pool: a worker crash
(:class:`~concurrent.futures.process.BrokenProcessPool`) and
:func:`shutdown_process_pool`.  A retired pool is never leased again; it
is shut down when its last lease ends, and the next call builds a fresh
pool.
"""

from __future__ import annotations

import atexit
import concurrent.futures
import os
import threading
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from enum import Enum
from typing import Callable, Iterator, Sequence, TypeVar

__all__ = [
    "ExecutionBackend",
    "run_task_queue",
    "shutdown_process_pool",
]

T = TypeVar("T")
U = TypeVar("U")


class ExecutionBackend(str, Enum):
    """How per-core jobs are executed on the host."""

    SERIAL = "serial"
    PROCESSES = "processes"


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask (narrowed by
    ``taskset`` and cpuset cgroups) where the platform has one, else the
    host's CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# ---------------------------------------------------------------------------
# the persistent process pool
# ---------------------------------------------------------------------------


def _pool_worker_init() -> None:
    """Per-worker initializer: start from a clean shared-memory cache.

    Under the ``fork`` start method a new worker inherits the parent's
    attachment cache; the entries belong to the parent's lifecycle, so the
    worker forgets them and re-attaches (once, cached) on first use.
    """
    from repro.core import shm

    shm._reset_worker_cache()


class _Pool:
    """The shared executor and the leases held on it.

    ``retired`` marks a pool that is no longer current (broken, or shut
    down by :func:`shutdown_process_pool`); it is shut down, with
    ``close_wait``, by whoever drops its lease count to zero.
    """

    __slots__ = ("executor", "leases", "retired", "close_wait")

    def __init__(self) -> None:
        self.executor = concurrent.futures.ProcessPoolExecutor(
            max_workers=_usable_cpus(), initializer=_pool_worker_init
        )
        self.leases = 0
        self.retired = False
        self.close_wait = True


_LOCK = threading.Lock()
_CURRENT: _Pool | None = None


def _retire_locked(pool: _Pool) -> bool:
    """Take ``pool`` out of service; the caller holds the lock.  Returns
    True when no lease holds it, so the caller shuts it down (outside the
    lock)."""
    global _CURRENT
    pool.retired = True
    if _CURRENT is pool:
        _CURRENT = None
    return pool.leases == 0


@contextmanager
def _lease() -> Iterator[concurrent.futures.ProcessPoolExecutor]:
    """Hold the current pool (building it on first use) for a ``with``
    block; a broken pool is retired before the error propagates."""
    global _CURRENT
    with _LOCK:
        if _CURRENT is None:
            _CURRENT = _Pool()
        pool = _CURRENT
        pool.leases += 1
    try:
        yield pool.executor
    except BrokenProcessPool:
        with _LOCK:
            _retire_locked(pool)
        raise
    finally:
        with _LOCK:
            pool.leases -= 1
            close = pool.retired and pool.leases == 0
        if close:
            pool.executor.shutdown(wait=pool.close_wait)


def shutdown_process_pool(wait: bool = True) -> None:
    """Tear down the persistent pool (idempotent; used by tests/atexit).

    The next processes-backend call builds a fresh pool transparently.  If
    a call still leases the pool, the teardown (with this ``wait``) happens
    when that lease ends.
    """
    with _LOCK:
        pool = _CURRENT
        if pool is None:
            return
        pool.close_wait = wait
        close = _retire_locked(pool)
    if close:
        pool.executor.shutdown(wait=wait)


atexit.register(shutdown_process_pool)


def run_task_queue(
    tasks: Sequence[U],
    fn: Callable[[U], T],
    backend: ExecutionBackend | str = ExecutionBackend.SERIAL,
) -> list[T]:
    """Apply ``fn`` to every task on ``backend``.

    Results are returned in task order regardless of completion order, so a
    caller can merge them deterministically.  Under ``processes`` every
    task is submitted to the persistent pool at once and its workers pull
    them one at a time; ``fn`` and the tasks must then be picklable.  If a
    task raises, the tasks that have not started are cancelled and the
    exception of the first failed task (in task order) is re-raised once
    the running ones finish.
    """
    backend = ExecutionBackend(backend)
    if backend is ExecutionBackend.SERIAL:
        return [fn(task) for task in tasks]
    if not tasks:
        return []
    with _lease() as executor:
        futures = [executor.submit(fn, task) for task in tasks]
        try:
            return [future.result() for future in futures]
        finally:
            for future in futures:
                future.cancel()
            concurrent.futures.wait(futures)
