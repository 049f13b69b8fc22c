"""Execution backends for the per-core MGT jobs.

A PDTL run launches MGT work on the reproduction host; how that work is
actually executed is orthogonal to the simulation (the modelled
CPU/I/O/network times are identical either way), so the backend is
pluggable:

* ``serial``   -- run jobs one after another in the calling process; fully
  deterministic, used by the test suite;
* ``threads``  -- worker threads pulling from a shared queue; numpy
  releases the GIL for the bulk array work, so this gives real concurrency
  for the I/O- and numpy-heavy parts while keeping shared-memory access to
  the block devices simple;
* ``processes`` -- a **persistent** :class:`concurrent.futures.ProcessPoolExecutor`
  for true CPU parallelism; job callables and results must be picklable
  (the dynamic scheduler's :class:`~repro.core.scheduler.ChunkTask` path
  is).  The pool is created once and reused across every
  ``run_task_queue`` call (and across scheduler rounds), so repeated runs
  pay the worker spawn cost exactly once instead of per call -- the
  visible startup tax on small graphs the old per-call pool had.  Each
  worker runs an initializer that resets the process-local shared-memory
  attachment cache (:mod:`repro.core.shm`), after which chunk tasks attach
  published graph segments once and serve every later task zero-copy.

The single entry point, :func:`run_task_queue`, is pull-based: a bounded
crew of workers loops over a shared queue of tasks, so a slow task only
delays the worker holding it -- the structured-concurrency shape of
pygolang's ``sync.WorkGroup``, without the extra dependency.  Results come
back in task order.  The default crew is capped at the CPUs this process
may use: spawning one OS thread or process per task melts down once tasks
number in the hundreds (the dynamic scheduler routinely queues hundreds of
chunks).

Because the process pool outlives individual calls, a caller-supplied
``max_workers`` smaller than the pool is enforced with a sliding
submission window (at most that many tasks in flight), and a crashed
worker (:class:`~concurrent.futures.process.BrokenProcessPool`) discards
the pool so the next call transparently builds a fresh one.
"""

from __future__ import annotations

import atexit
import concurrent.futures
import os
import queue
import threading
from concurrent.futures.process import BrokenProcessPool
from enum import Enum
from typing import Callable, Sequence, TypeVar

__all__ = [
    "ExecutionBackend",
    "run_task_queue",
    "process_pool",
    "shutdown_process_pool",
]

T = TypeVar("T")
U = TypeVar("U")


class ExecutionBackend(str, Enum):
    """How per-core jobs are executed on the host."""

    SERIAL = "serial"
    THREADS = "threads"
    PROCESSES = "processes"


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask (narrowed by
    ``taskset`` and cpuset cgroups) where the platform has one, else the
    host's CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _effective_workers(max_workers: int | None, num_jobs: int) -> int:
    """Bound the worker crew: the caller's cap if given, else the usable CPUs."""
    cap = max_workers if max_workers is not None else _usable_cpus()
    return max(1, min(cap, num_jobs))


# ---------------------------------------------------------------------------
# the persistent process pool
# ---------------------------------------------------------------------------


class _PoolHandle:
    """The shared executor plus the bookkeeping that makes replacing it safe.

    ``users`` counts threads currently running a ``_map_on_pool`` round on
    this executor; ``retired`` marks a handle that is no longer the
    current pool (grown past, torn down, or broken).  A retired pool is
    only shut down once its last user releases it, so a concurrent caller
    never has the executor yanked out from under its in-flight submits --
    the safety the old one-executor-per-call design had for free.
    """

    __slots__ = ("pool", "workers", "users", "retired", "close_wait")

    def __init__(self, pool: concurrent.futures.ProcessPoolExecutor, workers: int):
        self.pool = pool
        self.workers = workers
        self.users = 0
        self.retired = False
        self.close_wait = True  # wait flag for a deferred shutdown


_POOL_LOCK = threading.Lock()
_CURRENT: _PoolHandle | None = None


def _pool_worker_init() -> None:
    """Per-worker initializer: start from a clean shared-memory cache.

    Under the ``fork`` start method a new worker inherits the parent's
    attachment cache; the entries belong to the parent's lifecycle, so the
    worker forgets them and re-attaches (once, cached) on first use.
    """
    from repro.core import shm

    shm._reset_worker_cache()


def _ensure_pool_locked(min_workers: int) -> tuple[_PoolHandle, _PoolHandle | None]:
    """Make the current handle hold >= ``min_workers``; caller holds the lock.

    Returns ``(current, to_close)`` where ``to_close`` is a replaced pool
    with no active users (the caller shuts it down outside the lock).
    """
    global _CURRENT
    to_close: _PoolHandle | None = None
    if _CURRENT is None or _CURRENT.workers < min_workers:
        old = _CURRENT
        if old is not None:
            old.retired = True
            if old.users == 0:
                to_close = old
        _CURRENT = _PoolHandle(
            concurrent.futures.ProcessPoolExecutor(
                max_workers=min_workers, initializer=_pool_worker_init
            ),
            min_workers,
        )
    return _CURRENT, to_close


def process_pool(min_workers: int) -> concurrent.futures.ProcessPoolExecutor:
    """Return the persistent process pool, sized for at least ``min_workers``.

    The pool is created lazily on first use and reused for every later
    call; if a caller needs more workers than the current pool has, a
    larger pool replaces it (never shrunk -- idle workers are cheap,
    respawning them is not).

    This is an inspection/warm-up hook, not a submission API: the returned
    executor may be replaced (and shut down) by a later, larger request at
    any time.  Only the internal ``_acquire_pool``/``_release_pool``
    protocol -- which ``run_task_queue`` uses -- defers that shutdown while
    tasks are in flight, so submit work through that entry point rather
    than directly on the returned pool.
    """
    with _POOL_LOCK:
        handle, to_close = _ensure_pool_locked(min_workers)
    if to_close is not None:
        to_close.pool.shutdown(wait=True)
    return handle.pool


def _acquire_pool(min_workers: int) -> _PoolHandle:
    with _POOL_LOCK:
        handle, to_close = _ensure_pool_locked(min_workers)
        handle.users += 1
    if to_close is not None:
        to_close.pool.shutdown(wait=True)
    return handle


def _release_pool(handle: _PoolHandle) -> None:
    with _POOL_LOCK:
        handle.users -= 1
        close_now = handle.retired and handle.users == 0
        close_wait = handle.close_wait
    if close_now:
        handle.pool.shutdown(wait=close_wait)


def _discard_pool(handle: _PoolHandle) -> None:
    """Retire a broken pool so the next call rebuilds; the caller's release
    (or the last concurrent user's) performs the actual shutdown."""
    global _CURRENT
    with _POOL_LOCK:
        handle.retired = True
        if _CURRENT is handle:
            _CURRENT = None


def shutdown_process_pool(wait: bool = True) -> None:
    """Tear down the persistent pool (idempotent; used by tests/atexit).

    The next processes-backend call builds a fresh pool transparently.  If
    another thread is mid-run on the pool, teardown is deferred to that
    thread's release.
    """
    global _CURRENT
    with _POOL_LOCK:
        handle, _CURRENT = _CURRENT, None
        if handle is None:
            return
        handle.retired = True
        handle.close_wait = wait  # honoured by a deferred close too
        close_now = handle.users == 0
    if close_now:
        handle.pool.shutdown(wait=wait)


atexit.register(shutdown_process_pool)


def _map_on_pool(
    fn: Callable[[U], T], tasks: Sequence[U], window: int
) -> list[T]:
    """Run ``fn`` over ``tasks`` on the persistent pool, results in order.

    At most ``window`` tasks are in flight at once, so a caller's
    ``max_workers`` cap holds even when the shared pool is larger.  On a
    worker crash the pool is discarded before the error propagates.
    """
    handle = _acquire_pool(window)
    pool = handle.pool
    results: list[T] = [None] * len(tasks)  # type: ignore[list-item]
    pending: dict[concurrent.futures.Future, int] = {}
    error: BaseException | None = None
    next_index = 0
    try:
        while (next_index < len(tasks) or pending) and error is None:
            while next_index < len(tasks) and len(pending) < window:
                pending[pool.submit(fn, tasks[next_index])] = next_index
                next_index += 1
            done, _ = concurrent.futures.wait(
                pending, return_when=concurrent.futures.FIRST_COMPLETED
            )
            for future in done:
                index = pending.pop(future)
                try:
                    results[index] = future.result()
                except BaseException as exc:  # noqa: BLE001 - re-raised below
                    error = exc
                    break
        if error is not None:
            for future in pending:
                future.cancel()
            concurrent.futures.wait(list(pending))
            raise error
    except BrokenProcessPool:
        _discard_pool(handle)
        raise
    finally:
        _release_pool(handle)
    return results


def run_task_queue(
    tasks: Sequence[U],
    fn: Callable[[U], T],
    backend: ExecutionBackend | str = ExecutionBackend.SERIAL,
    max_workers: int | None = None,
) -> list[T]:
    """Apply ``fn`` to every task with workers *pulling* from a shared queue.

    Results are returned in task order regardless of completion order, so a
    caller can merge them deterministically.  Under ``threads`` each worker
    is an explicit loop -- pop the next task index, run it, repeat until the
    queue drains -- so a straggling task occupies exactly one worker while
    the rest keep pulling.  Under ``processes`` the *persistent* pool's
    internal work queue provides the same pull behaviour across calls
    without re-spawning workers; ``fn`` and the tasks must then be
    picklable.  The first exception raised by any task is re-raised after
    the surviving workers finish.
    """
    backend = ExecutionBackend(backend)
    num_tasks = len(tasks)
    if num_tasks == 0:
        return []
    workers = _effective_workers(max_workers, num_tasks)
    # The processes backend always goes through the real pool (even with one
    # worker) so the picklable-task contract is genuinely exercised; the
    # in-process backends degenerate to a plain loop when only one worker
    # would run anyway.
    if backend is ExecutionBackend.SERIAL or (
        backend is ExecutionBackend.THREADS and (num_tasks == 1 or workers == 1)
    ):
        return [fn(task) for task in tasks]

    if backend is ExecutionBackend.THREADS:
        results: list[T] = [None] * num_tasks  # type: ignore[list-item]
        pending: queue.SimpleQueue[int] = queue.SimpleQueue()
        for index in range(num_tasks):
            pending.put(index)
        errors: list[BaseException] = []
        error_lock = threading.Lock()

        def worker_loop() -> None:
            while True:
                try:
                    index = pending.get_nowait()
                except queue.Empty:
                    return
                try:
                    results[index] = fn(tasks[index])
                except BaseException as exc:  # noqa: BLE001 - re-raised below
                    with error_lock:
                        errors.append(exc)
                    return

        threads = [threading.Thread(target=worker_loop) for _ in range(workers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if errors:
            raise errors[0]
        return results
    if backend is ExecutionBackend.PROCESSES:
        return _map_on_pool(fn, tasks, workers)
    raise ValueError(f"unknown execution backend {backend!r}")
