"""Unit tests for the per-core job execution backends."""

from __future__ import annotations

import multiprocessing
import os
import pickle
import threading
import time
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.cluster.executor import (
    ExecutionBackend,
    _lease,
    _usable_cpus,
    run_task_queue,
    shutdown_process_pool,
)


def _call(job):
    """Run a zero-argument job; module-level so it pickles."""
    return job()


class TestSerialBackend:
    def test_results_in_order(self):
        jobs = [lambda i=i: i * 10 for i in range(5)]
        assert run_task_queue(jobs, _call, backend="serial") == [0, 10, 20, 30, 40]

    def test_empty_jobs(self):
        assert run_task_queue([], _call, backend="serial") == []

    def test_exceptions_propagate(self):
        def boom():
            raise RuntimeError("nope")

        with pytest.raises(RuntimeError):
            run_task_queue([boom], _call, backend="serial")

    def test_runs_in_the_calling_process_without_a_pool(self):
        shutdown_process_pool()
        pids = run_task_queue(range(3), _worker_pid, backend="serial")
        assert pids == [os.getpid()] * 3
        assert multiprocessing.active_children() == []


class TestBackendSelection:
    def test_enum_and_string_equivalent(self):
        jobs = [lambda: 1, lambda: 2]
        assert run_task_queue(
            jobs, _call, backend=ExecutionBackend.SERIAL
        ) == run_task_queue(jobs, _call, backend="serial")

    def test_exactly_two_backends(self):
        assert {b.value for b in ExecutionBackend} == {"serial", "processes"}

    @pytest.mark.parametrize("name", ["quantum", "threads"])
    def test_unknown_backend_rejected(self, name):
        with pytest.raises(ValueError):
            run_task_queue([lambda: 1], _call, backend=name)


def _pin_cpus(monkeypatch, cpus: int) -> None:
    """Pretend this process may run on ``cpus`` CPUs."""
    if hasattr(os, "sched_getaffinity"):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    else:
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)


class TestDefaultWorkerCap:
    """Regression: one OS process per task melts down once tasks number in
    the hundreds; the pool is sized once, at the CPUs this process may use,
    however many tasks a call brings."""

    @pytest.fixture(autouse=True)
    def _rebuilt_pool(self):
        # the pool is sized when it is built: start from none, and leave
        # none behind sized for the pinned CPUs
        shutdown_process_pool()
        yield
        shutdown_process_pool()

    def _worker_pids(self, num_tasks: int) -> set[int]:
        return set(run_task_queue(range(num_tasks), _worker_pid, backend="processes"))

    def test_pool_capped_at_usable_cpus(self, monkeypatch):
        _pin_cpus(monkeypatch, 2)
        assert _usable_cpus() == 2
        assert 1 <= len(self._worker_pids(40)) <= 2

    def test_pool_is_sized_once_when_built(self, monkeypatch):
        _pin_cpus(monkeypatch, 1)
        with _lease() as built:
            assert built._max_workers == 1
        # the affinity widens: the built pool keeps its size ...
        _pin_cpus(monkeypatch, 2)
        assert len(self._worker_pids(10)) == 1
        with _lease() as same:
            assert same is built
        # ... and only a rebuild picks up the new CPU count
        shutdown_process_pool()
        with _lease() as rebuilt:
            assert rebuilt is not built
            assert rebuilt._max_workers == 2

    def test_cap_survives_unknown_cpu_count(self, monkeypatch):
        # no affinity API and an unknown CPU count: a pool of one
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert len(self._worker_pids(10)) == 1

    @pytest.mark.skipif(
        not hasattr(os, "sched_getaffinity"), reason="no CPU affinity on this platform"
    )
    def test_pool_follows_affinity_not_host_cpu_count(self, monkeypatch):
        # a 64-CPU host, but this process is pinned to one CPU
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        assert len(self._worker_pids(10)) == 1


class TestRunTaskQueue:
    def test_results_in_task_order(self):
        tasks = list(range(8))
        assert run_task_queue(tasks, lambda x: x * x, backend="serial") == [
            x * x for x in tasks
        ]

    def test_processes_results_in_task_order_despite_timing(self):
        delays = [0.05, 0.0, 0.02, 0.0]
        assert run_task_queue(delays, _sleep_return, backend="processes") == delays

    def test_processes_pull_until_drained(self):
        tasks = list(range(50))
        results = run_task_queue(tasks, _double, backend="processes")
        assert results == [2 * x for x in tasks]

    def test_straggler_does_not_block_other_workers(self, monkeypatch):
        # task 0 straggles; every other task is pulled by the free worker
        # of a pool of two (even on a one-CPU host) and finishes before it
        shutdown_process_pool()
        _pin_cpus(monkeypatch, 2)
        try:
            timings = run_task_queue(
                [0.5, 0.0, 0.0, 0.0, 0.0], _timed_sleep, backend="processes"
            )
        finally:
            shutdown_process_pool()
        straggler_pid, straggler_end = timings[0]
        assert all(end < straggler_end for _, end in timings[1:])
        assert {pid for pid, _ in timings[1:]} != {straggler_pid}

    def test_processes_backend_requires_picklable_and_works(self):
        results = run_task_queue([1, 2, 3], _double, backend="processes")
        assert results == [2, 4, 6]

    def test_unpicklable_task_rejected_without_breaking_the_pool(self):
        shutdown_process_pool()
        with _lease() as before:
            pass
        with pytest.raises((pickle.PicklingError, AttributeError)):
            run_task_queue([lambda: 1], _call, backend="processes")
        assert run_task_queue([3], _double, backend="processes") == [6]
        with _lease() as after:
            assert after is before

    def test_single_task_runs_on_the_pool(self):
        # never inline: a one-task run still crosses the process boundary
        [pid] = run_task_queue([0], _worker_pid, backend="processes")
        assert pid != os.getpid()

    def test_processes_actually_concurrent(self, tmp_path, monkeypatch):
        # every task waits until all have started, so the round returns
        # True only if the pool runs one task per usable CPU at once (two
        # here, even on a one-CPU host)
        shutdown_process_pool()
        _pin_cpus(monkeypatch, 2)
        tasks = [(str(tmp_path), 2, i) for i in range(2)]
        try:
            assert run_task_queue(tasks, _rendezvous, backend="processes") == [
                True,
                True,
            ]
        finally:
            shutdown_process_pool()

    def test_empty_tasks(self):
        assert run_task_queue([], lambda x: x, backend="processes") == []


def _double(x):
    return 2 * x


def _worker_pid(_task):
    return os.getpid()


def _timed_sleep(delay):
    time.sleep(delay)
    return os.getpid(), time.monotonic()


def _rendezvous(task):
    """Mark this task started, then wait (10 s at most) for all parties."""
    directory, parties, index = task
    open(os.path.join(directory, str(index)), "w").close()
    deadline = time.monotonic() + 10.0
    while len(os.listdir(directory)) < parties:
        if time.monotonic() > deadline:
            return False
        time.sleep(0.005)
    return True


def _kill_worker(task):
    if task == "die":
        os._exit(13)  # simulate a hard worker crash (not an exception)
    return task


class TestPersistentProcessPool:
    """The processes backend reuses one pool across calls (and scheduler
    rounds) instead of constructing/tearing down an executor per call."""

    def test_pool_object_is_reused_across_calls(self):
        shutdown_process_pool()
        with _lease() as first:
            pass
        assert run_task_queue([1, 2], _double, backend="processes") == [2, 4]
        with _lease() as second:
            assert second is first

    def test_worker_processes_survive_between_runs(self):
        shutdown_process_pool()
        pids_a = set(run_task_queue([0, 1, 2], _worker_pid, backend="processes"))
        with _lease() as executor:
            workers = set(executor._processes)
        pids_b = set(run_task_queue([0, 1, 2], _worker_pid, backend="processes"))
        # an idle worker may serve no task, so the two runs' PID sets can
        # differ; but both come from one worker set that was not respawned
        assert pids_a <= workers and pids_b <= workers
        assert 1 <= len(workers) <= _usable_cpus()
        with _lease() as executor:
            assert set(executor._processes) == workers
        assert os.getpid() not in workers

    def test_callable_jobs_use_the_shared_pool(self):
        shutdown_process_pool()
        results = run_task_queue(
            [_make_const(3), _make_const(4)], _call, backend="processes"
        )
        assert results == [3, 4]

    def test_shutdown_is_idempotent_and_recreates_lazily(self):
        shutdown_process_pool()
        shutdown_process_pool()
        assert run_task_queue([5], _double, backend="processes") == [10]
        shutdown_process_pool()

    def test_broken_pool_is_discarded_and_rebuilt(self):
        shutdown_process_pool()
        with _lease() as broken:
            pass
        with pytest.raises(BrokenProcessPool):
            run_task_queue(["ok", "die"], _kill_worker, backend="processes")
        # the next call transparently builds a fresh pool
        assert run_task_queue([1, 2, 3], _double, backend="processes") == [2, 4, 6]
        with _lease() as fresh:
            assert fresh is not broken

    def test_exceptions_propagate_without_breaking_the_pool(self):
        shutdown_process_pool()
        with _lease() as before:
            pass
        with pytest.raises(ValueError, match="bad task"):
            run_task_queue([0, 1], _raise_on_one, backend="processes")
        assert run_task_queue([7], _double, backend="processes") == [14]
        with _lease() as after:
            assert after is before
        # the failed call released its lease: a shutdown now is not deferred
        shutdown_process_pool()
        assert multiprocessing.active_children() == []

    def test_first_failure_in_task_order_is_raised(self):
        with pytest.raises(ValueError, match="task 1"):
            run_task_queue([0, 1, 2, 3], _raise_from_one, backend="processes")

    def test_failure_returns_after_running_tasks_finish(self, tmp_path, monkeypatch):
        # a pool of two, even on a one-CPU host, and task 0 fails only once
        # task 1 runs: with one worker task 1 could still be queued when
        # task 0 fails, and a queued task is cancelled, not waited for
        shutdown_process_pool()
        _pin_cpus(monkeypatch, 2)
        started, finished = str(tmp_path / "started"), tmp_path / "finished"
        try:
            with pytest.raises(ValueError, match="bad task"):
                run_task_queue(
                    [(None, started), (str(finished), started)],
                    _fail_or_mark,
                    backend="processes",
                )
            assert finished.exists()
        finally:
            shutdown_process_pool()

    def test_shutdown_during_a_lease_takes_effect_when_it_ends(self):
        """A shutdown that arrives mid-lease retires the pool at once -- the
        next lease gets a fresh one, never the retired pool -- but the
        holder keeps a working executor until its lease ends."""
        shutdown_process_pool()
        with _lease() as held:
            shutdown_process_pool()
            with _lease() as fresh:
                assert fresh is not held
                assert fresh.submit(_double, 3).result() == 6
            assert held.submit(_double, 2).result() == 4
        with pytest.raises(RuntimeError, match="after shutdown"):
            held.submit(_double, 1)
        assert run_task_queue([4], _double, backend="processes") == [8]


class TestLeaseStress:
    """Concurrent callers run rounds while other threads shut the pool down
    and crash its workers.

    Every round must return the right results or raise
    :class:`BrokenProcessPool`, no thread may hang, no worker may outlive
    the final shutdown, and a lease taken right after a pool was retired
    (shut down or discarded as broken) must get a fresh pool -- the
    "context from an already-cancelled parent" class of bug.
    """

    CALLERS = 3
    ROUNDS = 25
    TIME_BOUND_S = 60.0

    def test_rounds_survive_concurrent_shutdowns_and_crashes(self):
        shutdown_process_pool()
        stop = threading.Event()
        lock = threading.Lock()
        failures: list[object] = []
        outcomes = {"ok": 0, "broken": 0}

        def fail(what: object) -> None:
            with lock:
                failures.append(what)

        def caller() -> None:
            for _ in range(self.ROUNDS):
                try:
                    result = run_task_queue(range(6), _double, backend="processes")
                except BrokenProcessPool:
                    with lock:
                        outcomes["broken"] += 1
                    continue
                except BaseException as exc:  # noqa: BLE001 - reported below
                    fail(exc)
                    continue
                if result != [0, 2, 4, 6, 8, 10]:
                    fail(result)
                with lock:
                    outcomes["ok"] += 1

        def shutter() -> None:
            while not stop.is_set():
                try:
                    with _lease() as before:
                        pass
                    shutdown_process_pool()  # retires `before` if nobody did
                    with _lease() as after:
                        if after is before:
                            fail("lease after a shutdown got the retired pool")
                except BaseException as exc:  # noqa: BLE001 - reported below
                    fail(exc)
                stop.wait(0.01)

        def killer() -> None:
            while not stop.is_set():
                try:
                    try:
                        with _lease() as broken:
                            broken.submit(_kill_worker, "die").result()
                        fail("a worker crash did not break the pool")
                    except BrokenProcessPool:
                        pass
                    with _lease() as after:
                        if after is broken:
                            fail("lease after a crash got the discarded pool")
                except BaseException as exc:  # noqa: BLE001 - reported below
                    fail(exc)
                stop.wait(0.005)

        callers = [threading.Thread(target=caller, daemon=True) for _ in range(self.CALLERS)]
        disruptors = [
            threading.Thread(target=shutter, daemon=True),
            threading.Thread(target=killer, daemon=True),
        ]
        deadline = time.monotonic() + self.TIME_BOUND_S
        for thread in disruptors + callers:
            thread.start()
        for thread in callers:
            thread.join(max(0.0, deadline - time.monotonic()))
        stop.set()
        for thread in disruptors:
            thread.join(max(0.0, deadline - time.monotonic()))
        hung = [t for t in callers + disruptors if t.is_alive()]
        assert not hung, f"{len(hung)} thread(s) still running after {self.TIME_BOUND_S} s"
        assert not failures, failures[:5]
        assert outcomes["ok"] + outcomes["broken"] == self.CALLERS * self.ROUNDS
        # with the disruption over, the pool serves rounds again
        assert run_task_queue(range(6), _double, backend="processes") == [0, 2, 4, 6, 8, 10]
        shutdown_process_pool()
        assert multiprocessing.active_children() == []


def _make_const(value):
    from functools import partial

    return partial(_identity, value)


def _identity(value):
    return value


def _raise_on_one(task):
    if task == 1:
        raise ValueError("bad task")
    return task


def _raise_from_one(task):
    if task >= 1:
        raise ValueError(f"task {task}")
    return task


def _fail_or_mark(task):
    """Task 0 fails once task 1 has started (10 s at most); task 1 marks
    its start, finishes late and leaves a marker."""
    finished, started = task
    if finished is None:
        deadline = time.monotonic() + 10.0
        while not os.path.exists(started) and time.monotonic() < deadline:
            time.sleep(0.005)
        raise ValueError("bad task")
    open(started, "w").close()
    time.sleep(0.3)
    open(finished, "w").close()


def _sleep_return(delay):
    time.sleep(delay)
    return delay
