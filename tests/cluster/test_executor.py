"""Unit tests for the per-core job execution backends."""

from __future__ import annotations

import os
import threading
import time

import pytest

from repro.cluster.executor import (
    ExecutionBackend,
    process_pool,
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


class TestThreadBackend:
    def test_results_in_submission_order_despite_timing(self):
        def job(i, delay):
            def run():
                time.sleep(delay)
                return i

            return run

        jobs = [job(0, 0.05), job(1, 0.0), job(2, 0.02)]
        assert run_task_queue(jobs, _call, backend="threads") == [0, 1, 2]

    def test_actually_concurrent(self):
        barrier = threading.Barrier(3, timeout=5)

        def job():
            barrier.wait()  # deadlocks unless all three run concurrently
            return threading.get_ident()

        results = run_task_queue([job, job, job], _call, backend="threads", max_workers=3)
        assert len(results) == 3

    def test_single_job_runs_inline(self):
        assert run_task_queue([lambda: 7], _call, backend="threads") == [7]

    def test_exceptions_propagate(self):
        def boom():
            raise ValueError("bad")

        with pytest.raises(ValueError):
            run_task_queue([boom, lambda: 1], _call, backend="threads")


class TestBackendSelection:
    def test_enum_and_string_equivalent(self):
        jobs = [lambda: 1, lambda: 2]
        assert run_task_queue(
            jobs, _call, backend=ExecutionBackend.SERIAL
        ) == run_task_queue(jobs, _call, backend="serial")

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            run_task_queue([lambda: 1], _call, backend="quantum")

    def test_max_workers_respected(self):
        active = []
        lock = threading.Lock()
        peak = [0]

        def job():
            with lock:
                active.append(1)
                peak[0] = max(peak[0], len(active))
            time.sleep(0.01)
            with lock:
                active.pop()
            return True

        run_task_queue([job] * 6, _call, backend="threads", max_workers=2)
        assert peak[0] <= 2


def _pin_cpus(monkeypatch, cpus: int) -> None:
    """Pretend this process may run on ``cpus`` CPUs."""
    if hasattr(os, "sched_getaffinity"):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    else:
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)


class TestDefaultWorkerCap:
    """Regression: ``max_workers or len(jobs)`` used to spawn one OS thread
    (or process) per job, even for hundreds of jobs; the default crew is now
    capped at the CPUs this process may use."""

    def _measure_peak(self, num_jobs: int) -> int:
        active = []
        lock = threading.Lock()
        peak = [0]

        def job():
            with lock:
                active.append(1)
                peak[0] = max(peak[0], len(active))
            time.sleep(0.005)
            with lock:
                active.pop()
            return True

        run_task_queue([job] * num_jobs, _call, backend="threads")
        return peak[0]

    def test_default_thread_crew_capped_at_cpu_count(self, monkeypatch):
        _pin_cpus(monkeypatch, 2)
        assert self._measure_peak(40) <= 2

    def test_cap_survives_unknown_cpu_count(self, monkeypatch):
        # no affinity API and an unknown CPU count: a crew of one
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert self._measure_peak(10) <= 1

    @pytest.mark.skipif(
        not hasattr(os, "sched_getaffinity"), reason="no CPU affinity on this platform"
    )
    def test_crew_follows_affinity_not_host_cpu_count(self, monkeypatch):
        # a 64-CPU host, but this process is pinned to one CPU
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        assert self._measure_peak(10) == 1

    def test_explicit_max_workers_still_wins(self, monkeypatch):
        _pin_cpus(monkeypatch, 1)
        barrier = threading.Barrier(3, timeout=5)

        def job():
            barrier.wait()
            return True

        # three concurrent workers despite the 1-CPU host: explicit cap rules
        assert run_task_queue(
            [job] * 3, _call, backend="threads", max_workers=3
        ) == [True] * 3


class TestRunTaskQueue:
    def test_results_in_task_order(self):
        tasks = list(range(8))
        assert run_task_queue(tasks, lambda x: x * x, backend="serial") == [
            x * x for x in tasks
        ]

    def test_threads_pull_until_drained(self, monkeypatch):
        _pin_cpus(monkeypatch, 3)
        tasks = list(range(50))
        results = run_task_queue(tasks, lambda x: x + 1, backend="threads")
        assert results == [x + 1 for x in tasks]

    def test_straggler_does_not_block_other_workers(self):
        order = []
        lock = threading.Lock()

        def work(task):
            if task == 0:
                time.sleep(0.1)  # straggling task
            with lock:
                order.append(task)
            return task

        results = run_task_queue(
            [0, 1, 2, 3, 4], work, backend="threads", max_workers=2
        )
        assert results == [0, 1, 2, 3, 4]
        # everything else finished while the straggler slept
        assert order[-1] == 0

    def test_processes_backend_requires_picklable_and_works(self):
        results = run_task_queue([1, 2, 3], _double, backend="processes", max_workers=2)
        assert results == [2, 4, 6]

    def test_exceptions_propagate(self):
        def boom(task):
            if task == 2:
                raise RuntimeError("task 2 failed")
            return task

        with pytest.raises(RuntimeError):
            run_task_queue([0, 1, 2, 3], boom, backend="threads", max_workers=2)

    def test_empty_tasks(self):
        assert run_task_queue([], lambda x: x, backend="threads") == []


def _double(x):
    return 2 * x


def _worker_pid(_task):
    return os.getpid()


def _kill_worker(task):
    if task == "die":
        os._exit(13)  # simulate a hard worker crash (not an exception)
    return task


class TestPersistentProcessPool:
    """The processes backend reuses one pool across calls (and scheduler
    rounds) instead of constructing/tearing down an executor per call."""

    def test_pool_object_is_reused_across_calls(self):
        shutdown_process_pool()
        first = process_pool(1)
        second = process_pool(1)
        assert first is second
        # a run that does not need a bigger pool keeps the same handle
        assert run_task_queue([1, 2], _double, backend="processes", max_workers=1) == [2, 4]
        assert process_pool(1) is first

    def test_worker_processes_survive_between_runs(self):
        shutdown_process_pool()
        pids_a = set(run_task_queue([0, 1, 2], _worker_pid, backend="processes"))
        workers = set(process_pool(1)._processes)
        pids_b = set(run_task_queue([0, 1, 2], _worker_pid, backend="processes"))
        # an idle worker may serve no task, so the two runs' PID sets can
        # differ; but both come from one worker set that was not respawned
        assert pids_a <= workers and pids_b <= workers
        assert set(process_pool(1)._processes) == workers
        assert os.getpid() not in workers

    def test_pool_grows_but_never_shrinks(self):
        shutdown_process_pool()
        small = process_pool(1)
        grown = process_pool(2)
        assert grown is not small
        assert process_pool(1) is grown  # a smaller request keeps the big pool

    def test_callable_jobs_use_the_shared_pool(self):
        shutdown_process_pool()
        results = run_task_queue(
            [_make_const(3), _make_const(4)], _call, backend="processes", max_workers=2
        )
        assert results == [3, 4]

    def test_shutdown_is_idempotent_and_recreates_lazily(self):
        shutdown_process_pool()
        shutdown_process_pool()
        assert run_task_queue([5], _double, backend="processes") == [10]
        shutdown_process_pool()

    def test_broken_pool_is_discarded_and_rebuilt(self):
        shutdown_process_pool()
        from concurrent.futures.process import BrokenProcessPool

        with pytest.raises(BrokenProcessPool):
            run_task_queue(["ok", "die"], _kill_worker, backend="processes")
        # the next call transparently builds a fresh pool
        assert run_task_queue([1, 2, 3], _double, backend="processes") == [2, 4, 6]

    def test_exceptions_propagate_without_breaking_the_pool(self):
        shutdown_process_pool()
        with pytest.raises(ValueError, match="bad task"):
            run_task_queue([0, 1], _raise_on_one, backend="processes")
        assert run_task_queue([7], _double, backend="processes") == [14]

    def test_growth_does_not_break_a_concurrent_run(self):
        """Regression: replacing the pool with a larger one must not shut
        the old executor down under a thread still submitting to it."""
        shutdown_process_pool()
        outcome: dict[str, object] = {}

        def long_run():
            try:
                outcome["a"] = run_task_queue(
                    [0.03] * 6, _sleep_return, backend="processes", max_workers=1
                )
            except BaseException as exc:  # noqa: BLE001 - asserted below
                outcome["error"] = exc

        thread = threading.Thread(target=long_run)
        thread.start()
        time.sleep(0.05)  # let the long run occupy the 1-worker pool
        outcome["b"] = run_task_queue(
            [1, 2], _double, backend="processes", max_workers=2
        )  # grows (replaces) the shared pool mid-flight
        thread.join()
        assert "error" not in outcome, outcome.get("error")
        assert outcome["a"] == [0.03] * 6
        assert outcome["b"] == [2, 4]


def _make_const(value):
    from functools import partial

    return partial(_identity, value)


def _identity(value):
    return value


def _raise_on_one(task):
    if task == 1:
        raise ValueError("bad task")
    return task


def _sleep_return(delay):
    time.sleep(delay)
    return delay
