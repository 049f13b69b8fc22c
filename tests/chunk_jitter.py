"""Host jitter for the equivalence tests: chunk tasks that finish out of order.

The runner merges chunk outcomes by chunk index, never by completion
order, so no result may change when chunks finish in another order.  To
test that, :func:`host_jitter` replaces the chunk task where
:class:`~repro.core.pdtl.PDTLRunner` looks it up
(``repro.core.pdtl.execute_chunk_task``) with :class:`JitteredChunkTask`,
which sleeps before it runs the task.  The sleep is wall clock only, so
no modelled counter moves.

Each delay is drawn from a generator seeded by the chunk index alone,
never by the process that runs the chunk, so a run's delays are the same
on every backend.  The wrapper is a module-level class, so it pickles to
the process pool's workers; they import this module by name, which works
because pytest puts ``tests/`` on ``sys.path`` before any worker starts.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Iterator

import numpy as np

import repro.core.pdtl as pdtl_module


class JitteredChunkTask:
    """Picklable chunk-task wrapper that sleeps up to ``max_seconds`` first."""

    def __init__(self, fn, max_seconds: float) -> None:
        self.fn = fn
        self.max_seconds = max_seconds

    def __call__(self, task):
        delay = np.random.default_rng(task.index).uniform(0.0, self.max_seconds)
        time.sleep(float(delay))
        return self.fn(task)


@contextmanager
def host_jitter(max_seconds: float) -> Iterator[None]:
    """Delay every chunk task the runner starts inside the block."""
    original = pdtl_module.execute_chunk_task
    pdtl_module.execute_chunk_task = JitteredChunkTask(original, max_seconds)
    try:
        yield
    finally:
        pdtl_module.execute_chunk_task = original
