"""Shared fixtures for the benchmark harness.

Every benchmark module regenerates one table or figure of the paper's
evaluation section on the scaled-down analogue datasets.  Conventions:

* each benchmark prints its table (in the paper's row/column layout) and
  also writes it to ``.bench_build/results/<experiment>.txt`` so the
  numbers survive the pytest run;
* wall-clock measurements use ``benchmark.pedantic`` with a single round --
  the quantity of interest is the *relative* shape across configurations,
  not micro-timing stability;
* datasets are generated once per session and shared across modules.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from _bench_utils import BENCH_DATASETS, RESULTS_DIR  # noqa: E402

from repro.baselines.inmemory import forward_count  # noqa: E402
from repro.graph.csr import CSRGraph  # noqa: E402
from repro.graph.datasets import load_dataset  # noqa: E402


@pytest.fixture(scope="session")
def datasets() -> dict[str, CSRGraph]:
    """All analogue datasets, generated once per benchmark session."""
    return {name: load_dataset(name, seed=0) for name in BENCH_DATASETS}


@pytest.fixture(scope="session")
def reference_counts(datasets) -> dict[str, int]:
    """Reference triangle counts (used to assert correctness inside benches)."""
    return {name: forward_count(graph) for name, graph in datasets.items()}


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    return RESULTS_DIR
