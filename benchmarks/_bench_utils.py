"""Shared constants and helpers for the benchmark modules.

Kept outside ``conftest.py`` so benchmark modules can import them by a
unique module name regardless of how pytest assembles its rootdir.
"""

from __future__ import annotations

from pathlib import Path

#: Where a run writes its tables, traces and ``BENCH_pdtl.json``: a
#: gitignored directory, so running the suite changes no tracked file.  The
#: committed records (``benchmarks/results/``, ``BENCH_pdtl.json``) are
#: refreshed from it by the copy command in the README.
RESULTS_DIR = Path(__file__).resolve().parent.parent / ".bench_build" / "results"

#: The datasets every comparison-style benchmark sweeps over, mapped to the
#: paper dataset each one stands in for.
BENCH_DATASETS: dict[str, str] = {
    "livejournal": "soc-LiveJournal1",
    "orkut": "com-Orkut",
    "twitter": "Twitter",
    "yahoo": "Yahoo",
    "rmat-10": "RMAT-26",
    "rmat-11": "RMAT-27",
    "rmat-12": "RMAT-28",
    "rmat-13": "RMAT-29",
}

#: Core counts standing in for the paper's {1, 2, 4, 8, 16, 24/32} sweeps.
CORE_SWEEP = (1, 2, 4, 8)
#: Node counts matching the paper's EC2 sweeps.
NODE_SWEEP = (1, 2, 3, 4)

#: Large datasets used by the distributed / scaling benchmarks (the paper's
#: Figures 3, 4, 11 focus on Twitter, Yahoo and the RMAT family).
SCALING_DATASETS = ("twitter", "yahoo", "rmat-12", "rmat-13")


def write_result(results_dir: Path, experiment: str, text: str) -> None:
    """Print a result table and persist it under ``results_dir``."""
    print("\n" + text)
    results_dir.mkdir(parents=True, exist_ok=True)
    path = results_dir / f"{experiment}.txt"
    path.write_text(text + "\n", encoding="utf-8")
