"""The benchmark's own checks: clean exit, leak detection, output contract.

Each test runs the benchmark in a subprocess and session of its own, with
a one-second measured phase: ``perfbench/run.py`` exactly as the benchmark
is invoked, or ``measure.py`` under a probe that breaks the program.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.shm import shm_available

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SHM_DIR = Path("/dev/shm")

_SHM_OK, _SHM_REASON = shm_available()


def _segments() -> set[str]:
    return {p.name for p in SHM_DIR.glob("pdtl-shm-*")} if SHM_DIR.is_dir() else set()


def _group_alive(pgid: int) -> bool:
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return False
    return True


def _bench(workload: str, trace: int, cwd: Path = ROOT, command=None, env=None):
    """Run one short benchmark invocation; ``(process, lines, stderr,
    segments before)``."""
    before = _segments()
    proc = subprocess.Popen(
        [*(command or [sys.executable, "perfbench/run.py"]), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    out, err = proc.communicate(timeout=300)
    return proc, out.splitlines(), err, before


def _line(lines: list[str], prefix: str) -> dict:
    return json.loads(next(line for line in lines if line.startswith(prefix))[len(prefix):])


@pytest.fixture(scope="module")
def traced_count_shm():
    return _bench("count_shm", trace=1)


@pytest.mark.skipif(not _SHM_OK, reason=f"shared memory unavailable: {_SHM_REASON}")
def test_count_shm_leaves_no_process_or_segment(traced_count_shm):
    proc, lines, err, before = traced_count_shm
    assert proc.returncode == 0, err
    cleanup = _line(lines, "cleanup ")
    # nothing the measurement process started (pool workers, the shared
    # memory resource tracker) was alive once it exited ...
    assert cleanup["stray_processes"] is False
    assert cleanup["leaked_segments"] == []
    # ... and nothing of either session is alive now
    assert not _group_alive(proc.pid)
    assert not _group_alive(cleanup["measure_pid"])
    assert not {s for s in _segments() - before if s.startswith("pdtl-shm-")}
    result = json.loads(lines[-1])
    assert result["correct"] is True and result["failed"] == 0
    assert _line(lines, "record ")["shm"] is True


@pytest.mark.skipif(not _SHM_OK, reason=f"shared memory unavailable: {_SHM_REASON}")
def test_traced_run_reports_every_layer_and_they_add_up(traced_count_shm):
    _, lines, _, _ = traced_count_shm
    metrics = json.loads(lines[-1])["metrics"]
    assert {name: m["unit"] for name, m in metrics.items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]
    }
    leaves = ("graph.stage_s", "orientation.s", "pdtl.plan_s", "cluster.replicate_s",
              "shm.publish_s", "mgt.scan_s", "pdtl.aggregate_s", "analytics.canonicalise_s",
              "truss.s", "pdtl.unattributed_s")
    total = sum(metrics[name]["value"] for name in leaves)
    assert total == pytest.approx(metrics["obs.traced_op_s"]["value"], rel=1e-9)
    assert metrics["pdtl.unattributed_s"]["value"] >= 0.0
    assert metrics["shm.published_mb"]["value"] > 0.0


#: measure.py with every shared-memory publication left linked, as if the
#: program forgot to unlink it after a run
_UNLINK_SKIPPED = """
import runpy, sys
from repro.core.shm import SharedGraphPublication
SharedGraphPublication.unlink = lambda self: None
sys.path.insert(0, "perfbench")
sys.argv = ["perfbench/measure.py", *sys.argv[1:]]
runpy.run_path("perfbench/measure.py", run_name="__main__")
"""


@pytest.mark.skipif(not _SHM_OK, reason=f"shared memory unavailable: {_SHM_REASON}")
def test_a_publication_left_linked_fails_the_run(tmp_path):
    env = dict(
        os.environ,
        PYTHONPATH=str(ROOT / "src"),
        PDTL_KERNEL_CACHE=str(ROOT / ".bench_build" / "kernels"),
        TMPDIR=str(tmp_path),
    )
    proc, lines, err, _ = _bench(
        "count_shm", trace=0, command=[sys.executable, "-c", _UNLINK_SKIPPED], env=env)
    assert proc.returncode == 0, err
    result = json.loads(lines[-1])
    assert result["correct"] is False
    assert 1 <= result["failed"] <= result["attempted"]
    assert any("outlived their run" in p for p in _line(lines, "record ")["problems"])
    # the segments went with the resource tracker the measurement stopped
    assert not list(SHM_DIR.glob(f"pdtl-shm-{proc.pid}-*"))
    assert not _group_alive(proc.pid)


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc, lines, _, _ = _bench("count_shm", trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert lines == []
