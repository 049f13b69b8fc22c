"""Benchmark entry point.

    python3 perfbench/run.py --workload count_shm --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  This parent process imports nothing of
the program: it resolves the kernel tier in a child (building it on first
use, so no measured run pays for or inherits the compiler), then runs
``measure.py`` in a session of its own and relays its output.  The
preparing children also time the program's imports, so ``setup_s`` can
take a median over several fresh interpreters.  After the
measurement process has exited it checks that nothing it started is still
alive and that none of its shared-memory segments remains; it removes
what it finds and reports the run as incorrect.  Without the program's
sources next to it the command fails without printing a result.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
#: the measurement process must finish within this, set-up included
MEASURE_TIMEOUT_S = 170.0
#: a cold kernel-tier build compiles C; far below this in practice
PREPARE_TIMEOUT_S = 600.0
#: preparing children, each an import-time sample besides the measurement's
PREPARE_RUNS = 2
SHM_DIR = Path("/dev/shm")


def child_env() -> dict[str, str]:
    """Point the program at the checkout's sources and keep every file it
    writes (compiled kernels, simulated disks, spill files) inside it."""
    tmp = BUILD / "tmp"
    kernels = BUILD / "kernels"
    tmp.mkdir(parents=True, exist_ok=True)
    kernels.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["PDTL_KERNEL_CACHE"] = str(kernels)
    env["TMPDIR"] = str(tmp)
    env.pop("KERNEL_BACKEND", None)
    return env


def group_alive(pgid: int) -> bool:
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return False
    return True


def reap_group(pgid: int) -> bool:
    """Kill whatever is left of a finished child's session; True if any was."""
    if not group_alive(pgid):
        return False
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return True
    deadline = time.monotonic() + 10.0
    while group_alive(pgid) and time.monotonic() < deadline:
        time.sleep(0.05)
    return True


def leaked_segments(pid: int) -> list[str]:
    """Remove and name the shared-memory segments process ``pid`` created
    (the program names them ``pdtl-shm-<creator pid>-<n>``)."""
    if not SHM_DIR.is_dir():
        return []
    leaked = sorted(SHM_DIR.glob(f"pdtl-shm-{pid}-*"))
    for path in leaked:
        path.unlink(missing_ok=True)
    return [path.name for path in leaked]


def run_child(args: list[str], env: dict[str, str], timeout: float):
    """Run ``measure.py`` in its own session; ``(code, stdout, cleanup)``."""
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "measure.py"), *args],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    out = ""
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"measure.py {' '.join(args)}: exceeded {timeout:.0f} s, killed",
              file=sys.stderr)
    finally:
        # also reached when this process is told to stop (see main)
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        cleanup = {
            "measure_pid": proc.pid,
            "stray_processes": reap_group(proc.pid),
            "leaked_segments": leaked_segments(proc.pid),
        }
    return proc.returncode, out, cleanup


def main() -> int:
    # a stop request unwinds through run_child, which kills the child's session
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program sources under {ROOT / 'src'}; nothing to measure",
              file=sys.stderr)
        return 2
    env = child_env()
    import_s = []
    for _ in range(PREPARE_RUNS):
        code, out, cleanup = run_child(["--prepare"], env, PREPARE_TIMEOUT_S)
        if code != 0 or cleanup["stray_processes"] or cleanup["leaked_segments"]:
            print("kernel tier preparation failed", file=sys.stderr)
            return code or 1
        import_s.append(json.loads(out.strip().splitlines()[-1])["import_s"])
    args = [*sys.argv[1:], "--import-s", *map(repr, import_s)]
    code, out, cleanup = run_child(args, env, MEASURE_TIMEOUT_S)
    lines = out.rstrip("\n").split("\n")
    if code != 0:
        print("\n".join(lines), file=sys.stderr)
        return code
    result = json.loads(lines[-1])
    if cleanup["stray_processes"] or cleanup["leaked_segments"]:
        result["correct"] = False
    print("\n".join(lines[:-1]))
    print("cleanup " + json.dumps(cleanup, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
