"""Child processes: launch, time, peak RSS, and the environment they run in.

Every child runs with OPENBLAS_NUM_THREADS=1, so the threads it uses are the
ones REDUCTION_LAB_THREADS asks for, and with an absolute PYTHONPATH to the
checkout's `src`, which `verify` needs for the CLI processes it starts.
"""

from __future__ import annotations

import contextlib
import glob
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
HOOK_DIR = os.path.join(BENCH_DIR, "trace_hook")
SETUP_PROBE = os.path.join(BENCH_DIR, "setup_probe.py")
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1"}


@dataclass
class ChildRun:
    argv: list
    status: int          # exit code, or -signal
    timed_out: bool
    wall_s: float        # launch until exit
    cpu_s: float         # user + system CPU time of the child (and the children it reaped)
    peak_rss_mb: float   # ru_maxrss of the child (and the children it reaped)
    stdout: str
    stderr: str


@contextlib.contextmanager
def scratch_dir(prefix: str):
    """A fresh directory under the checkout's .perfbench_work, removed after use."""
    parent = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(parent, exist_ok=True)
    path = tempfile.mkdtemp(prefix=prefix, dir=parent)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(parent)


def child_env(threads: int, trace_dir: str | None = None) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PERFBENCH_TRACE_DIR"}
    env.update(BLAS_PIN)
    env["REDUCTION_LAB_THREADS"] = str(threads)
    env["PYTHONPATH"] = SRC
    if trace_dir is not None:
        env["PYTHONPATH"] = os.pathsep.join((HOOK_DIR, SRC))
        env["PERFBENCH_TRACE_DIR"] = trace_dir
    return env


def launch(args: list, env: dict, cwd: str, timeout: float) -> ChildRun:
    """Run `python args...` in its own session; kill the session on timeout."""
    argv = [sys.executable, *args]
    out_path = os.path.join(cwd, "stdout.txt")
    err_path = os.path.join(cwd, "stderr.txt")
    lock = threading.Lock()
    state = {"exited": False, "timed_out": False}
    with open(out_path, "w") as out, open(err_path, "w") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err,
                                start_new_session=True)

        def expire():
            with lock:
                if not state["exited"]:
                    state["timed_out"] = True
                    os.killpg(proc.pid, signal.SIGKILL)

        timer = threading.Timer(max(timeout, 0.0), expire)
        timer.start()
        # wait without reaping, so a late timer can only signal a zombie
        os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
        wall = time.perf_counter() - started
        with lock:
            state["exited"] = True
        timer.cancel()
        timer.join()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    # grandchildren left behind (none expected) go with the session
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    with open(out_path) as out, open(err_path) as err:
        stdout, stderr = out.read(), err.read()
    return ChildRun(argv, proc.returncode, state["timed_out"], wall,
                    usage.ru_utime + usage.ru_stime, usage.ru_maxrss * 1024 / 1e6,
                    stdout, stderr)


def file_digests(directory: str, names) -> dict:
    digests = {}
    for name in names:
        path = os.path.join(directory, name)
        if os.path.exists(path):
            with open(path, "rb") as handle:
                digests[name] = hashlib.sha256(handle.read()).hexdigest()
        else:
            digests[name] = None
    return digests


def _git_commit():
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.exists(head):
        return None
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def _src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "reduction_lab", "*.py"))):
        digest.update(os.path.basename(path).encode())
        with open(path, "rb") as handle:
            digest.update(handle.read())
    return digest.hexdigest()


def _read(path):
    try:
        with open(path) as handle:
            return handle.read().strip()
    except OSError:
        return None


def _caches() -> dict:
    caches = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        level = _read(os.path.join(index, "level"))
        kind = _read(os.path.join(index, "type"))
        size = _read(os.path.join(index, "size"))
        if level and size and kind != "Instruction":
            caches[f"L{level}"] = size
    return caches


_VERSIONS = (
    "import json, platform, numpy\n"
    "blas = numpy.show_config(mode='dicts')['Build Dependencies']['blas']\n"
    "print(json.dumps({'python': platform.python_version(), 'numpy': numpy.__version__,"
    " 'blas': f\"{blas.get('name')} {blas.get('version')}\"}))\n"
)


def provenance() -> dict:
    """Where and on what a result was measured."""
    proc = subprocess.run([sys.executable, "-c", _VERSIONS], capture_output=True,
                          text=True, env=child_env(1), timeout=60)
    try:
        versions = json.loads(proc.stdout)
    except json.JSONDecodeError:
        versions = {"python": platform.python_version(), "numpy": None, "blas": None}
    return {
        "commit": _git_commit(),
        "src_sha256": _src_digest(),
        **versions,
        "nproc": os.cpu_count(),
        "ram_gib": round(os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") / 2**30, 1),
        "caches": _caches(),
        "env": dict(BLAS_PIN),
    }
