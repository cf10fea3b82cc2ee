"""Thread pinning and the environment record of a benchmark run.

pin_threads() must run before numpy is first imported: OpenBLAS and
OpenMP read their thread counts once, when the library loads.
"""

from __future__ import annotations

import ctypes
import os
import platform
import subprocess
import sys

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


class PinningError(RuntimeError):
    pass


def pin_threads(threads: int) -> None:
    if "numpy" in sys.modules:
        raise PinningError("numpy is already loaded; BLAS threads can no longer be pinned")
    for var in THREAD_VARS:
        os.environ[var] = str(threads)


def _openblas_libraries() -> list[dict]:
    """Thread count and build string of every OpenBLAS the process has loaded."""
    with open("/proc/self/maps") as fh:
        paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    out = []
    for path in paths:
        lib = ctypes.CDLL(path)
        info = {"library": os.path.basename(path)}
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("", "64_"):
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if threads is not None and "threads" not in info:
                    threads.argtypes, threads.restype = [], ctypes.c_int
                    info["threads"] = threads()
                if config is not None and "config" not in info:
                    config.argtypes, config.restype = [], ctypes.c_char_p
                    info["config"] = config().decode().strip()
        out.append(info)
    return out


def check_pinned(threads: int) -> list[dict]:
    """OpenBLAS libraries in the process; raises if one runs another thread count."""
    libs = _openblas_libraries()
    wrong = [lib for lib in libs if lib.get("threads", threads) != threads]
    if wrong:
        raise PinningError(f"BLAS not pinned to {threads} thread(s): {wrong}")
    return libs


def _git(root: str, *args: str) -> str | None:
    try:
        done = subprocess.run(
            ["git", "-C", root, *args], capture_output=True, text=True, timeout=30, check=False
        )
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def describe(root: str, threads: int, blas: list[dict]) -> dict:
    import numpy
    import scipy

    sha = _git(root, "rev-parse", "HEAD")
    status = _git(root, "status", "--porcelain") if sha else None
    return {
        "git_sha": sha,
        "git_dirty": None if status is None else bool(status),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": blas,
        "threads": threads,
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
    }
