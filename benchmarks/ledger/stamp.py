"""The machine stamp every result file carries.

The harness sets no BLAS/OpenMP and no ``REPRO_*`` variable; it records
what it observed, so a number can be traced to the threading it ran
under. :func:`host_stamp` needs only the standard library (the parent
process imports nothing heavier); :func:`blas_stamp` runs in the
workload's subprocess, where numpy is loaded.
"""

from __future__ import annotations

import ctypes
import os
import platform
import subprocess
import sys
import time

OBSERVED_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "REPRO_EXECUTOR", "REPRO_WORKERS")


def git_sha(root: str) -> str:
    """HEAD of the checkout, or ``unknown`` outside a git repository
    (the search for ``.git`` stops at the checkout's own root)."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def host_stamp(root: str) -> dict:
    affinity = sorted(os.sched_getaffinity(0))
    load = os.getloadavg()[0]
    return {
        "git_sha": git_sha(root),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "affinity": affinity,
        "env": {name: os.environ.get(name) for name in OBSERVED_ENV},
        "load_avg_1m": load,
        # More runnable tasks than cores: someone else is on the box.
        "noisy": load > len(affinity),
        "utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "argv": sys.argv[1:],
    }


def blas_stamp() -> dict:
    """numpy / OpenBLAS versions and the *effective* BLAS thread count."""
    import numpy as np

    info = {"numpy": np.__version__, "openblas": None,
            "openblas_threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["openblas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        pass
    # The thread count OpenBLAS will really use, read from the loaded
    # library itself (threadpoolctl is not a dependency of this repo).
    try:
        with open("/proc/self/maps") as maps:
            libs = {line.split()[-1] for line in maps
                    if "openblas" in line.lower()}
    except OSError:
        libs = set()
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("openblas_get_num_threads",
                       "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.argtypes, getter.restype = [], ctypes.c_int
                info["openblas_threads"] = getter()
                return info
    return info
