"""Facts about the machine a result was measured on.

numpy and scipy each load their own OpenBLAS build. Its build string and
thread count are read through the library's exported C functions, found by
scanning the process's own memory map, so nothing beyond numpy and scipy is
needed.
"""

from __future__ import annotations

import ctypes
import os
import platform

import numpy as np
import scipy

# (thread count, build string) symbol names, per OpenBLAS build flavour.
_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_config64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_get_config"),
    ("openblas_get_num_threads64_", "openblas_get_config64_"),
    ("openblas_get_num_threads", "openblas_get_config"),
)


def blas_state() -> list[dict]:
    """Every loaded OpenBLAS: file name, build string and threads in effect."""
    paths = []
    with open("/proc/self/maps", encoding="utf-8") as fh:
        for line in fh:
            path = line.split()[-1]
            name = os.path.basename(path)
            if "openblas" in name and ".so" in name and path not in paths:
                paths.append(path)
    found = []
    for path in paths:
        lib = ctypes.CDLL(path)
        for threads, config in _SYMBOLS:
            if hasattr(lib, threads):
                getattr(lib, threads).restype = ctypes.c_int
                getattr(lib, config).restype = ctypes.c_char_p
                found.append({
                    "library": os.path.basename(path),
                    "config": getattr(lib, config)().decode(errors="replace").strip(),
                    "threads": int(getattr(lib, threads)()),
                })
                break
    return found


def _mem_total_kb() -> int | None:
    with open("/proc/meminfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("MemTotal:"):
                return int(line.split()[1])
    return None


def machine_facts() -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "mem_total_kb": _mem_total_kb(),
        "cpu": platform.processor() or platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_state(),
        "env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS") if k in os.environ},
    }
