"""Locating the program under test, and describing the machine a run used."""

from __future__ import annotations

import os
import platform
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)


class MissingProgram(RuntimeError):
    pass


def import_gtmarl():
    """Import gtmarl from this checkout's `src`, never from elsewhere."""
    if not (SRC / "gtmarl" / "__init__.py").is_file():
        raise MissingProgram(f"no gtmarl package under {SRC}")
    sys.path.insert(0, str(SRC))
    import gtmarl

    if Path(gtmarl.__file__).resolve().parent != SRC / "gtmarl":
        raise MissingProgram(f"gtmarl was imported from {gtmarl.__file__}, not {SRC}")
    return gtmarl


def _blas() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):   # numpy < 1.26 has no dict mode
        return {}
    return {k: blas.get(k) for k in ("name", "version", "openblas configuration") if k in blas}


def environment() -> dict:
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "platform": platform.platform(),
        "loadavg_start": list(os.getloadavg()),
    }


def host_speed_probe() -> float:
    """Seconds for a fixed mix of interpreter and small-array work, like the
    program's own. Reported beside the metrics to show host-speed drift;
    never used to scale them."""
    import numpy as np

    start = perf_counter()
    acc = 0
    for i in range(60_000):
        acc += i * i
    m = np.eye(6) + 0.01
    v = np.ones(6)
    for _ in range(3_000):
        v = m @ v
        v /= v.sum()
    return perf_counter() - start
