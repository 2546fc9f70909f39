"""Environment record attached to every benchmark result."""

from __future__ import annotations

import ctypes
import os
import platform
from pathlib import Path


def _openblas(package) -> dict:
    """Name, configuration and thread count of the OpenBLAS a wheel bundles.

    numpy and scipy each ship their own copy in `<package>.libs/`; the
    copy is already loaded, so its `get_num_threads` reports the count in
    effect for this process (threadpoolctl is not needed).
    """
    libs = Path(package.__file__).resolve().parent.parent / f"{package.__name__}.libs"
    for path in sorted(libs.glob("*openblas*")):
        try:
            lib = ctypes.CDLL(str(path), mode=os.RTLD_NOLOAD)
        except OSError:  # not loaded by this process
            continue
        for suffix in ("64_", ""):  # numpy's copy has 64-bit integer symbols
            try:
                threads = getattr(lib, f"scipy_openblas_get_num_threads{suffix}")
                config = getattr(lib, f"scipy_openblas_get_config{suffix}")
            except AttributeError:
                continue
            config.restype = ctypes.c_char_p
            return {"library": path.name, "config": config().decode(),
                    "threads": int(threads())}
    return {"library": None, "config": None, "threads": None}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(jobs: int) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_openblas": _openblas(numpy),
        "scipy_openblas": _openblas(scipy),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "jobs": jobs,
    }
