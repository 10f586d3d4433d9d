"""The environment record printed with every result.

BLAS threading is left at the library default (each workload runs in a
fresh process and nothing here sets it), so a later change that makes
the thread count an explicit setting shows up in the record and in the
numbers.  ``threadpoolctl`` is not available; the thread count is read
through ctypes from the OpenBLAS that numpy bundles.
"""

from __future__ import annotations

import ctypes
import glob
import os
import platform
import subprocess
from typing import Any, Dict, Optional

#: symbol names tried in order: numpy's bundled ``scipy_openblas64``
#: build prefixes and suffixes its exports, plain OpenBLAS does not
_THREAD_SYMBOLS = ("scipy_openblas_get_num_threads64_",
                   "openblas_get_num_threads64_", "openblas_get_num_threads")
_CONFIG_SYMBOLS = ("scipy_openblas_get_config64_", "openblas_get_config64_",
                   "openblas_get_config")


def _bundled_openblas() -> Optional[ctypes.CDLL]:
    import numpy
    site = os.path.dirname(os.path.dirname(numpy.__file__))
    for path in sorted(glob.glob(os.path.join(site, "numpy.libs",
                                              "*openblas*"))):
        try:
            return ctypes.CDLL(path)
        except OSError:
            continue
    return None


def _call(lib: ctypes.CDLL, names, restype):
    for name in names:
        fn = getattr(lib, name, None)
        if fn is not None:
            fn.argtypes = []
            fn.restype = restype
            return fn()
    return None


def blas_info() -> Dict[str, Any]:
    import numpy
    info: Dict[str, Any] = {"vendor": "unknown", "threads": None}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["vendor"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, AttributeError):
        pass
    lib = _bundled_openblas()
    if lib is not None:
        threads = _call(lib, _THREAD_SYMBOLS, ctypes.c_int)
        config = _call(lib, _CONFIG_SYMBOLS, ctypes.c_char_p)
        info["threads"] = threads
        if config:
            info["config"] = config.decode(errors="replace")
    info["OPENBLAS_NUM_THREADS"] = os.environ.get("OPENBLAS_NUM_THREADS")
    return info


def git_revision(root: str) -> str:
    """Short sha, with ``-dirty`` when tracked files differ from it;
    ``unknown`` outside a git checkout."""
    try:
        sha = subprocess.run(["git", "-C", root, "rev-parse", "--short",
                              "HEAD"], capture_output=True, text=True,
                             timeout=10)
        if sha.returncode != 0:
            return "unknown"
        dirty = subprocess.run(["git", "-C", root, "status", "--porcelain",
                                "--untracked-files=no"],
                               capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    rev = sha.stdout.strip()
    return rev + ("-dirty" if dirty.stdout.strip() else "")


def record(root: str) -> Dict[str, Any]:
    import numpy
    return {"cpu_count": os.cpu_count(), "blas": blas_info(),
            "numpy": numpy.__version__,
            "python": platform.python_version(),
            "git": git_revision(root)}
