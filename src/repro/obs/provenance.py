"""Run provenance: the environment block every telemetry run records.

One canonical implementation of the environment/provenance fields shared
by the end-to-end benchmark's provenance line (``perfbench/run.py``), the
NDJSON sink's run manifests, and the parity tests' BLAS thread count — a
recorded number is only meaningful if the run can be traced back to the
exact revision, interpreter, and knob settings that produced it.
"""

from __future__ import annotations

import os
import platform
import subprocess
import sys
import time
from typing import Dict, Optional, Tuple


def repo_root() -> str:
    """The checkout root (three levels above ``src/repro/obs/``)."""
    return os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "..", ".."))


def git_sha(root: Optional[str] = None) -> str:
    """The checkout's short commit SHA (``+dirty`` with local edits).

    Degrades to ``"unknown"`` outside a git checkout (exported tarballs).
    """
    root = root if root is not None else repo_root()
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=root, capture_output=True, text=True, timeout=10, check=True,
        ).stdout.strip()
        dirty = subprocess.run(
            ["git", "status", "--porcelain"],
            cwd=root, capture_output=True, text=True, timeout=10, check=True,
        ).stdout.strip()
        return f"{sha}+dirty" if dirty else sha
    except Exception:
        return "unknown"


def blas_info() -> Tuple[str, object]:
    """``(backend name and version, thread count)`` of NumPy's BLAS.

    The thread count is what the loaded OpenBLAS itself reports (read
    through ctypes with :func:`repro.runtime.intgemm.openblas_function`),
    since float32 GEMM results can change with it; importing the library
    pins it to 1.  When that library cannot be found it falls back to
    ``OPENBLAS_NUM_THREADS`` or ``"unknown"``.
    """
    import ctypes

    import numpy as np

    from repro.runtime.intgemm import openblas_function

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        backend = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # older NumPy without the dict config
        backend = "unknown"
    getter = openblas_function(
        "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
        "openblas_get_num_threads64_", "openblas_get_num_threads",
    )
    if getter is not None:
        getter.restype = ctypes.c_int
        return backend, int(getter())
    return backend, os.environ.get("OPENBLAS_NUM_THREADS", "unknown")


def environment_block() -> Dict[str, object]:
    """Interpreter + machine + compute-runtime metadata recorded per run.

    The thread configuration is part of a result's identity: runs recorded
    at different BLAS thread counts (or on hosts with different core
    counts) must never be silently compared, so both are recorded — as are
    the BLAS backend, the telemetry knob, and the git SHA of the checkout
    that produced the numbers.
    """
    import numpy as np

    blas, blas_threads = blas_info()
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "git_sha": git_sha(),
        "blas": blas,
        "blas_threads": blas_threads,
        "repro_telemetry": os.environ.get("REPRO_TELEMETRY", "unset"),
    }


#: Fields a run manifest must carry for the run to count as reproducible
#: (``tests/obs/test_sink.py`` asserts these).
REQUIRED_MANIFEST_FIELDS = ("label", "created_unix", "environment", "params")
REQUIRED_ENVIRONMENT_FIELDS = (
    "git_sha", "numpy", "cpu_count", "blas", "blas_threads",
)


def run_manifest(label: str, params: Optional[Dict[str, object]] = None) -> Dict[str, object]:
    """A provenance manifest for one telemetry run."""
    return {
        "schema_version": 1,
        "label": label,
        "created_unix": time.time(),
        "argv": list(sys.argv),
        "environment": environment_block(),
        "params": dict(params or {}),
    }


def validate_manifest(manifest: Dict[str, object]) -> list:
    """Missing required field names (empty list == complete manifest)."""
    missing = [field for field in REQUIRED_MANIFEST_FIELDS if field not in manifest]
    environment = manifest.get("environment")
    if isinstance(environment, dict):
        missing.extend(
            f"environment.{field}"
            for field in REQUIRED_ENVIRONMENT_FIELDS
            if field not in environment
        )
    return missing
