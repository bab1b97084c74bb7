"""Run metadata recorded with every result, and the metric units."""

from __future__ import annotations

import ctypes
import hashlib
import json
import os
import platform
import subprocess
from pathlib import Path

import numpy as np


def units(benchmark_json: Path) -> dict[str, str]:
    doc = json.loads(benchmark_json.read_text())
    return {m["name"]: m["unit"] for m in doc["end_to_end"] + doc["per_layer"]}


def _git_sha(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def _source_sha256(src: Path) -> str:
    """Digest of refexp's sources, for checkouts that are not git repositories."""
    digest = hashlib.sha256()
    for path in sorted((src / "refexp").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def _blas() -> dict:
    info = {"threads_env": {v: os.environ.get(v) for v in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info.update(name=blas.get("name"), version=blas.get("version"))
    except (TypeError, KeyError):
        pass
    info["threads"] = _openblas_threads()
    return info


def _openblas_threads() -> int | None:
    """Thread count reported by the OpenBLAS that NumPy loaded, if it is one."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def collect(root: Path, src: Path) -> dict:
    return {
        "git_sha": _git_sha(root),
        "source_sha256": _source_sha256(src),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
    }
