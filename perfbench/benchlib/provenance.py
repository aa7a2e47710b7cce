"""The stamp every benchmark record carries: code, toolchain, machine."""

from __future__ import annotations

import hashlib
import os
import platform
import sys
from typing import Any, Dict, Optional

__all__ = ["provenance"]


def _git_sha(root: str) -> Optional[str]:
    """HEAD's commit id read from ``.git`` (no subprocess); None outside
    a git checkout."""
    git_dir = os.path.join(root, ".git")
    try:
        with open(os.path.join(git_dir, "HEAD"), encoding="utf-8") as head:
            ref = head.read().strip()
    except OSError:
        return None
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    try:
        with open(os.path.join(git_dir, name), encoding="utf-8") as stream:
            return stream.read().strip()
    except OSError:
        pass
    try:
        with open(os.path.join(git_dir, "packed-refs"),
                  encoding="utf-8") as packed:
            for line in packed:
                parts = line.split()
                if len(parts) == 2 and parts[1] == name:
                    return parts[0]
    except OSError:
        pass
    return None


def _source_sha(root: str) -> str:
    """sha256 over every ``src/**/*.py`` path and content: identifies the
    measured code even where the checkout is not a git repository."""
    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for directory, dirs, files in os.walk(src):
        dirs.sort()
        for name in sorted(files):
            if not name.endswith(".py"):
                continue
            path = os.path.join(directory, name)
            digest.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as stream:
                digest.update(stream.read())
    return digest.hexdigest()[:16]


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as stream:
            for line in stream:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def provenance(root: str, seed: int) -> Dict[str, Any]:
    """The record stamp for a run from checkout ``root`` with ``seed``."""
    import numpy
    import scipy
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        nproc = os.cpu_count() or 1
    return {
        "git_sha": _git_sha(root),
        "source_sha256": _source_sha(root),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cpu_model": _cpu_model(),
        "nproc": nproc,
        "platform": sys.platform,
        "seed": seed,
    }
