"""Code-version salt for the result cache.

Cached results are only valid while the code that produced them is
unchanged, so every cache key is salted with a digest of the source
files that can affect an experiment's outcome: the simulation pipeline
(gpu, kernelsim), the memory system and VM layers, the policies, the
workload models, and the profiling/runtime support they pull in.

The native kernels' C sources (``gpu/_windowed.c``, ``gpu/_passes.c``,
``gpu/_lru.c``, ``gpu/_synth.c``) count as well.  Editing any of
those files changes the salt and orphans every cached record (a rerun
recomputes and re-stores under the new salt).  Editing anything else — experiment scripts, analysis/reporting, the CLI, the
runner itself, docs, tests — leaves the salt untouched, which is what
makes re-running a figure after an unrelated edit near-instant.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache
from pathlib import Path

#: sub-packages of ``repro`` whose source participates in the salt.
RESULT_AFFECTING_PACKAGES = (
    "core",
    "gpu",
    "kernelsim",
    "memory",
    "migration",
    "policies",
    "profiling",
    "runtime",
    "vm",
    "workloads",
)


#: source suffixes hashed: Python modules and the native kernels' C.
SOURCE_SUFFIXES = (".py", ".c")


def _iter_sources(root: Path):
    for package in RESULT_AFFECTING_PACKAGES:
        directory = root / package
        if not directory.is_dir():  # pragma: no cover - trimmed installs
            continue
        yield from sorted(path for path in directory.rglob("*")
                          if path.suffix in SOURCE_SUFFIXES
                          and path.is_file())


def source_salt(root: Path) -> str:
    """Hex digest over the result-affecting sources under ``root``."""
    digest = hashlib.sha256()
    for path in _iter_sources(root):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()[:16]


@lru_cache(maxsize=1)
def code_version_salt() -> str:
    """:func:`source_salt` of the installed ``repro`` package (memoized)."""
    import repro

    return source_salt(Path(repro.__file__).resolve().parent)
