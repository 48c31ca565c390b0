"""Atomic file publication.

Every durable whole-file artifact in the repo — run manifests, tuned
profiles, trace-registry metadata — goes through
:func:`atomic_write_text`: serialize to a uniquely named temp file in
the destination directory, flush + fsync, then ``os.replace`` onto the
final path.  A reader can therefore never see a half-written file,
regardless of SIGKILL timing or concurrent writers sharing the
directory (pool workers, parallel CI shards).  Result-cache records
are appended to segments instead (:mod:`repro.runner.cache`).
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Any, Union


def atomic_write_text(path: Union[str, Path], text: str,
                      fsync: bool = True) -> Path:
    """Publish ``text`` at ``path`` atomically (create dirs as needed)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    handle = tempfile.NamedTemporaryFile(
        "w", encoding="utf-8", dir=path.parent,
        prefix=f".{path.name[:16]}.", suffix=".tmp", delete=False,
    )
    try:
        with handle:
            handle.write(text)
            handle.flush()
            if fsync:
                os.fsync(handle.fileno())
        os.replace(handle.name, path)
    except BaseException:
        try:
            os.unlink(handle.name)
        except OSError:
            pass
        raise
    return path


def atomic_write_json(path: Union[str, Path], payload: Any,
                      indent: "int | None" = None,
                      fsync: bool = True) -> Path:
    """JSON-serialize ``payload`` and publish it atomically."""
    text = json.dumps(payload, indent=indent, default=str)
    if indent is not None:
        text += "\n"
    return atomic_write_text(path, text, fsync=fsync)
