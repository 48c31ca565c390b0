"""Shared ``--regenerate`` command of the frozen-digest manifests.

``tests/test_placement_digests.py``, ``tests/test_replay_digests.py``,
``tests/test_engine_digests.py``, ``tests/test_synth_digests.py`` and
``tests/test_ingest_digests.py`` each pin a JSON map of key -> digest
under ``tests/golden/``.  Regenerating one prints every key
whose digest moved with its old and new value, so a change that moves
digests on purpose can account for each key, then rewrites the file.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable


def assert_unmoved(golden: Path, current: dict, what: str) -> None:
    """Fail naming every key whose digest differs from the frozen one."""
    frozen = json.loads(golden.read_text())
    assert set(current) == set(frozen)
    moved = sorted(key for key in frozen if current[key] != frozen[key])
    assert not moved, f"{len(moved)} {what} moved: {moved[:10]}"


def regenerate_main(argv: list[str], golden: Path,
                    compute: Callable[[], dict], usage: str) -> int:
    """``--regenerate``: print ``moved: key old -> new`` lines, rewrite."""
    if argv != ["--regenerate"]:
        print(usage)
        return 2
    current = compute()
    frozen = json.loads(golden.read_text()) if golden.exists() else {}
    moved = sorted(key for key in current if frozen.get(key) != current[key])
    for key in moved:
        print(f"moved: {key} {frozen.get(key, '(new)')} -> {current[key]}")
    for key in sorted(set(frozen) - set(current)):
        print(f"dropped: {key} {frozen[key]}")
    print(f"{len(moved)} of {len(current)} keys moved")
    golden.parent.mkdir(exist_ok=True)
    golden.write_text(json.dumps(current, indent=1, sort_keys=True) + "\n")
    return 0
