"""Frozen ingest outcomes: every fixture trace is admitted or rejected
exactly as it always was.

Each of the files in ``tests/fixtures/traces`` is admitted into a fresh
:class:`~repro.ingest.TraceRegistry`.  An accepted file pins its format
and the registry's payload checksum (SHA-256 over the parsed pages,
write flags and cycles); a rejected one pins the error's type and its
``line:column``.  A change to the parser or the registry that claims the
same outcomes is checked against values recorded before it.

Regenerate (prints each moved key with its old and new value, then
rewrites the file)::

    PYTHONPATH=src python tests/test_ingest_digests.py --regenerate
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

from frozen_digests import assert_unmoved, regenerate_main

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden" / "ingest_digests.json"
FIXTURES = HERE / "fixtures" / "traces"


def compute_digests() -> dict[str, str]:
    from repro.core.errors import IngestError
    from repro.ingest import TraceRegistry

    outcomes = {}
    with tempfile.TemporaryDirectory() as root:
        registry = TraceRegistry(root)
        for path in sorted(FIXTURES.iterdir()):
            try:
                record = registry.admit(path)
            except IngestError as err:
                outcomes[path.name] = (f"rejected {type(err).__name__} "
                                       f"{err.line}:{err.column}")
            else:
                outcomes[path.name] = (f"accepted {record.fmt} "
                                       f"{record.payload_sha256}")
    return outcomes


def test_fixture_outcomes_match_frozen_digests():
    current = compute_digests()
    assert len(current) == 8
    assert_unmoved(GOLDEN, current, "ingest outcomes")


if __name__ == "__main__":
    sys.exit(regenerate_main(sys.argv[1:], GOLDEN, compute_digests,
                             __doc__))
