"""The result cache's segment log: torn tails, concurrent writers,
injected torn writes, and the frame's checksum.

Each test drives real processes or real fault injection against one
cache directory; none reaches into the segment layout beyond the frame
header fields the module docstring of :mod:`repro.runner.cache` pins.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.memory.topology import simulated_baseline
from repro.resilience import FaultPlan, FaultRule
from repro.runner import (
    ResultCache,
    SweepRunner,
    code_version_salt,
    encode_result,
    make_spec,
    result_digest,
)
from repro.runner.cache import canonical_result_bytes

ACCESSES = 6_000

SRC = str(Path(__file__).resolve().parents[1] / "src")


def specs_for(workload="bfs",
              policies=("LOCAL", "BW-AWARE", "INTERLEAVE")):
    return [make_spec(workload, policy, trace_accesses=ACCESSES)
            for policy in policies]


def run_child(script: str, *args: str, wait: bool = True):
    env = {**os.environ,
           "PYTHONPATH": SRC + os.pathsep + os.environ.get("PYTHONPATH", "")}
    env.pop("REPRO_FAULTS", None)
    proc = subprocess.Popen(
        [sys.executable, "-c", textwrap.dedent(script), *args],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True)
    if wait:
        proc.wait(timeout=120)
    return proc


def segments(root: Path) -> list[Path]:
    return sorted(root.glob("seg-*.log"))


def sigkill_specs():
    # the third spec names its topology, so its frame is the longest
    return [make_spec("bfs", "LOCAL", trace_accesses=ACCESSES),
            make_spec("bfs", "BW-AWARE", trace_accesses=ACCESSES),
            make_spec("bfs", "INTERLEAVE", topology=simulated_baseline(),
                      trace_accesses=ACCESSES)]


def test_sigkill_mid_append_leaves_a_torn_tail_only(tmp_path):
    """A writer SIGKILLed halfway through its third append: the third
    record is recomputed, the two before it are still hits, and the
    next writer cuts the torn tail before its first append."""
    root = tmp_path / "cache"
    child = run_child("""
        import os, signal, sys
        sys.path.insert(0, sys.argv[2])
        from test_cache_log import sigkill_specs
        from repro.runner import ResultCache, SweepRunner

        real_pwrite, calls = os.pwrite, [0]

        def pwrite(fd, data, offset):
            calls[0] += 1
            if calls[0] == 3:  # half the frame, then die
                real_pwrite(fd, bytes(data[:len(data) // 2]), offset)
                os.fsync(fd)
                os.kill(os.getpid(), signal.SIGKILL)
            return real_pwrite(fd, data, offset)

        os.pwrite = pwrite
        SweepRunner(jobs=1, cache=ResultCache(sys.argv[1])).run(
            sigkill_specs())
        """, str(root), str(Path(__file__).parent))
    assert child.returncode == -signal.SIGKILL, child.stderr

    # Another writer stores a record shorter than the torn tail: it
    # must land on the cut, not on or after leftover torn bytes.
    other = specs_for("lbm", ("LOCAL",))
    cache = ResultCache(root)
    SweepRunner(jobs=1, cache=cache).run(other)
    specs = sigkill_specs()
    live = [spec.cache_key(code_version_salt())
            for spec in specs[:2] + other]
    [segment] = segments(root)
    assert segment.stat().st_size == sum(cache.locate(k)[2] for k in live)

    baseline = SweepRunner(jobs=1, cache=False).run(specs)
    rerun = SweepRunner(jobs=1, cache=cache).run(specs)
    assert rerun.manifest.cache_hits == 2
    assert rerun.manifest.executed == 1
    assert rerun.manifest.records[2].cache_hit is False
    for a, b in zip(baseline.results, rerun.results):
        assert encode_result(a) == encode_result(b)

    fresh = ResultCache(root)
    again = SweepRunner(jobs=1, cache=fresh).run(specs + other)
    assert again.manifest.cache_hits == 4
    assert again.manifest.cache_stats["invalid"] == 0
    [segment] = segments(root)  # the tail was cut and the segment reused
    keys = [record.cache_key for record in again.manifest.records]
    assert segment.stat().st_size == sum(fresh.locate(k)[2] for k in keys)


def test_two_writer_processes_share_one_cache(tmp_path):
    """Two live processes append to one directory at once; each then
    hits every record the other wrote."""
    root = tmp_path / "cache"
    script = """
        import json, sys, time
        from pathlib import Path
        from repro.runner import ResultCache, SweepRunner, make_spec

        root, mine, theirs = sys.argv[1], sys.argv[2], sys.argv[3]
        specs = {w: [make_spec(w, p, trace_accesses=6000)
                     for p in ("LOCAL", "BW-AWARE", "INTERLEAVE")]
                 for w in (mine, theirs)}
        runner = SweepRunner(jobs=1, cache=ResultCache(root))
        runner.run(specs[mine])
        Path(root, mine + ".done").touch()
        deadline = time.monotonic() + 90
        while not Path(root, theirs + ".done").exists():
            assert time.monotonic() < deadline, "peer never finished"
            time.sleep(0.01)
        outcome = runner.run(specs[theirs])
        print(json.dumps(outcome.manifest.cache_stats))
        """
    root.mkdir()
    first = run_child(script, str(root), "bfs", "lbm", wait=False)
    second = run_child(script, str(root), "lbm", "bfs", wait=False)
    for proc in (first, second):
        out, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err
        stats = json.loads(out)
        assert stats["hits"] == 3, stats
        assert stats["invalid"] == 0
    # each live writer held its own segment
    assert len(segments(root)) == 2
    fresh = SweepRunner(jobs=1, cache=ResultCache(root))
    outcome = fresh.run(specs_for("bfs") + specs_for("lbm"))
    assert outcome.manifest.cache_hits == 6


@pytest.mark.parametrize("jobs", [1, 2])
def test_torn_write_fault_loses_no_later_record(tmp_path, jobs):
    """``cache.write:truncate`` on the second of four puts in one sweep
    (serial checkpoints, or one harvested batch): the torn record is
    quarantined and recomputed, and every record stored after it is a
    hit."""
    specs = specs_for() + specs_for("lbm", ("LOCAL",))
    runner = SweepRunner(jobs=1, cache=False)
    torn_key = specs[1].cache_key(runner.salt)
    plan = FaultPlan([FaultRule("cache.write", "truncate",
                                match=torn_key)])
    root = tmp_path / "cache"
    cold = SweepRunner(jobs=jobs, cache=ResultCache(root, fault_plan=plan))
    try:
        cold.run(specs)
    finally:
        cold.close()
    assert plan.fired_counts() == {"cache.write:truncate": 1}

    warm = SweepRunner(jobs=1, cache=ResultCache(root,
                                                 fault_plan=FaultPlan()))
    outcome = warm.run(specs)
    hits = [record.cache_hit for record in outcome.manifest.records]
    assert hits == [True, False, True, True]
    assert outcome.manifest.cache_stats["quarantined"] == 1
    assert ResultCache(root).get(torn_key) is not None


def test_frame_checksum_is_the_result_digest(tmp_path):
    """A hit's frame stores the canonical result JSON and, as its
    SHA-256, exactly :func:`result_digest` of the served result."""
    spec = specs_for(policies=("LOCAL",))[0]
    key = spec.cache_key("s")
    result = SweepRunner(jobs=1, cache=False).run([spec]).results[0]
    cache = ResultCache(tmp_path)
    cache.put(key, spec.canonical(), result)
    hit = ResultCache(tmp_path).get(key)
    assert hit is not None
    path, offset, length = cache.locate(key)
    frame = path.read_bytes()[offset:offset + length]
    n_result = int.from_bytes(frame[72:76], "little")
    assert frame[80:112].hex() == result_digest(encode_result(hit))
    assert frame[112:112 + n_result] == canonical_result_bytes(
        encode_result(hit))


def test_damaged_length_mid_segment_costs_one_record(tmp_path,
                                                     damage_frame):
    """A frame whose length field is garbage, with whole frames after
    it: the walk steps over it to the next frame, so only that record
    is recomputed, and the next writer keeps every frame after it."""
    specs = specs_for()
    runner = SweepRunner(jobs=1, cache=False)
    results = runner.run(specs).results
    keys = [spec.cache_key(runner.salt) for spec in specs]
    cache = ResultCache(tmp_path)
    for key, spec, result in zip(keys, specs, results):
        cache.put(key, spec.canonical(), result)

    def huge_spec_length(frame):
        frame[76:80] = (2 ** 31).to_bytes(4, "little")

    damage_frame(cache, keys[1], huge_spec_length)
    del cache  # its last reference: the append lock goes with it
    fresh = SweepRunner(jobs=1, cache=ResultCache(tmp_path))
    outcome = fresh.run(specs)
    assert [r.cache_hit for r in outcome.manifest.records] == [
        True, False, True]
    again = SweepRunner(jobs=1, cache=ResultCache(tmp_path)).run(specs)
    assert again.manifest.cache_hits == 3
    assert len(segments(tmp_path)) == 1
