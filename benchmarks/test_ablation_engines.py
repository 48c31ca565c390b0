"""Ablation: analytic ThroughputEngine vs event-driven DetailedEngine.

The figure sweeps run on the vectorized epoch model; this ablation
validates it against the request-level event-driven engine on every
workload and the three Section 3 policies: the two engines must agree
on the policy ranking everywhere and on magnitude within a tolerance,
and neither may rank BW-AWARE behind INTERLEAVE (paper Section 3: +35%)
— the anchor that catches a placement bug both engines would share.

Times within :data:`TIE_RTOL` of each other are ties, and two rankings
agree when they order every pair of policies alike: both engines tie
it, or both put the same policy ahead.  The compute-bound workload
(comd) puts all three policies on the compute bound of the throughput
engine (108000 ns each), while the detailed engine's channel queues
leave LOCAL 0.07% ahead of the two spread policies (108040 against
108113 ns) and those two a summation order apart (3.7e-10 ns); an
exact rank, such as ``np.argsort``'s, would read either gap as a
reordering.
"""

from conftest import emit
from repro.core.experiment import run_experiment
from repro.workloads import workload_names

POLICIES = ("LOCAL", "INTERLEAVE", "BW-AWARE")
ACCESSES = 60_000

#: relative difference at or below which two times are a tie: above
#: the 0.07% queueing spread of a compute-bound workload, far below the
#: 8% and more that separate any two policies on every other workload.
TIE_RTOL = 1e-2


def order(times):
    """``order[i][j]``: -1 when policy i is faster than j, 1 when
    slower, 0 when their times tie within :data:`TIE_RTOL`."""
    return [[0 if abs(a - b) <= TIE_RTOL * max(abs(a), abs(b))
             else (-1 if a < b else 1) for b in times] for a in times]


def same_ranking(times_a, times_b) -> bool:
    """Every pair of policies tied by both, or ordered alike by both."""
    return order(times_a) == order(times_b)


def _sweep():
    agreements = []
    rows = []
    for name in workload_names():
        times = {}
        for engine in ("throughput", "detailed"):
            times[engine] = [
                run_experiment(name, policy=policy, engine=engine,
                               trace_accesses=ACCESSES).time_ns
                for policy in POLICIES
            ]
        same = same_ranking(times["throughput"], times["detailed"])
        # order()[2][1]: BW-AWARE against INTERLEAVE.
        bw_first = all(order(t)[2][1] <= 0 for t in times.values())
        errors = [
            abs(f - d) / d
            for f, d in zip(times["throughput"], times["detailed"])
        ]
        agreements.append((name, same, max(errors), bw_first))
        rows.append(f"{name:>12} same-rank={same} bw-first={bw_first} "
                    f"max-err={max(errors):.1%}")
    return agreements, "\n".join(rows)


def test_ablation_engine_agreement(regenerate):
    agreements, report = regenerate(_sweep)
    emit("ablation: throughput vs detailed engine\n" + report)
    mismatched = [name for name, same, _, _ in agreements if not same]
    assert not mismatched, mismatched
    behind = [name for name, _, _, bw_first in agreements if not bw_first]
    assert not behind, f"BW-AWARE slower than INTERLEAVE: {behind}"
    worst = max(error for _, _, error, _ in agreements)
    assert worst < 0.25, f"engines diverge by {worst:.1%}"
