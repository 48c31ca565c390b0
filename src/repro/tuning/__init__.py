"""Closed-loop interleave-ratio autotuning.

The paper derives the optimal BW-AWARE split *offline* from the SBIT
bandwidth table.  This package closes the loop instead: a
:class:`RatioController` watches per-pool bandwidth counters each epoch
and steers the interleave ratio toward equal pool busy-times, with
hysteresis so a noisy counter cannot make the ratio oscillate.  On a
stationary workload the controller provably converges to the closed-form
``bandwidth_fractions()`` split; on phase-changing workloads it tracks
the phases, which is where it beats any static ratio.
"""

from repro.tuning.autotuner import (
    AutotuneReport,
    autotune,
    autotune_spec,
    place_fractions,
    static_epoch_time_ns,
)
from repro.tuning.controller import RatioController

__all__ = [
    "AutotuneReport",
    "RatioController",
    "autotune",
    "autotune_spec",
    "place_fractions",
    "static_epoch_time_ns",
]
