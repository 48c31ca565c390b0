"""Access-pattern generators for synthetic workload traces.

Each generator produces a stream of *line offsets* within one data
structure (line 0 is the first 128-byte line of the structure).  The
workload base class maps offsets into the global footprint and
interleaves streams across data structures.

Patterns are chosen to span the behaviours the paper characterizes in
Figures 6 and 7:

* ``sequential`` / ``strided`` — streaming kernels, linear CDFs (needle);
* ``uniform`` — random gather over a structure;
* ``zipf`` — power-law page hotness, the skewed CDFs of bfs/xsbench;
* ``hot_cold`` — a sharp two-level hotness split with an inflection
  point in the CDF;
* ``gaussian`` — clustered hotness without structure alignment
  (mummergpu's "hotness not correlated to data structures");
* ``partial`` — only a sub-range is ever touched (mummergpu's allocated
  but never-accessed ranges).

Two *dynamic* families exercise the ONLINE placement extension — they
are non-stationary by construction, the regime where any static
placement (even the oracle, which sees only whole-trace counts) is
provably pessimal:

* ``phase_shift`` — a hot window takes most of the traffic and rotates
  to the adjacent window every ``K = max(1, n_accesses // n_phases)``
  accesses (phase ``p = i // K`` starts its window at line
  ``(p * n_hot) % n_lines``);
* ``sliding_window`` — all traffic falls in a window whose start slides
  linearly across the structure (access ``i`` uses window start
  ``floor(i * passes * n_lines / n_accesses) % n_lines``), the moving
  resident set of an out-of-core sweep.

All generators take an ``rng`` and are deterministic given its state;
the two dynamic families additionally pin their *window positions* to
closed-form functions of the access index, so tests can verify phase
boundaries exactly.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.core.errors import WorkloadError

PatternFn = Callable[[np.random.Generator, int, int, dict], np.ndarray]


def _require_positive(n_accesses: int, n_lines: int) -> None:
    if n_accesses < 0:
        raise WorkloadError("n_accesses must be >= 0")
    if n_lines <= 0:
        raise WorkloadError("structure must span at least one line")


def sequential(rng: np.random.Generator, n_accesses: int, n_lines: int,
               params: dict) -> np.ndarray:
    """Streaming sweeps that cover the structure uniformly.

    Full sweeps are in-order scans.  A *partial* sweep (the trace budget
    rarely divides evenly into timesteps) is an evenly-spaced, in-order
    subsample of the whole structure rather than a contiguous prefix:
    real streaming kernels run many timesteps, so over the whole run
    every page sees the same access count — a contiguous partial pass
    would fabricate a "hot first third" that no real sweep has.
    ``start_fraction`` rotates the starting point so repeated phases do
    not always begin at line 0.
    """
    _require_positive(n_accesses, n_lines)
    start = int(params.get("start_fraction", 0.0) * n_lines)
    full_passes, remainder = divmod(n_accesses, n_lines)
    pieces = [
        np.arange(n_lines, dtype=np.int64) for _ in range(full_passes)
    ]
    if remainder:
        positions = (np.arange(remainder, dtype=np.float64)
                     * n_lines / remainder)
        offset = rng.integers(0, max(1, n_lines // max(remainder, 1)) + 1)
        pieces.append(((positions.astype(np.int64) + offset) % n_lines))
    if not pieces:
        return np.empty(0, dtype=np.int64)
    return (start + np.concatenate(pieces)) % n_lines


def strided(rng: np.random.Generator, n_accesses: int, n_lines: int,
            params: dict) -> np.ndarray:
    """Fixed-stride scan (column-major sweeps, structure-of-arrays)."""
    _require_positive(n_accesses, n_lines)
    stride = int(params.get("stride", 33))
    if stride <= 0:
        raise WorkloadError("stride must be positive")
    return (np.arange(n_accesses, dtype=np.int64) * stride) % n_lines


def uniform(rng: np.random.Generator, n_accesses: int, n_lines: int,
            params: dict) -> np.ndarray:
    """Uniform random gather across the whole structure."""
    _require_positive(n_accesses, n_lines)
    return rng.integers(0, n_lines, size=n_accesses, dtype=np.int64)


def zipf(rng: np.random.Generator, n_accesses: int, n_lines: int,
         params: dict) -> np.ndarray:
    """Power-law (Zipf-like) line popularity.

    ``alpha`` controls skew (higher = more skewed).  Ranks are shuffled
    through a fixed permutation derived from ``rng`` so hot lines are
    scattered across the structure rather than clustered at its start —
    matching profiled GPU heaps, where hot pages are not contiguous.
    """
    _require_positive(n_accesses, n_lines)
    alpha = float(params.get("alpha", 1.1))
    if alpha <= 0:
        raise WorkloadError("zipf alpha must be positive")
    weights = 1.0 / np.power(np.arange(1, n_lines + 1, dtype=np.float64),
                             alpha)
    weights /= weights.sum()
    ranks = rng.choice(n_lines, size=n_accesses, p=weights)
    permutation = rng.permutation(n_lines)
    return permutation[ranks].astype(np.int64)


def hot_cold(rng: np.random.Generator, n_accesses: int, n_lines: int,
             params: dict) -> np.ndarray:
    """Two-level hotness: a hot sub-range takes most of the traffic.

    ``hot_fraction`` of the lines receive ``hot_traffic`` of the
    accesses (e.g. 0.1 and 0.6 reproduce "60% of bandwidth from 10% of
    pages").  Within each class, accesses are uniform.
    """
    _require_positive(n_accesses, n_lines)
    hot_fraction = float(params.get("hot_fraction", 0.1))
    hot_traffic = float(params.get("hot_traffic", 0.6))
    if not 0.0 < hot_fraction < 1.0:
        raise WorkloadError("hot_fraction must be in (0,1)")
    if not 0.0 < hot_traffic < 1.0:
        raise WorkloadError("hot_traffic must be in (0,1)")
    n_hot = max(1, int(round(n_lines * hot_fraction)))
    is_hot = rng.random(n_accesses) < hot_traffic
    addrs = np.empty(n_accesses, dtype=np.int64)
    n_hot_accesses = int(is_hot.sum())
    addrs[is_hot] = rng.integers(0, n_hot, size=n_hot_accesses)
    addrs[~is_hot] = rng.integers(n_hot, n_lines,
                                  size=n_accesses - n_hot_accesses)
    return addrs


def gaussian(rng: np.random.Generator, n_accesses: int, n_lines: int,
             params: dict) -> np.ndarray:
    """Hotness clustered around a centre, decaying smoothly.

    ``center_fraction`` places the cluster, ``sigma_fraction`` sets its
    width.  Produces hotness gradients *within* a structure, the
    behaviour that defeats per-data-structure annotation in needle and
    mummergpu.
    """
    _require_positive(n_accesses, n_lines)
    center = float(params.get("center_fraction", 0.5)) * n_lines
    sigma = max(1.0, float(params.get("sigma_fraction", 0.15)) * n_lines)
    raw = rng.normal(center, sigma, size=n_accesses)
    return np.clip(np.abs(raw), 0, n_lines - 1).astype(np.int64)


def partial(rng: np.random.Generator, n_accesses: int, n_lines: int,
            params: dict) -> np.ndarray:
    """Touch only a sub-range, leaving the rest allocated-but-idle.

    ``used_fraction`` of the structure receives uniform traffic; the
    remainder is never accessed — the mummergpu virtual ranges that
    Figure 7b shows "allocated but never accessed".
    """
    _require_positive(n_accesses, n_lines)
    used_fraction = float(params.get("used_fraction", 0.6))
    if not 0.0 < used_fraction <= 1.0:
        raise WorkloadError("used_fraction must be in (0,1]")
    used = max(1, int(round(n_lines * used_fraction)))
    return rng.integers(0, used, size=n_accesses, dtype=np.int64)


def _wrap(values: np.ndarray, n_lines: int) -> np.ndarray:
    """``values % n_lines`` for ``0 <= values < 2 * n_lines``, in place."""
    return np.subtract(values, n_lines, out=values,
                       where=values >= n_lines)


def phase_shift_period(n_accesses: int, n_phases: int) -> int:
    """Accesses per phase: the ``K`` of the ``phase_shift`` spec."""
    if n_phases <= 0:
        raise WorkloadError("n_phases must be positive")
    return max(1, n_accesses // n_phases)


def phase_shift_window(phase: int, n_lines: int,
                       hot_fraction: float) -> tuple[int, int]:
    """``(start, length)`` of phase ``p``'s hot window (may wrap)."""
    n_hot = max(1, int(round(n_lines * hot_fraction)))
    return (phase * n_hot) % n_lines, n_hot


def phase_shift(rng: np.random.Generator, n_accesses: int, n_lines: int,
                params: dict) -> np.ndarray:
    """Rotating hot window: the static-placement worst case.

    ``hot_fraction`` of the lines take ``hot_traffic`` of the accesses,
    but *which* lines are hot rotates every ``K`` accesses (see
    :func:`phase_shift_period`/:func:`phase_shift_window` for the exact
    schedule).  Over the whole trace every line sees roughly the same
    count, so whole-trace profiles (the ORACLE's input) carry no
    signal — only a policy that reacts to the current phase can keep
    the hot window resident in BO.  Cold accesses are uniform over the
    whole structure.  ``hot_traffic=1.0`` puts every access in its
    phase window, which tests use to pin boundaries exactly.
    """
    _require_positive(n_accesses, n_lines)
    n_phases = int(params.get("n_phases", 4))
    hot_fraction = float(params.get("hot_fraction", 0.1))
    hot_traffic = float(params.get("hot_traffic", 0.85))
    if not 0.0 < hot_fraction < 1.0:
        raise WorkloadError("hot_fraction must be in (0,1)")
    if not 0.0 < hot_traffic <= 1.0:
        raise WorkloadError("hot_traffic must be in (0,1]")
    period = phase_shift_period(n_accesses, n_phases)
    _, n_hot = phase_shift_window(0, n_lines, hot_fraction)
    hot = np.flatnonzero(rng.random(n_accesses) < hot_traffic)
    addrs = rng.integers(0, n_lines, size=n_accesses, dtype=np.int64)
    offsets = rng.integers(0, n_hot, size=hot.size, dtype=np.int64)
    # Window p covers accesses [p * period, (p + 1) * period): repeat
    # each window's start over the hot accesses that fall in it.
    n_windows = -(-n_accesses // period)
    per_window = np.diff(np.searchsorted(
        hot, np.arange(n_windows + 1, dtype=np.int64) * period))
    offsets += np.repeat(
        np.arange(n_windows, dtype=np.int64) * n_hot % n_lines, per_window)
    addrs[hot] = _wrap(offsets, n_lines)
    return addrs


def sliding_window(rng: np.random.Generator, n_accesses: int,
                   n_lines: int, params: dict) -> np.ndarray:
    """All traffic in a window sliding linearly across the structure.

    ``window_fraction`` sets the resident-set size; ``passes`` is how
    many times the window's start crosses the whole structure (it wraps
    around).  Access ``i`` draws uniformly from the window starting at
    ``floor(i * passes * n_lines / n_accesses) % n_lines`` — an exact
    schedule, so every access satisfies
    ``(addr - start_i) % n_lines < window``.  Models the moving
    resident set of an out-of-core sweep: the footprint exceeds BO but
    the *current* window need not.
    """
    _require_positive(n_accesses, n_lines)
    window_fraction = float(params.get("window_fraction", 0.25))
    passes = float(params.get("passes", 1.0))
    if not 0.0 < window_fraction <= 1.0:
        raise WorkloadError("window_fraction must be in (0,1]")
    if passes <= 0:
        raise WorkloadError("passes must be positive")
    n_window = max(1, int(round(n_lines * window_fraction)))
    # The float operations of i * passes * n_lines / n, in that order;
    # i is exact as a double.
    starts = (np.arange(n_accesses, dtype=np.float64) * passes * n_lines
              / max(1, n_accesses)).astype(np.int64)
    # Rounding is monotonic, so the starts never decrease and the last
    # one says whether any reaches past the structure.
    if n_accesses and starts[-1] >= n_lines:
        starts %= n_lines
    starts += rng.integers(0, n_window, size=n_accesses, dtype=np.int64)
    return _wrap(starts, n_lines)


PATTERNS: dict[str, PatternFn] = {
    "sequential": sequential,
    "strided": strided,
    "uniform": uniform,
    "zipf": zipf,
    "hot_cold": hot_cold,
    "gaussian": gaussian,
    "partial": partial,
    "phase_shift": phase_shift,
    "sliding_window": sliding_window,
}


def generate(pattern: str, rng: np.random.Generator, n_accesses: int,
             n_lines: int, params: dict | None = None) -> np.ndarray:
    """Dispatch to a named pattern generator."""
    try:
        fn = PATTERNS[pattern]
    except KeyError:
        raise WorkloadError(
            f"unknown access pattern {pattern!r}; known: {sorted(PATTERNS)}"
        )
    return fn(rng, n_accesses, n_lines, params or {})
