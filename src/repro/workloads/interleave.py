"""Interleave one phase's per-structure streams into one access stream.

:meth:`repro.workloads.base.TraceWorkload.raw_access_stream` mixes the
structures of a phase in the order of one random permutation of their
labels, ``rng.permutation(np.repeat(np.arange(k), counts))``, keeping
each structure's accesses in their own order.  Two forms give the same
result and leave ``rng`` in the same state:

* :func:`interleave_numpy` draws that permutation, turns it into slots
  with a stable ``argsort`` and scatters the streams and write flags
  into them;
* the native kernel (``gpu/_synth.c``) runs numpy's Fisher–Yates
  shuffle itself on ``rng``'s bit generator and hands each slot the
  next element of its structure's stream in one O(n) pass.

numpy does not promise ``Generator`` streams across versions, so the
native kernel is checked against :func:`interleave_numpy` on a small
case the first time it is wanted.  On a mismatch, or where the native
library is unavailable, the numpy form runs for the rest of the
process (a mismatch logs one line).
"""

from __future__ import annotations

import threading
from typing import Callable, Optional, Sequence

import numpy as np

from repro.obs.log import log_event

#: structure sizes of the first-use check: a zero count, a single
#: access and streams long enough to reach rejected draws.
_CHECK_COUNTS = (5, 0, 300, 1, 77)
_CHECK_SEED = 20_150_314

_UNCHECKED = object()
_lock = threading.Lock()
#: the native kernel once checked, ``None`` when numpy runs instead.
_checked = _UNCHECKED


def interleave_numpy(rng: np.random.Generator,
                     streams: Sequence[np.ndarray],
                     bases: Sequence[int],
                     flags: Sequence[np.ndarray]
                     ) -> tuple[np.ndarray, np.ndarray]:
    """``(lines, is_write)``: slot ``s`` of the permuted labels takes
    the next access of structure ``order[s]``, plus its base line."""
    k = len(streams)
    # The narrowest key type keeps the stable sort below on NumPy's
    # radix path; the permutation's draws do not depend on it.
    order = rng.permutation(np.repeat(
        np.arange(k, dtype=np.min_scalar_type(k - 1)),
        [stream.size for stream in streams]))
    # Structure i takes the slots where order == i, in order: one
    # stable sort lists every structure's slots back to back.
    slots = np.argsort(order, kind="stable")
    lines = np.empty(order.size, dtype=np.int64)
    is_write = np.empty(order.size, dtype=bool)
    lines[slots] = np.concatenate([base + stream for base, stream
                                   in zip(bases, streams)])
    is_write[slots] = np.concatenate(flags)
    return lines, is_write


def _agrees(kernel: Callable) -> bool:
    """Whether ``kernel`` matches :func:`interleave_numpy` on the check
    case, output and generator state after."""
    draw = np.random.default_rng(_CHECK_SEED)
    streams = [draw.integers(0, 1 << 20, n) for n in _CHECK_COUNTS]
    flags = [draw.random(n) < 0.3 for n in _CHECK_COUNTS]
    bases = np.cumsum([0, *_CHECK_COUNTS[:-1]]) << 20
    numpy_rng = np.random.default_rng(_CHECK_SEED + 1)
    native_rng = np.random.default_rng(_CHECK_SEED + 1)
    want = interleave_numpy(numpy_rng, streams, bases, flags)
    got = kernel(native_rng, streams, bases, flags)
    return (all(np.array_equal(a, b) for a, b in zip(want, got))
            and numpy_rng.bit_generator.state
            == native_rng.bit_generator.state)


def native_interleave() -> Optional[Callable]:
    """The native kernel once it has passed its first-use check, else
    ``None`` (builds or loads the native library on first call)."""
    global _checked
    if _checked is _UNCHECKED:
        with _lock:
            if _checked is _UNCHECKED:
                from repro.gpu import _native  # deferred: loads the library

                kernel = _native.kernel("interleave")
                if kernel is not None and not _agrees(kernel):
                    log_event("workloads.synth.fallback", level="warning",
                              message="repro: native interleave disagrees "
                                      f"with numpy {np.__version__}'s "
                                      "permutation; using numpy")
                    kernel = None
                _checked = kernel
    return _checked


def interleave(rng: np.random.Generator, streams: Sequence[np.ndarray],
               bases: Sequence[int], flags: Sequence[np.ndarray]
               ) -> tuple[np.ndarray, np.ndarray]:
    """One phase's ``(lines, is_write)``: ``streams[i]`` (line offsets,
    offset by ``bases[i]``) and ``flags[i]`` interleaved in the order of
    ``rng.permutation`` over their labels, natively where it agrees."""
    kernel = native_interleave()
    if kernel is not None:
        return kernel(rng, streams, bases, flags)
    return interleave_numpy(rng, streams, bases, flags)
