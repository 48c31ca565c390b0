"""Kernel execution: IR -> coalesced line-address stream.

Executes kernels warp by warp, the way a GPU's memory pipeline sees
them: for each warp, the refs issue in program order, each producing up
to 32 lane addresses that the coalescer merges into unique 128-byte
line transactions.  Affine (``ThreadIndex``) refs therefore coalesce to
one or two lines per warp while gathers fan out to a line per lane —
the first-order behaviour separating streaming from irregular kernels.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.errors import WorkloadError
from repro.core.units import LINE_SIZE, PAGE_SIZE
from repro.kernelsim.ir import ArrayDecl, Kernel

#: lanes per warp (matches GpuConfig.warp_size).
WARP_SIZE = 32


@dataclass(frozen=True)
class ArrayLayout:
    """Where one array lives in the program footprint."""

    decl: ArrayDecl
    first_page: int

    @property
    def first_line(self) -> int:
        return self.first_page * (PAGE_SIZE // LINE_SIZE)


#: supported warp-issue schedules.
SCHEDULES = ("round-robin", "warp-major")


class KernelExecutor:
    """Lays out arrays and executes kernels into a line trace.

    ``schedule`` models the SM warp scheduler's issue order between
    resident warps:

    * ``"round-robin"`` (default) — warps advance in lockstep: every
      warp issues its first ref, then every warp its second, and so on.
      This is the steady state of a greedy-then-oldest scheduler over
      homogeneous warps and gives the temporal structure-mixing real
      kernels exhibit.
    * ``"warp-major"`` — each warp runs to completion before the next
      starts; the degenerate single-resident-warp case, useful to show
      how much scheduling-driven interleaving matters.
    """

    def __init__(self, arrays: Sequence[ArrayDecl], seed: int = 0,
                 schedule: str = "round-robin") -> None:
        if not arrays:
            raise WorkloadError("executor needs at least one array")
        names = [array.name for array in arrays]
        if len(set(names)) != len(names):
            raise WorkloadError(f"duplicate array names in {names}")
        if schedule not in SCHEDULES:
            raise WorkloadError(
                f"unknown schedule {schedule!r}; known: {SCHEDULES}"
            )
        self._layouts: dict[str, ArrayLayout] = {}
        page = 0
        for array in arrays:
            self._layouts[array.name] = ArrayLayout(array, page)
            page += array.n_pages
        self.footprint_pages = page
        self._seed = seed
        self.schedule = schedule

    def layout(self, name: str) -> ArrayLayout:
        try:
            return self._layouts[name]
        except KeyError:
            raise WorkloadError(f"kernel references undeclared array "
                                f"{name!r}")

    def _rng(self, kernel: Kernel, launch: int) -> np.random.Generator:
        key = f"{kernel.name}/{launch}/{self._seed}".encode()
        return np.random.default_rng(zlib.crc32(key))

    def line_trace(self, kernels: Sequence[Kernel]) -> np.ndarray:
        """Coalesced global line-address stream for a kernel sequence."""
        return self.access_stream(kernels)[0]

    def access_stream(self, kernels: Sequence[Kernel]
                      ) -> tuple[np.ndarray, np.ndarray]:
        """Coalesced (line addresses, is_write flags) for the sequence."""
        pieces: list[np.ndarray] = []
        flag_pieces: list[np.ndarray] = []
        for kernel in kernels:
            for launch in range(kernel.launches):
                lines, flags = self._run_once(kernel, launch)
                pieces.append(lines)
                flag_pieces.append(flags)
        if not pieces:
            raise WorkloadError("no kernels to execute")
        return np.concatenate(pieces), np.concatenate(flag_pieces)

    def _run_once(self, kernel: Kernel, launch: int
                  ) -> tuple[np.ndarray, np.ndarray]:
        rng = self._rng(kernel, launch)
        thread_ids = np.arange(kernel.n_threads, dtype=np.int64)
        n_warps = -(-kernel.n_threads // WARP_SIZE)

        # lines[r]: line address per thread for ref r.
        per_ref_lines = []
        for ref in kernel.refs:
            layout = self.layout(ref.array)
            decl = layout.decl
            element = ref.index.evaluate(thread_ids, decl.n_elements, rng)
            if element.size and (element.min() < 0
                                 or element.max() >= decl.n_elements):
                raise WorkloadError(
                    f"{kernel.name}: index for {ref.array!r} out of range"
                )
            byte = element * decl.element_bytes
            per_ref_lines.append(layout.first_line + byte // LINE_SIZE)

        # Per-warp coalescing: unique lines per (warp, ref) transaction,
        # issued in the scheduler's order.
        out: list[np.ndarray] = []
        out_flags: list[np.ndarray] = []

        def emit(warp: int, ref_index: int) -> None:
            lo = warp * WARP_SIZE
            hi = min(lo + WARP_SIZE, kernel.n_threads)
            ref = kernel.refs[ref_index]
            unique = np.unique(per_ref_lines[ref_index][lo:hi])
            out.append(unique)
            out_flags.append(
                np.full(unique.size, ref.is_store, dtype=bool)
            )

        if self.schedule == "round-robin":
            for ref_index in range(len(kernel.refs)):
                for warp in range(n_warps):
                    emit(warp, ref_index)
        else:  # warp-major
            for warp in range(n_warps):
                for ref_index in range(len(kernel.refs)):
                    emit(warp, ref_index)
        return np.concatenate(out), np.concatenate(out_flags)

    def access_counts_per_array(self, kernels: Sequence[Kernel]
                                ) -> dict[str, int]:
        """Executed (pre-coalescing) loads+stores per array.

        This is exactly what the paper's inserted instrumentation
        counts: every executed memory operation increments the counter
        of the array whose address range it falls in.
        """
        counts = {name: 0 for name in self._layouts}
        for kernel in kernels:
            for ref in kernel.refs:
                counts[self.layout(ref.array).decl.name] += (
                    kernel.n_threads * kernel.launches
                )
        return counts
