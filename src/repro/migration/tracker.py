"""Online page-hotness tracking.

A dynamic migration system cannot use the two-phase oracle's perfect
counts; it must estimate hotness from what it has observed so far.
:class:`HotnessTracker` maintains per-page exponentially-decayed access
counters updated once per execution epoch — the software analogue of
the access-bit scanning / hardware counters an online page migrator
would rely on (the "costly dynamic page tracking" the paper's
annotation scheme is designed to avoid).
"""

from __future__ import annotations

import numpy as np

from repro.core.errors import SimulationError


class HotnessTracker:
    """Per-page EMA access counters.

    ``decay`` controls history: 1.0 accumulates forever (converging to
    the oracle's aggregate counts), lower values track phase changes
    faster at the cost of noisier estimates.
    """

    def __init__(self, n_pages: int, decay: float = 0.5) -> None:
        if n_pages <= 0:
            raise SimulationError("tracker needs at least one page")
        if not 0.0 < decay <= 1.0:
            raise SimulationError(f"decay out of (0,1]: {decay}")
        self.n_pages = n_pages
        self.decay = decay
        self._scores = np.zeros(n_pages, dtype=np.float64)
        self.epochs_observed = 0

    @property
    def scores(self) -> np.ndarray:
        """Current hotness estimate per page (read-only view)."""
        view = self._scores.view()
        view.flags.writeable = False
        return view

    def observe_epoch(self, page_indices: np.ndarray) -> None:
        """Fold one epoch's DRAM accesses into the estimate."""
        # bincount rejects a negative page and lengthens its output
        # past the last page for one beyond it: no extra range passes.
        try:
            counts = np.bincount(np.asarray(page_indices, dtype=np.int64),
                                 minlength=self.n_pages)
        except ValueError:
            counts = None
        if counts is None or counts.size != self.n_pages:
            raise SimulationError("observed page outside tracked range")
        self._scores *= self.decay
        self._scores += counts
        self.epochs_observed += 1

    def reset(self) -> None:
        self._scores[:] = 0.0
        self.epochs_observed = 0
