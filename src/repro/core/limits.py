"""Hard caps on the work one request may ask for.

A trace length reaches synthesis, the cache filter and the engines as
array sizes, so an unchecked ``10**12`` exhausts memory long before
any result.  :class:`RequestLimits` bounds it in one place, in the
style of :class:`repro.ingest.parser.IngestLimits`: the runner's
:func:`~repro.runner.spec.make_spec`, the serve parsers and the CLI's
``--accesses`` flags all check against :data:`DEFAULT_REQUEST_LIMITS`
and reject with the same typed :class:`RequestLimitError`.  Epoch
counts (``ONLINE@epochs=``, ``/v1/autotune``, ``repro autotune
--epochs``) are checked against :data:`MAX_EPOCHS` the same way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.errors import ConfigError, RequestLimitError

#: epochs per replay: 64x the largest shipped value (16).  Each epoch
#: is one Python-level engine call.
MAX_EPOCHS = 1024


@dataclass(frozen=True)
class RequestLimits:
    """Caps checked before a request allocates anything."""

    #: raw trace accesses per run: ``trace_accesses`` (simulate) and
    #: ``n_accesses`` (profile, autotune).  Eight times the largest
    #: shipped configuration (``ext_online_placement``'s 4,000,000).
    max_accesses: int = 1 << 25

    def __post_init__(self) -> None:
        if self.max_accesses < 1:
            raise ConfigError("max_accesses must be >= 1")

    def check_accesses(self, value: Optional[int],
                       field: str = "trace_accesses") -> Optional[int]:
        """``value``, unless it exceeds :attr:`max_accesses`."""
        if value is not None and value > self.max_accesses:
            raise RequestLimitError(field, value, self.max_accesses)
        return value

    def check_epochs(self, value: int, field: str = "epochs") -> int:
        """``value``, unless it exceeds :data:`MAX_EPOCHS`."""
        if value > MAX_EPOCHS:
            raise RequestLimitError(field, value, MAX_EPOCHS)
        return value


DEFAULT_REQUEST_LIMITS = RequestLimits()
