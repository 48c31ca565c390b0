"""ONLINE: TPP-style dynamic promotion/demotion as a placement policy.

The paper stops at static placement and argues software migration
rarely pays at measured costs; this policy is the natural headline
extension — epoch-driven hot-page promotion into BO plus
watermark-driven proactive demotion to CO, in the style of TPP
("Transparent Page Placement for CXL-Enabled Tiered-Memory").  It
starts from a configurable *initial* static placement (default
BW-AWARE — the paper's recommendation stays the starting point, online
refinement is layered on top) and then lets the
:mod:`repro.migration` substrate move pages at epoch boundaries:

* hotness comes from :class:`repro.migration.tracker.HotnessTracker`
  (EMA access counters, knob ``decay``);
* the per-boundary plan comes from
  :class:`repro.migration.policy.EpochMigrationPolicy` (knobs
  ``budget_pages_per_epoch``, ``hysteresis``, ``watermarks``);
* moves are charged through the Section 5.5 cost model, scaled by
  ``cost_scale`` (1.0 = paper-measured costs, 0.0 = free);
* ``max_overhead`` rate-limits cumulative migration time to a fraction
  of execution time, which bounds how far ONLINE can degrade below its
  initial static policy on stationary workloads.

Because ONLINE's outcome depends on history, it cannot answer the
static per-page question alone: :meth:`first_zones` delegates to
the initial policy (that *is* ONLINE's placement at allocation time),
and the experiment harness detects ``dynamic = True`` and replays the
trace through :class:`repro.migration.engine.MigrationSimulator`.

Spec grammar (used by the runner, CLI and serve layers)::

    ONLINE                          all defaults
    ONLINE@epochs=8,budget=64       k=v tail, keys sorted canonically
    ONLINE@initial=BW-AWARE@0.7,0.3 initial takes any static spec

Keys: ``budget`` (pages/boundary, ``none`` = unlimited), ``cost``
(cost-model scale), ``decay`` (tracker EMA), ``epochs`` (migration
boundaries), ``high``/``low`` (BO occupancy watermarks, both or
neither), ``hysteresis`` (promotion damping factor), ``initial``
(static policy spec), ``oracle`` (1 = full-trace profile instead of
online tracking, plans once before epoch 0), ``overhead`` (cumulative
migration-time cap as a fraction of execution time, ``none`` =
uncapped).
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

from repro.core.errors import PolicyError
from repro.core.limits import DEFAULT_REQUEST_LIMITS
from repro.migration.policy import validate_watermarks
from repro.policies.base import (
    PlacementContext,
    PlacementPolicy,
)

#: grammar key -> (default value, canonical formatter).
_DEFAULTS = {
    "budget": None,
    "cost": 1.0,
    "decay": 0.5,
    "epochs": 16,
    "high": None,
    "hysteresis": 1.25,
    "initial": "BW-AWARE",
    "low": None,
    "oracle": False,
    "overhead": 0.01,
}


class OnlinePolicy(PlacementPolicy):
    """First-class registry policy wrapping the migration substrate."""

    name = "ONLINE"
    #: sentinel the experiment harness keys on: this policy's result
    #: depends on trace history, not just the allocation-time answer.
    dynamic = True

    def __init__(self, initial: Union[str, PlacementPolicy] = "BW-AWARE",
                 epochs: int = 16,
                 budget_pages_per_epoch: Optional[int] = None,
                 hysteresis: float = 1.25,
                 watermarks: Optional[tuple[float, float]] = None,
                 decay: float = 0.5,
                 cost_scale: float = 1.0,
                 max_overhead: Optional[float] = 0.01,
                 oracle_hotness: bool = False) -> None:
        if isinstance(initial, str):
            base = initial.upper().partition("@")[0]
            if base == "ONLINE":
                raise PolicyError("ONLINE cannot start from itself")
            from repro.policies.registry import policy_names
            if base not in policy_names() and base != "BWAWARE":
                raise PolicyError(
                    f"unknown initial policy {initial!r} for ONLINE; "
                    f"valid: {', '.join(policy_names())}"
                )
        elif not isinstance(initial, PlacementPolicy):
            raise PolicyError(
                f"initial must be a policy spec or object, "
                f"got {type(initial).__name__}"
            )
        if int(epochs) < 1:
            raise PolicyError("epochs must be >= 1")
        DEFAULT_REQUEST_LIMITS.check_epochs(int(epochs))
        if budget_pages_per_epoch is not None \
                and int(budget_pages_per_epoch) < 0:
            raise PolicyError("budget_pages_per_epoch must be >= 0 or None")
        if not hysteresis >= 1.0:
            raise PolicyError("hysteresis must be >= 1")
        if not 0.0 < decay <= 1.0:
            raise PolicyError("decay out of (0, 1]")
        if not 0 <= cost_scale < float("inf"):
            raise PolicyError("cost_scale must be finite and >= 0")
        if max_overhead is not None and not max_overhead >= 0:
            raise PolicyError("max_overhead must be >= 0 or None")
        self.initial = initial
        self.epochs = int(epochs)
        self.budget_pages_per_epoch = (
            None if budget_pages_per_epoch is None
            else int(budget_pages_per_epoch)
        )
        self.hysteresis = float(hysteresis)
        self.watermarks = validate_watermarks(watermarks)
        self.decay = float(decay)
        self.cost_scale = float(cost_scale)
        self.max_overhead = (None if max_overhead is None
                             else float(max_overhead))
        self.oracle_hotness = bool(oracle_hotness)
        self._initial_obj: Optional[PlacementPolicy] = None

    # -- static-placement interface: delegate to the initial policy ----

    def initial_policy(self) -> PlacementPolicy:
        """The static policy ONLINE starts from, as an object.

        Raises :class:`PolicyError` for initials that need a profiling
        pass (ORACLE/ANNOTATED) — those are resolved by the experiment
        harness, which knows the workload being run.
        """
        if isinstance(self.initial, PlacementPolicy):
            return self.initial
        if self._initial_obj is None:
            from repro.runner.spec import parse_policy

            resolved = parse_policy(self.initial.upper())
            if isinstance(resolved, str):
                from repro.policies.registry import make_policy

                resolved = make_policy(resolved)
            self._initial_obj = resolved
        return self._initial_obj

    def prepare(self, allocations, ctx: PlacementContext) -> None:
        self.initial_policy().prepare(allocations, ctx)

    def first_zones(self, allocation, pages,
                    ctx: PlacementContext):
        return self.initial_policy().first_zones(allocation, pages, ctx)

    def spill_order(self, first: int,
                    ctx: PlacementContext) -> Sequence[int]:
        return self.initial_policy().spill_order(first, ctx)

    # -- canonical description -----------------------------------------

    def options(self) -> dict:
        """Grammar key -> current value (initial as a spec string)."""
        if isinstance(self.initial, str):
            initial = self.initial.upper()
        else:
            from repro.runner.spec import canonical_policy

            initial = canonical_policy(self.initial)
        low, high = self.watermarks if self.watermarks else (None, None)
        return {
            "budget": self.budget_pages_per_epoch,
            "cost": self.cost_scale,
            "decay": self.decay,
            "epochs": self.epochs,
            "high": high,
            "hysteresis": self.hysteresis,
            "initial": initial,
            "low": low,
            "oracle": self.oracle_hotness,
            "overhead": self.max_overhead,
        }

    def describe(self) -> str:
        tail = canonical_online_tail(self.options())
        return f"ONLINE@{tail}" if tail else "ONLINE"


def _format_value(key: str, value) -> str:
    if key == "oracle":
        return "1" if value else "0"
    if value is None:
        return "none"
    if key in ("budget", "epochs"):
        return str(int(value))
    if key == "initial":
        from repro.runner.spec import canonical_policy

        return canonical_policy(str(value))
    return repr(float(value))


def canonical_online_tail(options: dict) -> str:
    """Sorted ``k=v`` tail holding only the non-default options."""
    parts = []
    for key in sorted(_DEFAULTS):
        value = options.get(key, _DEFAULTS[key])
        formatted = _format_value(key, value)
        if formatted != _format_value(key, _DEFAULTS[key]):
            parts.append(f"{key}={formatted}")
    return ",".join(parts)


def parse_online_options(tail: Optional[str]) -> dict:
    """Parse an ``ONLINE@`` spec tail into a grammar-key option dict.

    The tail is ``k=v`` pairs joined by commas.  A token without ``=``
    continues the previous value (so ``initial=BW-AWARE@0.7,0.3``
    parses as one pair despite the embedded comma).
    """
    options = dict(_DEFAULTS)
    if not tail:
        return options
    pairs: list[list[str]] = []
    for token in tail.split(","):
        if "=" in token:
            key, _, value = token.partition("=")
            pairs.append([key.strip().lower(), value])
        elif pairs:
            pairs[-1][1] += "," + token
        else:
            raise PolicyError(
                f"malformed ONLINE spec tail {tail!r}: expected k=v pairs"
            )
    seen = set()
    for key, raw in pairs:
        if key not in _DEFAULTS:
            raise PolicyError(
                f"unknown ONLINE option {key!r}; valid: "
                f"{', '.join(sorted(_DEFAULTS))}"
            )
        if key in seen:
            raise PolicyError(f"duplicate ONLINE option {key!r}")
        seen.add(key)
        options[key] = _parse_value(key, raw.strip())
    if (options["low"] is None) != (options["high"] is None):
        raise PolicyError(
            "ONLINE watermarks need both low= and high= (or neither)"
        )
    return options


def _parse_value(key: str, raw: str):
    try:
        if key == "initial":
            return raw
        if key == "oracle":
            return bool(int(raw))
        if raw.lower() == "none":
            if key in ("budget", "overhead"):
                return None
            raise ValueError("none not allowed here")
        if key in ("budget", "epochs"):
            return int(raw)
        return float(raw)
    except ValueError:
        raise PolicyError(
            f"malformed ONLINE option {key}={raw!r}"
        )


def online_from_options(options: dict) -> OnlinePolicy:
    """Build the policy from a grammar-key option dict."""
    watermarks = (None if options["low"] is None
                  else (options["low"], options["high"]))
    return OnlinePolicy(
        initial=options["initial"],
        epochs=options["epochs"],
        budget_pages_per_epoch=options["budget"],
        hysteresis=options["hysteresis"],
        watermarks=watermarks,
        decay=options["decay"],
        cost_scale=options["cost"],
        max_overhead=options["overhead"],
        oracle_hotness=options["oracle"],
    )


def online_from_spec(spec: str) -> OnlinePolicy:
    """Build an :class:`OnlinePolicy` from a full spec string."""
    base, _, tail = spec.partition("@")
    if base.upper() != "ONLINE":
        raise PolicyError(f"not an ONLINE spec: {spec!r}")
    return online_from_options(parse_online_options(tail or None))
