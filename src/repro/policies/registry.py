"""Policy registry and factory.

Maps the policy names used throughout the experiment harness, benches
and CLI examples onto constructors.  Policies that need extra inputs
(the oracle needs a profile, annotated placement needs hinted
allocations) are created through :func:`make_policy` with keyword
arguments.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

from repro.core.errors import PolicyError
from repro.policies.annotated import AnnotatedPolicy
from repro.policies.base import PlacementPolicy
from repro.policies.bwaware import BwAwarePolicy, CounterBwAwarePolicy
from repro.policies.interleave import InterleavePolicy
from repro.policies.local import LocalPolicy
from repro.policies.oracle import OraclePolicy


def _make_local(**kwargs: object) -> PlacementPolicy:
    _reject_extras("LOCAL", kwargs)
    return LocalPolicy()


def _make_interleave(**kwargs: object) -> PlacementPolicy:
    subset = kwargs.pop("zone_subset", None)
    _reject_extras("INTERLEAVE", kwargs)
    return InterleavePolicy(zone_subset=subset)


def _make_bwaware(**kwargs: object) -> PlacementPolicy:
    fractions = kwargs.pop("fractions", None)
    co_percent = kwargs.pop("co_percent", None)
    _reject_extras("BW-AWARE", kwargs)
    if co_percent is not None:
        if fractions is not None:
            raise PolicyError("give fractions or co_percent, not both")
        return BwAwarePolicy.from_ratio(float(co_percent))
    return BwAwarePolicy(fractions=fractions)


def _make_counter_bwaware(**kwargs: object) -> PlacementPolicy:
    fractions = kwargs.pop("fractions", None)
    _reject_extras("BW-AWARE-COUNTER", kwargs)
    return CounterBwAwarePolicy(fractions=fractions)


def _make_oracle(**kwargs: object) -> PlacementPolicy:
    accesses = kwargs.pop("page_accesses", None)
    _reject_extras("ORACLE", kwargs)
    if accesses is None:
        raise PolicyError("ORACLE needs page_accesses= (a profiling pass)")
    return OraclePolicy(np.asarray(accesses))


def _make_annotated(**kwargs: object) -> PlacementPolicy:
    fallback = kwargs.pop("fallback", None)
    _reject_extras("ANNOTATED", kwargs)
    return AnnotatedPolicy(fallback=fallback)


def _make_online(**kwargs: object) -> PlacementPolicy:
    # Deferred: OnlinePolicy pulls in the migration stack, which static
    # placements never run.
    from repro.policies.online import OnlinePolicy

    initial = kwargs.pop("initial", "BW-AWARE")
    epochs = kwargs.pop("epochs", 16)
    budget = kwargs.pop("budget_pages_per_epoch", None)
    hysteresis = kwargs.pop("hysteresis", 1.25)
    watermarks = kwargs.pop("watermarks", None)
    decay = kwargs.pop("decay", 0.5)
    cost_scale = kwargs.pop("cost_scale", 1.0)
    max_overhead = kwargs.pop("max_overhead", 0.01)
    oracle_hotness = kwargs.pop("oracle_hotness", False)
    _reject_extras("ONLINE", kwargs)
    return OnlinePolicy(
        initial=initial, epochs=int(epochs),
        budget_pages_per_epoch=(None if budget is None else int(budget)),
        hysteresis=float(hysteresis), watermarks=watermarks,
        decay=float(decay), cost_scale=float(cost_scale),
        max_overhead=(None if max_overhead is None
                      else float(max_overhead)),
        oracle_hotness=bool(oracle_hotness),
    )


def _reject_extras(name: str, kwargs: dict) -> None:
    if kwargs:
        raise PolicyError(f"unknown arguments for {name}: {sorted(kwargs)}")


_FACTORIES: dict[str, Callable[..., PlacementPolicy]] = {
    "LOCAL": _make_local,
    "INTERLEAVE": _make_interleave,
    "BW-AWARE": _make_bwaware,
    "BWAWARE": _make_bwaware,
    "BW-AWARE-COUNTER": _make_counter_bwaware,
    "ORACLE": _make_oracle,
    "ANNOTATED": _make_annotated,
    "ONLINE": _make_online,
}


def policy_names() -> tuple[str, ...]:
    """Canonical policy names, in the order the paper discusses them
    (the ONLINE extension last)."""
    return ("LOCAL", "INTERLEAVE", "BW-AWARE", "BW-AWARE-COUNTER",
            "ORACLE", "ANNOTATED", "ONLINE")


def make_policy(name: str, **kwargs: object) -> PlacementPolicy:
    """Create a policy by name.

    >>> make_policy("BW-AWARE", co_percent=30).describe()
    'BW-AWARE 30C-70B'
    """
    try:
        factory = _FACTORIES[name.upper()]
    except KeyError:
        raise PolicyError(
            f"unknown policy {name!r}; valid policies: "
            f"{', '.join(policy_names())}"
        )
    return factory(**dict(kwargs))
