"""Policy registry, factory and the policy-spec grammar.

Every placement in the repo is named by a policy-spec string, and this
module is the only one that reads or writes one.  The grammar::

    "LOCAL"                       a registry name, any case: LOCAL,
    "ORACLE"                      INTERLEAVE, BW-AWARE, BW-AWARE-COUNTER,
    "ANNOTATED"                   ORACLE, ANNOTATED, ONLINE
    "BWAWARE"                     alias; canonical form "BW-AWARE"
    "BW-AWARE@0.7,0.3"            explicit fraction vector, one per zone
                                  (Figure 3's xC-yB splits, two-pool
                                  ablations; also BW-AWARE-COUNTER)
    "ONLINE"                      dynamic promotion/demotion, defaults
    "ONLINE@cost=0.1,epochs=8"    k=v option tail (ONLINE_OPTIONS)
    "ONLINE@initial=BW-AWARE@0.7,0.3"
                                  initial takes any static spec; a token
                                  without "=" continues the previous
                                  value, so its commas survive

The canonical form (:func:`canonical_policy`) upper-cases the name,
resolves the alias, writes fractions as ``repr(float)`` and keeps only
the non-default ONLINE options, sorted by key.  It names a policy in
run specs and so in cache keys.  :func:`make_policy` builds a policy
from any spec; :func:`parse_policy` turns a spec back into what
:func:`repro.core.experiment.run_experiment` expects.  An unknown name,
a malformed tail or an out-of-range value raises :class:`PolicyError`
in all three (an ONLINE epoch count past the request cap raises
:class:`~repro.core.errors.RequestLimitError`).

Policies that need extra inputs (the oracle needs a profile) take
them as :func:`make_policy` keyword arguments.
"""

from __future__ import annotations

from typing import Callable, Collection, Mapping, NamedTuple, Optional, Union

import numpy as np

from repro.core.errors import PolicyError, UncacheableSpecError
from repro.policies.annotated import AnnotatedPolicy
from repro.policies.base import PlacementPolicy
from repro.policies.bwaware import (
    BwAwarePolicy,
    CounterBwAwarePolicy,
    two_zone_fractions,
)
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

    return OnlinePolicy(**kwargs)


def _reject_extras(name: str, kwargs: Collection[str]) -> None:
    if kwargs:
        raise PolicyError(f"unknown arguments for {name}: {sorted(kwargs)}")


_FACTORIES: dict[str, Callable[..., PlacementPolicy]] = {
    "LOCAL": _make_local,
    "INTERLEAVE": _make_interleave,
    "BW-AWARE": _make_bwaware,
    "BW-AWARE-COUNTER": _make_counter_bwaware,
    "ORACLE": _make_oracle,
    "ANNOTATED": _make_annotated,
    "ONLINE": _make_online,
}

_ALIASES = {"BWAWARE": "BW-AWARE"}

#: names whose spec may carry an ``@f0,f1,...`` fraction tail.
_FRACTION_POLICIES = ("BW-AWARE", "BW-AWARE-COUNTER")


def policy_names() -> tuple[str, ...]:
    """Canonical policy names, in the order the paper discusses them
    (the ONLINE extension last)."""
    return tuple(_FACTORIES)


def split_policy(spec: str) -> tuple[str, Optional[str]]:
    """``(canonical name, tail)`` of a spec; the tail is ``None`` when
    the spec has no ``@``.  Raises :class:`PolicyError` for an unknown
    name."""
    base, at, tail = spec.partition("@")
    name = base.upper()
    name = _ALIASES.get(name, name)
    if name not in _FACTORIES:
        raise PolicyError(
            f"unknown policy {base!r}; valid policies: "
            f"{', '.join(policy_names())}"
        )
    return name, (tail if at else None)


# ----------------------------------------------------------------------
# Fraction tails
# ----------------------------------------------------------------------

def _format_fractions(fractions) -> str:
    return ",".join(repr(float(f)) for f in fractions)


def _parse_fractions(name: str, tail: str) -> tuple[float, ...]:
    if name not in _FRACTION_POLICIES:
        raise PolicyError(f"policy {name!r} takes no spec tail")
    try:
        return tuple(float(f) for f in tail.split(","))
    except ValueError:
        raise PolicyError(
            f"malformed fraction vector {tail!r} for {name}"
        )


def bw_ratio_policy(co_percent: float) -> str:
    """Policy spec for an explicit two-zone xC-yB split.

    >>> bw_ratio_policy(30)
    'BW-AWARE@0.7,0.3'
    """
    return "BW-AWARE@" + _format_fractions(two_zone_fractions(co_percent))


# ----------------------------------------------------------------------
# Canonicalise, parse, build
# ----------------------------------------------------------------------

def canonical_policy(policy: Union[str, PlacementPolicy]) -> str:
    """Reduce a policy input to its canonical spec string.

    Accepts any spec string, BW-AWARE policy objects (whose only state
    is the optional explicit fraction vector) and ONLINE objects.  A
    tailed spec is built to be described, so an unknown name, a
    malformed tail or an out-of-range option raises :class:`PolicyError`
    here, before any run; any other object — custom policy classes,
    oracle/annotated *instances* carrying profile data — raises
    :class:`UncacheableSpecError`, so callers can fall back to direct,
    uncached execution.
    """
    if isinstance(policy, str):
        name, tail = split_policy(policy)
        return name if tail is None else canonical_policy(make_policy(policy))
    if type(policy) in (BwAwarePolicy, CounterBwAwarePolicy):
        explicit = policy.explicit_fractions
        if explicit is None:
            return policy.name
        return f"{policy.name}@{_format_fractions(explicit)}"
    if getattr(policy, "dynamic", False):
        from repro.policies.online import OnlinePolicy

        if isinstance(policy, OnlinePolicy):
            return policy.describe()
    raise UncacheableSpecError(
        f"cannot canonicalize policy object {policy!r}; pass a registry "
        "name or a BW-AWARE fraction spec instead"
    )


def make_policy(spec: str, **kwargs: object) -> PlacementPolicy:
    """Create a policy from any spec; options come from its tail or
    from keyword arguments, not both.

    >>> make_policy("BW-AWARE", co_percent=30).describe()
    'BW-AWARE 30C-70B'
    >>> make_policy("bw-aware@0.7,0.3").describe()
    'BW-AWARE 30C-70B'
    """
    name, tail = split_policy(spec)
    if tail is not None:
        if kwargs:
            raise PolicyError(
                f"give {name} options in the spec tail or as keyword "
                "arguments, not both"
            )
        if name == "ONLINE":
            kwargs = _online_tail_kwargs(tail)
        else:
            kwargs = {"fractions": _parse_fractions(name, tail)}
    return _FACTORIES[name](**kwargs)


def check_fraction_count(spec: str, n_zones: int) -> None:
    """Raise :class:`PolicyError` when ``spec`` carries a fraction
    vector, in its own tail or in an ONLINE ``initial=``, whose length
    is not ``n_zones``; any other spec passes."""
    name, tail = split_policy(spec)
    if tail is None:
        return
    if name == "ONLINE":
        check_fraction_count(parse_online_options(tail)["initial"], n_zones)
        return
    fractions = _parse_fractions(name, tail)
    if len(fractions) != n_zones:
        raise PolicyError(f"policy {spec!r} gives {len(fractions)} "
                          f"fractions for {n_zones} zones")


def parse_policy(spec: str) -> Union[str, PlacementPolicy]:
    """Rebuild the ``run_experiment`` policy input from a spec string:
    the spec itself when it has no tail (ORACLE and ANNOTATED need the
    run's profiling pass), else the policy it builds."""
    if split_policy(spec)[1] is None:
        return spec
    return make_policy(spec)


# ----------------------------------------------------------------------
# ONLINE option tails
# ----------------------------------------------------------------------

class OnlineOption(NamedTuple):
    """One key of an ``ONLINE@`` tail.

    ``kwarg`` is the :class:`~repro.policies.online.OnlinePolicy`
    keyword the value feeds (``low`` and ``high`` together feed
    ``watermarks``); ``parse`` reads the tail's text and ``format``
    writes the canonical text back.
    """

    key: str
    kwarg: str
    default: object
    parse: Callable[[str], object]
    format: Callable[[object], str]


def _optional(cast: Callable[[str], object]) -> Callable[[str], object]:
    return lambda raw: None if raw.lower() == "none" else cast(raw)


def _format_int(value) -> str:
    return "none" if value is None else str(int(value))


def _format_float(value) -> str:
    return "none" if value is None else repr(float(value))


def parse_initial(raw: str) -> str:
    """ONLINE's initial spec, canonical; it must be a static policy."""
    initial = canonical_policy(raw)
    if split_policy(initial)[0] == "ONLINE":
        raise PolicyError("ONLINE cannot start from itself")
    return initial


ONLINE_OPTIONS = (
    OnlineOption("budget", "budget_pages_per_epoch", None,
                 _optional(int), _format_int),
    OnlineOption("cost", "cost_scale", 1.0, float, _format_float),
    OnlineOption("decay", "decay", 0.5, float, _format_float),
    OnlineOption("epochs", "epochs", 16, int, _format_int),
    OnlineOption("high", "watermarks", None, float, _format_float),
    OnlineOption("hysteresis", "hysteresis", 1.25, float, _format_float),
    OnlineOption("initial", "initial", "BW-AWARE", parse_initial,
                 canonical_policy),
    OnlineOption("low", "watermarks", None, float, _format_float),
    OnlineOption("oracle", "oracle_hotness", False,
                 lambda raw: bool(int(raw)),
                 lambda value: "1" if value else "0"),
    OnlineOption("overhead", "max_overhead", 0.01,
                 _optional(float), _format_float),
)

_ONLINE_KEYS = {option.key: option for option in ONLINE_OPTIONS}
_ONLINE_KWARGS = {option.kwarg: option.default for option in ONLINE_OPTIONS}


def online_kwargs(given: Mapping[str, object]) -> dict:
    """``OnlinePolicy`` keywords: ``given`` over the table's defaults.
    Raises :class:`PolicyError` naming ONLINE for an unknown keyword."""
    _reject_extras("ONLINE", set(given) - set(_ONLINE_KWARGS))
    return {**_ONLINE_KWARGS, **given}


def parse_online_options(tail: Optional[str]) -> dict:
    """Parse an ``ONLINE@`` tail into a grammar-key -> value dict, with
    every key present (defaults for the ones the tail omits)."""
    options = {option.key: option.default for option in ONLINE_OPTIONS}
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
        if key not in _ONLINE_KEYS:
            raise PolicyError(
                f"unknown ONLINE option {key!r}; valid: "
                f"{', '.join(sorted(_ONLINE_KEYS))}"
            )
        if key in seen:
            raise PolicyError(f"duplicate ONLINE option {key!r}")
        seen.add(key)
        try:
            options[key] = _ONLINE_KEYS[key].parse(raw.strip())
        except ValueError:
            raise PolicyError(f"malformed ONLINE option {key}={raw!r}")
    if (options["low"] is None) != (options["high"] is None):
        raise PolicyError(
            "ONLINE watermarks need both low= and high= (or neither)"
        )
    return options


def canonical_online_tail(options: Mapping[str, object]) -> str:
    """Sorted ``k=v`` tail holding only the non-default options."""
    parts = []
    for option in ONLINE_OPTIONS:
        formatted = option.format(options.get(option.key, option.default))
        if formatted != option.format(option.default):
            parts.append(f"{option.key}={formatted}")
    return ",".join(parts)


def online_spec(policy) -> str:
    """The canonical spec of an ``OnlinePolicy``, whose attributes are
    the table's keywords."""
    low, high = policy.watermarks or (None, None)
    options = {"low": low, "high": high}
    for option in ONLINE_OPTIONS:
        options.setdefault(option.key, getattr(policy, option.kwarg))
    tail = canonical_online_tail(options)
    return f"ONLINE@{tail}" if tail else "ONLINE"


def _online_tail_kwargs(tail: str) -> dict:
    options = parse_online_options(tail)
    kwargs = {option.kwarg: options[option.key] for option in ONLINE_OPTIONS}
    low, high = options["low"], options["high"]
    kwargs["watermarks"] = None if low is None else (low, high)
    return kwargs
