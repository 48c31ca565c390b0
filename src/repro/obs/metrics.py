"""A minimal Prometheus-text-format metrics registry.

Lives outside the daemon so the runner, the cache, and anything else
can record counters/histograms without a daemon in the process:
counters, gauges, and fixed-bucket histograms that render to the
`text exposition format <https://prometheus.io/docs/instrumenting/exposition_formats/>`_
scrapers understand.  All mutation happens on the event loop (or under
the GIL from worker threads incrementing plain ints/floats), so no
locking is needed for the accuracy class this serves.

Label handling is deliberately small: a metric family is instantiated
per label *tuple* on first use, and labels render sorted by key so the
output is deterministic — important because the integration tests and
the CI smoke job grep this text.  Label **values** are escaped per the
exposition spec (``\\`` → ``\\\\``, ``"`` → ``\\"``, newline →
``\\n``), so hostile values — error strings, workload names with
quotes — can never produce unparseable output; :func:`parse_metrics`
understands the escaped form (including spaces inside quoted values)
and :func:`validate_exposition` checks a full scrape against the
format, which the CI smoke job runs over the daemon's ``/metrics``.
"""

from __future__ import annotations

import math
import re
from typing import Iterable, Mapping, Optional, Sequence

#: default latency buckets (seconds) — service-time shaped: sub-ms cache
#: hits through multi-second cold simulations.
DEFAULT_BUCKETS = (0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
                   1.0, 2.5, 5.0, 10.0, 30.0)

#: metric and label name grammar from the exposition format spec.
_METRIC_NAME_RE = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_NAME_RE = re.compile(r"[a-zA-Z_][a-zA-Z0-9_]*$")


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def escape_label_value(value: str) -> str:
    """Escape a label value per the exposition format spec."""
    return (str(value)
            .replace("\\", "\\\\")
            .replace('"', '\\"')
            .replace("\n", "\\n"))


def unescape_label_value(value: str) -> str:
    """Invert :func:`escape_label_value`."""
    out: list[str] = []
    i, n = 0, len(value)
    while i < n:
        ch = value[i]
        if ch == "\\" and i + 1 < n:
            nxt = value[i + 1]
            if nxt == "n":
                out.append("\n")
            elif nxt in ('"', "\\"):
                out.append(nxt)
            else:  # unknown escape: keep verbatim
                out.append(ch)
                out.append(nxt)
            i += 2
        else:
            out.append(ch)
            i += 1
    return "".join(out)


def _escape_help(text: str) -> str:
    """HELP text escaping (backslash and newline only, per spec)."""
    return str(text).replace("\\", "\\\\").replace("\n", "\\n")


def _render_labels(labels: Mapping[str, str],
                   extra: Optional[Mapping[str, str]] = None) -> str:
    merged = dict(labels)
    if extra:
        merged.update(extra)
    if not merged:
        return ""
    body = ",".join(
        f'{key}="{escape_label_value(merged[key])}"'
        for key in sorted(merged)
    )
    return "{" + body + "}"


class _Family:
    """Shared bookkeeping: one named metric, many label children."""

    kind = "untyped"

    def __init__(self, name: str, help_text: str,
                 registry: "MetricsRegistry") -> None:
        self.name = name
        self.help = help_text
        self._children: dict[tuple, object] = {}
        registry._register(self)

    def _child_key(self, labels: Mapping[str, str]) -> tuple:
        return tuple(sorted(labels.items()))

    def render(self) -> list[str]:  # pragma: no cover - overridden
        raise NotImplementedError

    def header(self) -> list[str]:
        return [f"# HELP {self.name} {_escape_help(self.help)}",
                f"# TYPE {self.name} {self.kind}"]


class Counter(_Family):
    """Monotonic counter with optional labels."""

    kind = "counter"

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        key = self._child_key(labels)
        entry = self._children.setdefault(key, [dict(labels), 0.0])
        entry[1] += amount

    def value(self, **labels: str) -> float:
        entry = self._children.get(self._child_key(labels))
        return entry[1] if entry else 0.0

    def render(self) -> list[str]:
        lines = self.header()
        if not self._children:
            lines.append(f"{self.name} 0")
            return lines
        for key in sorted(self._children):
            labels, value = self._children[key]
            lines.append(
                f"{self.name}{_render_labels(labels)} "
                f"{_format_value(value)}"
            )
        return lines


class Gauge(_Family):
    """Instantaneous value (queue depths, in-flight counts)."""

    kind = "gauge"

    def set(self, value: float, **labels: str) -> None:
        key = self._child_key(labels)
        self._children[key] = [dict(labels), float(value)]

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        key = self._child_key(labels)
        entry = self._children.setdefault(key, [dict(labels), 0.0])
        entry[1] += amount

    def dec(self, amount: float = 1.0, **labels: str) -> None:
        self.inc(-amount, **labels)

    def value(self, **labels: str) -> float:
        entry = self._children.get(self._child_key(labels))
        return entry[1] if entry else 0.0

    def render(self) -> list[str]:
        lines = self.header()
        if not self._children:
            lines.append(f"{self.name} 0")
            return lines
        for key in sorted(self._children):
            labels, value = self._children[key]
            lines.append(
                f"{self.name}{_render_labels(labels)} "
                f"{_format_value(value)}"
            )
        return lines


class Histogram(_Family):
    """Fixed-bucket latency histogram (cumulative buckets + sum/count)."""

    kind = "histogram"

    def __init__(self, name: str, help_text: str,
                 registry: "MetricsRegistry",
                 buckets: Sequence[float] = DEFAULT_BUCKETS) -> None:
        super().__init__(name, help_text, registry)
        self.buckets = tuple(sorted(buckets))

    def observe(self, value: float, **labels: str) -> None:
        key = self._child_key(labels)
        entry = self._children.setdefault(
            key, [dict(labels), [0] * len(self.buckets), 0.0, 0]
        )
        _, counts, _, _ = entry
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                counts[i] += 1
        entry[2] += value
        entry[3] += 1

    def count(self, **labels: str) -> int:
        entry = self._children.get(self._child_key(labels))
        return entry[3] if entry else 0

    def render(self) -> list[str]:
        lines = self.header()
        for key in sorted(self._children):
            labels, counts, total, n = self._children[key]
            # counts[i] is already cumulative: observe() increments
            # every bucket whose bound admits the value.
            for bound, count in zip(self.buckets, counts):
                lines.append(
                    f"{self.name}_bucket"
                    f"{_render_labels(labels, {'le': _format_value(bound)})}"
                    f" {count}"
                )
            lines.append(
                f"{self.name}_bucket"
                f"{_render_labels(labels, {'le': '+Inf'})} {n}"
            )
            lines.append(
                f"{self.name}_sum{_render_labels(labels)} "
                f"{_format_value(total)}"
            )
            lines.append(
                f"{self.name}_count{_render_labels(labels)} {n}"
            )
        return lines


class MetricsRegistry:
    """Create-and-collect registry; renders the full exposition text."""

    def __init__(self) -> None:
        self._families: dict[str, _Family] = {}

    def _register(self, family: _Family) -> None:
        if family.name in self._families:
            raise ValueError(f"duplicate metric {family.name!r}")
        self._families[family.name] = family

    def counter(self, name: str, help_text: str) -> Counter:
        return Counter(name, help_text, self)

    def gauge(self, name: str, help_text: str) -> Gauge:
        return Gauge(name, help_text, self)

    def histogram(self, name: str, help_text: str,
                  buckets: Sequence[float] = DEFAULT_BUCKETS) -> Histogram:
        return Histogram(name, help_text, self, buckets=buckets)

    def families(self) -> Iterable[_Family]:
        return self._families.values()

    def render(self) -> str:
        lines: list[str] = []
        for name in sorted(self._families):
            lines.extend(self._families[name].render())
        return "\n".join(lines) + "\n"


def _split_sample(line: str) -> Optional[tuple[str, str]]:
    """Split a sample line into ``(name_with_labels, raw_value)``.

    Quote-aware: a space inside a quoted label value (or an escaped
    quote) never splits the line — the naive ``rpartition(" ")`` this
    replaces misparsed exactly those.  Returns ``None`` for lines that
    are not shaped like a sample.
    """
    brace = line.find("{")
    if brace == -1:
        name, sep, raw = line.partition(" ")
        if not sep:
            return None
        return name, raw.strip()
    i, n = brace + 1, len(line)
    in_quotes = False
    escaped = False
    while i < n:
        ch = line[i]
        if escaped:
            escaped = False
        elif ch == "\\":
            escaped = True
        elif ch == '"':
            in_quotes = not in_quotes
        elif ch == "}" and not in_quotes:
            break
        i += 1
    if i >= n:  # unterminated label set
        return None
    return line[: i + 1], line[i + 1:].strip()


def _parse_labels(body: str) -> dict[str, str]:
    """Decode a ``k="v",...`` label body (validating the grammar).

    Raises :class:`ValueError` on any deviation from the exposition
    format: bad label names, unquoted or unterminated values, stray
    characters between pairs.
    """
    labels: dict[str, str] = {}
    i, n = 0, len(body)
    while i < n:
        eq = body.find("=", i)
        if eq == -1:
            raise ValueError(f"label body missing '=': {body!r}")
        name = body[i:eq]
        if not _LABEL_NAME_RE.match(name):
            raise ValueError(f"bad label name {name!r}")
        if eq + 1 >= n or body[eq + 1] != '"':
            raise ValueError(f"label {name!r} value is not quoted")
        j = eq + 2
        raw: list[str] = []
        escaped = False
        while j < n:
            ch = body[j]
            if escaped:
                raw.append(ch)
                escaped = False
            elif ch == "\\":
                raw.append(ch)
                escaped = True
            elif ch == '"':
                break
            else:
                raw.append(ch)
            j += 1
        else:
            raise ValueError(f"unterminated value for label {name!r}")
        labels[name] = unescape_label_value("".join(raw))
        i = j + 1
        if i < n:
            if body[i] != ",":
                raise ValueError(
                    f"expected ',' between labels, got {body[i]!r}")
            i += 1
    return labels


def _parse_value(raw: str) -> float:
    """Decode a sample value, tolerating an optional timestamp suffix."""
    parts = raw.split()
    if not parts or len(parts) > 2:
        raise ValueError(f"bad sample value {raw!r}")
    if len(parts) == 2:
        int(parts[1])  # timestamp must be integral milliseconds
    value = parts[0]
    if value in ("+Inf", "Inf"):
        return math.inf
    if value == "-Inf":
        return -math.inf
    return float(value)


def parse_metrics(text: str) -> dict[str, float]:
    """Parse exposition text into ``{'name{labels}': value}``.

    The inverse of :meth:`MetricsRegistry.render` for the sample lines —
    used by the client library and the integration tests to assert on
    daemon counters without regexes.  Keys keep the rendered (escaped)
    label form; lines that do not parse as samples are skipped.
    """
    samples: dict[str, float] = {}
    # The exposition format is \n-delimited; str.splitlines would also
    # break on \r or U+2028 *inside* a quoted label value.
    for line in text.split("\n"):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        split = _split_sample(line)
        if split is None:
            continue
        name, raw = split
        try:
            samples[name] = _parse_value(raw)
        except ValueError:
            continue
    return samples


def validate_exposition(text: str) -> int:
    """Strictly validate a full scrape; returns the sample count.

    Checks every non-comment line against the text exposition format:
    metric name grammar, label name grammar, quoted + escaped label
    values, a float-parseable value.  ``# HELP``/``# TYPE`` comments
    must name a metric and (for TYPE) a known type.  Raises
    :class:`ValueError` naming the first offending line — the CI smoke
    job runs this over the daemon's ``/metrics`` output.
    """
    n_samples = 0
    # \n-delimited on purpose — see parse_metrics.
    for lineno, line in enumerate(text.split("\n"), start=1):
        if not line.strip():
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) >= 2 and parts[1] in ("HELP", "TYPE"):
                if len(parts) < 3 or not _METRIC_NAME_RE.match(parts[2]):
                    raise ValueError(
                        f"line {lineno}: malformed {parts[1]} comment: "
                        f"{line!r}")
                if parts[1] == "TYPE" and (
                        len(parts) < 4 or parts[3].split()[0] not in (
                            "counter", "gauge", "histogram", "summary",
                            "untyped")):
                    raise ValueError(
                        f"line {lineno}: unknown metric type: {line!r}")
            continue
        split = _split_sample(line.strip())
        if split is None:
            raise ValueError(f"line {lineno}: not a sample: {line!r}")
        name, raw = split
        brace = name.find("{")
        bare = name if brace == -1 else name[:brace]
        if not _METRIC_NAME_RE.match(bare):
            raise ValueError(
                f"line {lineno}: bad metric name {bare!r}")
        if brace != -1:
            if not name.endswith("}"):
                raise ValueError(
                    f"line {lineno}: unterminated labels: {line!r}")
            _parse_labels(name[brace + 1:-1])
        try:
            _parse_value(raw)
        except ValueError:
            raise ValueError(
                f"line {lineno}: bad sample value {raw!r}")
        n_samples += 1
    return n_samples
