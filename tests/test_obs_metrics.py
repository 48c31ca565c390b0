"""Unit tests for :mod:`repro.obs.metrics`.

Covers the two bugs this layer fixes — label values rendered verbatim
(unescaped) and ``parse_metrics`` misparsing quoted values containing
spaces — plus a property-based round-trip (render → parse recovers
every sample, hostile labels included) and the strict exposition
validator CI runs over the daemon's ``/metrics``.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.metrics import (
    MetricsRegistry,
    escape_label_value,
    parse_metrics,
    unescape_label_value,
    validate_exposition,
)


class TestLabelEscaping:
    def test_backslash_quote_newline_escaped(self):
        assert escape_label_value('a\\b"c\nd') == 'a\\\\b\\"c\\nd'

    def test_unescape_inverts_escape(self):
        for value in ('plain', 'sp ace', 'q"uote', 'back\\slash',
                      'new\nline', '\\"', '\\n', ''):
            assert unescape_label_value(escape_label_value(value)) == value

    def test_render_escapes_hostile_label_values(self):
        """Regression: values used to be emitted verbatim, so a quote
        or newline in a label produced unparseable exposition text."""
        registry = MetricsRegistry()
        counter = registry.counter("repro_test_total", "help")
        counter.inc(cause='ValueError: bad "quoted" token\ndetail')
        text = registry.render()
        # One physical line per sample: the newline must not survive.
        sample_lines = [l for l in text.splitlines()
                        if l.startswith("repro_test_total{")]
        assert len(sample_lines) == 1
        assert '\\"quoted\\"' in sample_lines[0]
        assert "\\n" in sample_lines[0]
        # And the whole scrape still validates.
        assert validate_exposition(text) >= 1

    def test_help_text_escaped(self):
        registry = MetricsRegistry()
        registry.counter("repro_help_total", "line one\nline two\\end")
        text = registry.render()
        assert "# HELP repro_help_total line one\\nline two\\\\end" in text
        validate_exposition(text)


class TestParseMetrics:
    def test_quoted_value_with_spaces(self):
        """Regression: rpartition(' ') split inside the quoted value,
        returning a mangled name and a non-numeric 'value'."""
        text = ('repro_errors_total{cause="connection reset by peer"}'
                ' 3\n')
        parsed = parse_metrics(text)
        key = 'repro_errors_total{cause="connection reset by peer"}'
        assert parsed == {key: 3.0}

    def test_escaped_quote_inside_value(self):
        text = 'm{k="say \\"hi\\" now"} 1\n'
        parsed = parse_metrics(text)
        assert parsed == {'m{k="say \\"hi\\" now"}': 1.0}

    def test_plain_and_inf_values(self):
        parsed = parse_metrics("a 1\nb{le=\"+Inf\"} +Inf\nc 2.5\n")
        assert parsed["a"] == 1.0
        assert parsed['b{le="+Inf"}'] == math.inf
        assert parsed["c"] == 2.5

    def test_comments_and_junk_skipped(self):
        parsed = parse_metrics("# HELP a h\n# TYPE a counter\n"
                               "not-a-sample\na 4\n")
        assert parsed == {"a": 4.0}

    def test_trailing_timestamp_tolerated(self):
        parsed = parse_metrics("a 4 1700000000000\n")
        assert parsed == {"a": 4.0}


label_values = st.text(
    alphabet=st.characters(codec="utf-8",
                           exclude_categories=("Cs",)),
    max_size=30,
)


class TestRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(value=label_values, count=st.integers(0, 10_000))
    def test_render_parse_recovers_sample(self, value, count):
        registry = MetricsRegistry()
        counter = registry.counter("repro_rt_total", "round trip")
        counter.inc(count, cause=value)
        text = registry.render()
        validate_exposition(text)
        parsed = parse_metrics(text)
        key = ('repro_rt_total{cause="'
               + escape_label_value(value) + '"}')
        assert parsed[key] == pytest.approx(float(count))

    def test_full_registry_round_trip(self):
        registry = MetricsRegistry()
        c = registry.counter("repro_c_total", "c")
        g = registry.gauge("repro_g", "g")
        h = registry.histogram("repro_h_seconds", "h")
        c.inc(3, endpoint="simulate", status="200")
        c.inc(1, endpoint='we"ird', status="500")
        g.set(7.5)
        h.observe(0.004, endpoint="simulate")
        h.observe(2.0, endpoint="simulate")
        text = registry.render()
        n = validate_exposition(text)
        parsed = parse_metrics(text)
        # Every rendered sample line survives the parse.
        assert len(parsed) == n
        assert parsed[
            'repro_c_total{endpoint="simulate",status="200"}'] == 3.0
        assert parsed[
            'repro_c_total{endpoint="we\\"ird",status="500"}'] == 1.0
        assert parsed["repro_g"] == 7.5
        assert parsed[
            'repro_h_seconds_count{endpoint="simulate"}'] == 2.0


class TestValidateExposition:
    def test_rejects_bad_metric_name(self):
        with pytest.raises(ValueError, match="bad metric name"):
            validate_exposition("9bad 1\n")

    def test_rejects_unquoted_label_value(self):
        with pytest.raises(ValueError, match="not quoted"):
            validate_exposition("a{k=v} 1\n")

    def test_rejects_unterminated_labels(self):
        with pytest.raises(ValueError):
            validate_exposition('a{k="v" 1\n')

    def test_rejects_non_numeric_value(self):
        with pytest.raises(ValueError, match="bad sample value"):
            validate_exposition("a one\n")

    def test_rejects_bad_type_comment(self):
        with pytest.raises(ValueError, match="unknown metric type"):
            validate_exposition("# TYPE a frobnicator\n")

    def test_accepts_empty_text(self):
        assert validate_exposition("") == 0

