"""Property/fuzz suite for the serve request parsers.

The contract under test: any JSON value in any request field — wrong
types, ``NaN``/``Infinity``, ``1e400`` (which parses to ``inf``),
integers past every machine range — makes the parsers either return a
result or raise :class:`BadRequestError` (HTTP 400), never any other
exception (which the daemon would answer with a 500).  The integration
half checks the daemon end to end: such inputs answer 400 before any
job starts, so a client's mistake never counts against the simulate
circuit breaker.
"""

from __future__ import annotations

import json
import math
import urllib.error
import urllib.request

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.limits import MAX_EPOCHS
from repro.serve import BackgroundServer, ServeClient, ServeConfig
from repro.serve.service import (
    BadRequestError,
    PlacementService,
    parse_autotune_request,
    parse_simulate_spec,
)

HUGE = 10 ** 400

#: the values that broke the parsers, drawn often on purpose.
EDGES = st.sampled_from([
    math.nan, math.inf, -math.inf, HUGE, -HUGE, 2 ** 63, -1, 0, True,
    None, "", "nope", [], {}, {"a": 1},
])

#: arbitrary JSON documents (what ``json.loads`` can hand a parser).
JSON = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(),
              st.floats(allow_nan=True, allow_infinity=True),
              st.text(max_size=8)),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=6), children, max_size=4),
    ),
    max_leaves=12,
)

#: hostile arrays: element-level edge values among valid ones.
ARRAYS = st.lists(st.one_of(EDGES, st.sampled_from([4096, 80.0])),
                  min_size=1, max_size=3)

#: what a hostile client may put in any one field.
HOSTILE = st.one_of(
    EDGES, JSON, ARRAYS,
    st.fixed_dictionaries({"bandwidth_gbps": ARRAYS}),
    st.dictionaries(st.sampled_from(["gain", "deadband", "max_step"]),
                    EDGES, min_size=1),
)


def hostile(valid: dict):
    """``valid`` with up to three fields replaced by hostile values,
    so each example gets past the other fields' checks."""
    keys = st.sampled_from(sorted(valid))
    return st.dictionaries(keys, HOSTILE, min_size=1, max_size=3).map(
        lambda override: {**valid, **override})


SIMULATE_PAYLOADS = hostile({
    "workload": "bfs", "policy": "BW-AWARE", "dataset": "default",
    "training_dataset": "graph1M", "topology": "baseline",
    "bo_capacity_fraction": 0.5, "engine": "throughput",
    "trace_accesses": 1000, "seed": 7,
})

AUTOTUNE_PAYLOADS = hostile({
    "workload": "xsbench", "dataset": "default", "topology": "chiplet-2",
    "engine": "throughput", "seed": 0, "epochs": 4, "n_accesses": 4000,
    "controller": {"gain": 0.5}, "force": False,
})

PLACEMENT_PAYLOADS = hostile({
    "sizes": [4096, 40960], "hotness": [1.0, 50.0],
    "bo_capacity_bytes": 40960, "bo_domain": 0,
    "topology": {"bandwidth_gbps": [200.0, 80.0]},
})

SETTINGS = settings(suppress_health_check=[
    HealthCheck.function_scoped_fixture, HealthCheck.too_slow])


@pytest.fixture(scope="module")
def service():
    return PlacementService(ServeConfig(use_cache=False,
                                        simulate_workers=1))


def result_or_bad_request(parse, payload):
    try:
        return parse(payload)
    except BadRequestError as exc:
        assert exc.status == 400
        return None


@SETTINGS
@given(payload=SIMULATE_PAYLOADS)
def test_simulate_parser_answers_or_400s(payload):
    spec = result_or_bad_request(parse_simulate_spec, payload)
    if spec is not None:
        assert spec.bo_capacity_fraction is None or math.isfinite(
            spec.bo_capacity_fraction)
        assert isinstance(spec.seed, int) and spec.seed >= 0


@SETTINGS
@given(payload=AUTOTUNE_PAYLOADS)
def test_autotune_parser_answers_or_400s(payload):
    request = result_or_bad_request(parse_autotune_request, payload)
    if request is not None:
        for key in ("seed", "epochs", "n_accesses"):
            assert isinstance(request[key], int)


@SETTINGS
@given(payload=PLACEMENT_PAYLOADS)
def test_placement_answers_or_400s(service, payload):
    result = result_or_bad_request(service.compute_placement, payload)
    if result is not None:
        assert len(result["hints"]) == result["n_allocations"]


# ---------------------------------------------------------------------
# the reproduced cases, one by one
# ---------------------------------------------------------------------

#: JSON literals that parse to non-finite floats (``1e400`` → inf).
NON_FINITE = ["NaN", "Infinity", "-Infinity", "1e400"]


def literal(text: str):
    return json.loads(text)


@pytest.mark.parametrize("value", NON_FINITE)
@pytest.mark.parametrize("key", ["bo_capacity_fraction", "seed",
                                 "trace_accesses"])
def test_simulate_non_finite_numbers_rejected(key, value):
    with pytest.raises(BadRequestError):
        parse_simulate_spec({"workload": "bfs", key: literal(value)})


@pytest.mark.parametrize("dataset", [{"a": 1}, "nope", 3, None])
def test_simulate_unknown_dataset_rejected(dataset):
    with pytest.raises(BadRequestError, match="dataset"):
        parse_simulate_spec({"workload": "bfs", "dataset": dataset})


@pytest.mark.parametrize("policy", [
    "ONLINE@cost=nan", "ONLINE@cost=inf", "ONLINE@hysteresis=nan",
    "BW-AWARE@1", "BW-AWARE@0.5,0.3,0.2",
])
def test_simulate_policy_options_checked_before_any_job(policy):
    with pytest.raises(BadRequestError):
        parse_simulate_spec({"workload": "bfs", "policy": policy})


#: past :data:`repro.core.limits.DEFAULT_REQUEST_LIMITS`: a trace this
#: long would exhaust memory before any result.
OVERSIZED = 10 ** 12


def test_oversized_trace_requests_rejected():
    cap_error = f"= {OVERSIZED} exceeds the cap of {2 ** 25}"
    with pytest.raises(BadRequestError, match=cap_error):
        parse_simulate_spec({"workload": "bfs",
                             "trace_accesses": OVERSIZED})
    with pytest.raises(BadRequestError, match=cap_error):
        parse_autotune_request({"workload": "xsbench",
                                "n_accesses": OVERSIZED})


def test_oversized_epoch_counts_rejected():
    """ONLINE@epochs= and /v1/autotune apply the shared epoch cap with
    the message ``repro autotune --epochs`` gives."""
    cap_error = f"epochs = {OVERSIZED} exceeds the cap of {MAX_EPOCHS}"
    with pytest.raises(BadRequestError, match=cap_error):
        parse_simulate_spec({"workload": "bfs",
                             "policy": f"ONLINE@epochs={OVERSIZED}"})
    with pytest.raises(BadRequestError, match=cap_error):
        parse_autotune_request({"workload": "xsbench",
                                "epochs": OVERSIZED})
    with pytest.raises(BadRequestError, match="cap of"):
        parse_autotune_request({"workload": "xsbench",
                                "epochs": MAX_EPOCHS + 1})
    assert parse_autotune_request({"workload": "xsbench",
                                   "epochs": MAX_EPOCHS})["epochs"] \
        == MAX_EPOCHS
    parse_simulate_spec({"workload": "bfs",
                         "policy": f"ONLINE@epochs={MAX_EPOCHS}"})


def test_simulate_negative_seed_rejected():
    with pytest.raises(BadRequestError, match="seed"):
        parse_simulate_spec({"workload": "bfs", "seed": -1})


@pytest.mark.parametrize("value", NON_FINITE)
@pytest.mark.parametrize("key", ["epochs", "n_accesses", "seed"])
def test_autotune_non_finite_numbers_rejected(key, value):
    with pytest.raises(BadRequestError):
        parse_autotune_request({"workload": "xsbench", key: literal(value)})


@pytest.mark.parametrize("value", NON_FINITE + [str(HUGE)])
def test_autotune_controller_needs_finite_numbers(value):
    with pytest.raises(BadRequestError, match="controller"):
        parse_autotune_request({"workload": "xsbench",
                                "controller": {"gain": literal(value)}})


def test_autotune_unknown_dataset_rejected():
    with pytest.raises(BadRequestError, match="dataset"):
        parse_autotune_request({"workload": "xsbench", "dataset": "nope"})


BASE_PLACEMENT = {"sizes": [4096, 4096], "hotness": [1.0, 5.0],
                  "bo_capacity_bytes": 4096}


@pytest.mark.parametrize("override", [
    {"sizes": [literal("1e400"), 4096]},
    {"sizes": [HUGE, 4096]},
    {"sizes": [2 ** 63, 4096]},
    {"bo_capacity_bytes": literal("1e400")},
    {"bo_domain": literal("Infinity")},
    {"hotness": [literal("NaN"), 1.0]},
    {"hotness": [literal("Infinity"), 1.0]},
    {"hotness": [HUGE, 1.0]},
    {"topology": {"bandwidth_gbps": [literal("NaN"), 80.0]}},
    {"topology": {"bandwidth_gbps": [literal("1e400"), 80.0]}},
])
def test_placement_out_of_range_numbers_rejected(service, override):
    with pytest.raises(BadRequestError):
        service.compute_placement(dict(BASE_PLACEMENT, **override))


# ---------------------------------------------------------------------
# end to end: 400 before any job, breaker untouched
# ---------------------------------------------------------------------


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    config = ServeConfig(port=0,
                         cache_dir=tmp_path_factory.mktemp("fuzz-cache"))
    with BackgroundServer(config) as background:
        ServeClient(background.base_url).wait_until_ready()
        yield background


def status_of(server, method: str, path: str, body: str = None) -> int:
    request = urllib.request.Request(
        server.base_url + path,
        data=None if body is None else body.encode(),
        headers={"Content-Type": "application/json"},
        method=method,
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status
    except urllib.error.HTTPError as exc:
        return exc.code


def counters(server) -> dict:
    metrics = ServeClient(server.base_url).metrics()
    return {name: metrics.get(name, 0.0) for name in (
        "repro_serve_breaker_state",
        "repro_serve_simulate_jobs_total",
        "repro_serve_simulate_failures_total",
        "repro_serve_autotune_runs_total",
        "repro_serve_profile_cache_misses_total",
    )}


def test_nan_capacity_simulates_never_open_the_breaker(server):
    # one more than the default breaker threshold (5)
    for _ in range(6):
        assert status_of(server, "POST", "/v1/simulate",
                         '{"workload":"bfs","bo_capacity_fraction":NaN}'
                         ) == 400
    seen = counters(server)
    assert seen["repro_serve_breaker_state"] == 0
    assert seen["repro_serve_simulate_jobs_total"] == 0


@pytest.mark.parametrize("method,path,body", [
    ("POST", "/v1/simulate",
     '{"workload":"bfs","bo_capacity_fraction":Infinity}'),
    ("POST", "/v1/simulate",
     '{"workload":"bfs","bo_capacity_fraction":1e400}'),
    ("POST", "/v1/simulate", '{"workload":"bfs","seed":1e400}'),
    ("POST", "/v1/simulate", '{"workload":"bfs","trace_accesses":1e400}'),
    ("POST", "/v1/simulate", '{"workload":"bfs","dataset":{"a":1}}'),
    ("POST", "/v1/simulate", '{"workload":"bfs","dataset":"nope"}'),
    ("POST", "/v1/autotune", '{"workload":"xsbench","epochs":1e400}'),
    ("POST", "/v1/autotune", '{"workload":"xsbench","n_accesses":1e400}'),
    ("POST", "/v1/autotune", '{"workload":"xsbench","dataset":"nope"}'),
    ("POST", "/v1/simulate",
     '{"workload":"bfs","trace_accesses":1000000000000}'),
    ("POST", "/v1/autotune",
     '{"workload":"xsbench","n_accesses":1000000000000}'),
    ("POST", "/v1/autotune",
     '{"workload":"xsbench","epochs":1000000000000}'),
    ("POST", "/v1/simulate",
     '{"workload":"bfs","policy":"ONLINE@epochs=1000000000000"}'),
    ("GET", "/v1/profile/bfs?accesses=1000000000000", None),
    ("GET", "/v1/profile/bfs?dataset=nope", None),
    ("POST", "/v1/placement",
     '{"sizes":[1e400],"hotness":[1],"bo_capacity_bytes":0}'),
    ("POST", "/v1/placement",
     '{"sizes":[4096],"hotness":[NaN],"bo_capacity_bytes":0}'),
    ("POST", "/v1/placement",
     '{"sizes":[4096],"hotness":[1],"bo_capacity_bytes":1e400}'),
    ("POST", "/v1/placement",
     '{"sizes":[4096],"hotness":[1],"bo_capacity_bytes":0,'
     '"bo_domain":1e400}'),
    ("POST", "/v1/placement",
     '{"sizes":[4096],"hotness":[1],"bo_capacity_bytes":0,'
     '"topology":{"bandwidth_gbps":[NaN,80]}}'),
])
def test_bad_numbers_and_datasets_answer_400_before_any_job(
        server, method, path, body):
    assert status_of(server, method, path, body) == 400
    assert counters(server) == {
        "repro_serve_breaker_state": 0,
        "repro_serve_simulate_jobs_total": 0,
        "repro_serve_simulate_failures_total": 0,
        "repro_serve_autotune_runs_total": 0,
        "repro_serve_profile_cache_misses_total": 0,
    }



@pytest.mark.parametrize("cap", ["inf", "1e308"])
def test_unbindable_overhead_cap_simulates_like_no_cap(tmp_path, cap):
    """``ONLINE@overhead=inf`` and ``=1e308`` pass the parser; the job
    must then run as if uncapped, not answer 500 and count a breaker
    failure."""
    config = ServeConfig(port=0, cache_dir=tmp_path)
    with BackgroundServer(config) as background:
        client = ServeClient(background.base_url)
        client.wait_until_ready()
        uncapped = client.simulate("phase_shift",
                                   policy="ONLINE@overhead=none",
                                   trace_accesses=20_000)
        capped = client.simulate("phase_shift",
                                 policy=f"ONLINE@overhead={cap}",
                                 trace_accesses=20_000)
        metrics = client.metrics()
    assert capped["result"]["time_ms"] == uncapped["result"]["time_ms"]
    assert capped["result"]["zone_page_counts"] == \
        uncapped["result"]["zone_page_counts"]
    assert metrics.get("repro_serve_simulate_failures_total", 0) == 0
    assert metrics.get("repro_serve_breaker_state", 0) == 0
