"""Registry round-trips: every policy name works at every entry point.

The policy registry now backs four surfaces — ``make_policy`` kwargs,
the runner's spec grammar, the CLI, and serve's ``/v1/simulate`` body.
These tests sweep ``policy_names()`` through each surface so a policy
added to the registry (as ONLINE was) cannot silently miss one:

* ``make_policy`` constructs every name (with its required kwargs) and
  rejects unknown kwargs with the *policy name* in the message;
* unknown policy names are rejected with the full valid-name list;
* ``run_experiment`` executes every name end-to-end;
* the CLI ``run`` command accepts every name via ``--policy``;
* serve's ``parse_simulate_spec`` validates every name in a request
  body and rejects unknown ones with the valid-name list.

Tailed specs (fraction vectors, ONLINE option tails, mixed case, the
``BWAWARE`` alias) take the same five surfaces plus ``make_spec``, and
a hypothesis property holds the grammar's canonical form to be
idempotent and to survive a parse.
"""

from __future__ import annotations

import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.errors import PolicyError, UncacheableSpecError
from repro.core.experiment import run_experiment
from repro.memory.topology import three_pool_topology
from repro.policies.registry import make_policy, policy_names
from repro.runner import (
    canonical_policy,
    code_version_salt,
    encode_result,
    make_spec,
    parse_policy,
)
from repro.serve.config import ServeConfig
from repro.serve.service import BadRequestError, PlacementService

#: required constructor kwargs per policy (beyond the defaults).
REQUIRED_KWARGS = {
    "ORACLE": {"page_accesses": np.asarray([5, 1, 3, 2])},
}

QUICK = dict(trace_accesses=20_000, seed=0)


@pytest.fixture(scope="module")
def service(tmp_path_factory):
    return PlacementService(ServeConfig(
        cache_dir=tmp_path_factory.mktemp("roundtrip-cache"),
        simulate_workers=1,
    ))


class TestMakePolicy:
    @pytest.mark.parametrize("name", policy_names())
    def test_every_name_constructs(self, name):
        policy = make_policy(name, **REQUIRED_KWARGS.get(name, {}))
        assert policy.name == name or name == "BWAWARE"

    @pytest.mark.parametrize("name", policy_names())
    def test_unknown_kwargs_name_the_policy(self, name):
        with pytest.raises(PolicyError) as excinfo:
            make_policy(name, definitely_not_a_knob=1)
        message = str(excinfo.value)
        assert name in message
        assert "definitely_not_a_knob" in message

    def test_unknown_name_lists_every_valid_name(self):
        with pytest.raises(PolicyError) as excinfo:
            make_policy("NOT-A-POLICY")
        message = str(excinfo.value)
        for name in policy_names():
            assert name in message

    def test_online_kwargs_flow_through(self):
        policy = make_policy("ONLINE", epochs=8,
                             budget_pages_per_epoch=64,
                             watermarks=(0.5, 0.9), cost_scale=0.5)
        assert policy.epochs == 8
        assert policy.budget_pages_per_epoch == 64
        assert policy.watermarks == (0.5, 0.9)
        assert policy.cost_scale == 0.5


class TestRunExperiment:
    @pytest.mark.parametrize("name", policy_names())
    def test_every_name_runs_end_to_end(self, name):
        result = run_experiment("bfs", policy=name, **QUICK)
        assert result.throughput > 0
        assert result.policy == name


class TestCli:
    @pytest.mark.parametrize("name", policy_names())
    def test_run_accepts_every_policy(self, name, capsys):
        from repro.cli import main
        assert main(["run", "--workload", "bfs", "--policy", name,
                     "--accesses", "20000"]) == 0
        assert "bandwidth" in capsys.readouterr().out

    def test_compare_accepts_online_spec_via_policy_alias(self, capsys,
                                                          tmp_path):
        from repro.cli import main
        assert main(["compare", "-w", "bfs",
                     "--policy", "ONLINE@epochs=4", "BW-AWARE",
                     "--accesses", "20000",
                     "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "ONLINE@epochs=4" in out

    def test_list_policies_includes_online(self, capsys):
        from repro.cli import main
        assert main(["list", "policies"]) == 0
        assert "ONLINE" in capsys.readouterr().out.split()

    def test_list_workloads_includes_scenarios(self, capsys):
        from repro.cli import main
        assert main(["list", "workloads"]) == 0
        out = capsys.readouterr().out
        assert "phase_shift" in out and "sliding_window" in out


class TestServeSpecParsing:
    @pytest.mark.parametrize("name", policy_names())
    def test_every_name_parses_in_a_simulate_body(self, service, name):
        spec = service.parse_simulate_spec(
            {"workload": "bfs", "policy": name}
        )
        assert spec.policy.startswith(name.partition("@")[0])

    def test_online_spec_with_knobs_parses(self, service):
        spec = service.parse_simulate_spec({
            "workload": "phase_shift",
            "policy": "ONLINE@cost=0.1,epochs=8,overhead=none",
            "bo_capacity_fraction": 0.15,
        })
        assert spec.policy == "ONLINE@cost=0.1,epochs=8,overhead=none"

    def test_unknown_policy_lists_every_valid_name(self, service):
        with pytest.raises(BadRequestError) as excinfo:
            service.parse_simulate_spec(
                {"workload": "bfs", "policy": "NOT-A-POLICY"}
            )
        message = str(excinfo.value)
        for name in policy_names():
            assert name in message

    def test_bad_online_tail_is_a_bad_request(self, service):
        with pytest.raises(BadRequestError):
            service.parse_simulate_spec(
                {"workload": "bfs", "policy": "ONLINE@nope=1"}
            )


#: spec -> its canonical form.
TAILED_SPECS = {
    "BW-AWARE@0.7,0.3": "BW-AWARE@0.7,0.3",
    "bw-aware@0.70,0.30": "BW-AWARE@0.7,0.3",
    "BWAWARE@0.7,0.3": "BW-AWARE@0.7,0.3",
    "bwaware": "BW-AWARE",
    "BW-AWARE-COUNTER@0.5,0.5": "BW-AWARE-COUNTER@0.5,0.5",
    "ONLINE@epochs=4": "ONLINE@epochs=4",
    "online@EPOCHS=4,cost=0.1": "ONLINE@cost=0.1,epochs=4",
    "ONLINE@initial=BW-AWARE@0.7,0.3,epochs=4":
        "ONLINE@epochs=4,initial=BW-AWARE@0.7,0.3",
    "Online@epochs=4,initial=bwaware@0.7,0.3":
        "ONLINE@epochs=4,initial=BW-AWARE@0.7,0.3",
}


class TestTailedSpecs:
    @pytest.mark.parametrize("spec", TAILED_SPECS)
    def test_canonical_form(self, spec):
        assert canonical_policy(spec) == TAILED_SPECS[spec]
        assert canonical_policy(TAILED_SPECS[spec]) == TAILED_SPECS[spec]

    @pytest.mark.parametrize("spec", TAILED_SPECS)
    def test_make_policy_builds_the_spec(self, spec):
        assert canonical_policy(make_policy(spec)) == TAILED_SPECS[spec]

    @pytest.mark.parametrize("spec", TAILED_SPECS)
    def test_make_spec(self, spec):
        assert make_spec("bfs", spec).policy == TAILED_SPECS[spec]

    @pytest.mark.parametrize("spec", TAILED_SPECS)
    def test_run_experiment_labels_verbatim(self, spec):
        """A string labels its result verbatim and runs what the
        runner's parsed spec runs."""
        result = encode_result(run_experiment("bfs", policy=spec, **QUICK))
        assert result.pop("policy") == spec
        parsed = encode_result(run_experiment(
            "bfs", policy=parse_policy(TAILED_SPECS[spec]), **QUICK))
        parsed.pop("policy")
        assert result == parsed

    @pytest.mark.parametrize("spec", TAILED_SPECS)
    def test_cli_run(self, spec, capsys):
        from repro.cli import main
        assert main(["run", "--workload", "bfs", "--policy", spec,
                     "--accesses", "20000"]) == 0
        assert "bandwidth" in capsys.readouterr().out

    def test_cli_compare(self, capsys, tmp_path):
        from repro.cli import main
        assert main(["compare", "-w", "bfs", "-p", *TAILED_SPECS,
                     "--accesses", "20000",
                     "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        for spec in TAILED_SPECS:
            assert spec in out

    @pytest.mark.parametrize("spec", TAILED_SPECS)
    def test_simulate_body(self, service, spec):
        parsed = service.parse_simulate_spec(
            {"workload": "bfs", "policy": spec})
        assert parsed.policy == TAILED_SPECS[spec]


def _any_case(text: str):
    return st.lists(st.booleans(), min_size=len(text),
                    max_size=len(text)).map(
        lambda flags: "".join(c.lower() if low else c
                              for c, low in zip(text, flags)))


_number = st.sampled_from((repr, "{:.4g}".format))


def _fraction_tail():
    weights = st.lists(st.integers(min_value=0, max_value=9),
                       min_size=2, max_size=3).filter(any)
    return weights.map(lambda w: ",".join(
        repr(x / sum(w)) for x in w))


_static = st.one_of(
    st.sampled_from(("LOCAL", "INTERLEAVE", "BW-AWARE", "BWAWARE",
                     "BW-AWARE-COUNTER", "ORACLE", "ANNOTATED"))
    .flatmap(_any_case),
    st.tuples(st.sampled_from(("bw-aware", "BWAWARE",
                               "BW-AWARE-COUNTER")),
              _fraction_tail()).map("@".join),
)


@st.composite
def _online_tail(draw):
    pairs = {}
    for key, values in (
            ("budget", st.one_of(st.just("none"),
                                 st.integers(0, 512).map(str))),
            ("cost", st.floats(0.0, 10.0)),
            ("decay", st.floats(0.01, 1.0)),
            ("epochs", st.integers(1, 64).map(str)),
            ("hysteresis", st.floats(1.0, 3.0)),
            ("initial", _static),
            ("oracle", st.sampled_from(("0", "1"))),
            ("overhead", st.one_of(st.just("None"),
                                   st.floats(0.001, 1.0)))):
        if draw(st.booleans()):
            value = draw(values)
            if isinstance(value, float):
                value = draw(_number)(value)
            pairs[draw(_any_case(key))] = value
    if draw(st.booleans()):
        pairs["low"] = draw(_number)(draw(st.floats(0.05, 0.5)))
        pairs["high"] = draw(_number)(draw(st.floats(0.5, 1.0)))
    order = draw(st.permutations(sorted(pairs)))
    return ",".join(f"{key}={pairs[key]}" for key in order)


_specs = st.one_of(
    _static,
    st.tuples(_any_case("ONLINE"), _online_tail()).map(
        lambda parts: "@".join(parts) if parts[1] else parts[0]),
)


def _zones_for(canon: str) -> int:
    """The zone count a spec's fraction vector, its own or its ONLINE
    initial's, asks for; 2 (the baseline's) without one."""
    policy = parse_policy(canon)
    initial = getattr(policy, "initial", None)
    if isinstance(initial, str):
        policy = parse_policy(initial)
    fractions = getattr(policy, "explicit_fractions", None)
    return 2 if fractions is None else len(fractions)


class TestCanonicalProperty:
    """Runs under the conftest ``dev``/``ci`` hypothesis profiles."""

    @given(spec=_specs)
    def test_canonical_is_idempotent_and_survives_parse(self, spec):
        canon = canonical_policy(spec)
        assert canonical_policy(canon) == canon
        assert canonical_policy(parse_policy(spec)) == canon
        # make_spec checks the fraction count against the topology.
        if _zones_for(canon) == 3:
            with pytest.raises(PolicyError, match="for 2 zones"):
                make_spec("bfs", spec)
            topology = three_pool_topology()
        else:
            topology = None
        assert make_spec("bfs", spec, topology=topology).policy == canon


class TestUnknownNames:
    @pytest.mark.parametrize("spec", [
        "MAGIC", "magic@0.5,0.5", "LOCAL@0.5,0.5", "BW-AWARE@x,y",
        "BW-AWARE@0.5,0.6", "ONLINE@nope=1", "ONLINE@epochs=0",
        "ONLINE@initial=MAGIC", "ONLINE@initial=ONLINE",
        "ONLINE@initial=BW-AWARE@0.5,0.6",
    ])
    def test_canonicalisation_raises_a_policy_error(self, spec):
        """Before any run, and not UncacheableSpecError, which would
        send experiments and analysis sweeps to their uncached
        fallback."""
        for build in (canonical_policy, lambda s: make_spec("bfs", s)):
            with pytest.raises(PolicyError) as excinfo:
                build(spec)
            assert not isinstance(excinfo.value, UncacheableSpecError)

    def test_alias_keys_as_its_canonical_name(self, service):
        salt = code_version_salt()
        assert (make_spec("bfs", "BWAWARE").cache_key(salt)
                == make_spec("bfs", "BW-AWARE").cache_key(salt))
        assert service.parse_simulate_spec(
            {"workload": "bfs", "policy": "BWAWARE"}).policy == "BW-AWARE"

    def test_compare_rejects_before_the_runner(self, capsys, tmp_path):
        from repro.cli import main
        with pytest.raises(SystemExit) as excinfo:
            main(["compare", "-w", "bfs", "-p", "MAGIC", "-n", "20000",
                  "--cache-dir", str(tmp_path)])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "runner.retry" not in err
        assert err.count("\n") == 1 and "unknown policy 'MAGIC'" in err
        assert not list(tmp_path.glob("runs/*/manifest.json"))


class TestFractionCount:
    """``make_spec`` holds the topology, so it checks that a fraction
    vector, a policy's own or an ONLINE ``initial=``, gives one
    fraction per zone, before any run."""

    @pytest.mark.parametrize("spec", [
        "BW-AWARE@0.2,0.3,0.5", "bw-aware-counter@0.2,0.3,0.5",
        "BW-AWARE@1.0", "ONLINE@initial=BW-AWARE@0.2,0.3,0.5",
        "ONLINE@cost=0.1,initial=BW-AWARE-COUNTER@0.2,0.3,0.5",
    ])
    def test_wrong_count_raises_on_the_baseline(self, spec):
        with pytest.raises(PolicyError, match="for 2 zones"):
            make_spec("bfs", spec)

    def test_count_follows_the_topology(self):
        three = three_pool_topology()
        spec = make_spec("bfs", "ONLINE@initial=BW-AWARE@0.2,0.3,0.5",
                         topology=three)
        assert spec.policy == "ONLINE@initial=BW-AWARE@0.2,0.3,0.5"
        assert make_spec("bfs", "BW-AWARE@0.2,0.3,0.5",
                         topology=three).policy == "BW-AWARE@0.2,0.3,0.5"
        with pytest.raises(PolicyError, match="2 fractions for 3 zones"):
            make_spec("bfs", "BW-AWARE@0.7,0.3", topology=three)
        for spec in ("BW-AWARE", "ONLINE", "ONLINE@initial=LOCAL"):
            assert make_spec("bfs", spec, topology=three).policy == spec

    def test_serve_answers_400(self, service):
        for policy in ("BW-AWARE@0.2,0.3,0.5",
                       "ONLINE@initial=BW-AWARE@0.2,0.3,0.5"):
            with pytest.raises(BadRequestError,
                               match="3 fractions for 2 zones"):
                service.parse_simulate_spec({"workload": "bfs",
                                             "policy": policy})

    @pytest.mark.parametrize("policy", [
        "BW-AWARE@0.2,0.3,0.5", "ONLINE@initial=BW-AWARE@0.2,0.3,0.5"])
    def test_compare_rejects_before_the_runner(self, capsys, tmp_path,
                                               policy):
        from repro.cli import main
        with pytest.raises(SystemExit) as excinfo:
            main(["compare", "-w", "bfs", "-p", policy, "-n", "20000",
                  "--cache-dir", str(tmp_path)])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "runner.retry" not in err
        assert err.count("\n") == 1 and "3 fractions for 2 zones" in err
        assert not list(tmp_path.glob("runs/*/manifest.json"))


def test_policies_never_import_the_runner():
    """The grammar lives below the runner: importing every module of
    ``repro.policies`` and driving the grammar through ONLINE's nested
    initial spec loads no ``repro.runner`` module."""
    code = (
        "import importlib, pkgutil, sys\n"
        "import repro.policies as pkg\n"
        "for m in pkgutil.iter_modules(pkg.__path__):\n"
        "    importlib.import_module('repro.policies.' + m.name)\n"
        "from repro.policies.registry import make_policy\n"
        "online = make_policy('ONLINE@initial=bw-aware@0.7,0.3')\n"
        "online.initial_policy()\n"
        "online.describe()\n"
        "print(' '.join(m for m in sys.modules "
        "if m.startswith('repro.runner')))\n"
    )
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60,
                          check=True)
    assert done.stdout.split() == []
