"""The command-line interface."""

import argparse

import pytest

from repro.cli import build_parser, main
from repro.policies.registry import policy_names


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


class TestList:
    def test_workloads(self, capsys):
        code, out = run_cli(capsys, "list", "workloads")
        assert code == 0
        assert "bfs" in out and "sgemm" in out
        # 19 paper workloads + the 2 dynamic scenarios.
        assert len(out.strip().splitlines()) == 21
        assert "phase_shift" in out

    def test_policies(self, capsys):
        code, out = run_cli(capsys, "list", "policies")
        assert code == 0
        assert "BW-AWARE" in out and "ORACLE" in out

    def test_experiments(self, capsys):
        code, out = run_cli(capsys, "list", "experiments")
        assert code == 0
        assert "fig03_ratio_sweep" in out
        assert "ext_migration" in out

    def test_topologies(self, capsys):
        code, out = run_cli(capsys, "list", "topologies")
        assert code == 0
        assert "baseline" in out and "three-pool" in out

    def test_bad_kind_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["list", "kernels"])


class TestRun:
    def test_basic_run(self, capsys):
        code, out = run_cli(
            capsys, "run", "-w", "lbm", "-p", "BW-AWARE", "-n", "20000"
        )
        assert code == 0
        assert "lbm" in out and "GB/s" in out

    def test_capacity_and_topology(self, capsys):
        code, out = run_cli(
            capsys, "run", "-w", "bfs", "-p", "ORACLE",
            "-c", "0.1", "-t", "baseline", "-n", "20000",
        )
        assert code == 0
        assert "ORACLE" in out

    def test_unknown_topology(self, capsys):
        with pytest.raises(SystemExit):
            main(["run", "-w", "lbm", "-t", "laptop"])

    def test_unknown_policy_raises(self, capsys):
        """A library error exits 2 with one stderr line naming every
        valid policy, not a traceback."""
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "-w", "lbm", "-p", "MAGIC", "-n", "20000"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("repro run: error: unknown policy 'MAGIC'")
        for name in policy_names():
            assert name in err


class TestCompare:
    def test_default_policy_set(self, capsys, tmp_path):
        code, out = run_cli(capsys, "compare", "-w", "lbm",
                            "-n", "20000", "--cache-dir", str(tmp_path))
        assert code == 0
        assert "LOCAL" in out and "INTERLEAVE" in out
        assert "1.000x" in out  # baseline normalized to itself
        # The sweep cached into the given root, not the working dir.
        assert list(tmp_path.glob("seg-*.log"))
        assert list(tmp_path.glob("runs/*/manifest.json"))

    @pytest.mark.parametrize("verb", ["compare", "run", "profile"])
    def test_oversized_trace_rejected_before_any_work(self, capsys,
                                                      tmp_path, verb):
        """Every ``--accesses`` flag applies the shared request cap, with
        the same message make_spec and the serve parsers give."""
        with pytest.raises(SystemExit) as excinfo:
            main([verb, "-w", "bfs", "-n", str(10 ** 12),
                  *(["--cache-dir", str(tmp_path)]
                    if verb == "compare" else [])])
        assert excinfo.value.code == 2
        assert (f"accesses = {10 ** 12} exceeds the cap of {2 ** 25}"
                in capsys.readouterr().err)
        assert not list(tmp_path.iterdir())  # no sweep ran

    def test_no_shm_runs(self, capsys, tmp_path):
        code, out = run_cli(capsys, "compare", "-w", "bfs", "-n", "20000",
                            "-p", "LOCAL", "--no-shm",
                            "--cache-dir", str(tmp_path))
        assert code == 0
        assert "LOCAL" in out and "1.000x" in out


@pytest.mark.parametrize("argv", [
    ["serve", "--jobs", "2"],
    ["serve", "-j", "2"],
    ["serve", "--chunk-timeout", "5"],
    ["serve", "--shm"],
    ["serve", "--no-shm"],
    ["compare", "-w", "bfs", "--shm"],
    ["figure", "fig03_ratio_sweep", "--shm"],
    ["mix", "a", "b", "--shm"],
])
def test_removed_runner_flags_are_unrecognised(capsys, argv):
    """The daemon runs each simulate in-process, so it takes no worker,
    chunk-budget or arena flags; the sweep verbs keep only ``--no-shm``,
    since the arena is already on by default."""
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


class TestServe:
    @pytest.mark.parametrize("timeout", ["nan", "0"])
    def test_bad_config_exits_with_one_line(self, timeout):
        """A rejected ServeConfig exits cleanly, not with a traceback."""
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--timeout", timeout])
        message = excinfo.value.code
        assert isinstance(message, str)
        assert message.startswith("request_timeout_s must be")
        assert "\n" not in message


class TestAutotune:
    def test_oversized_epochs_rejected(self, capsys):
        """``--epochs`` applies the shared epoch cap, with the same
        message ONLINE@epochs= and /v1/autotune give."""
        with pytest.raises(SystemExit) as excinfo:
            main(["autotune", "-w", "bfs", "--epochs", str(10 ** 12),
                  "--no-save"])
        assert excinfo.value.code == 2
        assert (f"epochs = {10 ** 12} exceeds the cap of 1024"
                in capsys.readouterr().err)


class TestFigure:
    def test_known_figure(self, capsys, tmp_path):
        code, out = run_cli(capsys, "figure", "fig01_topologies",
                            "--cache-dir", str(tmp_path))
        assert code == 0
        assert "BW ratio" in out

    def test_unknown_figure(self, capsys):
        with pytest.raises(SystemExit):
            main(["figure", "fig99_nothing"])


class TestProfile:
    def test_profile_output(self, capsys):
        code, out = run_cli(capsys, "profile", "-w", "bfs",
                            "-n", "20000")
        assert code == 0
        assert "d_graph_visited" in out
        assert "hottest 10%" in out


class TestTrace:
    @pytest.fixture(autouse=True)
    def _registry_root_reset(self):
        """``repro ingest --cache-dir`` sets the process-wide registry
        root; do not leak it into later tests."""
        from repro.ingest import set_default_root

        yield
        set_default_root(None)

    def test_trace_export(self, capsys, tmp_path):
        """``repro trace`` -> ``repro ingest`` -> ``repro run -w
        trace:bfs``: the exported file is an ingestible trace."""
        out_path = tmp_path / "bfs.npz"
        code, out = run_cli(
            capsys, "trace", "-w", "bfs", "-n", "20000",
            "-o", str(out_path),
        )
        assert code == 0
        assert out_path.exists()

        code, out = run_cli(capsys, "ingest", str(out_path),
                            "--cache-dir", str(tmp_path))
        assert code == 0
        assert "admitted trace:bfs#" in out and "[npz]" in out

        code, out = run_cli(capsys, "run", "-w", "trace:bfs",
                            "-p", "BW-AWARE")
        assert code == 0
        assert out.startswith("trace:bfs#")


def _verbs(parser, prefix=()):
    """Every subcommand path of ``parser``, nested ones included."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield prefix + (name,)
                yield from _verbs(sub, prefix + (name,))


class TestHelp:
    """Names a verb imports lazily must not break its parser: an
    argparse ``type=``/``choices=`` callable only runs at parse time."""

    @pytest.mark.parametrize("verb", sorted(_verbs(build_parser())),
                             ids=" ".join)
    def test_help_exits_zero(self, capsys, verb):
        with pytest.raises(SystemExit) as excinfo:
            main([*verb, "--help"])
        assert excinfo.value.code == 0
        assert capsys.readouterr().out.startswith("usage: repro")

    def test_bad_chunk_timeout_keeps_its_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["compare", "-w", "bfs", "--chunk-timeout", "nan"])
        assert excinfo.value.code == 2
        assert ("repro compare: error: argument --chunk-timeout: chunk "
                "timeout must be a number of seconds in (0, "
                in capsys.readouterr().err)
