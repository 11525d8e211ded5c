"""The target registry: one spec per name across every subcommand, one
exit-2 usage error for unknown names, and output paths checked before
a command runs."""

import re

import pytest

import repro.analysis
import repro.analysis.effects
import repro.cli
from repro.cli import main
from repro.systems.registry import SYSTEMS
from repro.tlaplus import check


class _Resolved(Exception):
    def __init__(self, spec):
        self.spec = spec


def _resolved_spec(monkeypatch, argv, module, attr, spec_of):
    """Run ``mocket argv`` up to the call of ``module.attr`` and return
    the spec that call received."""
    def intercept(arg, *args, **kwargs):
        raise _Resolved(spec_of(arg))

    with monkeypatch.context() as patch:
        patch.setattr(module, attr, intercept)
        with pytest.raises(_Resolved) as caught:
            main(argv)
    return caught.value.spec


def _spec_key(spec):
    return spec.name, dict(spec.constants)


@pytest.mark.slow
@pytest.mark.parametrize("system", tuple(SYSTEMS))
def test_every_consumer_resolves_the_same_spec(system, monkeypatch, capsys):
    def same(spec):
        return spec

    specs = {
        "test": _resolved_spec(monkeypatch, ["test", system],
                               repro.cli, "check", same),
        "lint": _resolved_spec(monkeypatch, ["lint", system],
                               repro.analysis, "run_lint",
                               lambda ctx: ctx.spec),
        "analyze": _resolved_spec(monkeypatch, ["analyze", system],
                                  repro.analysis.effects, "analyze_spec",
                                  same),
        "conform": _resolved_spec(monkeypatch,
                                  ["conform", "-", "--spec", system],
                                  repro.cli, "check", same),
    }
    expected = _spec_key(specs["test"])
    for command, spec in specs.items():
        assert _spec_key(spec) == expected, command

    capsys.readouterr()
    assert main(["check", SYSTEMS[system].model]) == 0
    out = capsys.readouterr().out
    states, edges = map(int, re.search(r"(\d+) states, (\d+) edges",
                                       out).groups())
    graph = check(specs["test"]).graph
    assert (graph.num_states, graph.num_edges) == (states, edges)


@pytest.mark.parametrize("argv", [
    ["check", "nosuch"],
    ["testgen", "nosuch"],
    ["test", "nosuch"],
    ["test", "--system", "nosuch"],
    ["faults", "plan", "nosuch"],
    ["faults", "run", "nosuch"],
    ["faults", "replay", "nosuch", "--plan", "p.json"],
    ["faults", "shrink", "nosuch", "--plan", "p.json"],
    ["fuzz", "nosuch"],
    ["soak", "pyxraft"],
])
def test_unknown_target_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: mocket")
    assert "invalid choice" in err and "(choose from" in err


@pytest.mark.parametrize("argv", [
    ["faults", "plan", "toycache"],
    ["fuzz", "toycache"],
])
def test_unknown_bug_flag_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--bug", "bug_nope"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: mocket")
    assert "unknown bug 'bug_nope' for toycache" in err
    assert "bug_wrong_max" in err


def test_bug_flags_come_from_the_config_classes():
    assert SYSTEMS["toycache"].bug_flags() == (
        "bug_wrong_max", "bug_forget_respond", "bug_double_respond")
    assert SYSTEMS["minizk"].bug_flags() == (
        "bug_rebroadcast_on_worse_vote", "bug_epoch_mismatch_abort")


class TestOutputPaths:
    def _rejected(self, argv, capsys, message):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == ""          # the command never ran

    @pytest.mark.parametrize("command", [["check", "example"],
                                         ["test", "toycache"],
                                         ["soak", "raftkv"]])
    def test_trace_into_missing_directory(self, command, tmp_path, capsys):
        path = str(tmp_path / "missing" / "t.jsonl")
        self._rejected(command + ["--trace", path], capsys,
                       "argument --trace: no such directory")

    def test_empty_trace_path(self, capsys):
        self._rejected(["check", "example", "--trace", ""], capsys,
                       "argument --trace: empty path")

    def test_trace_into_a_directory(self, tmp_path, capsys):
        self._rejected(["check", "example", "--trace", str(tmp_path)],
                       capsys, "is a directory")

    @pytest.mark.parametrize("command", [["check", "example"],
                                         ["analyze", "example"]])
    def test_dot_into_missing_directory(self, command, tmp_path, capsys):
        path = str(tmp_path / "missing" / "g.dot")
        self._rejected(command + ["--dot", path], capsys,
                       "argument --dot: no such directory")
