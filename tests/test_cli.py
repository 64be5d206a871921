import contextlib
import errno
import importlib.util
import io
import json
import os
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from bdi_pentest import cli
from bdi_pentest.cli import main
from bdi_pentest.terms import MAX_SIZE

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

SCENARIO_FILE = str(SCENARIOS / "single_target.yaml")
AGENT = str(SCENARIOS / "single_target_agent.asl")
HARDENED = str(SCENARIOS / "hardened.yaml")

SIM1_TRACE = """\
[bdi_agent] current privilege is :none
[bdi_agent] start to information gathering stage...
[bdi_agent] probe target os ...
[bdi_agent] target system is :linux
[bdi_agent] Probe the target port...
[bdi_agent] The target port are :80
[bdi_agent] The target port are :22
[bdi_agent] The target port are :3306
[bdi_agent] probe the target service...
[bdi_agent] The target service is :nginx
[bdi_agent] The target service is :ssh
[bdi_agent] The target service is :mysql
[bdi_agent] probe target vulnerability...
[bdi_agent] The target remote vulnerability is :cve_remote
[bdi_agent] The target local vulnerability is :cve_local
[bdi_agent] starting password attack on ssh
[bdi_agent] The rate of ssh password attack is 0.13183533644420975
[bdi_agent] password attack on ssh is failed
[bdi_agent] starting remote buffer overflow attack...
[bdi_agent] The rate of remote buffer overflow attack is 0.6
[bdi_agent] remote buffer overflow attack is successful
[bdi_agent] The current privilege is : root
[bdi_agent] we are successful!"""


def run_cli(*argv):
    return main(list(argv))


def test_successful_run_exits_zero(capsys, tmp_path):
    report_path = tmp_path / "report.json"
    code = run_cli("--scenario", SCENARIO_FILE, "--agent", AGENT,
                   "--draws", "0.13183533644420975,0.6",
                   "--format", "machine", "--report", str(report_path))
    assert code == 0
    assert capsys.readouterr().out.rstrip("\n") == SIM1_TRACE
    doc = json.loads(report_path.read_text())
    assert doc["result"] == "goal-achieved"
    assert doc["final_privilege"] == "root"


def test_an_empty_draw_between_commas_is_skipped(capsys):
    outputs = []
    for draws in ("0.13183533644420975,,0.6", "0.13183533644420975,0.6"):
        assert run_cli("--scenario", SCENARIO_FILE, "--agent", AGENT, "--draws", draws) == 0
        outputs.append(capsys.readouterr())
    assert outputs[0] == outputs[1]
    assert outputs[0].out.startswith(SIM1_TRACE)


@pytest.mark.parametrize("draws", ["-0.0,0.6", "-0,0.6", "-0e3,0.6"])
def test_a_negative_zero_draw_is_read_as_zero(capsys, draws):
    outputs = []
    for text in (draws, "0.0,0.6"):
        assert run_cli("--scenario", SCENARIO_FILE, "--agent", AGENT, f"--draws={text}",
                       "--format", "machine") == 0
        outputs.append(capsys.readouterr())
    assert outputs[0] == outputs[1]
    assert "The rate of ssh password attack is 0.0\n" in outputs[0].out
    assert '"draw": 0.0' in outputs[0].out


def test_hardened_run_exits_one(capsys):
    code = run_cli("--scenario", HARDENED, "--agent", AGENT)
    assert code == 1
    out = capsys.readouterr().out
    assert "result: exhausted" in out
    assert "final privilege: none" in out


def test_missing_scenario_argument_is_usage_error(capsys):
    with pytest.raises(SystemExit) as e:
        run_cli("--agent", AGENT)
    assert e.value.code == 2
    assert "--scenario" in capsys.readouterr().err


def test_unreadable_scenario_exits_two(capsys):
    code = run_cli("--scenario", "/no/such/file.yaml", "--agent", AGENT)
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_invalid_config_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text("targets: []\n")
    code = run_cli("--scenario", str(bad), "--agent", AGENT)
    assert code == 2
    assert "targets" in capsys.readouterr().err


def test_bad_agent_program_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.asl"
    bad.write_text("+!g : <- act.\n")
    code = run_cli("--scenario", SCENARIO_FILE, "--agent", str(bad))
    assert code == 2


def test_out_of_range_draw_exits_two(capsys):
    code = run_cli("--scenario", SCENARIO_FILE, "--agent", AGENT, "--draws", "1.5")
    assert code == 2
    assert "outside" in capsys.readouterr().err


def test_trace_file_written(tmp_path, capsys):
    trace_path = tmp_path / "trace.txt"
    code = run_cli("--scenario", SCENARIO_FILE, "--agent", AGENT,
                   "--draws", "0.13183533644420975,0.6",
                   "--trace", str(trace_path), "--report", str(tmp_path / "r.txt"))
    assert code == 0
    assert trace_path.read_text().rstrip("\n") == SIM1_TRACE


def test_repeat_prints_summary(capsys):
    code = run_cli("--scenario", SCENARIO_FILE, "--agent", AGENT,
                   "--repeat", "50", "--seed", "0")
    assert code == 0
    out = capsys.readouterr().out.strip()
    assert out.startswith("goal-achieved ") and "/50" in out


def test_repeat_exits_zero_whatever_the_ratio(capsys):
    code = run_cli("--scenario", HARDENED, "--agent", AGENT, "--repeat", "3")
    assert code == 0
    assert capsys.readouterr().out == "goal-achieved 0/3 (0.0000)\n"


ONE_TARGET = "targets:\n  - {name: t, os: linux}\n"


NON_GROUND_GOAL = "!g. !h(X). +!g : true <- .print(ok).\n"
UNSAFE_EQUALS = "!g. +!g : X = Y <- !h(X).\n"
CHAINED_EQUALS = ("!g. +!g : f(" + ", ".join(f"X{i}" for i in range(1, 31)) + ") = f("
                  + ", ".join(f"g(X{i}, X{i})" for i in range(2, 31)) + ", a) <- +g.\n")


def _no_batch(*args, **kwargs):
    raise AssertionError("run_batch reached with invalid input")


@pytest.mark.parametrize("flags,scenario_text,agent_text,named", [
    (["--repeat", "0"], None, None, "--repeat"),
    (["--repeat", "-2"], None, None, "--repeat"),
    ([], None, "port(80).\n+!g : true <- act.\n", "no initial goal"),
    ([], "seed: true\n" + ONE_TARGET, None, "seed"),
    ([], "max_cycles: true\n" + ONE_TARGET, None, "max_cycles"),
    (["--seed", "-1"], None, None, "--seed"),
    (["--max-cycles", "0"], None, None, "--max-cycles"),
    (["--workers", "0", "--repeat", "2"], None, None, "--workers"),
    (["--workers", str((os.cpu_count() or 1) + 1), "--repeat", "2"], None, None,
     "--workers"),
    (["--report", "{missing}/r.txt"], None, None, "missing"),
    (["--trace", "{missing}/t.txt"], None, None, "missing"),
    (["--draws", "0.5,abc"], None, None, "--draws"),
    (["--draws", "1.5"], None, None, "--draws"),
    # --repeat takes only --seed and --workers; it would ignore the rest.
    (["--repeat", "3", "--report", "{missing}/r.txt"], None, None, "--report"),
    (["--repeat", "3", "--trace", "{missing}/t.txt"], None, None, "--trace"),
    (["--repeat", "3", "--format", "human"], None, None, "--format"),
    (["--repeat", "3", "--draws", "0.99,0.99"], None, None, "--draws"),
    (["--repeat", "3", "--max-cycles", "5"], None, None, "--max-cycles"),
    # Every seed of the batch must lie in the seed range, whether the base
    # seed comes from the flag or from the YAML.
    (["--repeat", "3", "--seed", str(2 ** 64 - 1)], None, None, "--repeat"),
    (["--repeat", "2"], f"seed: {2 ** 64 - 1}\n" + ONE_TARGET, None, "--repeat"),
    # --workers without --repeat would be ignored.
    (["--workers", "2"], None, None, "--workers"),
    # Nesting past the parser's cap is refused where it passes the cap.
    ([], None, "!g.\n+!g : " + "not " * 3000 + "a <- act.\n", "nested more than"),
    ([], None, "!g.\n" + "p(" * 2000 + "a" + ")" * 2000 + ".\n", "nested more than"),
    ([], None, "!g.\n+!g : " + "a & " * 3000 + "a <- act.\n", "nested more than"),
    # YAML nested past 16 levels, in text or through aliases, is refused
    # where it gets too deep, and a YAML error is one line.
    ([], "targets: " + "[" * 5000 + "]" * 5000 + "\n", None, "nested more than 16"),
    ([], "".join("  " * i + f"k{i}:\n" for i in range(3000)), None, "nested more than 16"),
    ([], "targets: [&a0 [1], " + ", ".join(f"&a{i} [*a{i - 1}]" for i in range(1, 3000))
     + "]\nseed: *a2999\n", None, "nested more than 16"),
    ([], "targets: [\n", None, "invalid YAML"),
    # An integer with more digits than Python converts is refused at its
    # position, in the YAML and in the agent text.
    ([], "seed: 1" + "0" * 5000 + "\n" + ONE_TARGET, None, "line 1, column 7"),
    ([], "seed: 0x" + "f" * 5000 + "\n" + ONE_TARGET, None, "line 1, column 7"),
    ([], "targets:\n  - {name: t, os: linux, ports: [0b" + "1" * 20000 + "]}\n", None,
     "line 2, column 34"),
    ([], None, "!g. +!g : X = 1" + "0" * 5000 + " <- true.\n", "1:15"),
    ([], "name: \x01\n", None, "invalid YAML"),
    # libyaml places a character it refuses by its byte offset; the line
    # names its line and column, here past a two-byte character.
    ([], "name: \u00e9\x01\n", None, "line 1, column 8"),
    # A refused value is echoed shortened, however long it is.
    ([], "seed: [" + ", ".join(map(str, range(1, 20001))) + "]\n" + ONE_TARGET, None,
     "<root>.seed"),
    ([], None, '!g.\n+!g : true <- "' + "a" * 100_000 + '".\n', "2:15"),
    ([], "? " + "a" * 100_000 + "\n: 1\n" + ONE_TARGET, None, "unknown field"),
    ([], "? " + "*" + "a" * 100_000 + "\n: 1\n" + ONE_TARGET, None, "undefined alias"),
    ([], "x: &" + "q" * 100_000 + " 1\ny: &" + "q" * 100_000 + " 2\n", None,
     "duplicate anchor"),
    # A name the parser refuses is echoed shortened too.
    ([], None, "!g.\n+!g : true <- ." + "p" * 100_000 + "(x).\n", "unknown internal action"),
    ([], None, "!g.\n" + ("@" + "l" * 100_000 + " +!g <- act.\n") * 2, "duplicate plan label"),
    ([], None, "!g.\n+!g : true <- act(" + "X" * 100_000 + ").\n", "is not bound by"),
    ([], None, "!g.\n+!g : " + "X" * 100_000 + " < 3 <- act.\n", "is not bound before '<'"),
    # Agents that would post a non-ground event, and an `=` whose sides
    # chain 30 variables, are refused at their statement.
    ([], None, NON_GROUND_GOAL, "1:5: initial goals must be ground"),
    ([], None, UNSAFE_EQUALS, "1:5: each side of '='"),
    ([], None, CHAINED_EQUALS, "1:5: each side of '='"),
], ids=["repeat-zero", "repeat-negative", "no-goal", "yaml-seed-bool",
        "yaml-max-cycles-bool", "seed-negative", "max-cycles-zero", "workers-zero",
        "workers-above-cpu-count", "report-unwritable", "trace-unwritable",
        "draws-not-a-number", "draws-out-of-range", "repeat-with-report",
        "repeat-with-trace", "repeat-with-format", "repeat-with-draws",
        "repeat-with-max-cycles", "repeat-past-seed-range", "repeat-past-yaml-seed-range",
        "workers-without-repeat", "nested-not", "nested-term", "long-conjunction",
        "deep-yaml-list", "deep-yaml-mapping", "yaml-alias-chain", "yaml-syntax-error",
        "yaml-huge-integer", "yaml-hex-integer", "yaml-binary-port", "agent-huge-integer",
        "yaml-control-character", "yaml-control-character-after-multibyte",
        "yaml-long-value", "agent-long-string", "yaml-long-key", "yaml-long-alias",
        "yaml-long-duplicate-anchor", "agent-long-internal-action", "agent-long-label",
        "agent-long-variable", "agent-long-compared-variable",
        "non-ground-goal", "unsafe-equals",
        "chained-equals"])
def test_bad_input_exits_two_with_one_error_line(tmp_path, capsys, monkeypatch, flags,
                                                 scenario_text, agent_text, named):
    # Rejected input must never reach run_batch, which may start worker processes.
    monkeypatch.setattr(cli, "run_batch", _no_batch)
    scenario, agent = SCENARIO_FILE, AGENT
    if scenario_text is not None:
        scenario = tmp_path / "scenario.yaml"
        scenario.write_text(scenario_text)
    if agent_text is not None:
        agent = tmp_path / "agent.asl"
        agent.write_text(agent_text)
    flags = [f.format(missing=tmp_path / "missing") for f in flags]
    code = run_cli("--scenario", str(scenario), "--agent", str(agent), *flags)
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    # The line holds at most a shortened echo of the input, whatever its size.
    assert len(captured.err) < 300
    # A flag's error line names the flag first.
    if named.startswith("--"):
        assert captured.err.startswith(f"error: {named}: ")
    assert named in captured.err


DOUBLING_BELIEF = "c(a). !g. +!g : c(X) & not c(f(X, X)) <- +c(f(X, X)); !g.\n"


@pytest.mark.parametrize("agent_text,max_cycles", [
    # A number too large for a float, compared exactly.
    ("!g.\n+!g : 1" + "0" * 400 + " < 1 <- report.\n", 1000),
    # Terms that grow one level per cycle fail the step that would make
    # them deeper than the run-time cap, and the run ends.
    ("c(a). !g. +!g : c(X) & not c(f(X)) <- +c(f(X)); !g.\n", 1000),
    ("!g(a). +!g(X) : true <- !g(f(X)).\n", 1000),
    # A belief that doubles in size each time round fails the step that
    # would make it larger than the size cap, and the run ends by cycle 36.
    (DOUBLING_BELIEF, 38),
], ids=["huge-integer", "growing-belief", "growing-goal", "doubling-belief"])
def test_run_ends_with_exit_one(tmp_path, capsys, agent_text, max_cycles):
    agent = tmp_path / "agent.asl"
    agent.write_text(agent_text)
    code = run_cli("--scenario", SCENARIO_FILE, "--agent", str(agent),
                   "--max-cycles", str(max_cycles))
    captured = capsys.readouterr()
    assert code == 1 and captured.err == ""
    assert "result: exhausted" in captured.out
    # A term within the size cap prints in a few characters per node.
    assert max(map(len, captured.out.splitlines())) < 4 * MAX_SIZE


# --- property: no input escapes as a traceback ------------------------------

DEEP_YAML_LIST = "targets: " + "[" * 5000 + "]" * 5000 + "\n"
DEEP_YAML_MAPPING = "".join("  " * i + f"k{i}:\n" for i in range(3000))
HUGE_INTEGER = "!g.\n+!g : 1" + "0" * 400 + " < 1 <- report.\n"
GROWING_BELIEF = "c(a). !g. +!g : c(X) & not c(f(X)) <- +c(f(X)); !g.\n"
GROWING_GOAL = "!g(a). +!g(X) : true <- !g(f(X)).\n"

_SCENARIO_SEEDS = [(SCENARIOS / f).read_text()
                   for f in ("single_target.yaml", "hardened.yaml", "campaign.yaml")]
_SCENARIO_SEEDS += [DEEP_YAML_LIST, DEEP_YAML_MAPPING]
_AGENT_SEEDS = [(SCENARIOS / f).read_text()
                for f in ("single_target_agent.asl", "campaign_agent.asl")]
_AGENT_SEEDS += [HUGE_INTEGER, GROWING_BELIEF, GROWING_GOAL, DOUBLING_BELIEF,
                 NON_GROUND_GOAL, UNSAFE_EQUALS]

# Characters that mean something to YAML or to the plan language, and a few
# that mean nothing to either.
_NOISE = st.text("[]{}()<>,:;.!?+-*&|=~@#%'\"\\ \n\t0123456789aXz_é٣\x00", max_size=6)


@st.composite
def _mutated(draw, seeds):
    """A seed text with up to three spans deleted, repeated or replaced."""
    text = draw(st.sampled_from(seeds))
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(text)))
        j = draw(st.integers(i, min(len(text), i + 40)))
        middle = draw(st.sampled_from(["", text[i:j] * 2, draw(_NOISE)]))
        text = text[:i] + middle + text[j:]
    return text


@settings(max_examples=40, deadline=None)
@given(_mutated(_SCENARIO_SEEDS), _mutated(_AGENT_SEEDS))
@example(DEEP_YAML_LIST, _AGENT_SEEDS[0])
@example(DEEP_YAML_MAPPING, _AGENT_SEEDS[0])
@example(_SCENARIO_SEEDS[0], HUGE_INTEGER)
def test_no_input_escapes_as_a_traceback(scenario_text, agent_text):
    with tempfile.TemporaryDirectory() as d:
        scenario, agent = Path(d) / "scenario.yaml", Path(d) / "agent.asl"
        scenario.write_text(scenario_text)
        agent.write_text(agent_text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run_cli("--scenario", str(scenario), "--agent", str(agent),
                           "--max-cycles", "200")
    assert code in (0, 1, 2)
    if code == 2:
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
    else:
        assert err.getvalue() == ""


def _failing_run(*args, **kwargs):
    raise RuntimeError("run failed")


def test_existing_report_kept_when_the_run_fails(tmp_path, monkeypatch):
    report = tmp_path / "r.txt"
    report.write_text("old report\n")
    monkeypatch.setattr(cli, "run_scenario", _failing_run)
    with pytest.raises(RuntimeError):
        run_cli("--scenario", SCENARIO_FILE, "--agent", AGENT, "--report", str(report))
    assert report.read_text() == "old report\n"


@pytest.mark.parametrize("existing", [False, True])
def test_trace_and_report_naming_one_file_is_refused(tmp_path, capsys, monkeypatch, existing):
    # Written in turn, the report would overwrite the trace.
    monkeypatch.chdir(tmp_path)
    if existing:
        Path("same.txt").write_text("old\n")
    assert run_cli("--scenario", SCENARIO_FILE, "--agent", AGENT, "--seed", "3",
                   "--trace", "same.txt", "--report", "./same.txt") == 2
    assert capsys.readouterr() == ("", "error: --report: names the same file as --trace\n")
    assert [p.name for p in tmp_path.iterdir()] == (["same.txt"] if existing else [])
    assert not existing or Path("same.txt").read_text() == "old\n"


@pytest.mark.parametrize("existing", [False, True])
def test_refused_output_path_leaves_no_new_file_behind(tmp_path, capsys, existing):
    trace = tmp_path / "trace.txt"
    if existing:
        trace.write_text("old trace\n")
    report = tmp_path / "missing" / "x"
    assert run_cli("--scenario", SCENARIO_FILE, "--agent", AGENT,
                   "--trace", str(trace), "--report", str(report)) == 2
    assert capsys.readouterr().err == \
        f"error: [Errno 2] No such file or directory: '{report}'\n"
    assert [p.name for p in tmp_path.iterdir()] == (["trace.txt"] if existing else [])
    assert not existing or trace.read_text() == "old trace\n"


@pytest.mark.parametrize("flag", ["--report", "--trace"])
def test_output_that_fails_on_write_exits_two_with_one_error_line(tmp_path, capsys,
                                                                  monkeypatch, flag):
    # Like --report /dev/full: the path opens for append, then the write fails.
    def full(self, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(cli.Path, "write_text", full)
    path = str(tmp_path / "out.txt")
    assert run_cli("--scenario", SCENARIO_FILE, "--agent", AGENT, flag, path) == 2
    err = capsys.readouterr().err
    assert err == f"error: {path}: {os.strerror(errno.ENOSPC)}\n"


def _load_monte_carlo():
    path = Path(__file__).resolve().parent.parent / "scripts" / "monte_carlo.py"
    spec = importlib.util.spec_from_file_location("monte_carlo", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("flags,named", [
    (["--runs", "0"], "--runs"),
    (["--runs", "-5"], "--runs"),
    (["--workers", "0"], "--workers"),
    (["--workers", str((os.cpu_count() or 1) + 1)], "--workers"),
], ids=["runs-zero", "runs-negative", "workers-zero", "workers-above-cpu-count"])
def test_monte_carlo_bad_input_exits_two_with_one_error_line(capsys, monkeypatch, flags, named):
    monte_carlo = _load_monte_carlo()
    monkeypatch.setattr(monte_carlo, "run_batch", _no_batch)
    assert monte_carlo.main(flags) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert named in captured.err
