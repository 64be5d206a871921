"""End-to-end acceptance gate.

Each test checks one headline behavior at its stated tolerance and prints a
single pass line (visible with `pytest -s` or in captured output). The two
100,000-sample checks take about 28-35 seconds combined (criterion 4 about
26-33 s, criterion 3 about 2 s) on one CPU of a shared 2-vCPU machine with
Python 3.11.
"""

import time
from pathlib import Path

from hypothesis import given, settings, strategies as st

from bdi_pentest.actions import Privilege, resolve_attack
from bdi_pentest.cli import main as cli_main
from bdi_pentest.parser import parse_program
from bdi_pentest.runner import EXHAUSTED, GOAL_ACHIEVED, run_batch, run_scenario
from bdi_pentest.targets import RunRng

REPO = Path(__file__).resolve().parent.parent
AGENT = str(REPO / "scenarios" / "single_target_agent.asl")
HARDENED = str(REPO / "scenarios" / "hardened.yaml")
DATA = Path(__file__).resolve().parent / "data"

N_SAMPLES = 100_000

SIM1_DRAWS = (0.13183533644420975, 0.6)
SIM2_DRAWS = (0.9, 0.35, 0.7)

EXPECTED_FINAL_BELIEFS = {
    "password_attack_failed",
    'attacked("cve_remote")',
    "ostype(linux)",
    "port(22)",
    "port(80)",
    "port(3306)",
    "privilege(root)",
    "service(mysql)",
    "service(nginx)",
    "service(ssh)",
    "vulnerability(cve_local)",
    "vulnerability(cve_remote)",
}


def _ok(n, text):
    print(f"PASS criterion {n}: {text}")


def _plain(belief_line):
    return belief_line.split("[")[0]


def test_criterion_1_single_target_run(single_target_scenario, single_target_program):
    started = time.perf_counter()
    report, trace = run_scenario(single_target_scenario, single_target_program, draws=SIM1_DRAWS)
    elapsed = time.perf_counter() - started

    attempts = [(s["action"], tuple(s["args"]), s["outcome"]) for s in report.steps
                if s["draw"] is not None]
    assert attempts == [
        ("password_attack", ("ssh",), "failure"),
        ("bof_attack", ("cve_remote", "remote"), "success"),
    ]
    assert not any(s["action"] == "bof_attack" and s["args"][1] == "local"
                   for s in report.steps)
    assert report.result == GOAL_ACHIEVED
    assert report.final_privilege == "root"
    assert {_plain(b) for b in report.final_beliefs} == EXPECTED_FINAL_BELIEFS
    assert len(report.final_beliefs) == 12
    assert elapsed < 1.0
    _ok(1, f"password fails, remote overflow roots, 12 final beliefs "
           f"({elapsed * 1000:.0f} ms)")


def test_criterion_2_escalation_path(single_target_scenario, single_target_program):
    started = time.perf_counter()
    report, _ = run_scenario(single_target_scenario, single_target_program, draws=SIM2_DRAWS)
    elapsed = time.perf_counter() - started

    path = []
    for s in report.steps:
        if not path or path[-1] != s["privilege_after"]:
            path.append(s["privilege_after"])
    assert path == ["none", "user", "root"]
    bofs = [(s["args"][1], s["outcome"]) for s in report.steps if s["action"] == "bof_attack"]
    assert bofs == [("local", "success"), ("remote", "success")]
    assert elapsed < 1.0
    _ok(2, f"privilege path none -> user -> root, both overflow modes succeed "
           f"({elapsed * 1000:.0f} ms)")


def test_criterion_3_per_attempt_success_rates(single_target_scenario):
    tables = single_target_scenario.tables[single_target_scenario.targets[0].name]

    def rate(action, args, privilege):
        rng = RunRng(20260823)
        return sum(resolve_attack(single_target_scenario, tables, action, args,
                                  privilege, rng)[0]
                   for _ in range(N_SAMPLES)) / N_SAMPLES

    password = rate("password_attack", ("ssh",), Privilege.NONE)
    remote = rate("bof_attack", ("cve_remote", "remote"), Privilege.NONE)
    local = rate("bof_attack", ("cve_local", "local"), Privilege.USER)

    assert abs(password - 0.200) < 0.005
    assert abs(remote - 0.500) < 0.005
    assert abs(local - 0.700) < 0.005
    _ok(3, f"attempt rates password={password:.4f} remote={remote:.4f} "
           f"local={local:.4f} (each within 0.005)")


def _attack_tree_success_probability(p_password, p_local, p_remote):
    """Brute-force enumeration over the three chance points: root is reached
    iff the remote overflow lands, or the password attack lands and the
    follow-up local overflow lands."""
    total = 0.0
    for password_ok in (True, False):
        for local_ok in (True, False):
            for remote_ok in (True, False):
                p = ((p_password if password_ok else 1 - p_password)
                     * (p_local if local_ok else 1 - p_local)
                     * (p_remote if remote_ok else 1 - p_remote))
                if remote_ok or (password_ok and local_ok):
                    total += p
    return total


def test_criterion_4_full_run_success_fraction(single_target_scenario, single_target_program):
    expected = _attack_tree_success_probability(0.2, 0.7, 0.5)
    assert abs(expected - (1 - (1 - 0.5) * (1 - 0.2 * 0.7))) < 1e-12

    results = run_batch(single_target_scenario, single_target_program, range(N_SAMPLES))
    fraction = sum(r == GOAL_ACHIEVED for r in results) / N_SAMPLES
    assert abs(fraction - expected) < 0.005
    _ok(4, f"full-run success fraction {fraction:.4f} vs closed form "
           f"{expected:.3f} (within 0.005)")


def test_criterion_5_plan_program_shape():
    program = parse_program((DATA / "gathering_attack.asl").read_text())
    assert len(program.plans) == 6
    assert len(program.beliefs) == 1
    assert len(program.goals) == 1
    _ok(5, "gathering-and-attack program parses into 6 plans, "
           "1 initial belief, 1 initial goal")


def test_criterion_6_behavioral_properties(single_target_scenario, single_target_program):
    # Determinism: same seed, byte-identical trace and report.
    for seed in range(30):
        a_report, a_trace = run_scenario(single_target_scenario, single_target_program, seed=seed)
        b_report, b_trace = run_scenario(single_target_scenario, single_target_program, seed=seed)
        assert "\n".join(a_trace) == "\n".join(b_trace)
        assert a_report == b_report

    # Privilege monotonicity along every run.
    for seed in range(200):
        report, _ = run_scenario(single_target_scenario, single_target_program, seed=seed)
        levels = [Privilege[s["privilege_after"].upper()] for s in report.steps]
        assert all(a <= b for a, b in zip(levels, levels[1:]))

    # Failure recovery terminates without reselecting a plan for its event.
    from bdi_pentest.reasoner import RUNNING, init_agent, reasoning_cycle

    class _Env:
        def __init__(self, outcomes):
            self.outcomes = outcomes
            self.calls = []

        def execute(self, name, args):
            self.calls.append(name)
            return self.outcomes[name], []

        def log(self, message):
            pass

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.booleans(), min_size=1, max_size=5))
    def no_plan_retried(succeeds):
        plans = "".join(
            f"@p{i}\n+!g : true <- act_{i}; +g.\n" if ok else
            f"@p{i}\n+!g : true <- act_{i}.\n"
            for i, ok in enumerate(succeeds))
        env = _Env({f"act_{i}": ok for i, ok in enumerate(succeeds)})
        state = init_agent(parse_program("!g.\n" + plans))
        result = RUNNING
        while state.cycle_count < 200 and result == RUNNING:
            result = reasoning_cycle(state, env)
        assert len(env.calls) == len(set(env.calls))
        assert result == (GOAL_ACHIEVED if any(succeeds) else EXHAUSTED)

    no_plan_retried()
    _ok(6, "determinism, privilege monotonicity, and failure-recovery "
           "termination hold (unification and belief-model laws covered "
           "in their unit suites)")


def test_criterion_7_hardened_target(hardened_scenario, single_target_program):
    report, _ = run_scenario(hardened_scenario, single_target_program)
    assert report.result == EXHAUSTED
    assert report.final_privilege == "none"
    exit_code = cli_main(["--scenario", HARDENED, "--agent", AGENT,
                          "--report", "/dev/null"])
    assert exit_code == 1
    _ok(7, "hardened target exhausts the plan library at privilege none, "
           "exit code 1")
