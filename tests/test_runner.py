import pickle
from pathlib import Path

import pytest

from bdi_pentest import load_scenario, parse_program, reasoner
from bdi_pentest.actions import ACTIONS, PROBE
from bdi_pentest.beliefs import BeliefBase
from bdi_pentest.runner import (
    CYCLE_CAP,
    RunContext,
    EXHAUSTED,
    GOAL_ACHIEVED,
    _run,
    emit_report,
    parse_report,
    run_batch,
    run_scenario,
)

FAILED_DRAW = 0.13183533644420975
SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def test_single_target_run_reaches_root(single_target_scenario, single_target_program):
    report, trace = run_scenario(single_target_scenario, single_target_program,
                                 draws=(FAILED_DRAW, 0.6))
    assert report.result == GOAL_ACHIEVED
    assert report.final_privilege == "root"
    attacks = [(s["action"], tuple(s["args"]), s["outcome"]) for s in report.steps
               if s["draw"] is not None]
    assert attacks == [
        ("password_attack", ("ssh",), "failure"),
        ("bof_attack", ("cve_remote", "remote"), "success"),
    ]
    assert any("remote buffer overflow attack is successful" in line
               for line in trace)


def test_a_target_named_by_an_ip_address_is_probed():
    # A dotted quad lexes as a string; an action names the target by its text.
    scenario = load_scenario('targets:\n  - {name: "192.168.0.10", os: linux}\n')
    program = parse_program('!g. +!g : true <- probe_os(192.168.0.10); .print(192.168.0.10); +g.')
    report, trace = run_scenario(scenario, program)
    assert report.result == GOAL_ACHIEVED
    assert [(s["action"], s["target"]) for s in report.steps] == [("probe_os", "192.168.0.10")]
    assert trace == ["[bdi_agent] target system is :linux", "[bdi_agent] 192.168.0.10"]


def test_privilege_escalation_path(single_target_scenario, single_target_program):
    report, _ = run_scenario(single_target_scenario, single_target_program,
                             draws=(0.9, 0.35, 0.7))
    path = []
    for s in report.steps:
        if not path or path[-1] != s["privilege_after"]:
            path.append(s["privilege_after"])
    assert path == ["none", "user", "root"]
    modes = [s["args"][1] for s in report.steps if s["action"] == "bof_attack"]
    outcomes = [s["outcome"] for s in report.steps if s["action"] == "bof_attack"]
    assert modes == ["local", "remote"] and outcomes == ["success", "success"]


def test_hardened_target_exhausts(hardened_scenario, single_target_program):
    report, trace = run_scenario(hardened_scenario, single_target_program)
    assert report.result == EXHAUSTED
    assert report.final_privilege == "none"
    # No chance-based attempt is possible, so no draw is ever consumed.
    assert all(s["draw"] is None for s in report.steps)


def test_cycle_cap_result(single_target_scenario, single_target_program):
    report, trace = run_scenario(single_target_scenario, single_target_program,
                                 draws=(0.9,), max_cycles=3)
    assert report.result == CYCLE_CAP
    assert trace[-1].endswith("cycle cap of 3 reached")


def test_trace_rate_lines_match_report_draws(single_target_scenario, single_target_program):
    report, trace = run_scenario(single_target_scenario, single_target_program, seed=99)
    rate_lines = [l for l in trace if "The rate of" in l]
    drawn_steps = [s for s in report.steps if s["draw"] is not None]
    assert len(rate_lines) == len(drawn_steps)
    for line, step in zip(rate_lines, drawn_steps):
        assert line.endswith(repr(step["draw"]))


@pytest.mark.parametrize("scenario_file,agent_file,seeds", [
    ("single_target.yaml", "single_target_agent.asl", range(500)),
    ("hardened.yaml", "single_target_agent.asl", range(50)),
    ("campaign.yaml", "campaign_agent.asl", range(200)),
], ids=["single_target", "hardened", "campaign"])
def test_one_draw_per_report_step_with_a_draw(scenario_file, agent_file, seeds):
    scenario = load_scenario((SCENARIOS / scenario_file).read_text())
    program = parse_program((SCENARIOS / agent_file).read_text())
    total = 0
    for seed in seeds:
        _, _, env = _run(scenario, program, seed)
        drawn = sum(s["draw"] is not None for s in env.steps)
        assert env.rng.consumed == drawn, f"seed {seed}"
        # A run that records nothing, as run_batch's, draws the same.
        assert _run(scenario, program, seed, record=False)[2].rng.consumed == drawn, \
            f"seed {seed}"
        total += drawn
    # The hardened target offers no chance-based attempt; the others do.
    assert (total > 0) == (scenario_file != "hardened.yaml")


def test_same_seed_gives_identical_runs(single_target_scenario, single_target_program):
    a = run_scenario(single_target_scenario, single_target_program, seed=7)
    b = run_scenario(single_target_scenario, single_target_program, seed=7)
    assert a[1] == b[1]
    assert emit_report(a[0], "machine") == emit_report(b[0], "machine")


def test_human_report_phrasing(single_target_scenario, single_target_program):
    report, _ = run_scenario(single_target_scenario, single_target_program,
                             draws=(FAILED_DRAW, 0.6))
    text = emit_report(report, "human")
    assert "result: goal-achieved" in text
    assert "final privilege: root" in text
    assert "password attack on ssh is failed" in text
    assert "remote buffer overflow attack is successful" in text


def test_machine_report_round_trips(single_target_scenario, single_target_program):
    report, _ = run_scenario(single_target_scenario, single_target_program, seed=3)
    assert parse_report(emit_report(report, "machine")) == report


def test_run_batch_matches_individual_runs():
    # run_batch builds no report; its results must still be the reports'.
    for scenario_file, agent_file, seeds, results in [
            ("single_target.yaml", "single_target_agent.asl", range(500),
             {GOAL_ACHIEVED, EXHAUSTED}),
            ("hardened.yaml", "single_target_agent.asl", range(50), {EXHAUSTED}),
            ("campaign.yaml", "campaign_agent.asl", range(200), {GOAL_ACHIEVED})]:
        scenario = load_scenario((SCENARIOS / scenario_file).read_text())
        program = parse_program((SCENARIOS / agent_file).read_text())
        singles = [run_scenario(scenario, program, seed=s)[0].result for s in seeds]
        assert set(singles) == results
        for workers in (1, 2):
            assert run_batch(scenario, program, seeds, workers=workers) == singles


# --- the scenario's tables -------------------------------------------------

def _campaign():
    return ((SCENARIOS / "campaign.yaml").read_text(),
            parse_program((SCENARIOS / "campaign_agent.asl").read_text()))


def test_runs_of_one_scenario_add_the_same_percept_objects(monkeypatch):
    # Probe answers are built once, with the scenario, not once per run.
    text, program = _campaign()
    scenario = load_scenario(text)
    functors = {row.facet.functor for row in ACTIONS.values() if row.kind == PROBE}
    added = []
    add = BeliefBase.add
    monkeypatch.setattr(BeliefBase, "add",
                        lambda self, literal: added.append(literal) or add(self, literal))
    runs = []
    for _ in range(2):
        added.clear()
        run_scenario(scenario, program, seed=3)
        runs.append([l for l in added if getattr(l.term, "functor", None) in functors])
    first, second = runs
    assert len({l.term.functor for l in first}) == len(functors)
    assert len(first) == len(second)
    assert all(a is b for a, b in zip(first, second))


def test_a_run_scenario_still_equals_a_fresh_load():
    text, program = _campaign()
    scenario = load_scenario(text)
    run_batch(scenario, program, range(20))
    fresh = load_scenario(text)
    assert scenario.tables is not fresh.tables
    assert scenario == fresh and hash(scenario) == hash(fresh)
    assert repr(scenario) == repr(fresh)
    assert pickle.loads(pickle.dumps(scenario)) == scenario


def _no_recording(*args, **kwargs):
    raise AssertionError("a batch run built a trace line, a .print text or a step")


def test_run_batch_builds_no_trace_or_step(monkeypatch):
    # Every result equals run_scenario's, with every way a run records its
    # trace or its steps made to raise; workers fork with the patches.
    for scenario_file, agent_file, seeds in [
            ("single_target.yaml", "single_target_agent.asl", range(200)),
            ("hardened.yaml", "single_target_agent.asl", range(20)),
            ("campaign.yaml", "campaign_agent.asl", range(100))]:
        scenario = load_scenario((SCENARIOS / scenario_file).read_text())
        program = parse_program((SCENARIOS / agent_file).read_text())
        singles = [run_scenario(scenario, program, seed=s)[0].result for s in seeds]
        with monkeypatch.context() as m:
            m.setattr(RunContext, "log", _no_recording)
            m.setattr(RunContext, "_record", _no_recording)
            m.setattr(reasoner, "term_text", _no_recording)  # .print text
            m.setattr(reasoner, "term_to_str", _no_recording)  # "no applicable plan"
            for workers in (1, 2):
                assert run_batch(scenario, program, seeds, workers=workers) == singles
