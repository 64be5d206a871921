"""Tests of the benchmark's own checks and input generator.

Run from the repository root: python -m pytest -q benchmarks/tests
"""

import copy
import json
import sys
from pathlib import Path

import pytest
import yaml

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import generate  # noqa: E402
import oracles  # noqa: E402
from bdi_pentest.parser import parse_program  # noqa: E402
from bdi_pentest.runner import GOAL_ACHIEVED, emit_report, run_batch, run_scenario  # noqa: E402
from bdi_pentest.targets import load_scenario  # noqa: E402

SCENARIOS = BENCH.parent / "scenarios"


def test_single_target_oracle_matches_closed_form_exactly():
    # Every threshold the oracle compares with splits [0, 1) into these
    # intervals; one draw per interval, weighted by its width, covers every
    # branch of the three chance points.
    cells = [(0.0, 0.3), (0.3, 0.2), (0.5, 0.3), (0.8, 0.2)]

    def enumerate_from(prefix, weight):
        draws = iter(prefix)
        try:
            return weight * oracles.single_target_outcome(lambda: next(draws))
        except StopIteration:
            return sum(enumerate_from(prefix + [u], weight * w) for u, w in cells)

    assert enumerate_from([], 1.0) == pytest.approx(oracles.CLOSED_FORM, abs=1e-12)
    assert oracles.CLOSED_FORM == pytest.approx(0.57)


def test_single_target_oracle_matches_the_program():
    scenario = load_scenario((SCENARIOS / "single_target.yaml").read_text())
    program = parse_program((SCENARIOS / "single_target_agent.asl").read_text())
    seeds = range(500, 800)
    results = run_batch(scenario, program, seeds)
    assert [r == GOAL_ACHIEVED for r in results] == [
        oracles.single_target_goal(s) for s in seeds]


@pytest.mark.parametrize("size", [3, 6])
def test_generator_is_deterministic_and_loads(size):
    for seed in range(12):
        record, scenario_yaml, agent = generate.campaign(seed, size)
        assert (record, scenario_yaml, agent) == generate.campaign(seed, size)
        assert yaml.safe_load(scenario_yaml) == record
        scenario = load_scenario(scenario_yaml)
        program = parse_program(agent)
        assert [t.name for t in scenario.targets] == [t["name"] for t in record["targets"]]
        assert len(program.plans) > 5 * size
        for t in record["targets"]:
            assert f"sniffer_attack({t['name']}, {t['name']})" not in agent
    assert generate.campaign(1, size) != generate.campaign(2, size)


def test_campaign_fires_every_family_and_reaches_the_goal():
    record, scenario_yaml, agent = generate.campaign(4)
    scenario, program = load_scenario(scenario_yaml), parse_program(agent)
    families = set()
    for seed in range(10):
        report, _ = run_scenario(scenario, program, seed=seed)
        assert report.result == GOAL_ACHIEVED
        doc = report.to_dict()
        assert oracles.check_report(doc, record, seed) == []
        families |= {s["action"] for s in doc["steps"] if s["draw"] is not None}
    assert families == set(oracles.GRANTS)


@pytest.fixture(scope="module")
def campaign_report():
    record, scenario_yaml, agent = generate.campaign(7)
    scenario, program = load_scenario(scenario_yaml), parse_program(agent)
    report, _ = run_scenario(scenario, program, seed=3)
    doc = json.loads(emit_report(report, "machine"))
    assert oracles.check_report(doc, record, 3) == []
    return record, doc, emit_report(report, "human")


def _drawn(doc, success=None):
    return [i for i, s in enumerate(doc["steps"]) if s["draw"] is not None
            and (success is None or (s["outcome"] == "success") == success)]


def test_check_rejects_a_flipped_outcome(campaign_report):
    record, doc, human = campaign_report
    bad = copy.deepcopy(doc)
    step = bad["steps"][_drawn(bad, success=False)[0]]
    step["outcome"] = "success"
    assert oracles.check_report(bad, record, 3)
    assert oracles.check_human(human, bad)


def test_check_rejects_a_skipped_draw(campaign_report):
    record, doc, _ = campaign_report
    bad = copy.deepcopy(doc)
    del bad["steps"][_drawn(bad)[0]]
    assert any("not the next in the stream" in p
               for p in oracles.check_report(bad, record, 3))


def test_check_rejects_a_privilege_that_falls(campaign_report):
    record, doc, _ = campaign_report
    bad = copy.deepcopy(doc)
    held = {}
    for step in bad["steps"]:
        if held.get(step["target"], "none") != "none":
            step["privilege_after"] = "none"
            break
        held[step["target"]] = step["privilege_after"]
    else:
        pytest.fail("no step follows a raised privilege on its target")
    assert any("expected" in p for p in oracles.check_report(bad, record, 3))


def test_human_check_accepts_the_same_run(campaign_report):
    _, doc, human = campaign_report
    assert oracles.check_human(human, doc) == []
