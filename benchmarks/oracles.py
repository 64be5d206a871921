"""Checks on the program's outputs, computed apart from the program.

Nothing here imports `bdi_pentest`. Reports are checked in their machine
form (the JSON dict of `--format machine`); human reports are compared step
by step with the machine report of the same run. Every check returns a list
of problems, empty when the output is right.
"""

from __future__ import annotations

import math
import random
import re

# The README's action table, written out again so that no check reads the
# program's own constants.
DEFAULT_THRESHOLDS = {"password": 0.8, "bof_remote": 0.5, "bof_local": 0.3,
                      "sqli": 0.4, "sniffer": 0.6}
GRANTS = {"password_attack": "user", "bof_attack": "root", "sqli_attack": "web",
          "sniffer_attack": "user", "social_attack": "user"}
RANK = {"none": 0, "web": 1, "user": 2, "root": 3}
GOAL = "goal-achieved"

# Single target: ssh password (rate 0.2), then the local overflow (0.7) if
# it worked, then the remote overflow (0.5) whatever happened before.
CLOSED_FORM = 1 - (1 - 0.5) * (1 - 0.2 * 0.7)


def single_target_outcome(draw) -> bool:
    """Whether the shipped agent roots the shipped target, given its draws."""
    if draw() >= 0.8 and draw() >= 0.3:
        return True
    return draw() >= 0.5


def single_target_goal(seed: int) -> bool:
    return single_target_outcome(random.Random(seed).random)


def within_binomial(hits: int, n: int, p: float, z: float = 5.0) -> bool:
    return abs(hits - n * p) <= z * math.sqrt(n * p * (1 - p))


def draw_stream(seed: int, scripted=()):
    yield from scripted
    rng = random.Random(seed)
    while True:
        yield rng.random()


def threshold(record: dict, step: dict) -> float:
    """Success threshold of one attack step, from the scenario record."""
    th = dict(DEFAULT_THRESHOLDS, **record.get("thresholds", {}))
    action = step["action"]
    if action == "password_attack":
        return th["password"]
    if action == "bof_attack":
        return th["bof_remote"] if step["args"][1] == "remote" else th["bof_local"]
    if action == "sqli_attack":
        return th["sqli"]
    if action == "sniffer_attack":
        return th["sniffer"]
    target = next(t for t in record["targets"] if t["name"] == step["target"])
    return 1.0 - max(s.get("susceptibility", 0.15) for s in target["staff"])


def check_report(report: dict, record: dict, seed: int, scripted=()) -> list[str]:
    """Draw order, success thresholds and privilege of one machine report."""
    problems = []
    stream = draw_stream(seed, scripted)
    privilege = {t["name"]: "none" for t in record["targets"]}
    for i, step in enumerate(report["steps"]):
        where = f"seed {seed} step {i} ({step['action']})"
        before = privilege[step["target"]]
        success = step["outcome"] == "success"
        expected = before
        if step["draw"] is not None:
            if step["draw"] != next(stream):
                problems.append(f"{where}: draw {step['draw']!r} is not the next in the stream")
            if success != (step["draw"] >= threshold(record, step)):
                problems.append(f"{where}: outcome {step['outcome']} for draw {step['draw']!r}")
            if success:
                expected = max(before, GRANTS[step["action"]], key=RANK.get)
        elif success and step["action"] in GRANTS:
            problems.append(f"{where}: attack succeeded without a draw")
        if step["privilege_after"] != expected:
            problems.append(f"{where}: privilege {before} -> {step['privilege_after']},"
                            f" expected {expected}")
        privilege[step["target"]] = step["privilege_after"]
    primary = record["targets"][0]["name"]
    if report["final_privilege"] != privilege[primary]:
        problems.append(f"seed {seed}: final privilege {report['final_privilege']}"
                        f" but the steps end at {privilege[primary]}")
    return problems


_HUMAN_STEP = re.compile(r"  cycle (\d+): .* (?:is (successful|failed) \((?:draw (\S+), )?"
                         r"privilege (\w+)\)|-> (success|failure) \(privilege (\w+)\))$")


def check_human(text: str, machine: dict) -> list[str]:
    """The human report tells the same run as the machine report."""
    lines = text.splitlines()
    problems = []
    if f"result: {machine['result']}" not in lines:
        problems.append(f"human report lacks 'result: {machine['result']}'")
    if f"final privilege: {machine['final_privilege']}" not in lines:
        problems.append("human report shows another final privilege")
    steps = [m for m in map(_HUMAN_STEP.match, lines) if m]
    if len(steps) != len(machine["steps"]):
        problems.append(f"human report has {len(steps)} steps, machine {len(machine['steps'])}")
    for m, step in zip(steps, machine["steps"]):
        cycle, verdict, draw, priv, outcome, priv2 = m.groups()
        outcome = outcome or ("success" if verdict == "successful" else "failure")
        seen = (int(cycle), outcome, None if draw is None else float(draw), priv or priv2)
        want = (step["cycle"], step["outcome"], step["draw"], step["privilege_after"])
        if seen != want:
            problems.append(f"human step {seen} differs from machine step {want}")
    return problems
