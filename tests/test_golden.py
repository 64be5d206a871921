"""Golden outputs: traces and reports over seed sweeps stay byte-identical.

Each case hashes, seed by seed, the trace lines and the machine and human
reports of one shipped scenario run with its agent. A fourth digest is of
everything `scripts/run_simulations.py` prints. A digest changes only when
some run's output changes; on a mismatch the assertion message shows the
new digest, to be pasted here once the change in output is intended.

Two more digests guard what the run starts from: one of a canonical
rendering of `parse_program` and `load_scenario` output, one of the error
line (or `ok`) each gives on a sweep of edited inputs.
"""

import hashlib
import re
import subprocess
import sys
from pathlib import Path

import pytest

from bdi_pentest import load_scenario, parse_program
from bdi_pentest.parser import PlanSyntaxError
from bdi_pentest.runner import emit_report, run_scenario
from bdi_pentest.targets import ConfigError, Scenario
from bdi_pentest.terms import _Record

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"

CASES = [
    ("single_target.yaml", "single_target_agent.asl", range(1000),
     "87e771aa3a0d4aaac321dab1c7f6699bfdecd209f3b987d8ea5c4ef49d0f5437"),
    ("hardened.yaml", "single_target_agent.asl", range(50),
     "b3b32a8196d4d4a490e5ff3763a352ac0357cba859eeb6580eb2eef8835675e9"),
    ("campaign.yaml", "campaign_agent.asl", range(200),
     "dacd94d2d9d363d9ceabb0c60bf718e9f0f6de960a6472ce3fb004c1531b8261"),
]

SIMULATIONS_DIGEST = "d4a2e93074c79c1ff969b0fef827143cebb5ec02ef4ed03be926e4cad634c172"


def sweep_digest(scenario_file, agent_file, seeds) -> str:
    scenario = load_scenario((SCENARIOS / scenario_file).read_text())
    program = parse_program((SCENARIOS / agent_file).read_text())
    h = hashlib.sha256()
    for seed in seeds:
        report, trace = run_scenario(scenario, program, seed=seed)
        h.update("\n".join(trace).encode() + b"\0")
        h.update(emit_report(report, "machine").encode() + b"\0")
        h.update(emit_report(report, "human").encode() + b"\0")
    return h.hexdigest()


@pytest.mark.parametrize("scenario_file,agent_file,seeds,expected", CASES,
                         ids=[c[0].removesuffix(".yaml") for c in CASES])
def test_outputs_match_golden_digest(scenario_file, agent_file, seeds, expected):
    digest = sweep_digest(scenario_file, agent_file, seeds)
    assert digest == expected, f"{scenario_file} seeds {seeds}: digest {digest}"


def test_run_simulations_prints_golden_bytes():
    script = ROOT / "scripts" / "run_simulations.py"
    out = subprocess.run([sys.executable, str(script)], stdout=subprocess.PIPE,
                         check=True).stdout
    digest = hashlib.sha256(out).hexdigest()
    assert digest == SIMULATIONS_DIGEST, f"{script.name} stdout: digest {digest}"


PARSED_DIGEST = "2a467808bc6f05442822729205daf40a4e751d69d13ea597c0f52e62e6c02038"
ERRORS_DIGEST = "6714ea42dc073eb245bb04d95d08dbf9e60583f18190adc0933cac6a377055e0"


def render(x) -> str:
    """`x` as text that depends on its value alone: a record's fields in
    order (a scenario's probe tables too), a set sorted, every scalar with
    its type, so that neither PYTHONHASHSEED nor an equal but differently
    built value can change it."""
    if isinstance(x, _Record):
        fields = x._fields + (("tables",) if isinstance(x, Scenario) else ())
        return (f"{type(x).__name__}("
                + ",".join(f"{f}={render(getattr(x, f))}" for f in fields) + ")")
    if isinstance(x, (set, frozenset)):
        return "{" + ",".join(sorted(map(render, x))) + "}"
    if isinstance(x, (tuple, list)):
        return f"{type(x).__name__}(" + ",".join(map(render, x)) + ")"
    if isinstance(x, dict):
        return "{" + ",".join(f"{render(k)}:{render(v)}" for k, v in x.items()) + "}"
    return f"{type(x).__name__}:{x!r}"


def test_parsed_inputs_match_golden_digest():
    sys.path.insert(0, str(ROOT / "benchmarks"))
    import generate
    texts = [("asl", p.read_text()) for p in sorted(SCENARIOS.glob("*.asl"))]
    texts += [("yaml", p.read_text()) for p in sorted(SCENARIOS.glob("*.yaml"))]
    for n in range(5):
        _, yaml_text, agent_text = generate.campaign(n)
        texts += [("yaml", yaml_text), ("asl", agent_text)]
    h = hashlib.sha256()
    for kind, text in texts:
        parsed = parse_program(text) if kind == "asl" else load_scenario(text)
        h.update(render(parsed).encode() + b"\0")
    digest = h.hexdigest()
    assert digest == PARSED_DIGEST, f"parsed inputs: digest {digest}"


def _outcome(read, text) -> str:
    try:
        read(text)
    except (PlanSyntaxError, ConfigError) as e:
        return str(e)
    return "ok"


def test_errors_on_edited_inputs_match_golden_digest():
    """Every edit of a shipped agent at the start of a word or symbol (the
    run deleted, or a character inserted), and every one-character deletion
    of, and `:` insertion into, a shipped scenario."""
    agent = (SCENARIOS / "single_target_agent.asl").read_text()
    h = hashlib.sha256()
    for m in re.finditer(r"\w+|\S", agent):
        head, tail = agent[:m.start()], agent[m.start():]
        for edited in (head + agent[m.end():], *(head + c + tail for c in '~"é²')):
            h.update(_outcome(parse_program, edited).encode() + b"\0")
    config = (SCENARIOS / "single_target.yaml").read_text()
    for i in range(len(config) + 1):
        edits = (config[:i] + config[i + 1:],) if i < len(config) else ()
        for edited in (*edits, config[:i] + ":" + config[i:]):
            h.update(_outcome(load_scenario, edited).encode() + b"\0")
    digest = h.hexdigest()
    assert digest == ERRORS_DIGEST, f"edited inputs: digest {digest}"
