"""Golden outputs: traces and reports over seed sweeps stay byte-identical.

Each case hashes, seed by seed, the trace lines and the machine and human
reports of one shipped scenario run with its agent. A fourth digest is of
everything `scripts/run_simulations.py` prints. A digest changes only when
some run's output changes; on a mismatch the assertion message shows the
new digest, to be pasted here once the change in output is intended.
"""

import hashlib
import subprocess
import sys
from pathlib import Path

import pytest

from bdi_pentest import load_scenario, parse_program
from bdi_pentest.runner import emit_report, run_scenario

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
