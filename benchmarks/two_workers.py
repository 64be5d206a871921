#!/usr/bin/env python3
"""Reference figure, not a workload: `run_batch` on the shipped single-target
inputs at one and at two workers, on the wall clock and per CPU-second
(this process plus its reaped workers).

    PYTHONPATH=src python3 benchmarks/two_workers.py [--runs 4000]
"""

from __future__ import annotations

import argparse
import resource
import time
from pathlib import Path

from bdi_pentest import load_scenario, parse_program
from bdi_pentest.runner import run_batch

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def _cpu() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=4000)
    args = ap.parse_args()
    scenario = load_scenario((SCENARIOS / "single_target.yaml").read_text())
    program = parse_program((SCENARIOS / "single_target_agent.asl").read_text())
    for workers in (1, 2):
        wall, cpu = time.perf_counter(), _cpu()
        run_batch(scenario, program, range(args.runs), workers=workers)
        wall, cpu = time.perf_counter() - wall, _cpu() - cpu
        print(f"workers {workers}: {args.runs / wall:8.1f} runs/s wall, "
              f"{args.runs / cpu:8.1f} runs per CPU-second")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
