#!/usr/bin/env python3
"""Estimate the full-run success fraction by Monte Carlo over seeded runs
and compare it to the closed-form attack-tree value.

With the default thresholds the per-attempt success rates are 0.2 (ssh
password), 0.5 (remote overflow), and 0.7 (local overflow given user), so
root is reached with probability 1 - (1 - 0.5) * (1 - 0.2 * 0.7) = 0.57.

Usage: monte_carlo.py [--runs N] [--workers W]
"""

import argparse
import os
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from bdi_pentest import load_scenario, parse_program  # noqa: E402
from bdi_pentest.runner import GOAL_ACHIEVED, run_batch  # noqa: E402
from bdi_pentest.targets import ConfigError, check_int  # noqa: E402

CLOSED_FORM = 1 - (1 - 0.5) * (1 - 0.2 * 0.7)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=100_000)
    ap.add_argument("--workers", type=int, default=1)
    args = ap.parse_args(argv)
    try:
        check_int(args.runs, "--runs", 1)
        check_int(args.workers, "--workers", 1, os.cpu_count() or 1)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2

    scenario = load_scenario((REPO / "scenarios" / "single_target.yaml").read_text())
    program = parse_program((REPO / "scenarios" / "single_target_agent.asl").read_text())

    started = time.perf_counter()
    results = run_batch(scenario, program, range(args.runs), workers=args.workers)
    elapsed = time.perf_counter() - started

    achieved = sum(r == GOAL_ACHIEVED for r in results)
    fraction = achieved / args.runs
    print(f"{achieved}/{args.runs} runs reached root in {elapsed:.1f}s")
    print(f"estimated success fraction: {fraction:.4f}")
    print(f"closed-form value:          {CLOSED_FORM:.4f}")
    print(f"absolute error:             {abs(fraction - CLOSED_FORM):.4f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
