#!/usr/bin/env python3
"""Benchmark entry point: each workload runs in its own fresh interpreter.

    python3 benchmarks/run.py --workload mc_single_target --seed 1 --seconds 20 --trace 0
    python3 benchmarks/run.py --seed 1            # every workload, one after another

Run from the root of a checkout; the program is imported from its `src`.
The last line of standard output is one JSON object (for `--workload all`,
one object keyed by workload). See benchmarks/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("mc_single_target", "mc_campaign", "cli_single_run")
TIMEOUT_S = 170


def run_one(workload: str, seed: int, seconds: int, trace: int) -> tuple[int, dict | None]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    # One hash seed for every process, so that dict and set layouts, and the
    # time they cost, do not change from run to run.
    env["PYTHONHASHSEED"] = "0"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"error: {workload} did not finish within {TIMEOUT_S} s", file=sys.stderr)
        return 1, None
    lines = proc.stdout.splitlines()
    print("\n".join(lines[:-1]))
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        print(f"error: {workload} printed no result (exit {proc.returncode})",
              file=sys.stderr)
        return proc.returncode or 1, None
    return proc.returncode, result


def main() -> int:
    ap = argparse.ArgumentParser(description="Run the benchmark workloads.")
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "bdi_pentest" / "__init__.py").is_file():
        print(f"error: no program to measure: {ROOT / 'src' / 'bdi_pentest'} is missing",
              file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results, status = {}, 0
    for name in names:
        code, result = run_one(name, args.seed, args.seconds, args.trace)
        if result is None:
            return code
        results[name] = result
        status = status or code
    print(json.dumps(results if args.workload == "all" else results[names[0]]))
    return status


if __name__ == "__main__":
    sys.exit(main())
