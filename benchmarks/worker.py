"""One workload in one fresh process: set up, time, check, report.

`run.py` starts this file with the checkout's `src` on PYTHONPATH; see the
README for the workloads, the clocks and the reference computation. It
prints a few human-readable lines and, last, one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import yaml

import generate
import oracles
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCENARIOS = ROOT / "scenarios"
OUT = HERE / "out"

# A p99 needs ten samples beyond it, so a timed window never ends before
# this many operations, however long that takes.
MIN_OPS = 1000
# The reference loop's CPU time on the machine the README describes. Every
# timing is scaled to read as if the CPU had run at that speed throughout.
NOMINAL_REF_NS = 4_000_000
REF_EVERY_S = 0.25
SETUP_REPS = 61
COLD_IMPORTS = 15


class _Node:
    __slots__ = ("key", "value")

    def __init__(self, key, value):
        self.key = key
        self.value = value


def _pick(node, default):
    return node.value["n"] if isinstance(node.key, tuple) else default


def reference() -> int:
    """Thread CPU ns of a fixed loop of tuple, dict and object building,
    calls and isinstance checks. It never touches the program, and the
    collector is paused so that no heap the program left behind moves it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.thread_time_ns()
        acc = 0
        for i in range(2500):
            key = (i, "k", i & 7)
            node = _Node(key, {"n": i, "key": key, "s": "v"})
            if isinstance(node.value, dict) and isinstance(i, int):
                acc += _pick(node, 0) & 3
            acc += len([x for x in key if isinstance(x, int)])
        return time.thread_time_ns() - start
    finally:
        if enabled:
            gc.enable()


def thread_cpu_ns() -> int:
    return time.thread_time_ns()


def children_cpu_ns() -> int:
    """User + sys CPU of the reaped child processes."""
    r = resource.getrusage(resource.RUSAGE_CHILDREN)
    return round((r.ru_utime + r.ru_stime) * 1e9)


class Timed:
    """CPU times of the operations of a closed loop, with the reference
    samples taken between them."""

    def __init__(self, clock=thread_cpu_ns):
        self.clock = clock
        self.times: list[int] = []
        self.refs: list[int] = []
        self.ref_at: list[int] = []  # operations done when each reference ran
        self.outputs: list = []
        self.errors: list[str] = []
        self.wall = 0.0

    def run(self, op, round_size, seconds, min_ops, ref_every=REF_EVERY_S, after=None,
            tracer=None):
        """Whole rounds of `op(i)` until `seconds` have passed and at least
        `min_ops` are done; a reference sample at least every `ref_every`
        seconds and one at the end. With `after`, each output goes to
        `after(i, output)`, outside the timed region, and is not kept."""
        wall0 = time.perf_counter()
        deadline = wall0 + seconds
        next_ref = wall0
        i = 0
        while True:
            for _ in range(round_size):
                if time.perf_counter() >= next_ref:
                    self._reference(i)
                    next_ref = time.perf_counter() + ref_every
                if tracer is not None:
                    tracer.run_id = i
                start = self.clock()
                try:
                    out = op(i)
                except Exception as e:  # a failed operation is counted, not fatal
                    out = None
                    self.errors.append(f"op {i}: {type(e).__name__}: {e}")
                self.times.append(self.clock() - start)
                if tracer is not None:
                    tracer.fold("timed")
                if after is None:
                    self.outputs.append(out)
                elif out is not None:
                    after(i, out)
                    if tracer is not None:
                        tracer.fold("check")
                i += 1
            if time.perf_counter() >= deadline and i >= min_ops:
                break
        self._reference(i)
        self.wall = time.perf_counter() - wall0
        return self

    def _reference(self, i):
        self.refs.append(reference())
        self.ref_at.append(i)

    def scaled(self, per_block: bool) -> list[float]:
        """Each time multiplied by NOMINAL_REF_NS over a reference time: per
        block, the mean of the reference samples from three before the
        block to three after (about 1.5 s of a timed window); otherwise the
        median of all of them."""
        if not per_block:
            factor = NOMINAL_REF_NS / statistics.median(self.refs)
            return [t * factor for t in self.times]
        out, k = [], 0
        for j, t in enumerate(self.times):
            while self.ref_at[k + 1] <= j:
                k += 1
            near = self.refs[max(0, k - 2):k + 4]
            out.append(t * NOMINAL_REF_NS * len(near) / sum(near))
        return out


def _setup_timed(op, reps, clock=thread_cpu_ns) -> Timed:
    """`reps` set-up samples, each between two reference samples."""
    return Timed(clock).run(op, 1, 0, reps, ref_every=0)


def _quiet_cli(argv) -> tuple[int, str]:
    from bdi_pentest import cli
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _machine_body(text: str) -> str:
    """The JSON report after the trace lines of a --format machine run."""
    lines = text.splitlines(keepends=True)
    start = next(i for i, line in enumerate(lines) if line == "{\n")
    return "".join(lines[start:])


def _check_machine(text, code, record, seed, scripted=()) -> tuple[dict, list[str]]:
    from bdi_pentest import runner
    body = _machine_body(text)
    report = json.loads(body)
    problems = oracles.check_report(report, record, seed, scripted)
    if runner.emit_report(runner.parse_report(body), "machine") != body:
        problems.append(f"seed {seed}: machine report does not round-trip")
    if code != (0 if report["result"] == oracles.GOAL else 1):
        problems.append(f"seed {seed}: exit code {code} for result {report['result']}")
    return report, problems


def _check_repeat(text, code, base, n) -> list[str]:
    want = sum(oracles.single_target_goal(s) for s in range(base, base + n))
    line = f"goal-achieved {want}/{n} ({want / n:.4f})\n"
    if code != 0 or text != line:
        return [f"--repeat {n} --seed {base}: got {text!r} (exit {code}), want {line!r}"]
    return []


def _write_inputs(tag, files: dict) -> dict:
    """Write generated inputs where the CLI can read them."""
    d = OUT / f"inputs-{tag}-{os.getpid()}"
    d.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name, text in files.items():
        paths[name] = d / name
        paths[name].write_text(text)
    return paths


def _remove_inputs(paths: dict):
    for p in paths.values():
        p.unlink(missing_ok=True)
    if paths:
        next(iter(paths.values())).parent.rmdir()


# --- Workloads ------------------------------------------------------------

class MonteCarlo:
    """`run_batch` at one worker, one seed per call, over consecutive seeds."""

    round_size = 1
    after = None  # results are short strings, checked when the window ends
    p50_per_block = True  # ten-run trials: steadier per block (README)

    def __init__(self, name, seed):
        from bdi_pentest import parser, runner, targets
        self.name = name
        self.mods = (parser, runner, targets)
        self.base = seed * 100_000
        if name == "mc_single_target":
            self.yaml_text = (SCENARIOS / "single_target.yaml").read_text()
            self.agent_text = (SCENARIOS / "single_target_agent.asl").read_text()
            self.record = yaml.safe_load(self.yaml_text)
        else:
            self.record, self.yaml_text, self.agent_text = generate.campaign(seed)

    def load(self):
        parser, _, targets = self.mods
        return targets.load_scenario(self.yaml_text), parser.parse_program(self.agent_text)

    def setup(self) -> Timed:
        timed = _setup_timed(lambda i: self.load() and None, SETUP_REPS)
        self.scenario, self.program = self.load()
        return timed

    def op(self, i):
        return self.mods[1].run_batch(self.scenario, self.program, [self.base + i])[0]

    def close(self):
        pass

    def check(self, outputs) -> list[str]:
        _, runner, _ = self.mods
        seeds = range(self.base, self.base + len(outputs))
        problems = []
        if self.name == "mc_single_target":
            for seed, result in zip(seeds, outputs):
                if (result == oracles.GOAL) != oracles.single_target_goal(seed):
                    problems.append(f"seed {seed}: {result} disagrees with the oracle")
            hits = sum(r == oracles.GOAL for r in outputs)
            if not oracles.within_binomial(hits, len(outputs), oracles.CLOSED_FORM):
                problems.append(f"goal fraction {hits}/{len(outputs)} is not near "
                                f"{oracles.CLOSED_FORM}")
            replay = list(seeds)[:: max(1, len(outputs) // 20)]
        else:
            replay = list(seeds)[:: max(1, len(outputs) // 40)]
        for seed in replay:
            report, _ = runner.run_scenario(self.scenario, self.program, seed=seed)
            text = runner.emit_report(report, "machine")
            doc = json.loads(text)
            problems += oracles.check_report(doc, self.record, seed)
            if runner.emit_report(runner.parse_report(text), "machine") != text:
                problems.append(f"seed {seed}: machine report does not round-trip")
            if doc["result"] != outputs[seed - self.base]:
                problems.append(f"seed {seed}: run_batch says {outputs[seed - self.base]},"
                                f" run_scenario {doc['result']}")
            if self.name == "mc_campaign":
                cap = self.record["max_cycles"]
                last = max((s["cycle"] for s in doc["steps"]), default=0)
                if doc["result"] != oracles.GOAL or last > cap:
                    problems.append(f"seed {seed}: {doc['result']} by cycle {last}")
        problems += self._check_cli()
        return problems

    def _check_cli(self) -> list[str]:
        """The CLI's --repeat path agrees with the oracle on the same inputs."""
        paths = _write_inputs(self.name, {"scenario.yaml": self.yaml_text,
                                          "agent.asl": self.agent_text})
        try:
            n = 50
            code, text = _quiet_cli(["--scenario", str(paths["scenario.yaml"]),
                                     "--agent", str(paths["agent.asl"]),
                                     "--repeat", str(n), "--seed", str(self.base)])
        finally:
            _remove_inputs(paths)
        if self.name == "mc_single_target":
            return _check_repeat(text, code, self.base, n)
        if code != 0 or text != f"goal-achieved {n}/{n} (1.0000)\n":
            return [f"campaign --repeat {n}: {text!r} (exit {code})"]
        return []


SIM1 = "0.13183533644420975,0.6"
SIM2 = "0.9,0.35,0.7"
# Scripted draws for the generated scenarios, one pattern per round in turn:
# all succeed, all fail, and the two alternations. The paths, and so the
# cost, of those invocations then repeat from run to run.
GEN_DRAWS = tuple(",".join(pattern * 20) for pattern in
                  (["0.99"] * 2, ["0.01"] * 2, ["0.99", "0.01"], ["0.01", "0.99"]))
SIM1_BELIEFS = 12
REPEAT_N = 10


class CliMix:
    """In-process `cli.main` over a fixed round of inputs (see README)."""

    def __init__(self, name, seed):
        self.name = name
        self.seed = seed
        self.records = {
            "single": yaml.safe_load((SCENARIOS / "single_target.yaml").read_text()),
            "hardened": yaml.safe_load((SCENARIOS / "hardened.yaml").read_text()),
        }
        files = {}
        for size in (3, 6):
            record, y, agent = generate.campaign(seed * 10 + size, size)
            self.records[f"gen{size}"] = record
            files[f"gen{size}.yaml"] = y
            files[f"gen{size}.asl"] = agent
        self.paths = _write_inputs(name, files)
        agent = str(SCENARIOS / "single_target_agent.asl")
        self.inputs = {
            "single": (str(SCENARIOS / "single_target.yaml"), agent),
            "hardened": (str(SCENARIOS / "hardened.yaml"), agent),
            "gen3": (str(self.paths["gen3.yaml"]), str(self.paths["gen3.asl"])),
            "gen6": (str(self.paths["gen6.yaml"]), str(self.paths["gen6.asl"])),
        }
        self.round_size = len(self._round(0))
        self.after = self.check_one
        # Ten-run trials: the median of this mix of unlike invocations is
        # steadier scaled by the process median than per block (README).
        self.p50_per_block = False
        self.problems: list[str] = []
        self.machine = (None, None)

    def _round(self, r):
        """(kind, key, seed, draws, format) per invocation of round r."""
        s = self.seed * 1000 + r
        out = []
        gen = GEN_DRAWS[r % len(GEN_DRAWS)]
        for kind, key, seed, draws in (("sim1", "single", 0, SIM1),
                                       ("sim2", "single", 0, SIM2),
                                       ("seeded", "single", s, ""),
                                       ("seeded", "hardened", s, ""),
                                       ("scripted", "gen3", s, gen),
                                       ("scripted", "gen6", s, gen)):
            for fmt in ("machine", "human"):
                out.append((kind, key, seed, draws, fmt))
        out.append(("repeat", "single", s * REPEAT_N, "", "human"))
        return out

    def argv(self, inv):
        kind, key, seed, draws, fmt = inv
        scenario, agent = self.inputs[key]
        argv = ["--scenario", scenario, "--agent", agent, "--seed", str(seed)]
        if draws:
            argv += ["--draws", draws]
        if kind == "repeat":
            return argv + ["--repeat", str(REPEAT_N)]
        return argv + ["--format", fmt]

    def setup(self) -> Timed:
        """Cold imports of bdi_pentest.cli: CPU of fresh interpreters."""
        cmd = [sys.executable, "-c", "import bdi_pentest.cli"]
        subprocess.run(cmd, check=True)  # writes the bytecode cache
        return _setup_timed(lambda i: subprocess.run(cmd, check=True) and None,
                            COLD_IMPORTS, children_cpu_ns)

    def load(self):
        """Nothing to load in-process: every invocation loads its own inputs."""

    def invocation(self, i):
        r, k = divmod(i, self.round_size)
        return self._round(r)[k]

    def op(self, i):
        return _quiet_cli(self.argv(self.invocation(i)))

    def check_one(self, i, out):
        """Check one invocation right after it, so no output is kept."""
        code, text = out
        kind, key, seed, draws, fmt = inv = self.invocation(i)
        scripted = [float(d) for d in draws.split(",")] if draws else []
        if kind == "repeat":
            self.problems += _check_repeat(text, code, seed, REPEAT_N)
        elif fmt == "machine":
            report, found = _check_machine(text, code, self.records[key], seed, scripted)
            self.problems += found + self._paper_path(kind, report)
            self.machine = (inv[:3], report)
        elif self.machine[0] != inv[:3]:
            self.problems.append(f"{inv}: no machine report to compare with")
        else:
            report = self.machine[1]
            self.problems += oracles.check_human(text, report)
            if code != (0 if report["result"] == oracles.GOAL else 1):
                self.problems.append(f"{inv}: exit code {code} for {report['result']}")

    def check(self, outputs) -> list[str]:
        return self.problems

    @staticmethod
    def _paper_path(kind, report) -> list[str]:
        if kind not in ("sim1", "sim2"):
            return []
        attacks = [(s["action"], s["args"][-1], s["outcome"], s["privilege_after"])
                   for s in report["steps"] if s["draw"] is not None]
        if kind == "sim1":
            ok = attacks == [("password_attack", "ssh", "failure", "none"),
                             ("bof_attack", "remote", "success", "root")]
            ok = ok and len(report["final_beliefs"]) == SIM1_BELIEFS
        else:
            path = ["none"]
            for *_, privilege in attacks:
                if privilege != path[-1]:
                    path.append(privilege)
            ok = path == ["none", "user", "root"]
        if ok and report["result"] == oracles.GOAL:
            return []
        return [f"{kind} left the paper's path: {attacks}"]

    def close(self):
        _remove_inputs(self.paths)


WORKLOADS = {"mc_single_target": MonteCarlo, "mc_campaign": MonteCarlo,
             "cli_single_run": CliMix}


# --- Reporting -------------------------------------------------------------

def _pct(sorted_values, q):
    """Nearest-rank percentile."""
    k = max(0, -(-len(sorted_values) * q // 100) - 1)
    return sorted_values[int(k)]


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def end_to_end(timed: Timed, setup: Timed, p50_per_block: bool):
    by_block, by_process = timed.scaled(True), sorted(timed.scaled(False))
    # Scaling each operation on its own adds noise that stretches the
    # extremes, so the tail is scaled by the process median.
    metrics = {
        "runs_per_s": (len(by_block) * 1e9 / sum(by_block), "1/s"),
        "run_us_p50": (statistics.median(by_block if p50_per_block else by_process) / 1e3,
                       "us"),
        "run_us_p99": (_pct(by_process, 99) / 1e3, "us"),
        "setup_s": (statistics.median(setup.scaled(True)) / 1e9, "s"),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
    }
    times = sorted(timed.times)
    raw = {"runs_per_s": len(times) * 1e9 / sum(times),
           "run_us_p50": statistics.median(times) / 1e3,
           "run_us_p99": _pct(times, 99) / 1e3,
           "setup_s": statistics.median(setup.times) / 1e9}
    info = {"raw": raw, "reference_us_median": statistics.median(timed.refs) / 1e3,
            "reference_samples": len(timed.refs), "ops": len(timed.times),
            "cpu_s": sum(timed.times) / 1e9, "wall_s": timed.wall}
    return metrics, info


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Run one benchmark workload.")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    # The reference only tracks the speed of the CPU it runs on, so the
    # worker and its children stay on one.
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = WORKLOADS[args.workload](args.workload, args.seed)
    try:
        setup = work.setup()
        if args.trace:
            timed, problems, metrics, info = _traced(work, args.seconds, tag)
        else:
            timed = Timed().run(work.op, work.round_size, args.seconds, MIN_OPS,
                                after=work.after)
            problems = work.check(timed.outputs)
            metrics, info = end_to_end(timed, setup, work.p50_per_block)
    finally:
        work.close()

    (OUT / f"samples-{tag}.json").write_text(json.dumps({
        "cpu": cpu, "info": info,
        "op_cpu_ns": timed.times, "reference_ns": timed.refs, "reference_at": timed.ref_at,
        "setup_ns": setup.times, "setup_reference_ns": setup.refs}))

    print(f"{args.workload} seed {args.seed}: {len(timed.times)} ops, "
          f"{len(timed.errors)} failed, {len(problems)} check problems")
    for line in (timed.errors + problems)[:20]:
        print(f"  ! {line}")
    for key, value in info.items():
        print(f"  {key}: {value}")
    for key, (value, unit) in metrics.items():
        print(f"  {key:45s} {value:14.4f} {unit}")
    print(json.dumps({
        "correct": not problems,
        "attempted": len(timed.times),
        "failed": len(timed.errors),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if not problems else 1


def _traced(work, seconds, tag):
    """An untraced then a traced half window. Per-layer metrics come from
    the traced half (and the traced set-up and checks, for the per-call
    ones); the overhead compares the two halves' CPU per operation."""
    plain = Timed().run(work.op, work.round_size, seconds / 2, work.round_size,
                        after=work.after)
    tracer = Tracer()
    tracer.install()
    try:
        work.load()
        tracer.fold("setup")
        timed = Timed().run(work.op, work.round_size, seconds / 2, work.round_size,
                            after=work.after, tracer=tracer)
        tracer.run_id = None
        problems = work.check(timed.outputs)
        tracer.fold("check")
    finally:
        tracer.uninstall()
    tracer.dump(OUT / f"spans-{tag}.jsonl")
    untraced = statistics.mean(plain.scaled(True))
    traced = statistics.mean(timed.scaled(True))
    info = {"untraced_ops": len(plain.times), "traced_ops": len(timed.times),
            "untraced_us_per_op": untraced / 1e3, "traced_us_per_op": traced / 1e3,
            "tracing_overhead_pct": 100 * (traced / untraced - 1)}
    return timed, problems, tracer.metrics(len(timed.times)), info


if __name__ == "__main__":
    sys.exit(main())
