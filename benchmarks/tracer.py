"""Spans around the program's public functions, patched in from outside.

`Tracer.install()` replaces every public function of the eight modules, and
the public methods of `BeliefBase`, by a wrapper that records a span
(name, start, end, parent, run id) and a mark (a hit flag or a size for the
functions below). `reasoner` and `beliefs` import `unify` by name, so every
module attribute that holds an original function is patched, not only the
defining one. `Literal` constructions are counted, not spanned: a span per
term would cost more than the work it measures.

Spans stay in memory until the benchmark calls `fold()` at the end of a
run; `fold()` turns them into per-name totals (self time is a span's
duration minus that of its direct children) and keeps the raw spans of the
first few folds for the dump.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time
from collections import defaultdict

MODULES = ("cli", "parser", "targets", "actions", "terms", "beliefs", "reasoner",
           "runner")
KEEP_RAW = 5


# Called only on a result that is not None (a call that raised has none).
MARKS = {
    # 1 when unification succeeds, so hits / calls is the hit ratio.
    "terms.unify": lambda args, result: 1,
    # Relevant plans returned, the base of unify_per_relevant.
    "reasoner.relevant_plans": lambda args, result: len(result),
    # Source bytes, the base of us_per_kb.
    "parser.parse_program": lambda args, result: len(args[0].encode()),
}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.run_id = None
        self.literals = 0
        self.literal_totals = defaultdict(int)
        self.totals = defaultdict(lambda: [0, 0, 0, 0])  # calls, self ns, total ns, mark
        self.unify_under_relevant = 0
        self.raw: list = []
        self._undo: list = []

    def _wrap(self, name, fn, mark=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.run_id,
                                mark(args, result) if mark and result is not None else 0)

        traced.__wrapped__ = fn
        return traced

    def install(self):
        mods = {m: importlib.import_module(f"bdi_pentest.{m}") for m in MODULES}
        holders = list(mods.values()) + [importlib.import_module("bdi_pentest")]
        for short, mod in mods.items():
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                name = f"{short}.{attr}"
                traced = self._wrap(name, fn, MARKS.get(name))
                for holder in holders:
                    if getattr(holder, attr, None) is fn:
                        self._patch(holder, attr, traced)
        base = mods["beliefs"].BeliefBase
        for attr, fn in list(vars(base).items()):
            if not attr.startswith("_") and inspect.isfunction(fn):
                self._patch(base, attr, self._wrap(f"beliefs.BeliefBase.{attr}", fn))
        literal = mods["terms"].Literal
        init = literal.__init__

        def counted(obj, *args, **kwargs):
            self.literals += 1
            init(obj, *args, **kwargs)

        self._patch(literal, "__init__", counted)

    def _patch(self, holder, attr, value):
        self._undo.append((holder, attr, getattr(holder, attr)))
        setattr(holder, attr, value)

    def uninstall(self):
        for holder, attr, value in reversed(self._undo):
            setattr(holder, attr, value)
        self._undo.clear()

    def fold(self, phase: str):
        """Fold the spans recorded since the last fold into totals[phase, name]."""
        assert not self.stack, "fold() inside an open span"
        self.literal_totals[phase] += self.literals
        self.literals = 0
        spans = self.spans
        children = [0] * len(spans)
        under = [False] * len(spans)
        for i, (name, start, end, parent, _, _) in enumerate(spans):
            if parent >= 0:
                children[parent] += end - start
                under[i] = under[parent]
            if name == "reasoner.relevant_plans":
                under[i] = True
            elif name == "terms.unify" and under[i]:
                self.unify_under_relevant += phase == "timed"
        for i, (name, start, end, parent, _, mark) in enumerate(spans):
            t = self.totals[phase, name]
            t[0] += 1
            t[1] += end - start - children[i]
            t[2] += end - start
            t[3] += mark
        if len(self.raw) < KEEP_RAW and spans:
            self.raw.append(list(spans))
        spans.clear()

    def metrics(self, runs: int) -> dict:
        """The per-layer metrics named in BENCHMARK.json."""
        def tot(name, phase="timed"):
            return self.totals.get((phase, name), (0, 0, 0, 0))

        def all_phases(name):
            return [sum(v) for v in zip(*(t for (p, n), t in self.totals.items()
                                          if n == name))] or [0, 0, 0, 0]

        def per_run(name, i):
            return tot(name)[i] / runs

        def ratio(a, b):
            return a / b if b else 0.0

        unify = tot("terms.unify")
        relevant = tot("reasoner.relevant_plans")
        parse = all_phases("parser.parse_program")
        load = all_phases("targets.load_scenario")
        emit = all_phases("runner.emit_report")
        cli = all_phases("cli.main")
        us = 1e-3
        return {
            "terms.unify.calls_per_run": (per_run("terms.unify", 0), "count"),
            "terms.unify.self_us_per_run": (per_run("terms.unify", 1) * us, "us"),
            "terms.unify.hit_ratio": (ratio(unify[3], unify[0]), "ratio"),
            "terms.Literal.new_per_run": (self.literal_totals["timed"] / runs, "count"),
            "beliefs.BeliefBase.query.calls_per_run":
                (per_run("beliefs.BeliefBase.query", 0), "count"),
            "beliefs.BeliefBase.query.self_us_per_run":
                (per_run("beliefs.BeliefBase.query", 1) * us, "us"),
            "beliefs.BeliefBase.add.self_us_per_run":
                (per_run("beliefs.BeliefBase.add", 1) * us, "us"),
            "reasoner.reasoning_cycle.calls_per_run":
                (per_run("reasoner.reasoning_cycle", 0), "count"),
            "reasoner.reasoning_cycle.self_us_per_run":
                (per_run("reasoner.reasoning_cycle", 1) * us, "us"),
            "reasoner.relevant_plans.self_us_per_run":
                (per_run("reasoner.relevant_plans", 1) * us, "us"),
            "reasoner.applicable_plans.self_us_per_run":
                (per_run("reasoner.applicable_plans", 1) * us, "us"),
            "reasoner.solve.calls_per_run": (per_run("reasoner.solve", 0), "count"),
            "reasoner.relevant_plans.unify_per_relevant":
                (ratio(self.unify_under_relevant, relevant[3]), "ratio"),
            "actions.resolve_attack.self_us_per_run":
                (per_run("actions.resolve_attack", 1) * us, "us"),
            "targets.handle_probe.self_us_per_run":
                (per_run("targets.handle_probe", 1) * us, "us"),
            "runner.run_scenario.self_us_per_run":
                (per_run("runner.run_scenario", 1) * us, "us"),
            "runner.run_batch.overhead_us_per_run":
                (per_run("runner.run_batch", 1) * us, "us"),
            "runner.emit_report.us_per_call": (ratio(emit[2], emit[0]) * us, "us"),
            "parser.parse_program.us_per_call": (ratio(parse[2], parse[0]) * us, "us"),
            "parser.parse_program.us_per_kb": (ratio(parse[2], parse[3] / 1024) * us, "us"),
            "targets.load_scenario.us_per_call": (ratio(load[2], load[0]) * us, "us"),
            "cli.main.self_us_per_call": (ratio(cli[1], cli[0]) * us, "us"),
        }

    def dump(self, path):
        with open(path, "w") as f:
            for n, spans in enumerate(self.raw):
                for name, start, end, parent, run, mark in spans:
                    f.write(json.dumps({"fold": n, "name": name, "start_ns": start,
                                        "end_ns": end, "parent": parent, "run": run,
                                        "mark": mark}) + "\n")
