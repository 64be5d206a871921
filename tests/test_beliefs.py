import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from bdi_pentest.beliefs import (
    BeliefBase,
    NonGroundBelief,
    has_source,
    source_of,
)
from bdi_pentest.terms import (
    Atom,
    Compound,
    Literal,
    Number,
    StringLit,
    Variable,
    signature,
    unify,
)


def comp(functor, *args):
    return Compound(functor, tuple(args))


def term(functor, *args):
    return comp(functor, *args) if args else Atom(functor)


def lit(functor, *args):
    return Literal(term(functor, *args))


def percept(source, functor, *args):
    return Literal(term(functor, *args), source_of(source))


def test_add_new_literal_emits_add_event():
    bb = BeliefBase()
    assert bb.add(lit("port", Number(80))) == term("port", Number(80))
    assert term("port", Number(80)) in bb
    assert list(bb) == [lit("port", Number(80))]


def test_re_add_is_silent():
    bb = BeliefBase([lit("port", Number(80))])
    assert bb.add(lit("port", Number(80))) is None
    assert list(bb) == [lit("port", Number(80))]


def test_re_add_merges_annotations():
    bb = BeliefBase()
    bb.add(percept("target", "ostype", Atom("linux")))
    assert bb.add(percept("self", "ostype", Atom("linux"))) is None
    stored = next(iter(bb))
    assert stored.annotations == frozenset({
        comp("source", Atom("target")), comp("source", Atom("self"))})


def test_remove_present_and_absent():
    bb = BeliefBase([lit("port", Number(80))])
    assert bb.remove(term("port", Number(22))) is None
    assert bb.remove(term("port", Number(80))) == term("port", Number(80))
    assert bb.remove(term("port", Number(80))) is None
    assert list(bb) == []


def test_remove_ignores_annotations():
    bb = BeliefBase([percept("target", "port", Number(80))])
    assert bb.remove(term("port", Number(80))) == term("port", Number(80))
    assert list(bb) == []


def test_non_ground_literal_rejected():
    bb = BeliefBase()
    with pytest.raises(NonGroundBelief):
        bb.add(Literal(comp("port", Variable("X"))))
    with pytest.raises(NonGroundBelief):
        bb.remove(comp("port", Variable("X")))


def test_query_returns_bindings_in_insertion_order():
    bb = BeliefBase([lit("port", Number(80)), lit("port", Number(22)),
                     lit("port", Number(3306))])
    answers = bb.query(comp("port", Variable("P")))
    assert [s["P"] for s in answers] == [Number(80), Number(22), Number(3306)]


def test_query_ground_pattern():
    bb = BeliefBase([lit("service", Atom("ssh"))])
    assert bb.query(term("service", Atom("ssh"))) == [{}]
    assert bb.query(term("service", Atom("ftp"))) == []


def test_query_threads_existing_substitution():
    bb = BeliefBase([lit("pair", Atom("a"), Atom("b"))])
    pattern = comp("pair", Variable("X"), Variable("Y"))
    answers = bb.query(pattern, {"X": Atom("a")})
    assert answers == [{"X": Atom("a"), "Y": Atom("b")}]
    assert bb.query(pattern, {"X": Atom("z")}) == []


def test_dump_lines_sorted_with_annotations():
    tagged = percept("target", "service", Atom("ssh"))
    untagged = lit("privilege", Atom("root"))
    assert tagged.annotations == frozenset({comp("source", Atom("target"))})
    assert has_source(tagged.annotations)
    assert not has_source(untagged.annotations)
    bb = BeliefBase([tagged, untagged])
    assert bb.dump_lines() == [
        "privilege(root)",
        "service(ssh)[source(target)]",
    ]


# --- Model-based property vs a naive set oracle ----------------------------

_names = st.sampled_from(["p", "q", "r"])
_args = st.lists(st.one_of(st.sampled_from("abc").map(Atom),
                           st.integers(0, 3).map(Number)),
                 max_size=2)
_ground_literals = st.builds(
    lambda n, a: Literal(Compound(n, tuple(a)) if a else Atom(n)), _names, _args)

_ops = st.lists(st.tuples(st.sampled_from(["add", "remove"]), _ground_literals),
                min_size=0, max_size=1000)


@settings(max_examples=60, deadline=None)
@given(_ops)
def test_belief_base_matches_naive_set_oracle(ops):
    bb = BeliefBase()
    oracle: set[Literal] = set()
    for op, literal in ops:
        if op == "add":
            changed = bb.add(literal)
            expected = None if literal in oracle else literal.term
            oracle.add(literal)
        else:
            changed = bb.remove(literal.term)
            expected = literal.term if literal in oracle else None
            oracle.discard(literal)
        assert changed == expected
        stored = list(bb)
        assert set(stored) == oracle and len(stored) == len(oracle)
    # Every stored literal answers a ground query; nothing else does.
    for literal in oracle:
        assert bb.query(literal.term) == [{}]


@settings(max_examples=60, deadline=None)
@given(st.lists(_ground_literals, max_size=30))
def test_event_count_equals_symmetric_difference(literals):
    bb = BeliefBase()
    added = [l for l in literals if bb.add(l) is not None]
    assert len(added) == len(set(literals))
    removed = [l for l in set(literals) if bb.remove(l.term) is not None]
    assert len(removed) == len(set(literals))
    assert list(bb) == []


# --- property: a query answers what a scan of the stored literals answers ---

def _scan_query(bb, pattern, s=None):
    """The linear scan ground lookups replace: every stored term with the
    pattern's functor and arity, in insertion order, that unifies with it."""
    out = []
    for stored in bb:
        if signature(stored.term) == signature(pattern):
            u = unify(pattern, stored.term, s)
            if u is not None:
                out.append(u)
    return out


_ground_terms = st.sampled_from([Atom("a"), Atom("b"), Number(0), Number(1), Number(1.0),
                                 StringLit("a"), comp("f", Atom("a"))])
_pattern_terms = st.one_of(_ground_terms, st.sampled_from(
    [Variable("X"), Variable("Y"), comp("f", Variable("X"))]))
_sources = st.sets(st.sampled_from(["self", "target"]), max_size=2).map(
    lambda names: frozenset(comp("source", Atom(n)) for n in names))


def _patterns(args):
    return st.builds(lambda n, a: term(n, *a), st.sampled_from(["p", "q"]),
                     st.lists(args, max_size=2))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.booleans(), st.builds(Literal, _patterns(_ground_terms), _sources)),
                max_size=20),
       _patterns(_pattern_terms),
       st.sampled_from([None, {}, {"X": Atom("a")}, {"X": Number(1.0)},
                        {"Z": comp("f", Atom("b")), "X": comp("f", Atom("a"))}]))
@example([(True, percept("self", "p", Atom("a")))], term("p", Atom("a")), None)
@example([(True, lit("p", Number(1.0)))], term("p", Number(1)), {"Z": comp("f", Atom("b"))})
def test_query_matches_linear_scan(ops, pattern, s):
    """Ground and non-ground patterns, present or absent, against annotated
    beliefs, under no substitution or a ground one, as every binding is."""
    bb = BeliefBase()
    for add, literal in ops:
        if add:
            bb.add(literal)
        else:
            bb.remove(literal.term)
    assert bb.query(pattern, s) == _scan_query(bb, pattern, s)


# --- pickling across interpreters -------------------------------------------

_BELIEFS = """
from bdi_pentest.terms import Atom, Compound, Literal, StringLit
BELIEFS = [Literal(Compound("service", (Atom("ssh"),))),
           Literal(Compound("credential", (Atom("ssh"), StringLit("pw"))),
                   frozenset({Compound("source", (Atom("t0"),))})),
           Literal(Atom("done"))]
"""
_DUMP = _BELIEFS + """
import pickle, sys
from bdi_pentest.beliefs import BeliefBase
bb = BeliefBase(BELIEFS)
assert all(l.term in bb for l in BELIEFS)  # every term hashed before pickling
sys.stdout.buffer.write(pickle.dumps(bb))
"""
_LOOKUP = _BELIEFS + """
import pickle, sys
bb = pickle.loads(sys.stdin.buffer.read())
print(all(l.term in bb for l in BELIEFS), [bb.add(l) for l in BELIEFS])
"""


def test_pickled_belief_base_answers_lookups_under_another_hash_seed():
    # A pool without fork pickles the program and its belief base into
    # workers whose string hashes are salted differently.
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED="1")
    data = subprocess.run([sys.executable, "-c", _DUMP], env=env, capture_output=True,
                          check=True, timeout=60).stdout
    env["PYTHONHASHSEED"] = "2"
    out = subprocess.run([sys.executable, "-c", _LOOKUP], env=env, input=data,
                         capture_output=True, check=True, timeout=60).stdout
    assert out.decode() == "True [None, None, None]\n"


_CAMPAIGN = """
import pickle, sys
from pathlib import Path
from bdi_pentest import load_scenario, parse_program
from bdi_pentest.runner import emit_report, run_scenario
SCENARIOS = Path(sys.argv[1])
PROGRAM = parse_program((SCENARIOS / "campaign_agent.asl").read_text())

def reports(scenario):
    return "".join(emit_report(run_scenario(scenario, PROGRAM, seed)[0], "machine")
                   for seed in range(20))
"""
_DUMP_SCENARIO = _CAMPAIGN + """
scenario = load_scenario((SCENARIOS / "campaign.yaml").read_text())
text = reports(scenario)  # every shared percept hashed before pickling
sys.stdout.buffer.write(pickle.dumps((scenario, text)))
"""
_RUN_SCENARIO = _CAMPAIGN + """
scenario, text = pickle.loads(sys.stdin.buffer.read())
print(reports(scenario) == text)
"""


def test_pickled_scenario_runs_alike_under_another_hash_seed():
    # A pool without fork pickles the scenario, with its tables of shared
    # percepts and annotation sets, into workers salted differently.
    root = Path(__file__).resolve().parent.parent
    argv = [sys.executable, "-c"]
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONHASHSEED="1")
    data = subprocess.run(argv + [_DUMP_SCENARIO, str(root / "scenarios")], env=env,
                          capture_output=True, check=True, timeout=60).stdout
    env["PYTHONHASHSEED"] = "2"
    out = subprocess.run(argv + [_RUN_SCENARIO, str(root / "scenarios")], env=env,
                         input=data, capture_output=True, check=True, timeout=60).stdout
    assert out.decode() == "True\n"
