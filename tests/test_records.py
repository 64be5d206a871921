"""The package's records (`terms._Record`): equality, hashing, repr,
pickling and frozenness, one row per record class."""

import pickle
from pathlib import Path

import pytest

from bdi_pentest import load_scenario, parse_program
from bdi_pentest.actions import ACTIONS
from bdi_pentest.parser import (
    ACHIEVE,
    AchieveGoal,
    Action,
    AddBelief,
    And,
    Comparison,
    InternalPrint,
    LiteralCond,
    Not,
    Or,
    Plan,
    RemoveBelief,
    TestGoal,
    TriggerEvent,
    TrueConst,
)
from bdi_pentest.reasoner import Event, Frame, init_agent
from bdi_pentest.runner import run_scenario
from bdi_pentest.targets import (
    Credential,
    Service,
    Staff,
    TargetSpec,
    Thresholds,
    Vulnerability,
)
from bdi_pentest.terms import Atom, Compound, Literal, Number, StringLit, Variable

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
X, A = Variable("X"), Atom("a")
F = Compound("f", (A, Number(2), StringLit("s")))
SCENARIO = load_scenario((SCENARIOS / "single_target.yaml").read_text())
PROGRAM = parse_program((SCENARIOS / "single_target_agent.asl").read_text())
REPORT = run_scenario(SCENARIO, PROGRAM, seed=3)[0]
STATE = init_agent(PROGRAM)
TRIGGER = TriggerEvent("+", ACHIEVE, Compound("g", (X,)))
PLAN = PROGRAM.plans[0]

TERMS = [X, A, Number(1), Number(1.5), StringLit("a b"), F]
NODES = [TRIGGER, TrueConst(), LiteralCond(F), And(TrueConst(), LiteralCond(A)),
         Or(TrueConst(), LiteralCond(A)), Not(LiteralCond(A)), Comparison(X, "<", Number(3)),
         Action("act", (X,)), Action("act"), AchieveGoal(F), TestGoal(F),
         AddBelief(F, frozenset({Compound("source", (Atom("self"),))})), RemoveBelief(A),
         InternalPrint((StringLit("x"), X)), PLAN, PROGRAM]
SPECS = [Service(22, "ssh"), Vulnerability("cve", "remote"), Credential("ssh", "456"),
         Staff("a@b"), SCENARIO.targets[0], Thresholds(), SCENARIO]
# Every record class that is frozen, with one instance of it.
FROZEN = (TERMS + [Literal(F, frozenset({A}))] + NODES + SPECS
          + [SCENARIO.tables["target"], ACTIONS["probe_os"].facet, ACTIONS["probe_os"]])
MUTABLE = [Event(TRIGGER), Frame(PLAN, {}, Event(TRIGGER)), STATE.tables, STATE, REPORT]


def _id(x):
    return type(x).__name__


@pytest.mark.parametrize("record", FROZEN, ids=_id)
def test_a_frozen_record_refuses_assignment(record):
    name = record._fields[0] if record._fields else "extra"
    with pytest.raises(AttributeError):
        setattr(record, name, None)
    with pytest.raises(AttributeError):
        delattr(record, name)


@pytest.mark.parametrize("record", MUTABLE, ids=_id)
def test_a_mutable_record_takes_assignment_and_has_no_hash(record):
    name = record._fields[-1]
    value = getattr(record, name)
    setattr(record, name, value)
    with pytest.raises(TypeError):
        hash(record)


@pytest.mark.parametrize("record", TERMS + [Literal(F, frozenset({A}))] + NODES
                         + [SCENARIO, REPORT], ids=_id)
def test_a_record_pickles_to_an_equal_one(record):
    loaded = pickle.loads(pickle.dumps(record))
    assert type(loaded) is type(record) and loaded == record
    assert repr(loaded) == repr(record)


@pytest.mark.parametrize("record", TERMS + [Literal(F, frozenset({A})), TRIGGER], ids=_id)
def test_a_term_literal_or_trigger_hashes_as_the_tuple_of_its_fields(record):
    assert hash(record) == hash(tuple(getattr(record, f) for f in record._fields))


@pytest.mark.parametrize("record", FROZEN, ids=_id)
def test_equality_is_by_class_and_fields(record):
    values = [getattr(record, f) for f in record._fields]
    twin = type(record)(*values)
    assert twin == record and not twin != record
    assert record != object() and record != Atom("zz")
    if not any(isinstance(v, dict) for v in values):  # TargetTables' verdicts
        assert hash(twin) == hash(record)


def test_a_compound_pickles_without_its_kept_hash():
    hashed = Compound("f", (A,))
    hash(hashed)
    assert pickle.dumps(hashed) == pickle.dumps(Compound("f", (A,)))
    loaded = pickle.loads(pickle.dumps(Compound("g", (hashed, X))))
    assert (loaded.ground, loaded.depth, loaded.size) == (False, 2, 4)


def test_fields_not_compared_are_left_out_of_equality_and_repr():
    program = parse_program("!g.\n+!g : true <- +g.\n")
    init_agent(program)
    assert program.compiled and program == parse_program("!g.\n+!g : true <- +g.\n")
    assert "compiled" not in repr(program) and "tables" not in repr(SCENARIO)
    assert isinstance(pickle.loads(pickle.dumps(program)).compiled, dict)


def test_repr_is_the_dataclass_form():
    assert repr(Atom("a")) == "Atom(name='a')"
    assert repr(TrueConst()) == "TrueConst()"
    plan = parse_program("@a +!g(X) : p(X) & not q <- act(X); +b[source(t)].").plans[0]
    assert repr(plan) == (
        "Plan(trigger=TriggerEvent(op='+', kind='achieve', term=Compound(functor='g', "
        "args=(Variable(name='X'),))), context=And(left=LiteralCond(term=Compound("
        "functor='p', args=(Variable(name='X'),))), right=Not(operand=LiteralCond("
        "term=Atom(name='q')))), body=(Action(name='act', args=(Variable(name='X'),)), "
        "AddBelief(term=Atom(name='b'), annotations=frozenset({Compound(functor='source', "
        "args=(Atom(name='t'),))}))), label='a', key='a')")
    assert repr(TargetSpec("t", "linux", (22,), staff=(Staff("e@x"),))) == (
        "TargetSpec(name='t', os='linux', ports=(22,), services=(), vulnerabilities=(), "
        "credentials=(), subnet='lan', staff=(Staff(email='e@x', susceptibility=0.15),))")
    # An event and the frame that serves it refer to each other.
    event = Event(TRIGGER)
    event.parent = [Frame(PLAN, {}, event)]
    assert "event=..." in repr(event)


def test_constructors_keep_their_defaults_and_keywords():
    assert Action("act").args == () and Plan(TRIGGER, TrueConst(), ()).key == ""
    assert Staff("e").susceptibility == 0.15 and TargetSpec("t", "linux").subnet == "lan"
    assert Literal(A).annotations == frozenset() and Event(TRIGGER).attempted == set()
    assert Frame(plan=PLAN, bindings={}, event=Event(TRIGGER)).next_step == 0
    assert STATE.active is None and STATE.cycle_count == 0
    with pytest.raises(ValueError):
        Literal(X)
    with pytest.raises(TypeError):
        Atom()
