import gc
import pickle
import weakref
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from bdi_pentest.beliefs import BeliefBase
from bdi_pentest.parser import (
    BELIEF,
    AgentProgram,
    And,
    Comparison,
    LiteralCond,
    Not,
    Or,
    Plan,
    TriggerEvent,
    TrueConst,
    _MAX_DEPTH,
    parse_program,
)
from bdi_pentest.reasoner import (
    ACHIEVE,
    AgentState,
    EXHAUSTED,
    GOAL_ACHIEVED,
    RUNNING,
    Event,
    NoInitialGoal,
    _compare,
    execute_step,
    goal_achieved,
    init_agent,
    plan_priority,
    reasoning_cycle,
    relevant_plans,
    select_event,
    select_intention,
    solve,
)
from bdi_pentest.runner import run_batch
from bdi_pentest.targets import load_scenario
from bdi_pentest.terms import (
    MAX_DEPTH,
    MAX_SIZE,
    Atom,
    Compound,
    Literal,
    Number,
    StringLit,
    Variable,
    substitute,
    unify,
)

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def term(functor, *args):
    return Compound(functor, tuple(args)) if args else Atom(functor)


def lit(functor, *args):
    return Literal(term(functor, *args))


class ScriptedEnv:
    """Environment whose action outcomes come from a lookup table."""

    def __init__(self, outcomes=None, percepts=None):
        self.outcomes = outcomes or {}
        self.percepts = percepts or {}
        self.calls = []
        self.trace = []

    def execute(self, name, args):
        self.calls.append(name)
        return self.outcomes.get(name, True), self.percepts.get(name, [])

    def log(self, message):
        self.trace.append(message)


def run(source, env=None, cap=100):
    env = env or ScriptedEnv()
    state = init_agent(parse_program(source))
    result = RUNNING
    while state.cycle_count < cap and result == RUNNING:
        result = reasoning_cycle(state, env)
    return result, state, env


# --- init_agent -------------------------------------------------------------

def test_init_requires_a_goal():
    with pytest.raises(NoInitialGoal):
        init_agent(parse_program("port(80)."))


def test_init_queues_goal_events_and_annotates_beliefs():
    state = init_agent(parse_program("port(80).\n!g.\n"))
    assert state.tables.goal == term("g")
    assert [e.trigger for e in state.events] == [TriggerEvent("+", ACHIEVE, term("g"))]
    stored = next(iter(state.beliefs))
    assert Compound("source", (Atom("self"),)) in stored.annotations


def test_triggers_bucket_plans_by_signature_in_selection_order():
    state = init_agent(parse_program(
        "!g.\n@a\n+foo(X) : true <- act(X).\n@b\n+!foo(x) : true.\n"
        "@c\n+foo(y) : true <- probe_os(y).\n@d\n-foo(y) : true.\n@e\n+foo : true.\n"
        "@f\n+!foo(Y) : true.\n@g\n+!bar(s(a), Z) : true.\n@h\n+!bar(s(Z), a) : true.\n"
        "@i\n+foo(z) : true <- probe_os(z).\n"))
    # Priority descending, then library order: @c and @i (`probe_os`, 100)
    # before @a (no catalog action, 0), and @c before @i.
    assert {key: [(p.label, plan_priority(p)) for p in plans]
            for key, plans in state.tables.triggers.items()} == {
        ("+", "belief", "foo", 1): [("c", 100), ("i", 100), ("a", 0)],
        ("+", "achieve", "foo", 1): [("b", 0), ("f", 0)],
        ("-", "belief", "foo", 1): [("d", 0)],
        ("+", "belief", "foo", 0): [("e", 0)],
        ("+", "achieve", "bar", 2): [("g", 0), ("h", 0)],
    }


# --- selection functions ----------------------------------------------------

def test_select_event_is_fifo():
    state = init_agent(parse_program("!g."))
    state.events.append(Event(TriggerEvent("+", ACHIEVE, term("h"))))
    assert select_event(state).trigger.term == term("g")
    assert select_event(state).trigger.term == term("h")
    assert select_event(state) is None


def test_relevant_plans_match_op_kind_and_unify():
    state = init_agent(parse_program(
        "!g.\n"
        "@p1\n+!get(X) : true <- act(X).\n"
        "@p2\n+!get(port) : true <- act(port).\n"
        "@p3\n-get(port) : true.\n"
        "@p4\n+get(port) : true.\n"))
    out = relevant_plans(state.tables, TriggerEvent("+", ACHIEVE, term("get", Atom("port"))))
    assert [(p.label, u) for p, u in _bound(out, term("get", Atom("port")))] == \
        [("p1", {"X": Atom("port")}), ("p2", {})]


def test_select_intention_takes_the_first_context_solution():
    # The context has one solution per matching belief, in belief-base order;
    # selection commits to the plan with the first of them.
    state = init_agent(parse_program("!g.\n@p\n+!g : port(P) <- act(P).\n"))
    beliefs = BeliefBase([lit("port", Number(80)), lit("port", Number(22))])
    relevant = relevant_plans(state.tables, TriggerEvent("+", ACHIEVE, term("g")))
    [(plan, theta)] = relevant
    assert [u["P"] for u in solve(plan.context, beliefs, theta)] == [Number(80), Number(22)]
    assert select_intention(relevant, term("g"), beliefs, set()) == (plan, {"P": Number(80)})


def test_plan_priority_lookup_order():
    program = parse_program(
        "+!g : true <- bof_attack(t, v, remote).\n"
        "+!g : true <- +done.\n")
    by_action, bare = program.plans
    assert plan_priority(by_action) == 30     # first action name
    assert plan_priority(bare) == 0           # default


def test_select_intention_priority_then_order_then_attempted():
    state = init_agent(parse_program(
        "!g.\n"
        "@low\n+!g : true <- social_attack(t).\n"
        "@high\n+!g : true <- bof_attack(t, v, remote).\n"
        "@high2\n+!g : true <- bof_attack(t, v, remote).\n"
        "@blocked\n+!g : missing <- probe_os(t).\n"))
    relevant = relevant_plans(state.tables, TriggerEvent("+", ACHIEVE, term("g")))
    beliefs = BeliefBase()

    def pick(attempted):
        choice = select_intention(relevant, term("g"), beliefs, attempted)
        return choice and choice[0].label

    # @blocked ranks first but its context does not hold.
    assert pick(set()) == "high"
    assert pick({"high"}) == "high2"
    assert pick({"high", "high2"}) == "low"
    assert pick({"low", "high", "high2"}) is None


# --- context solving --------------------------------------------------------

BELIEFS = BeliefBase([lit("port", Number(80)), lit("port", Number(22)),
                      lit("service", Atom("ssh"))])


def ctx(src):
    return parse_program(f"+!g : {src} <- .print(x).").plans[0].context


def test_solve_literal_and_negation():
    assert solve(ctx("service(ssh)"), BELIEFS, {}) == [{}]
    assert solve(ctx("service(ftp)"), BELIEFS, {}) == []
    assert solve(ctx("not service(ftp)"), BELIEFS, {}) == [{}]
    assert solve(ctx("not service(ssh)"), BELIEFS, {}) == []


def test_solve_conjunction_threads_bindings():
    answers = solve(ctx("port(P) & P > 50"), BELIEFS, {})
    assert [s["P"] for s in answers] == [Number(80)]


def test_solve_disjunction_concatenates():
    answers = solve(ctx("service(ftp) | port(P)"), BELIEFS, {})
    assert [s["P"] for s in answers] == [Number(80), Number(22)]


def test_solve_comparisons():
    assert solve(ctx("X = ssh & service(X)"), BELIEFS, {}) == [{"X": Atom("ssh")}]
    assert solve(ctx("f(ssh) = f(X) & service(X)"), BELIEFS, {}) == [{"X": Atom("ssh")}]
    assert solve(ctx("f(ftp) \\= f(X)"), BELIEFS, {}) == []
    assert solve(ctx("ssh \\= ftp"), BELIEFS, {}) == [{}]
    assert solve(ctx("ssh == ssh & ssh != ftp & 2 < 10 & b >= a"), BELIEFS, {}) == [{}]
    assert solve(ctx("2 < abc"), BELIEFS, {}) == []  # no cross-type ordering


@pytest.mark.parametrize("src,holds", [
    ("1 < 1.5", True), ("2 >= 2.0", True), ("2.0 <= 2", True), ("2 > 2.0", False),
    (f"{10 ** 400} > 1.5", True), (f"1.5 >= {10 ** 400}", False),
    (f"{10 ** 400} < {10 ** 400 + 1}", True), (f"{2 ** 53 + 1} > {float(2 ** 53)}", True),
    # Atoms and strings order by their text; numbers never meet text.
    ('abc < "abd"', True), ("b >= a", True), (f"{10 ** 400} < abc", False),
    # A compound orders against nothing, itself included.
    ("f(a) < 1", False), ("1 < f(a)", False), ("f(a) <= f(a)", False), ("f(a) >= a", False),
])
def test_compare_orders_numbers_exactly(src, holds):
    assert _compare(ctx(src), {}) == ([{}] if holds else [])


def _nest(template, depth, leaf):
    for _ in range(depth):
        leaf = template.format(leaf)
    return leaf


# The deepest nesting the parser accepts, of each kind. A term whose every
# level is an infix `=` is about twice as deep as its count of levels.
_DEEP_TERM = _nest("p({} = b)", _MAX_DEPTH - 1, "a")
_LARGEST = "p(" + ", ".join(["a"] * (MAX_SIZE - 1)) + ")"  # MAX_SIZE nodes
_DEEPEST = {
    "not": "a.\n!g.\n+!g : " + "not " * _MAX_DEPTH + "a <- +g.",
    "and": "a.\n!g.\n+!g : " + "a & " * _MAX_DEPTH + "a <- +g.",
    "or": "!g.\n+!g : " + "a | " * _MAX_DEPTH + "true <- +g.",
    "parentheses": "a.\n!g.\n+!g : " + "(" * _MAX_DEPTH + "a" + ")" * _MAX_DEPTH + " <- +g.",
    "ground-term": f"{_DEEP_TERM}.\n!g.\n+!g : {_DEEP_TERM} <- +g.",
    "bound-term": f"{_DEEP_TERM}.\n!g.\n+!g : p(X) <- .print(X); +seen(X); +g.",
    # 127 compound levels: the deepest belief the parser accepts, and a
    # run-time belief as deep built from its argument.
    "deepest-bound-term": f"{_nest('p({} = b)', _MAX_DEPTH - 1, 'p(a)')}.\n!g.\n"
                          "+!g : p(X) <- +seen(X); +g.",
    "term-with-variable": f"{_nest('p({})', _MAX_DEPTH, 'a')}.\n!g.\n"
                          f"+!g : {_nest('p({})', _MAX_DEPTH, 'X')} <- +seen(X); +g.",
    # MAX_SIZE nodes: the largest term the parser accepts, and a run-time
    # belief as large built from its argument.
    "largest-term": f"{_LARGEST}.\n!g.\n+!g : {_LARGEST} <- +g.",
    "largest-bound-term": f"q({_LARGEST.replace('(a, ', '(', 1)}).\n!g.\n"
                          "+!g : q(X) <- +seen(X); +g.",
}


@pytest.mark.parametrize("source", _DEEPEST.values(), ids=_DEEPEST.keys())
def test_deepest_nesting_the_parser_accepts_runs(source):
    program = parse_program(source)
    pickle.loads(pickle.dumps(program))
    result, state, env = run(source)
    assert result == GOAL_ACHIEVED


def _chain(links):
    """A context whose `=` links each double the term bound before."""
    return [f"X{i} = f(X{i - 1}, X{i - 1})" for i in range(1, links + 1)]


_DEEPER = f"is nested more than {MAX_DEPTH} levels deep"
_LARGER = f"has more than {MAX_SIZE} nodes"


@pytest.mark.parametrize("source,cycles,logged", [
    ("!g(a). +!g(X) : true <- !g(f(X)).", 1000, f"term g(...) {_DEEPER}"),
    ("!g(a). +!g(X) : true <- act(f(f(X))); !g(f(X)).", 1000, f"term f(...) {_DEEPER}"),
    ("!g(a). +!g(X) : true <- +b(f(X)); !g(f(X)).", 1000, f"term b(...) {_DEEPER}"),
    ("!g(a). +!g(X) : true <- +b[s(f(f(X)))]; !g(f(X)).", 1000, f"term s(...) {_DEEPER}"),
    ("c(a). !g. +!g : c(X) & not c(f(X)) <- +c(f(X)); !g.", 1000, f"term c(...) {_DEEPER}"),
    # A term that doubles in size each cycle: the run is over by cycle 36,
    # and the step that would build it past the size cap fails.
    ("c(a). !g. +!g : c(X) & not c(f(X, X)) <- +c(f(X, X)); !g.", 38, f"term c(...) {_LARGER}"),
    # An `=` whose side or binding would be over the size cap does not hold.
    ("!g. +!g : " + " & ".join(["X0 = a", *_chain(14)]) + " <- .print(X14); +g.", 10,
     "no applicable plan for g"),
], ids=["subgoal", "action", "belief", "annotation", "context", "doubling-belief",
        "context-chain"])
def test_terms_built_at_run_time_stay_within_the_cap(source, cycles, logged):
    # The first step that would build a term past a cap fails, every plan
    # above it fails in turn, and no belief, failed-goal markers included, is
    # over a cap. Each row ends well within its cycles.
    result, state, env = run(source, cap=cycles)
    assert result == EXHAUSTED
    assert logged in env.trace
    assert all(b.term.depth <= MAX_DEPTH and b.term.size <= MAX_SIZE for b in state.beliefs)


def test_goal_achieved_queries_beliefs():
    state = init_agent(parse_program("!g."))
    assert not goal_achieved(state)
    state.beliefs.add(lit("g"))
    assert goal_achieved(state)


# --- execute_step -----------------------------------------------------------

def _single_intention_state(source, env):
    state = init_agent(parse_program(source))
    reasoning_cycle(state, env)  # commits to a plan and runs its first step
    return state


def test_internal_print_renders_strings_raw():
    env = ScriptedEnv()
    _single_intention_state('!g.\n+!g : true <- .print("privilege is :", root).', env)
    assert env.trace == ["privilege is :root"]


def test_equal_events_share_plans_but_bind_their_own_spelling():
    # h(1.0) and h(1) are equal, so the second event reads the first one's
    # relevant plans; each binds X from its own term.
    result, _, env = run("!g.\n+!g : true <- !h(1.0); !h(1); +g.\n+!h(X) : true <- .print(X).")
    assert result == GOAL_ACHIEVED
    assert env.trace == ["1.0", "1"]


def test_achieve_goal_suspends_and_posts_event():
    env = ScriptedEnv()
    state = _single_intention_state("!g.\n+!g : true <- !sub; act_a.\n+!sub : true.", env)
    assert state.active is None
    assert state.events[-1].trigger == TriggerEvent("+", ACHIEVE, term("sub"))
    # The waiting intention is the parent of its subgoal event.
    assert [f.event.trigger.term for f in state.events[-1].parent] == [term("g")]


def test_test_goal_binds_first_solution():
    env = ScriptedEnv()
    result, state, env = run(
        "port(80). port(22).\n!g.\n+!g : true <- ?port(P); act(P); +g.", env)
    assert result == GOAL_ACHIEVED
    assert env.calls == ["act"]


def test_test_goal_without_solution_fails_plan():
    result, state, env = run("!g.\n+!g : true <- ?port(P); act(P).")
    assert result == EXHAUSTED
    assert env.calls == []


def test_add_and_remove_belief_steps():
    # A +b step's annotations are substituted, as its term is.
    result, state, env = run("c(a).\n!g.\n+!g : c(X) <- +seen(X)[source(X)]; +g; -missing.")
    assert result == GOAL_ACHIEVED
    assert term("g") in state.beliefs
    assert "seen(a)[source(a)]" in state.beliefs.dump_lines()


def test_failed_action_still_folds_percepts():
    env = ScriptedEnv(outcomes={"act_a": False},
                      percepts={"act_a": [lit("evidence")]})
    result, state, env = run("!g.\n+!g : true <- act_a.", env)
    assert result == EXHAUSTED
    assert term("evidence") in state.beliefs


def test_belief_addition_triggers_matching_plan():
    result, state, env = run(
        "!g.\n"
        "+!g : true <- +foo.\n"
        "+foo : true <- act_b; +g.\n")
    assert result == GOAL_ACHIEVED
    assert env.calls == ["act_b"]


# --- failure recovery -------------------------------------------------------

def test_alternatives_tried_in_order_after_failures():
    env = ScriptedEnv(outcomes={"act_a": False, "act_b": False})
    result, state, env = run(
        "!g.\n"
        "@a\n+!g : true <- act_a; +g.\n"
        "@b\n+!g : true <- act_b; +g.\n"
        "@c\n+!g : true <- act_c; +g.\n", env)
    assert result == GOAL_ACHIEVED
    assert env.calls == ["act_a", "act_b", "act_c"]


def test_a_label_cannot_take_another_plans_failure_key():
    # A label may be any atom, `plan_1` included; when that plan fails, the
    # unlabelled plan after it is still tried.
    env = ScriptedEnv(outcomes={"fail_me": False})
    result, state, env = run(
        "!g.\n"
        "@plan_1\n+!g : true <- fail_me; +g.\n"
        "+!g : true <- .print(\"second plan ran\"); +g.\n", env)
    assert result == GOAL_ACHIEVED
    assert env.calls == ["fail_me"]
    assert env.trace == ["second plan ran"]


def test_exhausted_alternatives_record_failed_goal():
    env = ScriptedEnv(outcomes={"act_a": False, "act_b": False})
    result, state, env = run(
        "!g.\n@a\n+!g : true <- act_a.\n@b\n+!g : true <- act_b.\n", env)
    assert result == EXHAUSTED
    assert term("attack_failed", Atom("g")) in state.beliefs
    assert env.calls == ["act_a", "act_b"]


def test_subgoal_failure_propagates_to_parent():
    env = ScriptedEnv(outcomes={"act_a": False})
    result, state, env = run(
        "!g.\n"
        "@mission\n+!g : true <- !sub; +g.\n"
        "@s\n+!sub : true <- act_a.\n", env)
    assert result == EXHAUSTED
    assert term("attack_failed", Atom("sub")) in state.beliefs
    assert term("attack_failed", Atom("g")) in state.beliefs


@pytest.mark.parametrize("act_a_succeeds", [False, True])
def test_failed_belief_event_leaves_no_waiting_intention(act_a_succeeds):
    # Every plan for +foo fails or +foo succeeds: either way nothing waits on
    # +foo afterwards, so the goal check ends the run before +bar runs.
    env = ScriptedEnv(outcomes={"act_a": act_a_succeeds})
    result, state, env = run(
        "!g.\n"
        "@m\n+!g : true <- +foo; !s; +g; +bar.\n"
        "@s\n+!s : true.\n"
        "@f\n+foo : true <- act_a.\n"
        "@b\n+bar : true <- act_b.\n", env)
    assert result == GOAL_ACHIEVED
    assert env.calls == ["act_a"]
    assert state.cycle_count == 8


def test_parent_recovers_when_sibling_subgoal_plan_succeeds():
    env = ScriptedEnv(outcomes={"act_a": False})
    result, state, env = run(
        "!g.\n"
        "@mission\n+!g : true <- !sub; +g.\n"
        "@s1\n+!sub : true <- act_a.\n"
        "@s2\n+!sub : true <- act_b.\n", env)
    assert result == GOAL_ACHIEVED
    assert env.calls == ["act_a", "act_b"]


# --- cycle-level policies ---------------------------------------------------

def test_no_plans_at_all_is_exhausted():
    result, state, env = run("!g.")
    assert result == EXHAUSTED
    assert state.cycle_count <= 2


def test_vacuous_goal_achieved_on_first_cycle_without_acting():
    result, state, env = run("g.\n!g.\n+!g : true <- act_a.")
    assert result == GOAL_ACHIEVED
    assert state.cycle_count == 1
    assert env.calls == []


def test_running_intention_finishes_after_goal_becomes_true():
    # The goal check waits for quiescence, so the step after +g still runs.
    result, state, env = run("!g.\n+!g : true <- +g; act_b.")
    assert result == GOAL_ACHIEVED
    assert env.calls == ["act_b"]


def test_one_step_per_cycle():
    env = ScriptedEnv()
    state = init_agent(parse_program("!g.\n+!g : true <- act_a; act_b; +g."))
    reasoning_cycle(state, env)
    assert env.calls == ["act_a"]
    reasoning_cycle(state, env)
    assert env.calls == ["act_a", "act_b"]


def test_execute_step_pops_finished_frames():
    env = ScriptedEnv()
    state = init_agent(parse_program("!g.\n+!g : true <- act_a."))
    reasoning_cycle(state, env)
    intention = state.active
    execute_step(state, env)
    assert intention == []
    assert state.active is None


# --- property: failure recovery terminates, no plan retried ----------------

@settings(max_examples=80, deadline=None)
@given(st.lists(st.booleans(), min_size=1, max_size=6))
def test_no_plan_selected_twice_per_goal_event(succeeds):
    plans = "".join(
        f"@p{i}\n+!g : true <- act_{i}; +g.\n" if ok else
        f"@p{i}\n+!g : true <- act_{i}.\n"
        for i, ok in enumerate(succeeds))
    env = ScriptedEnv(outcomes={f"act_{i}": ok for i, ok in enumerate(succeeds)})
    result, state, env = run("!g.\n" + plans, env, cap=200)
    # Each plan body runs at most once for the goal event.
    assert len(env.calls) == len(set(env.calls))
    if any(succeeds):
        assert result == GOAL_ACHIEVED
        first_winner = succeeds.index(True)
        assert env.calls == [f"act_{i}" for i in range(first_winner + 1)]
    else:
        assert result == EXHAUSTED
        assert len(env.calls) == len(succeeds)


# --- property: the trigger table finds what a scan of the library finds ----

def _scan_relevant(library, event):
    """The linear scan the trigger table replaces: every plan of the library
    whose op and kind match and whose trigger unifies with the event, with
    its priority."""
    out = []
    for plan in library:
        if (plan.trigger.op, plan.trigger.kind) == (event.op, event.kind):
            u = unify(plan.trigger.term, event.term)
            if u is not None:
                out.append((plan, u, plan_priority(plan)))
    return out


def _selection_order(scanned):
    """The scan's result as relevant_plans gives it: in selection order
    (priority descending, then library order), without the priorities."""
    return [(plan, u) for plan, u, _ in sorted(scanned, key=lambda d: -d[2])]


def _bound(relevant, t):
    """relevant_plans' result with each plan bound to the event term t, as
    select_intention binds it."""
    return [(plan, unify(plan.trigger.term, t) if u is None else u) for plan, u in relevant]


def _float_twin(t):
    """t with every number as a float: equal to t, but printed differently."""
    if isinstance(t, Number):
        return Number(float(t.value))
    if isinstance(t, Compound):
        return Compound(t.functor, tuple(_float_twin(a) for a in t.args))
    return t


# Arguments that meet every equality edge of the trigger table and of the
# memo of relevant sets: Number(1) equals Number(1.0), StringLit("a") is not
# Atom("a"), and f(a) is a ground compound where f(X) is not. An empty list
# makes an arity-0 trigger. Events are ground, as every event a run posts is.
_GROUND_ARGS = [Atom("a"), Atom("b"), Number(0), Number(1), Number(1.0), StringLit("a"),
                Compound("f", (Atom("a"),))]
_ARGS = _GROUND_ARGS + [Variable("X"), Variable("Y"), Compound("f", (Variable("X"),))]


def _trigger_events(args):
    terms = st.builds(lambda n, a: term(n, *a), st.sampled_from(["p", "q"]),
                      st.lists(st.sampled_from(args), max_size=2))
    return st.builds(lambda form, t: TriggerEvent(*form, t),
                     st.sampled_from([("+", BELIEF), ("-", BELIEF), ("+", ACHIEVE)]), terms)


def _achieve(*args):
    return TriggerEvent("+", ACHIEVE, term("p", *args))


@settings(max_examples=200, deadline=None)
@given(st.lists(_trigger_events(_ARGS), max_size=12), _trigger_events(_GROUND_ARGS))
@example([_achieve(Number(1.0)), _achieve(Number(0))], _achieve(Number(1)))
@example([_achieve(StringLit("a")), _achieve(Atom("a"))], _achieve(StringLit("a")))
@example([_achieve(Compound("f", (Atom("a"),))), _achieve(Compound("f", (Variable("X"),))),
          _achieve(Compound("f", (Atom("b"),)))], _achieve(Compound("f", (Atom("a"),))))
@example([_achieve(Atom("a")), _achieve(Variable("X"))], _achieve(Compound("f", (Atom("b"),))))
@example([_achieve(), _achieve(Atom("a"))], _achieve())
@example([_achieve(Variable("X"))], _achieve(Number(1)))
def test_trigger_table_matches_library_scan(triggers, event):
    library = tuple(Plan(t, TrueConst(), (), key=f"plan_{i}") for i, t in enumerate(triggers))
    state = init_agent(AgentProgram(goals=(term("g"),), plans=library))
    events = [event, TriggerEvent(event.op, event.kind, _float_twin(event.term))]
    # Twice over: the first call fills the memo, the others read it, and
    # each twin is bound from its own term. Compared as repr, since
    # Number(1) == Number(1.0) though they print differently.
    for e in events + events:
        assert repr(_bound(relevant_plans(state.tables, e), e.term)) == \
            repr(_selection_order(_scan_relevant(library, e)))


# --- per-program tables -----------------------------------------------------

def test_runs_of_one_program_share_its_tables_but_not_its_beliefs():
    program = parse_program("port(80).\n!g.\n@p\n+!g : port(P) <- act(P).\n")
    a, b = init_agent(program), init_agent(program)
    assert a.tables is b.tables
    a.beliefs.add(lit("g"))
    a.beliefs.remove(term("port", Number(80)))
    assert goal_achieved(a) and not goal_achieved(b)
    assert term("port", Number(80)) in b.beliefs
    assert term("port", Number(80)) in init_agent(program).beliefs


def test_program_and_its_tables_are_collected_after_del():
    program = parse_program("!g.\n+!g : true <- act; +g.\n")
    state = init_agent(program)
    while reasoning_cycle(state, ScriptedEnv()) == RUNNING:
        pass
    refs = [weakref.ref(program), weakref.ref(state.tables)]
    del program, state
    gc.collect()
    assert [r() for r in refs] == [None, None]


def test_run_batch_holds_no_program_after_it_returns():
    program = parse_program((SCENARIOS / "single_target_agent.asl").read_text())
    run_batch(load_scenario((SCENARIOS / "single_target.yaml").read_text()), program, range(3))
    refs = [weakref.ref(program), weakref.ref(init_agent(program).tables)]
    del program
    gc.collect()
    assert [r() for r in refs] == [None, None]


def test_memoized_relevant_sets_match_fresh_ones_after_a_seed_sweep():
    # A substitution mutated in place by some run would leave its memo entry
    # unequal to the same entry computed afresh on a newly parsed program.
    source = (SCENARIOS / "campaign_agent.asl").read_text()
    program = parse_program(source)
    run_batch(load_scenario((SCENARIOS / "campaign.yaml").read_text()), program, range(200))
    memo = init_agent(program).tables.relevant
    fresh = init_agent(parse_program(source)).tables
    assert memo
    for (op, kind, t), relevant in memo.items():
        assert repr(relevant) == repr(relevant_plans(fresh, TriggerEvent(op, kind, t)))


# --- property: lazy selection picks what the eager desire set picks --------

def _eager_solve(formula, beliefs, theta):
    """`solve` as it was before ground context literals became one lookup:
    every literal is substituted and queried."""
    if isinstance(formula, TrueConst):
        return [theta]
    if isinstance(formula, LiteralCond):
        pattern = substitute(theta, formula.term)
        return [dict(theta, **u) for u in beliefs.query(pattern)]
    if isinstance(formula, And):
        return [s2 for s1 in _eager_solve(formula.left, beliefs, theta)
                for s2 in _eager_solve(formula.right, beliefs, s1)]
    if isinstance(formula, Or):
        return _eager_solve(formula.left, beliefs, theta) + \
            _eager_solve(formula.right, beliefs, theta)
    if isinstance(formula, Not):
        return [theta] if not _eager_solve(formula.operand, beliefs, theta) else []
    assert isinstance(formula, Comparison)
    return _compare(formula, theta)


def _eager_applicable_plans(relevant, beliefs):
    """The desire set: every relevant plan, attempted ones included, once per
    solution of its context, in library order."""
    return [(plan, solution, priority) for plan, theta, priority in relevant
            for solution in _eager_solve(plan.context, beliefs, theta)]


def _eager_select_intention(desires, attempted):
    """The first desire of the highest priority among those not attempted."""
    best = best_priority = None
    for plan, bindings, priority in desires:
        if plan.key not in attempted and (best is None or priority > best_priority):
            best, best_priority = (plan, bindings), priority
    return best


# Context literals, ground and not, over facts that give a non-ground
# literal zero, one or several solutions.
_FACTS = ["port(80)", "port(22)", "port(443)", "service(ssh)", "service(http)",
          "on(80, http)", "on(22, ssh)", "on(443, http)"]
_CONTEXT_LITERALS = _FACTS + ["service(ftp)", "port(P)", "service(S)", "on(P, S)",
                              "on(P, http)", "on(22, S)", "(port(P) & P > 30)", "P = 22",
                              "S \\= ssh", "(service(X) & X == ssh)", "true"]
_contexts = st.recursive(
    st.sampled_from(_CONTEXT_LITERALS),
    lambda inner: st.one_of(
        st.builds("{} & {}".format, inner, inner),
        st.builds("({} | {})".format, inner, inner),
        st.builds("not {}".format, inner)),
    max_leaves=5)
# First actions of every priority, equal ones twice over, and none.
_BODIES = ["probe_os(t)", "probe_ports(t)", "bof_attack(t, v, remote)",
           "password_attack(t, ssh)", "sniffer_attack(t, u)", "act", ""]
_plans = st.tuples(st.sampled_from(["X", "a", "b"]), _contexts, st.sampled_from(_BODIES))


@settings(max_examples=400, deadline=None)
@given(st.lists(_plans, min_size=1, max_size=8), st.sets(st.sampled_from(_FACTS)),
       st.sampled_from(["a", "b"]), st.data())
def test_lazy_selection_matches_eager_desire_set(plans, facts, event_arg, data):
    source = "!g(a).\n" + "".join(
        f"@p{i}\n+!g({arg}) : {context}" + (f" <- {body}" if body else "") + ".\n"
        for i, (arg, context, body) in enumerate(plans))
    program = parse_program(source)
    state = init_agent(program)
    beliefs = BeliefBase(parse_program(" ".join(f + "." for f in facts)).beliefs)
    event = TriggerEvent("+", ACHIEVE, term("g", Atom(event_arg)))
    attempted = data.draw(st.sets(st.sampled_from([p.key for p in program.plans])))
    expected = _eager_select_intention(
        _eager_applicable_plans(_scan_relevant(program.plans, event), beliefs), attempted)
    # Twice over: the second call reads the memo of relevant sets.
    for _ in range(2):
        choice = select_intention(relevant_plans(state.tables, event), event.term, beliefs,
                                  attempted)
        assert (choice and (choice[0].key, choice[1])) == \
            (expected and (expected[0].key, expected[1]))
        assert choice is None or all(t.ground for t in choice[1].values())
