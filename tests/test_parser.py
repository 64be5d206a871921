import re
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from bdi_pentest.parser import (
    ACHIEVE,
    Action,
    AchieveGoal,
    AddBelief,
    AgentProgram,
    And,
    BELIEF,
    Comparison,
    InternalPrint,
    LiteralCond,
    Not,
    Or,
    Plan,
    PlanSyntaxError,
    RemoveBelief,
    TestGoal,
    TriggerEvent,
    TrueConst,
    parse_program,
)
from bdi_pentest.terms import (
    MAX_SIZE,
    Atom,
    Compound,
    Literal,
    Number,
    StringLit,
    Variable,
    literal_to_str,
    term_to_str,
    variables_of,
)

DATA = Path(__file__).resolve().parent / "data"


def comp(functor, *args):
    return Compound(functor, tuple(args))


def test_parse_initial_belief_with_ip_address():
    program = parse_program("ip_address(192.168.0.10).")
    assert program == AgentProgram(
        beliefs=(Literal(comp("ip_address", StringLit("192.168.0.10"))),))


def test_parse_initial_goal():
    program = parse_program("!privilege(root).")
    assert program.goals == (comp("privilege", Atom("root")),)
    assert not program.beliefs and not program.plans


def test_parse_empty_source():
    assert parse_program("") == AgentProgram()


def test_parse_minimal_plan():
    program = parse_program("+!get(port) : true <- nmap(ip_address).")
    assert len(program.plans) == 1
    plan = program.plans[0]
    assert plan.trigger == TriggerEvent("+", ACHIEVE, comp("get", Atom("port")))
    assert plan.context == TrueConst()
    assert plan.body == (Action("nmap", (Atom("ip_address"),)),)


def test_trigger_forms_are_bijective():
    program = parse_program("+l.\n-l.\n+!g.\n")
    forms = [(p.trigger.op, p.trigger.kind) for p in program.plans]
    assert forms == [("+", "belief"), ("-", "belief"), ("+", "achieve")]
    # Pretty-print then reparse preserves every form.
    assert [p.trigger for p in parse_program(program_to_str(program)).plans] == \
        [p.trigger for p in program.plans]


@pytest.mark.parametrize("src,line,col,message", [
    # Triggers the engine never posts, reported at the trigger.
    ("-!g.", 1, 1, "never posts -! events"),
    ("+?g.", 1, 1, "never posts +? events"),
    ("!g.\n@t\n  -?g : true.", 3, 3, "never posts -? events"),
    # Annotations the engine would ignore, reported at the '['.
    ("+!g : service(ssh)[source(t1)] <- act.", 1, 19, "annotations"),
    # There is no strong negation; `not` is the only negation.
    ("+!g : ~service(ssh)[source(t1)] <- act.", 1, 7, "unexpected character '~'"),
    ("+!g[source(self)] : true.", 1, 4, "annotations"),
    ("+port(P)[source(t)] : true.", 1, 9, "annotations"),
    ("+!g : true <- !sub[x].", 1, 19, "annotations"),
    ("+!g : true <- ?port(P)[x]; act(P).", 1, 23, "annotations"),
    ("+!g : true <- -port(80)[x].", 1, 24, "annotations"),
    ("!privilege(root)[x].", 1, 17, "annotations"),
    # Body variables bound only under `not`, on one side of `|`, by a
    # comparison other than `=`, or by an earlier `.print`, reported at the plan.
    ("+!g : not missing(X) <- probe_os(X).", 1, 1, "variable X is not bound"),
    ("!g.\n+!g : a(X) | b <- probe_os(X).", 2, 1, "variable X is not bound"),
    ("+!g : X != a <- probe_os(X).", 1, 1, "variable X is not bound"),
    ("+!g : X \\= a <- probe_os(X).", 1, 1, "variable X is not bound"),
    # Comparisons other than `=` and `\=` need every variable bound before
    # them, or they would compare the variable itself.
    ('!g. +!g : X != a <- .print("held with X = ", X); +g.', 1, 5,
     "variable X is not bound before '!='"),
    ("+!g : X < 3 <- +g.", 1, 1, "variable X is not bound before '<'"),
    ("+!g(Y) : Y >= f(Z) & a(Z) <- act.", 1, 1, "variable Z is not bound before '>='"),
    ("+!g : true <- .print(X); probe_os(X).", 1, 1, "variable X is not bound"),
    # Annotations are stored, so they are held to the same rules as terms.
    ("+!g : true <- +seen(a)[source(X)].", 1, 1, "variable X is not bound"),
    ("c(a)[source(X)].", 1, 1, "initial beliefs must be ground"),
    # Initial goals are events, so they must be ground too.
    ("!privilege(X).", 1, 1, "initial goals must be ground"),
    ("!g.\n!h(X).\n+!g : true <- .print(ok).", 2, 1, "initial goals must be ground"),
    # `=` and `\=` need every variable of one side bound before them, in
    # the order the context is solved, under `not` too; `|` binds only what
    # both its branches bind.
    ("+!g : X = Y <- act(X).", 1, 1, "each side of '=' has a variable not bound"),
    ("!g.\n+!g : X = Y <- !h(X).", 2, 1, "each side of '='"),
    ("+!g : X \\= f(Y) <- act.", 1, 1, "each side of '\\='"),
    ("+!g : not (f(X) = Y) <- act.", 1, 1, "each side of '='"),
    ("+!g : (a(X) | b) & X = f(Y) <- act(Y).", 1, 1, "each side of '='"),
    ("+!g(X) : Y = f(Z) & a(Z) <- act(X).", 1, 1, "each side of '='"),
    # A chain of `=` in the reverse of the order that binds it.
    ("!g. +!g : " + " & ".join([*(f"X{i} = f(X{i - 1}, X{i - 1})" for i in range(14, 0, -1)),
                                "X0 = a"]) + " <- .print(X14); +g.", 1, 5, "each side of '='"),
    # One `=` whose sides chain 30 variables, refused before it can run.
    ("!g. +!g : f(" + ", ".join(f"X{i}" for i in range(1, 31)) + ") = f("
     + ", ".join(f"g(X{i}, X{i})" for i in range(2, 31)) + ", a) <- +g.", 1, 5,
     "each side of '='"),
    # Lexical errors, reported where the wrong text starts: `1e` is the number
    # 1 and the name e; numbers are ASCII digits; a string that never closes
    # is reported at its opening quote. Columns count `\r` as a character.
    ("p(1e).", 1, 4, "expected ')'"),
    ("p(²).", 1, 3, "unexpected character '²'"),
    ("p(٣).", 1, 3, "unexpected character '٣'"),
    ('p("ab', 1, 3, "unterminated string literal"),
    # An internal action's name starts lowercase, any letter; before any
    # other name a `.` ends the statement.
    ("+!g : true <- .éa(x).", 1, 15, "unknown internal action .éa"),
    ("+!g : true <- .Éa(x).", 1, 15, "expected a plan body step, found '.'"),
    ("+!g : true <- .Ea(x).", 1, 15, "expected a plan body step, found '.'"),
    ("port(80).\r\nport(81) x.\r\n", 2, 10, "expected '.' after belief"),
    # Positions count the LFs before the token, and the characters since the
    # last one: past a string that spans lines, a comment, a tab, a
    # non-ASCII character, and at the end of input.
    ('p("a\nb\\"c") x.', 2, 8, "expected '.' after belief, found 'x'"),
    ("p. // c\nq x.", 2, 3, "expected '.' after belief, found 'x'"),
    ("p(a // c", 1, 9, "expected ')', found 'end of input'"),
    ("p.\n\tq x.", 2, 4, "expected '.' after belief, found 'x'"),
    ("café(ü) x.", 1, 9, "expected '.' after belief, found 'x'"),
    ("!g.\n+!g : a(", 2, 9, "expected a term, found 'end of input'"),
    ("!g.\n+!g : a(b) <-\n", 3, 1, "expected a plan body step, found 'end of input'"),
    # An empty string literal is shown as itself, not as the end of input.
    ('+!g : true <- "".', 1, 15, "expected a plan body step, found ''"),
    ('p "".', 1, 3, "expected '.' after belief, found ''"),
    # A label must precede a plan, and a variable alone is no context literal.
    ("@l p.", 1, 4, "expected '+' or '-' trigger, found 'p'"),
    ("+!g : X <- a.", 1, 9, "expected a literal or comparison, found '<-'"),
    # A literal that is not an atom or compound, reported at that term.
    ("+!g : true <- +X.", 1, 16, "a literal must be an atom or compound term"),
    ('+!g : true <- +"s".', 1, 16, "a literal must be an atom or compound term"),
    # Nesting past the cap, reported at the token that opens one level too many.
    ("+!g : " + "not " * 65 + "a.", 1, 7 + 64 * 4, "nested more than 64 levels deep"),
    ("+!g : " + "(" * 65 + "a" + ")" * 65 + ".", 1, 7 + 64, "nested more than"),
    ("+!g : " + "a & " * 65 + "a.", 1, 9 + 64 * 4, "nested more than"),
    ("+!g : " + "a | " * 65 + "a.", 1, 9 + 64 * 4, "nested more than"),
    ("p(" * 65 + "a" + ")" * 65 + ".", 1, 2 + 64 * 2, "nested more than"),
    # Each `a = p(` opens two levels: the comparison and the argument list.
    ("p(" + "a = p(" * 32 + "a" + ")" * 33 + ".", 1, 3 + 31 * 6 + 5, "nested more than"),
    # A term of one node more than the cap, reported at its first token.
    ("p(" + "a, " * (MAX_SIZE - 1) + "a).", 1, 1, f"term has more than {MAX_SIZE} nodes"),
    ("+!g : true <- +q(p(" + "a, " * (MAX_SIZE - 2) + "a)).", 1, 16, "more than"),
    ("q(p(" + "a, " * (MAX_SIZE - 3) + "a) = b).", 1, 3, "more than"),
])
def test_forms_the_engine_cannot_run_are_rejected(src, line, col, message):
    with pytest.raises(PlanSyntaxError, match=re.escape(message)) as e:
        parse_program(src)
    assert (e.value.line, e.value.col) == (line, col)


def test_annotations_kept_on_initial_beliefs_and_added_beliefs():
    program = parse_program("port(80)[source(t)].\n+!g : true <- +seen(t)[source(scan)].")
    assert program.beliefs[0].annotations == frozenset({comp("source", Atom("t"))})
    assert program.plans[0].body[0] == \
        AddBelief(comp("seen", Atom("t")), frozenset({comp("source", Atom("scan"))}))


def test_duplicate_label_rejected():
    src = "@p\n+!a : true.\n@p\n+!b : true."
    with pytest.raises(PlanSyntaxError, match="duplicate plan label @p") as e:
        parse_program(src)
    assert (e.value.line, e.value.col) == (3, 1)


def test_syntax_error_carries_position():
    with pytest.raises(PlanSyntaxError) as e:
        parse_program("+!get(port : true.")
    assert e.value.line == 1
    assert e.value.col > 1
    assert "expected" in str(e.value)


def test_non_ground_initial_belief_rejected():
    with pytest.raises(PlanSyntaxError):
        parse_program("port(X).")


def test_bare_variable_literal_rejected():
    with pytest.raises(PlanSyntaxError):
        parse_program("+!g : true <- +X.")


def test_unbound_body_variable_rejected():
    with pytest.raises(PlanSyntaxError):
        parse_program("+!g : true <- act(X).")


@pytest.mark.parametrize("context", [
    "a(X) | b(X)", "X = a", "a(Y) & X = f(Y)", "a(Y) & f(X, Z) = f(Y, Y)",
    "not b(X) & a(X)", "(a(X) | b(X, Y)) & X > 1", "a(X) & not (X = f(Y))",
    "a(X) & X \\= Y"])
def test_context_binding_forms_accepted(context):
    parse_program(f"+!g : {context} <- act(X).")


# Context parts that are safe whatever came before them in a plan
# triggered by +!g(T): none binds U, V or W.
_SAFE_PARTS = ["a(X)", "b(X, Y)", "X = a", "Y = f(T)", "X \\= b", "not c(Z)",
               "(a(X) | b(X, Z))", "not (Z = g(T))", "true"]
_parts = st.lists(st.sampled_from(_SAFE_PARTS), max_size=3)


@settings(max_examples=100, deadline=None)
@given(_parts, _parts, st.sampled_from(["=", "\\="]),
       st.sampled_from(["U", "f(U, X)", "g(T, a, U)"]), st.sampled_from(["V", "h(V)", "W"]),
       st.booleans(), st.booleans(), st.integers(0, 3), st.integers(0, 3), st.booleans())
def test_comparison_with_no_side_bound_is_refused_at_its_plan(
        before, after, op, lhs, rhs, swapped, negated, lines, indent, labelled):
    unsafe = f"{rhs} {op} {lhs}" if swapped else f"{lhs} {op} {rhs}"
    if negated:
        unsafe = f"not ({unsafe})"
    context = " & ".join([*before, unsafe, *after])
    src = ("p(a).\n" * lines + " " * indent + ("@l\n" if labelled else "")
           + f"+!g(T) : {context} <- act(T).\n")
    with pytest.raises(PlanSyntaxError, match=re.escape(f"each side of '{op}'")) as e:
        parse_program(src)
    assert (e.value.line, e.value.col) == (lines + 1, indent + 1)


def test_test_goal_binds_later_steps():
    program = parse_program("+!g : true <- ?priv(P); act(P).")
    assert isinstance(program.plans[0].body[0], TestGoal)
    assert isinstance(program.plans[0].body[1], Action)


def test_context_operators_and_comparisons():
    program = parse_program(
        "+!g : a(X) & (b | not c) & X \\= d & X < 10 <- act(X).")
    ctx = program.plans[0].context
    assert isinstance(ctx, And)
    assert isinstance(ctx.left, And)


def test_annotations_on_literals():
    program = parse_program("ostype(linux)[source(target)].")
    belief = program.beliefs[0]
    assert belief.annotations == frozenset({comp("source", Atom("target"))})


def test_internal_print_and_body_steps():
    program = parse_program(
        '+!g : true <- .print("hi ", X2); !sub(a); ?t(V); +fact(a); -fact(a); report.')
    kinds = [type(s) for s in program.plans[0].body]
    assert kinds == [InternalPrint, AchieveGoal, TestGoal, AddBelief,
                     RemoveBelief, Action]


def test_unknown_internal_action_rejected():
    with pytest.raises(PlanSyntaxError):
        parse_program("+!g : true <- .send(x).")


# Pieces of every token class, and characters that start none.
_FRAGMENTS = ["p", "X", "_", "café", "true", "not", "1", "1.5", "1e5", "2E-3", "1e",
              "10.0.0.1", '"a\\"b"', '"\\q', ".print", ".Print", ".", "(", ")", ",",
              "<-", ":", ";", "!", "+", "\\=", "//c\n", " ", "\n", "\r", "\t", "\f",
              "²", "½", "٣", "~", "/"]


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(), st.lists(st.sampled_from(_FRAGMENTS)).map("".join)))
def test_any_text_parses_or_raises_plan_syntax_error(text):
    try:
        parse_program(text)
    except PlanSyntaxError:
        pass


def test_comments_stripped():
    program = parse_program("// leading comment\nport(80). // trailing\n")
    assert len(program.beliefs) == 1


def test_gathering_attack_program_shape():
    program = parse_program((DATA / "gathering_attack.asl").read_text())
    assert len(program.beliefs) == 1
    assert len(program.goals) == 1
    assert len(program.plans) == 6
    # The attack plans react to belief additions, the gathering plans to goals.
    kinds = [p.trigger.kind for p in program.plans]
    assert kinds == [ACHIEVE, ACHIEVE, ACHIEVE, ACHIEVE, BELIEF, BELIEF]
    # `port == 80` inside a trigger argument parses as an infix compound.
    sqli = program.plans[-1]
    assert sqli.trigger.term == comp("get", comp("==", Atom("port"), Number(80)))
    assert isinstance(sqli.context, Or)


# --- Round-trip property ---------------------------------------------------
#
# The printer below is the oracle: parse_program(program_to_str(p)) == p.
# It brackets every `&`, `|` and `not` operand, so it needs no precedence.

def _terms_str(terms):
    return ", ".join(term_to_str(t) for t in terms)


def _context_str(f):
    if isinstance(f, TrueConst):
        return "true"
    if isinstance(f, LiteralCond):
        return term_to_str(f.term)
    if isinstance(f, Comparison):
        return f"{term_to_str(f.lhs)} {f.op} {term_to_str(f.rhs)}"
    if isinstance(f, Not):
        return f"not ({_context_str(f.operand)})"
    op = "&" if isinstance(f, And) else "|"
    return f"({_context_str(f.left)}) {op} ({_context_str(f.right)})"


_STEP_MARKS = {AchieveGoal: "!", TestGoal: "?", RemoveBelief: "-"}


def _step_str(s):
    if isinstance(s, Action):
        return f"{s.name}({_terms_str(s.args)})" if s.args else s.name
    if isinstance(s, InternalPrint):
        return f".print({_terms_str(s.args)})"
    if isinstance(s, AddBelief):
        return "+" + literal_to_str(Literal(s.term, s.annotations))
    return _STEP_MARKS[type(s)] + term_to_str(s.term)


def _plan_str(p):
    label = f"@{p.label}\n" if p.label is not None else ""
    mark = "!" if p.trigger.kind == ACHIEVE else ""
    body = f"\n<- {'; '.join(_step_str(s) for s in p.body)}" if p.body else ""
    return (f"{label}{p.trigger.op}{mark}{term_to_str(p.trigger.term)}"
            f" : {_context_str(p.context)}{body}.")


def program_to_str(p):
    return "\n".join([f"{literal_to_str(b)}." for b in p.beliefs]
                     + [f"!{term_to_str(g)}." for g in p.goals]
                     + [_plan_str(plan) for plan in p.plans]) + "\n"


_atom_names = st.text(alphabet="abcdefghé", min_size=1, max_size=5)
_var_names = st.sampled_from(["X", "Y", "Z"])


def _ground_terms():
    leaves = st.one_of(
        _atom_names.map(Atom),
        st.integers(-99, 99).map(Number),
        st.floats(0, 1, allow_nan=False).map(Number),
        # Finite floats, some printed with an exponent
        st.sampled_from([1e-07, 1.5e+300]).map(Number),
        st.floats(allow_nan=False, allow_infinity=False).map(Number),
        st.text(alphabet="abc \t\n\"\\é٣", max_size=6).map(StringLit),
    )
    return st.recursive(
        leaves,
        lambda c: st.tuples(_atom_names, st.lists(c, min_size=1, max_size=3))
        .map(lambda t: Compound(t[0], tuple(t[1]))),
        max_leaves=4,
    )


def _terms():
    return st.one_of(_ground_terms(), _var_names.map(Variable))


def _literals(terms):
    """The terms of literals over `terms`: atoms and compounds."""
    return st.one_of(
        _atom_names.map(Atom),
        st.tuples(_atom_names, st.lists(terms, min_size=1, max_size=3))
        .map(lambda t: Compound(t[0], tuple(t[1]))),
    )


# Annotation sets, kept only on initial beliefs and +b steps
_annotations = st.frozensets(_ground_terms(), max_size=2)


def _after_binding(c):
    """`c`, after a literal binding the variables of both its sides."""
    free = sorted(variables_of(c.lhs) | variables_of(c.rhs))
    if not free:
        return c
    return And(LiteralCond(Compound("bound", tuple(map(Variable, free)))), c)


def _contexts():
    leaves = st.one_of(
        st.just(TrueConst()),
        _literals(_terms()).map(LiteralCond),
        # The other comparisons need every variable bound before them: here
        # by a literal just before.
        st.tuples(_terms(), st.sampled_from(["==", "!=", "<", "<=", ">", ">="]),
                  _terms()).map(lambda t: _after_binding(Comparison(*t))),
        # `=` and `\=` need one side bound before them: here a ground one,
        # on either side.
        st.tuples(_terms(), st.sampled_from(["=", "\\="]), _ground_terms(), st.booleans())
        .map(lambda t: Comparison(*t[:3]) if t[3] else Comparison(t[2], t[1], t[0])),
    )
    return st.recursive(
        leaves,
        lambda c: st.one_of(
            st.tuples(c, c).map(lambda t: And(*t)),
            st.tuples(c, c).map(lambda t: Or(*t)),
            c.map(Not),
        ),
        max_leaves=5,
    )


def _steps():
    ground_literals = _literals(_ground_terms())
    return st.one_of(
        st.tuples(_atom_names, st.lists(_ground_terms(), max_size=2))
        .map(lambda t: Action(t[0], tuple(t[1]))),
        ground_literals.map(AchieveGoal),
        _literals(_terms()).map(TestGoal),
        st.builds(AddBelief, _literals(_ground_terms()), _annotations),
        ground_literals.map(RemoveBelief),
        st.lists(_ground_terms(), min_size=1, max_size=2)
        .map(lambda a: InternalPrint(tuple(a))),
    )


def _plans():
    return st.tuples(
        st.sampled_from([("+", BELIEF), ("-", BELIEF), ("+", ACHIEVE)]),
        _literals(_terms()),
        _contexts(),
        st.lists(_steps(), max_size=4),
        # Labels of the `plan_<n>` form, which no unlabelled plan's key may equal.
        st.sampled_from([None, "plan_0", "plan_1", "plan_2"]),
    ).map(lambda t: Plan(TriggerEvent(*t[0], t[1]), t[2], tuple(t[3]), label=t[4]))


def _numbered(plans):
    """Each plan keyed as the parser keys it; a label an earlier plan holds
    is dropped, as the parser refuses it."""
    labels = set()
    out = []
    for i, p in enumerate(plans):
        label = p.label if p.label not in labels else None
        labels.add(label)
        out.append(Plan(p.trigger, p.context, p.body, label=label,
                        key=label if label is not None else i))
    return tuple(out)


_programs = st.builds(
    lambda beliefs, goals, plans: AgentProgram(tuple(beliefs), tuple(goals), _numbered(plans)),
    st.lists(st.builds(Literal, _literals(_ground_terms()), _annotations), max_size=3),
    st.lists(_literals(_ground_terms()), max_size=2),
    st.lists(_plans(), max_size=4),
)


@settings(max_examples=150, deadline=None)
@given(_programs)
def test_pretty_print_round_trip(program):
    printed = program_to_str(program)
    parsed = parse_program(printed)
    assert parsed == program
    assert len({p.key for p in parsed.plans}) == len(parsed.plans)
