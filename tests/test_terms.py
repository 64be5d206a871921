import pickle

import pytest
from hypothesis import given, strategies as st

from bdi_pentest.terms import (
    Atom,
    Compound,
    Literal,
    Number,
    StringLit,
    Variable,
    literal_to_str,
    signature,
    substitute,
    term_to_str,
    unify,
    variables_of,
)


def comp(functor, *args):
    return Compound(functor, tuple(args))


def test_unify_binds_single_variable():
    u = unify(comp("port", Variable("X")), comp("port", Number(80)))
    assert u == {"X": Number(80)}


def test_unify_identical_ground_terms_is_empty():
    assert unify(comp("port", Number(80)), comp("port", Number(80))) == {}


def test_unify_constant_clash_fails():
    assert unify(comp("port", Number(80)), comp("port", Number(22))) is None


def test_unify_functor_and_arity_mismatch():
    assert unify(comp("a", Atom("x")), comp("b", Atom("x"))) is None
    assert unify(comp("a", Atom("x")), comp("a", Atom("x"), Atom("y"))) is None


def test_unify_repeated_variable_binds_once():
    x = Variable("X")
    assert unify(comp("f", x, x), comp("f", Atom("a"), Atom("a"))) == {"X": Atom("a")}
    assert unify(comp("f", x, x), comp("f", Atom("a"), Atom("b"))) is None


def test_unify_checks_a_bound_pattern_variable():
    assert unify(Variable("X"), Atom("a"), {"X": Atom("a")}) == {"X": Atom("a")}
    assert unify(Variable("X"), Atom("b"), {"X": Atom("a")}) is None


def test_unify_extends_given_substitution():
    u = unify(Variable("Y"), Atom("b"), {"X": Atom("a")})
    assert u == {"X": Atom("a"), "Y": Atom("b")}


def test_substitute_examples():
    s = {"X": Number(80)}
    assert substitute(s, comp("port", Variable("X"))) == comp("port", Number(80))
    assert substitute({}, comp("port", Variable("X"))) == comp("port", Variable("X"))
    s2 = {"X": Number(80), "Y": Atom("linux")}
    assert substitute(s2, comp("pair", Variable("X"), Variable("Y"))) == \
        comp("pair", Number(80), Atom("linux"))


def test_literal_rejects_bare_variable():
    with pytest.raises(ValueError):
        Literal(Variable("X"))


def test_signature_is_functor_and_arity():
    assert signature(Atom("done")) == ("done", 0)
    assert signature(comp("port", Variable("P"))) == ("port", 1)


def test_literal_to_str():
    l = Literal(comp("ostype", Atom("linux")),
                annotations=frozenset({comp("source", Atom("target"))}))
    assert literal_to_str(l) == "ostype(linux)[source(target)]"


def test_term_to_str_string_escaping():
    assert term_to_str(StringLit('a"b\\c')) == '"a\\"b\\\\c"'


# Property tests

_names = st.text(alphabet="abcdefgh", min_size=1, max_size=4)
_varnames = st.sampled_from(["X", "Y", "Z", "W"])


def _terms(max_leaves=6):
    leaves = st.one_of(
        _varnames.map(Variable),
        _names.map(Atom),
        st.integers(-50, 50).map(Number),
        _names.map(StringLit),
    )
    return st.recursive(
        leaves,
        lambda children: st.tuples(_names, st.lists(children, min_size=1, max_size=3))
        .map(lambda t: Compound(t[0], tuple(t[1]))),
        max_leaves=max_leaves,
    )


def _ground_terms():
    return _terms().filter(lambda t: t.ground)


def _apply(s, t):
    """t under s, by a tree walk that follows binding chains."""
    if isinstance(t, Variable):
        return _apply(s, s[t.name]) if t.name in s else t
    if isinstance(t, Compound):
        return Compound(t.functor, tuple(_apply(s, a) for a in t.args))
    return t


def _reference_unify(a, b, s):
    """Robinson's unification with the occurs check, written naively: the
    most general unifier of a and b extending s, fully applied, or None."""
    s = dict(s)
    pairs = [(a, b)]
    while pairs:
        x, y = pairs.pop()
        x, y = _apply(s, x), _apply(s, y)
        if x == y:
            continue
        if isinstance(y, Variable):
            x, y = y, x
        if isinstance(x, Variable):
            if x.name in variables_of(y):
                return None
            s[x.name] = y
        elif (isinstance(x, Compound) and isinstance(y, Compound)
              and (x.functor, len(x.args)) == (y.functor, len(y.args))):
            pairs.extend(zip(x.args, y.args))
        else:
            return None
    return {name: _apply(s, t) for name, t in s.items()}


@st.composite
def _matching_cases(draw):
    """(pattern, ground term, ground substitution): the ground term is an
    instance of the pattern that agrees with the substitution, or any."""
    pattern = draw(_terms())
    s = draw(st.dictionaries(_varnames, _ground_terms(), max_size=2))
    if draw(st.booleans()):
        return pattern, draw(_ground_terms()), s
    instance = {name: s.get(name) or draw(_ground_terms())
                for name in sorted(variables_of(pattern))}
    return pattern, substitute(instance, pattern), s


@given(_matching_cases())
def test_unify_agrees_with_general_unification_on_a_ground_term(case):
    pattern, ground, s = case
    u = unify(pattern, ground, s)
    assert u == _reference_unify(pattern, ground, s)
    if u is not None:
        assert all(t.ground for t in u.values())
        assert substitute(u, pattern) == ground


@given(_terms(), _terms())
def test_ground_terms_have_no_variables(t, bound):
    # Groundness survives pickling, and a ground term is its own image
    # under any substitution.
    s = {"X": bound}
    for term in (t, pickle.loads(pickle.dumps(t))):
        assert term.ground == (not variables_of(t))
        if term.ground:
            assert substitute(s, term) is term


def _tree_walk(t):
    """(depth, size) of t, counted by walking it as a tree."""
    if not isinstance(t, Compound):
        return 0, 1
    walked = [_tree_walk(a) for a in t.args]
    return 1 + max(d for d, _ in walked), 1 + sum(n for _, n in walked)


@given(_terms(max_leaves=12))
def test_kept_depth_and_size_match_a_tree_walk(t):
    for term in (t, pickle.loads(pickle.dumps(t))):
        assert (term.depth, term.size) == _tree_walk(t)
