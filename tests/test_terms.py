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


def test_unify_occurs_check():
    x = Variable("X")
    assert unify(x, comp("f", x)) is None


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


@given(_terms(), _terms())
def test_unification_symmetric_in_success(a, b):
    ab = unify(a, b)
    ba = unify(b, a)
    assert (ab is None) == (ba is None)


@given(_terms(), _terms())
def test_mgu_makes_terms_identical(a, b):
    u = unify(a, b)
    if u is not None:
        assert substitute(u, a) == substitute(u, b)


@given(_terms(), _terms())
def test_mgu_is_idempotent(a, b):
    u = unify(a, b)
    if u is not None:
        applied = {k: substitute(u, v) for k, v in u.items()}
        assert applied == u


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
