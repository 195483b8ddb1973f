import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latmodal import (
    And,
    Box,
    FormulaSyntaxError,
    Imp,
    LatModalError,
    Not,
    Or,
    Var,
    is_modal_free,
    modal_depth,
    parse,
    render,
    substitute,
    variables,
)
from latmodal.formula import MAX_PAREN_DEPTH

p, q, r = Var("p"), Var("q"), Var("r")


def test_parse_axiom_k():
    assert parse("[](p -> q) -> ([]p -> []q)") == Imp(
        Box(Imp(p, q)), Imp(Box(p), Box(q))
    )


def test_parse_precedence():
    assert parse("p | q & r") == Or(p, And(q, r))
    assert parse("~p & q") == And(Not(p), q)
    assert parse("p -> q -> r") == Imp(p, Imp(q, r))


def test_parse_truncated_input_offset():
    with pytest.raises(FormulaSyntaxError) as exc:
        parse("p ->")
    assert exc.value.offset == 4
    assert "identifier" in exc.value.expected


def test_parse_unicode_aliases():
    assert parse("□(p → q) ∧ ¬p ∨ q") == parse("[](p -> q) & ~p | q")


def test_parse_error_reports_byte_offset():
    with pytest.raises(FormulaSyntaxError) as exc:
        parse("□□")  # box takes 3 bytes in utf-8; error points past both
    assert exc.value.offset == 6


def test_parse_trailing_junk():
    with pytest.raises(FormulaSyntaxError) as exc:
        parse("p q")
    assert exc.value.offset == 2


def test_parse_unbalanced_paren():
    with pytest.raises(FormulaSyntaxError):
        parse("(p -> q")


def test_parse_deep_nesting():
    # runs of prefixes and chains of -> are read in loops
    for text in ("~" * 5000 + "p", "[]" * 5000 + "p", "p -> " * 5000 + "p"):
        assert render(parse(text)) == text
    # parentheses recurse, so their depth is capped
    depth = MAX_PAREN_DEPTH
    assert parse("(" * depth + "p" + ")" * depth) == p
    with pytest.raises(FormulaSyntaxError) as exc:
        parse("(" * (depth + 1) + "p" + ")" * (depth + 1))
    assert exc.value.offset == depth
    with pytest.raises(LatModalError):
        parse("(" * 5000 + "p" + ")" * 5000)


# K, disjunction distribution, the 4 axiom and its converse, T, B, and K
# with p := []p
CORPUS = (
    "[](p -> q) -> ([]p -> []q)",
    "([]p | []q) -> [](p | q)",
    "[]p -> [][]p",
    "[][]p -> []p",
    "[]p -> p",
    "p -> []~[]~p",
    "[]([]p -> q) -> ([][]p -> []q)",
)


def _subformulas(f):
    stack = [f]
    while stack:
        g = stack.pop()
        yield g
        if not isinstance(g, Var):
            stack.extend(getattr(g, name) for name in g._fields)


def test_equality_and_hash_agree_with_the_field_tuples():
    # as any record's: equal fields make equal nodes, and a node hashes as
    # the tuple of its fields
    for i, text in enumerate(CORPUS):
        f = parse(text)
        for g in _subformulas(f):
            fields = tuple(getattr(g, name) for name in g._fields)
            assert hash(g) == hash(fields)
            assert g == type(g)(*fields) and g != fields
        for j, other in enumerate(CORPUS):
            assert (f == parse(other)) == (i == j)
            assert (f != parse(other)) == (i != j)
    assert Var("p") != Box(Var("p")) and Not(Var("p")) != Box(Var("p"))


def test_deep_formulas_compare_hash_and_print():
    text = "~" * 5000 + "p"
    a, b = parse(text), parse(text)
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != parse("~" * 4999 + "p") and a != parse("~" * 5000 + "q")
    assert repr(a) == f"parse({text!r})"


def test_render_examples():
    assert render(Box(Or(p, q))) == "[](p | q)"
    assert render(Imp(p, Imp(q, r))) == "p -> q -> r"
    assert render(And(Or(p, q), r)) == "(p | q) & r"
    assert render(Imp(Imp(p, q), r)) == "(p -> q) -> r"
    assert render(Not(Box(p))) == "~[]p"


def test_substitute_examples():
    assert substitute(Or(p, q), {"p": Box(p)}) == Or(Box(p), q)
    assert substitute(p, {}) == p
    target = substitute(Box(Imp(p, p)), {"p": And(q, r)})
    assert target == Box(Imp(And(q, r), And(q, r)))


def test_variables_and_depth():
    f = parse("[](p -> q) -> ([]p -> []q)")
    assert variables(f) == {"p", "q"}
    assert modal_depth(f) == 1
    assert not is_modal_free(f)
    assert is_modal_free(parse("p & ~q"))
    assert modal_depth(parse("[][]p")) == 2


names = st.sampled_from(["p", "q", "r", "s_1", "Zed"])


def formulas(max_leaves=8):
    return st.recursive(
        st.builds(Var, names),
        lambda sub: st.one_of(
            st.builds(Not, sub),
            st.builds(Box, sub),
            st.builds(And, sub, sub),
            st.builds(Or, sub, sub),
            st.builds(Imp, sub, sub),
        ),
        max_leaves=max_leaves,
    )


@settings(max_examples=300, deadline=None)
@given(formulas())
def test_parse_render_roundtrip(f):
    assert parse(render(f)) == f


@settings(max_examples=100, deadline=None)
@given(formulas(max_leaves=5), st.dictionaries(names, formulas(max_leaves=3), max_size=3))
def test_substitution_variables_equation(f, mapping):
    expected = frozenset().union(
        *(
            variables(mapping[x]) if x in mapping else {x}
            for x in variables(f)
        )
    )
    assert variables(substitute(f, mapping)) == expected
