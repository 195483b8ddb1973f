import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latmodal import (
    DEDUCTIVE_EQ1,
    MATERIAL,
    BoundTooLarge,
    ImplicationTable,
    Matrix,
    MissingOperation,
    ModalFormulaRejected,
    NotALattice,
    NotAPoset,
    apply_op,
    big_meet,
    build_implication,
    check_designated,
    check_lattice_properties,
    classify_implication,
    entails,
    enumerate_lattices,
    matrix_from_names,
    parse,
    subset_join,
    validate_lattice,
)
from latmodal.lattice import propositional_value

from oracles import naive_entailment_witness


def all_small_lattices(max_size=5):
    for n in range(1, max_size + 1):
        yield from enumerate_lattices(n)


# ---------------------------------------------------------------------------
# validation


def test_two_element_chain():
    lat = validate_lattice(["0", "1"], [("0", "1")])
    assert lat.elements[lat.top] == "1"
    assert lat.elements[lat.bottom] == "0"


def test_diamond_tables(diamond):
    a, b = diamond.index("a"), diamond.index("b")
    assert diamond.elements[diamond.meet(a, b)] == "0"
    assert diamond.elements[diamond.join(a, b)] == "1"


def test_closure_accepts_transitive_inputs():
    # Full relation and Hasse edges give the same lattice.
    hasse = validate_lattice(["0", "h", "1"], [("0", "h"), ("h", "1")])
    full = validate_lattice(["0", "h", "1"], [("0", "h"), ("h", "1"), ("0", "1")])
    assert hasse.leq == full.leq


def test_hexagon_with_two_minimal_upper_bounds_rejected():
    edges = [
        ("0", "a"), ("0", "b"),
        ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"),
        ("c", "1"), ("d", "1"),
    ]
    with pytest.raises(NotALattice) as exc:
        validate_lattice(["0", "a", "b", "c", "d", "1"], edges)
    assert exc.value.pair == ("a", "b")
    assert exc.value.kind == "join"


def test_cycle_rejected_as_poset():
    with pytest.raises(NotAPoset) as exc:
        validate_lattice(["x", "y"], [("x", "y"), ("y", "x")])
    assert set(exc.value.pair) == {"x", "y"}


def test_duplicate_names_rejected():
    from latmodal import InvalidInput

    with pytest.raises(InvalidInput):
        validate_lattice(["x", "x"], [])


def test_lattice_laws_on_enumerated_lattices():
    for lat in all_small_lattices(5):
        n = lat.n
        for a in range(n):
            assert lat.meet(a, a) == a and lat.join(a, a) == a
            for b in range(n):
                assert lat.meet(a, b) == lat.meet(b, a)
                assert lat.join(a, b) == lat.join(b, a)
                assert lat.meet(a, lat.join(a, b)) == a  # absorption
                assert lat.join(a, lat.meet(a, b)) == a
                for c in range(n):
                    assert lat.meet(a, lat.meet(b, c)) == lat.meet(lat.meet(a, b), c)
                    assert lat.join(a, lat.join(b, c)) == lat.join(lat.join(a, b), c)


def test_meet_join_agree_with_order():
    for lat in all_small_lattices(5):
        for a in range(lat.n):
            for b in range(lat.n):
                m = lat.meet(a, b)
                assert lat.le(m, a) and lat.le(m, b)
                for k in range(lat.n):
                    if lat.le(k, a) and lat.le(k, b):
                        assert lat.le(k, m)


# ---------------------------------------------------------------------------
# apply_op / big_meet / subset_join


def test_apply_op_examples(diamond, c3):
    a, b = diamond.index("a"), diamond.index("b")
    assert apply_op(diamond, "meet", (a, b)) == diamond.index("0")
    h = c3.index("h")
    assert apply_op(c3, "neg", (h,)) == h
    c3m = c3.with_imp(build_implication(c3, MATERIAL))
    assert apply_op(c3m, "imp", (h, c3.index("0"))) == h


def test_apply_op_missing_operation(diamond):
    with pytest.raises(MissingOperation):
        apply_op(diamond, "neg", (0,))
    with pytest.raises(MissingOperation):
        apply_op(diamond, "imp", (0, 0))


def test_big_meet_examples(c3, diamond):
    h, one = c3.index("h"), c3.index("1")
    assert big_meet(c3, {h, one}) == h
    assert big_meet(diamond, {diamond.index("a"), diamond.index("b")}) == diamond.index("0")
    assert big_meet(c3, set()) == c3.top
    assert big_meet(diamond, set()) == diamond.top


def test_big_meet_is_greatest_lower_bound():
    for lat in all_small_lattices(5):
        elements = range(lat.n)
        for r in range(1, lat.n + 1):
            for subset in itertools.combinations(elements, r):
                m = big_meet(lat, subset)
                assert all(lat.le(m, x) for x in subset)
                for k in elements:
                    if all(lat.le(k, x) for x in subset):
                        assert lat.le(k, m)


def test_subset_join_examples(c3, diamond):
    a, b = diamond.index("a"), diamond.index("b")
    assert subset_join(diamond, {a}, {b}) == {diamond.index("1")}
    z, h = c3.index("0"), c3.index("h")
    assert subset_join(c3, {z, h}, {h}) == {h}
    assert subset_join(diamond, {a}, set()) == frozenset()


def test_superadditivity_small():
    # big_meet(F) + big_meet(G) <= big_meet(F + G); the size-6 sweep is in
    # the acceptance suite.
    for lat in all_small_lattices(4):
        subsets = [
            frozenset(c)
            for r in range(1, lat.n + 1)
            for c in itertools.combinations(range(lat.n), r)
        ]
        for fs in subsets:
            for gs in subsets:
                lhs = lat.join(big_meet(lat, fs), big_meet(lat, gs))
                assert lat.le(lhs, big_meet(lat, subset_join(lat, fs, gs)))


# ---------------------------------------------------------------------------
# designated-set checks


def test_check_designated_diamond_upset(diamond):
    m = matrix_from_names(diamond, ["a", "b", "1"])
    props = check_designated(m)
    assert props.upward_closed
    assert not props.is_filter
    a, b = diamond.index("a"), diamond.index("b")
    assert props.filter_witness == (a, b)
    assert props.is_implicative is None  # no implication table


def test_check_designated_non_upset(diamond):
    props = check_designated(matrix_from_names(diamond, ["a"]))
    assert not props.upward_closed
    assert props.upward_witness == (diamond.index("a"), diamond.index("1"))


def test_c3_material_implicative(c3_material_lp):
    assert check_designated(c3_material_lp).is_implicative is True


def test_belnap_designated_not_implicative(four):
    m = matrix_from_names(four.with_imp(build_implication(four, MATERIAL)), ["T", "B"])
    props = check_designated(m)
    n = four.index("N")
    assert props.is_implicative is False
    assert props.implicative_witness == (n, n)


def test_k5_not_linear_outside(k5):
    props = check_designated(k5)
    assert not props.linear_outside
    lat = k5.lattice
    assert lat.elements[props.linear_witness[0]] == "a"
    assert not lat.comparable(*props.linear_witness)


def test_empty_designated_allowed(c3, diamond):
    props = check_designated(Matrix(c3, frozenset()))
    assert props.upward_closed and props.is_filter
    assert props.linear_outside  # chains have no incomparable pairs at all
    assert not check_designated(Matrix(diamond, frozenset())).linear_outside


# ---------------------------------------------------------------------------
# lattice property checks


def test_c3_neg_properties(c3):
    props = check_lattice_properties(c3)
    assert props.anti_monotone and props.involutive and props.down_distribution


def test_m3_not_down_distributive(m3):
    props = check_lattice_properties(m3)
    assert not props.down_distribution
    fs, gs = props.down_distribution_witness
    # the reported witness really violates the law
    lhs = big_meet(m3, subset_join(m3, fs, gs))
    rhs = m3.join(big_meet(m3, fs), big_meet(m3, gs))
    assert lhs != rhs
    assert fs == {m3.index("a")} and gs == {m3.index("b"), m3.index("c")}


def test_down_distribution_fast_agrees_with_exhaustive():
    for n in range(1, 7):
        for lat in enumerate_lattices(n):
            fast = check_lattice_properties(lat, down_distribution_mode="fast")
            slow = check_lattice_properties(lat, down_distribution_mode="exhaustive")
            assert fast.down_distribution == slow.down_distribution, lat.name
            if not slow.down_distribution:
                fs, gs = slow.down_distribution_witness
                lhs = big_meet(lat, subset_join(lat, fs, gs))
                rhs = lat.join(big_meet(lat, fs), big_meet(lat, gs))
                assert lhs != rhs


def test_exhaustive_down_distribution_guard():
    lat = next(iter(enumerate_lattices(2)))
    big = validate_lattice(
        [str(i) for i in range(11)], [(str(i), str(i + 1)) for i in range(10)]
    )
    check_lattice_properties(lat, down_distribution_mode="exhaustive")
    with pytest.raises(BoundTooLarge):
        check_lattice_properties(big, down_distribution_mode="exhaustive")


def test_neg_free_lattice_reports_none(diamond):
    props = check_lattice_properties(diamond)
    assert props.anti_monotone is None and props.involutive is None


# ---------------------------------------------------------------------------
# implications


def test_build_implication_eq1(c3):
    table = build_implication(c3, DEDUCTIVE_EQ1)
    z, h, one = c3.index("0"), c3.index("h"), c3.index("1")
    assert table.table[z][h] == one
    assert table.table[h][z] == z


def test_build_implication_material_b2(b2):
    table = build_implication(b2, MATERIAL)
    assert table.table[b2.index("1")][b2.index("0")] == b2.index("0")


def test_build_material_needs_neg(diamond):
    with pytest.raises(MissingOperation):
        build_implication(diamond, MATERIAL)


def test_eq1_is_strictly_deductive_everywhere():
    for lat in all_small_lattices(4):
        lat = lat.with_imp(build_implication(lat, DEDUCTIVE_EQ1))
        cls = classify_implication(Matrix(lat, frozenset({lat.top})))
        assert cls.deductive and cls.strictly_deductive


def test_c3_material_not_deductive(c3_material_lp):
    cls = classify_implication(c3_material_lp)
    lat = c3_material_lp.lattice
    assert not cls.deductive
    assert cls.deductive_witness == (lat.index("h"), lat.index("0"))


def test_k5_classification(k5):
    # The custom table keeps the box-K property while being neither
    # deductive nor strictly deductive: a -> a is f, not the top, and
    # incomparable pairs do not return their consequent.
    cls = classify_implication(k5)
    assert not cls.deductive
    assert not cls.strictly_deductive


# ---------------------------------------------------------------------------
# entailment


def test_entails_classical(b2):
    m = matrix_from_names(b2.with_imp(build_implication(b2, MATERIAL)), ["1"])
    assert entails(m, [parse("p")], parse("p | q")).holds


def test_modus_ponens_pair(c3_material_lp, c3_eq1):
    premises = [parse("p"), parse("p -> q")]
    conclusion = parse("q")
    failed = entails(c3_material_lp, premises, conclusion)
    assert not failed.holds
    lat = c3_material_lp.lattice
    assert failed.witness == {"p": lat.index("h"), "q": lat.index("0")}
    assert entails(c3_eq1, premises, conclusion).holds


def test_entails_rejects_boxes(c3_eq1):
    with pytest.raises(ModalFormulaRejected):
        entails(c3_eq1, [parse("[]p")], parse("p"))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_entails_tarski_conditions(data):
    from latmodal import chain

    base = chain(3, "flip")
    c3_eq1 = matrix_from_names(
        base.with_imp(build_implication(base, DEDUCTIVE_EQ1)), ["h", "1"]
    )
    formulas = [parse(s) for s in ("p", "q", "p & q", "p | q", "p -> q", "~p")]
    gamma = data.draw(st.lists(st.sampled_from(formulas), max_size=3))
    extra = data.draw(st.lists(st.sampled_from(formulas), max_size=2))
    phi = data.draw(st.sampled_from(formulas))
    # reflexivity
    assert entails(c3_eq1, gamma + [phi], phi).holds
    # monotonicity
    if entails(c3_eq1, gamma, phi).holds:
        assert entails(c3_eq1, gamma + extra, phi).holds


def _outcome(search, *args):
    try:
        return search(*args)
    except MissingOperation as exc:
        return str(exc)


def test_entails_matches_the_valuation_loop():
    # on the bare chain, "~" raises only if a valuation designates every
    # formula before it
    from latmodal import belnap_four, chain, enumerate_upsets

    formulas = [parse(s) for s in ("p", "q", "p -> q", "p & ~p", "~q | r", "(p -> q) -> r")]
    lattices = [chain(4, "none"), belnap_four()]
    lattices = [lat.with_imp(build_implication(lat, DEDUCTIVE_EQ1)) for lat in lattices]
    witnesses = 0
    for lat in lattices:
        for upset in enumerate_upsets(lat):
            matrix = Matrix(lat, upset)
            for k in range(3):
                for premises in itertools.combinations(formulas, k):
                    for conclusion in formulas:
                        args = (matrix, list(premises), conclusion)
                        result = _outcome(entails, *args)
                        expected = _outcome(naive_entailment_witness, *args)
                        if not isinstance(result, str):
                            assert result.holds == (result.witness is None)
                            result = result.witness
                        assert result == expected, args
                        witnesses += isinstance(expected, dict)
    assert witnesses > 0


def test_propositional_value_against_tables(c3_material_lp):
    lat = c3_material_lp.lattice
    h = lat.index("h")
    value = propositional_value(lat, {"p": h, "q": lat.index("0")}, parse("~p | q"))
    assert value == h


def test_custom_implication_table_roundtrip(c3):
    n = c3.n
    table = ImplicationTable(tuple(tuple((a + b) % n for b in range(n)) for a in range(n)))
    lat = c3.with_imp(table)
    assert lat.imp.mode == "custom"
    assert classify_implication(Matrix(lat, frozenset({c3.top}))) is not None
