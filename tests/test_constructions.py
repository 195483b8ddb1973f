import pytest

from latmodal import (
    Matrix,
    NotBoolean,
    BoundTooLarge,
    boolean_algebra,
    build_implication,
    chain,
    check_designated,
    check_lattice_properties,
    find_frame_counterexample,
    matrix_from_names,
    twist,
)
from latmodal.search import AXIOM_K

from oracles import axiom_k_valid_all_frames


def test_boolean_algebra_b2():
    lat = boolean_algebra(1)
    assert lat.elements == ("0", "1")
    assert lat.neg[lat.index("0")] == lat.index("1")


def test_boolean_algebra_b4():
    lat = boolean_algebra(2)
    assert lat.elements == ("0", "a", "b", "1")
    a, b = lat.index("a"), lat.index("b")
    assert lat.neg[a] == b and lat.neg[b] == a
    assert lat.meet_table[a][b] == lat.bottom and lat.join_table[a][b] == lat.top
    props = check_lattice_properties(lat)
    assert props.anti_monotone and props.involutive and props.down_distribution


def test_boolean_algebra_guard():
    with pytest.raises(BoundTooLarge):
        boolean_algebra(5)


def test_chain_constructions():
    c3 = chain(3, "flip")
    assert c3.elements == ("0", "h", "1")
    assert c3.neg[c3.index("h")] == c3.index("h")
    assert chain(2, "flip").elements == ("0", "1")
    c4 = chain(4, "flip")
    props = check_lattice_properties(c4)
    assert props.anti_monotone and props.involutive
    assert chain(4, "none").neg is None


def test_belnap_four(four):
    n, b = four.index("N"), four.index("B")
    assert four.meet_table[n][b] == four.index("F")
    assert four.neg[b] == b
    mat = matrix_from_names(
        four.with_imp(build_implication(four, "material")), ["T", "B"]
    )
    assert check_designated(mat).is_implicative is False


# ---------------------------------------------------------------------------
# antichain_k5


def test_k5_table_values(k5):
    lat = k5.lattice
    a, b, f_ = lat.index("a"), lat.index("b"), lat.index("f")
    assert lat.elements[lat.imp.table[a][b]] == "f"
    # incomparable pairs all map to f; that keeps the implication range
    # inside the designated set, which is what preserves box-K
    assert lat.elements[lat.imp.table[b][a]] == "f"
    assert lat.elements[lat.imp.table[a][a]] == "f"
    assert lat.elements[lat.imp.table[b][b]] == "1"
    assert lat.elements[lat.imp.table[lat.index("0")][f_]] == "1"
    assert k5.designated_names() == ["f", "1"]


def test_k5_box_k_valid_on_all_frames(k5):
    assert axiom_k_valid_all_frames(k5)


def test_k5_strictly_deductive_fallback_breaks_k(k5):
    # replacing the table with the usual top-or-consequent rule loses the
    # box-K property (three-world countermodel exists), so the shipped
    # table's deviations are load-bearing
    lat = k5.lattice
    a, b = lat.index("a"), lat.index("b")
    from latmodal import ImplicationTable

    fallback = tuple(
        tuple(
            lat.index("f") if (x, y) == (a, b) else (lat.top if lat.leq[x][y] else y)
            for y in range(lat.n)
        )
        for x in range(lat.n)
    )
    broken = Matrix(lat.with_imp(ImplicationTable(fallback)), k5.designated)
    assert not axiom_k_valid_all_frames(broken)
    report = find_frame_counterexample(broken, AXIOM_K, 3)
    assert report is not None and report.recheck()


# ---------------------------------------------------------------------------
# twist


def test_twist_b2_operations():
    t = twist(boolean_algebra(1))
    lat = t.lattice
    i10, i01 = lat.index("(1,0)"), lat.index("(0,1)")
    assert lat.elements[lat.join_table[i10][i01]] == "(1,0)"
    assert lat.elements[lat.neg[i10]] == "(0,1)"
    assert t.designated_names() == ["(1,0)", "(1,1)"]


def test_twist_b2_restricted_carrier():
    t = twist(boolean_algebra(1), restrict_p=True)
    assert set(t.lattice.elements) == {"(1,0)", "(0,1)", "(1,1)"}
    lat = t.lattice
    # t + (-t) always has top first coordinate on the restriction
    for i in range(lat.n):
        joined = lat.join_table[i][lat.neg[i]]
        assert lat.elements[joined].startswith("(1,")


def test_twist_carrier_sizes():
    for k in (1, 2, 3):
        t = twist(boolean_algebra(k), restrict_p=True)
        assert t.lattice.n == 3**k


def test_twist_properties():
    for k in (1, 2, 3):
        for restrict in (False, True):
            lat = twist(boolean_algebra(k), restrict_p=restrict).lattice
            props = check_lattice_properties(lat)
            assert props.anti_monotone and props.involutive


def test_twist_order_is_product_with_reversal():
    base = boolean_algebra(2)
    t = twist(base)
    lat = t.lattice
    pairs = []
    for name in lat.elements:
        x, y = name[1:-1].split(",")
        pairs.append((base.index(x), base.index(y)))
    for i, (a, b) in enumerate(pairs):
        for j, (c, d) in enumerate(pairs):
            expected = base.leq[a][c] and base.leq[d][b]
            assert lat.leq[i][j] == expected


def test_twist_material_implication_lands_in_ones():
    t = twist(boolean_algebra(2), restrict_p=True)
    lat = t.lattice
    for a in range(lat.n):
        for b in range(lat.n):
            if lat.leq[a][b]:
                assert lat.imp.table[a][b] in t.designated


def test_twist_rejects_non_boolean(c3, m3, four):
    with pytest.raises(NotBoolean):
        twist(c3)  # flip negation is not a complement
    with pytest.raises(NotBoolean):
        twist(m3)  # no negation at all
    with pytest.raises(NotBoolean):
        twist(four)  # involution but not complement
