import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latmodal import (
    DEDUCTIVE_EQ1,
    MATERIAL,
    ImplicationTable,
    InvalidInput,
    LatModalError,
    Lattice,
    Matrix,
    MissingOperation,
    ModalFormulaRejected,
    NotALattice,
    NotAPoset,
    big_meet,
    build_implication,
    check_designated,
    check_lattice_properties,
    classify_implication,
    entails,
    enumerate_lattices,
    matrix_from_names,
    parse,
    validate_lattice,
)
from latmodal.formula import AND, IMP, NOT
from latmodal.lattice import _from_down_sets, from_leq

from oracles import (
    down_distribution_exhaustive,
    naive_entailment_witness,
    naive_lattice_tables,
    reference_from_leq,
    reference_validate_lattice,
    subset_join,
)


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
    assert diamond.elements[diamond.meet_table[a][b]] == "0"
    assert diamond.elements[diamond.join_table[a][b]] == "1"


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


def test_from_leq_rejects_an_empty_carrier():
    """As validate_lattice does, instead of a lattice whose top and bottom
    index no element."""
    for build in (lambda: from_leq([], []), lambda: validate_lattice([], [])):
        with pytest.raises(InvalidInput) as exc:
            build()
        assert type(exc.value) is InvalidInput
        assert str(exc.value) == "a lattice needs at least one element"


def test_from_leq_rejects_duplicate_names():
    """As validate_lattice does, instead of a NotALattice for the pair of a
    name with itself."""
    for build in (
        lambda: from_leq(["a", "a"], [[1, 0], [0, 1]]),
        lambda: validate_lattice(["a", "a"], []),
    ):
        with pytest.raises(InvalidInput) as exc:
            build()
        assert type(exc.value) is InvalidInput
        assert str(exc.value) == "element names must be distinct"


def _built_or_raised(build):
    """The lattice a constructor builds, or its error's type and message."""
    try:
        return build()
    except LatModalError as exc:
        return type(exc), str(exc)


def test_constructors_match_the_boolean_row_references():
    """On seeded random relations of 1 to 6 elements, closed and not, with
    distinct names: from_leq, with a negation table in range or not, and
    validate_lattice on the relation's pairs, each build the lattice that
    the references on boolean rows build, or raise the same exception with
    the same message."""
    rng = random.Random(31)
    seen = {}
    for trial in range(4000):
        n = rng.randint(1, 6)
        names = rng.sample("abcdefghij", n)
        rows = [[rng.random() < rng.choice((0.1, 0.3, 0.5)) for _ in range(n)] for _ in range(n)]
        # as drawn; reflexive; reflexive and transitive; and antisymmetric too
        shape, rank = trial % 4, rng.sample(range(n), n)
        for i, j in itertools.product(range(n), repeat=2):
            rows[i][j] = shape and i == j or rows[i][j] and (shape < 3 or rank[i] < rank[j])
        for k, i, j in itertools.product(range(n), repeat=3):
            rows[i][j] = rows[i][j] or shape > 1 and rows[i][k] and rows[k][j]
        neg = [rng.randrange(n + 1) for _ in range(n)] if rng.random() < 0.3 else None
        pairs = [(names[i], names[j]) for i, j in itertools.product(range(n), repeat=2) if rows[i][j]]
        for got, want in (
            (lambda: from_leq(names, rows, neg=neg), lambda: reference_from_leq(names, rows, neg=neg)),
            (lambda: validate_lattice(names, pairs), lambda: reference_validate_lattice(names, pairs)),
        ):
            outcome = _built_or_raised(want)
            assert _built_or_raised(got) == outcome, (names, rows, neg)
            if isinstance(outcome, Lattice):
                kind = "lattice"
            else:
                kind = outcome[1] if outcome[0] is InvalidInput else outcome[0].__name__
            seen[kind] = seen.get(kind, 0) + 1
    assert min(seen.values()) > 100, seen
    assert set(seen) == {
        "lattice",
        "NotAPoset",
        "NotALattice",
        "leq matrix must be reflexive",
        "leq matrix must be transitive",
        "unary table must map every element to an element",
    }, seen


def test_lattice_laws_on_enumerated_lattices():
    for lat in all_small_lattices(5):
        n, meet, join = lat.n, lat.meet_table, lat.join_table
        for a in range(n):
            assert meet[a][a] == a and join[a][a] == a
            for b in range(n):
                assert meet[a][b] == meet[b][a]
                assert join[a][b] == join[b][a]
                assert meet[a][join[a][b]] == a  # absorption
                assert join[a][meet[a][b]] == a
                for c in range(n):
                    assert meet[a][meet[b][c]] == meet[meet[a][b]][c]
                    assert join[a][join[b][c]] == join[join[a][b]][c]


def test_meet_join_agree_with_order():
    for lat in all_small_lattices(5):
        for a in range(lat.n):
            for b in range(lat.n):
                m, leq = lat.meet_table[a][b], lat.leq
                assert leq[m][a] and leq[m][b]
                for k in range(lat.n):
                    if leq[k][a] and leq[k][b]:
                        assert leq[k][m]



def test_tables_match_the_bounds_searched_by_definition():
    """On random closed orders of 1 to 7 elements, lattices and not, indexed
    in a random order: the tables that the constructors' core reads off the
    down-set and up-set bitmasks are the bounds that the oracle searches
    for, and a non-lattice names the oracle's first pair without a meet or
    a join."""
    rng = random.Random(0)
    outcomes = {"lattice": 0, "meet": 0, "join": 0}
    for _ in range(3000):
        n = rng.randint(1, 7)
        rank = rng.sample(range(n), n)  # each element's place in a linear extension
        density, bounded = rng.choice((0.2, 0.4, 0.7)), rng.random() < 0.5
        pairs = [
            (a, b)
            for a, b in itertools.permutations(range(n), 2)
            if rank[a] < rank[b]
            and (rng.random() < density or bounded and (rank[a] == 0 or rank[b] == n - 1))
        ]
        leq = [[a == b or (a, b) in pairs for b in range(n)] for a in range(n)]
        for k, a, b in itertools.product(range(n), repeat=3):
            leq[a][b] = leq[a][b] or leq[a][k] and leq[k][b]
        names = [f"e{i}" for i in range(n)]
        down = [sum(1 << a for a in range(n) if leq[a][b]) for b in range(n)]
        try:
            lat = _from_down_sets(names, down)
            got = [list(row) for row in lat.meet_table], [list(row) for row in lat.join_table]
            outcomes["lattice"] += 1
        except NotALattice as exc:
            got = exc.kind, tuple(map(names.index, exc.pair))
            outcomes[exc.kind] += 1
        assert got == naive_lattice_tables(leq), (names, pairs)
    assert min(outcomes.values()) > 100, outcomes


# ---------------------------------------------------------------------------
# Lattice.operation / big_meet


def test_operation_examples(diamond, c3):
    a, b = diamond.index("a"), diamond.index("b")
    assert diamond.operation(AND)[a][b] == diamond.index("0")
    h = c3.index("h")
    assert c3.operation(NOT)[h] == h
    c3m = c3.with_imp(build_implication(c3, MATERIAL))
    assert c3m.operation(IMP)[h][c3.index("0")] == h


def test_operation_missing_operation(diamond):
    with pytest.raises(MissingOperation):
        diamond.operation(NOT)
    with pytest.raises(MissingOperation):
        diamond.operation(IMP)


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
                assert all(lat.leq[m][x] for x in subset)
                for k in elements:
                    if all(lat.leq[k][x] for x in subset):
                        assert lat.leq[k][m]


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
                lhs = lat.join_table[big_meet(lat, fs)][big_meet(lat, gs)]
                assert lat.leq[lhs][big_meet(lat, subset_join(lat, fs, gs))]


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
    x, y = props.linear_witness
    assert not (lat.leq[x][y] or lat.leq[y][x])


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
    rhs = m3.join_table[big_meet(m3, fs)][big_meet(m3, gs)]
    assert lhs != rhs
    assert fs == {m3.index("a")} and gs == {m3.index("b"), m3.index("c")}


def test_down_distribution_fast_agrees_with_exhaustive():
    """The binary law on triples against the law on every pair of non-empty
    subsets: every lattice of at most 6 elements as enumerated, and each
    non-distributive one of at most 7 elements relabelled 30 times at
    random (seeded).  The verdicts agree, and each witness violates the
    law; the two witnesses may differ on a relabelled lattice."""

    def violates(lat, witness):
        fs, gs = witness
        rhs = lat.join_table[big_meet(lat, fs)][big_meet(lat, gs)]
        return big_meet(lat, subset_join(lat, fs, gs)) != rhs

    def relabelled(lat, perm):
        # element i of lat becomes element perm[i]
        names, rows = [None] * lat.n, [[False] * lat.n for _ in range(lat.n)]
        for i in range(lat.n):
            names[perm[i]] = lat.elements[i]
            for j in range(lat.n):
                rows[perm[i]][perm[j]] = lat.leq[i][j]
        return from_leq(names, rows)

    rng = random.Random(32)
    relabelled_cases = other_witness = 0
    for n in range(1, 8):
        for lat in enumerate_lattices(n):
            cases = [lat] if n <= 6 else []
            if not check_lattice_properties(lat).down_distribution:
                cases += [relabelled(lat, rng.sample(range(n), n)) for _ in range(30)]
                relabelled_cases += 30
            for case in cases:
                fast = check_lattice_properties(case)
                slow = down_distribution_exhaustive(case)
                assert fast.down_distribution == (slow is None), case
                if slow is not None:
                    assert violates(case, slow) and violates(case, fast.down_distribution_witness)
                    other_witness += slow != fast.down_distribution_witness
    assert relabelled_cases == 1710
    assert other_witness > 0


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


def test_entails_sweeps_past_one_block():
    """18 variables on the 2-chain, which sort as strings, so x0 varies
    slowest: the one witness, x0 = 0 and every other variable 1, lies at
    flat index 2^17 - 1, and a negation of x0 is first reached there.  10
    variables on the 3-chain: a block holds 3^8 valuations, over which x02
    to x09 vary while x00 and x01 are constant.  The one witness, x00 = 2,
    x01 = x02 = 0 and every other variable 2, lies in block 6 of 9, and a
    negation of x01 is first reached there."""
    from latmodal import chain

    matrix = matrix_from_names(chain(2, "none"), ["1"])
    rest = [f"x{i}" for i in range(1, 18)]
    premise = parse(" & ".join(rest))
    result = entails(matrix, [premise], parse("x0"))
    assert not result.holds
    assert result.witness == {"x0": 0, **dict.fromkeys(rest, 1)}
    with pytest.raises(MissingOperation):
        entails(matrix, [premise], parse("~x0"))

    matrix = matrix_from_names(chain(3, "none"), ["1"])
    rest = [f"x{i:02d}" for i in range(3, 10)]
    premise = parse(" & ".join(["x00", *rest]))
    result = entails(matrix, [premise], parse("x01 | x02"))
    assert not result.holds
    assert result.witness == {"x00": 2, "x01": 0, "x02": 0, **dict.fromkeys(rest, 2)}
    with pytest.raises(MissingOperation):
        entails(matrix, [premise], parse("~x01 | x02"))


def test_entails_matches_the_valuation_loop_at_every_block_size(monkeypatch):
    """Blocks of 1 to 7 valuations, so that a block holds n^k of them for k
    from 0 to 1 on the 4-chain and Belnap's lattice: the witness and the
    missing operation are the oracle's."""
    import latmodal.lattice
    from latmodal import belnap_four, chain, enumerate_upsets

    formulas = [parse(s) for s in ("p", "~q", "p -> q", "~q | r", "(p -> q) -> r")]
    lattices = [chain(4, "none"), belnap_four()]
    queries = [
        (Matrix(lat, upset), [premise], conclusion)
        for lat in (lat.with_imp(build_implication(lat, DEDUCTIVE_EQ1)) for lat in lattices)
        for upset in enumerate_upsets(lat)
        for premise in formulas
        for conclusion in formulas
    ]
    expected = [_outcome(naive_entailment_witness, *args) for args in queries]
    assert {type(e) for e in expected} == {type(None), dict, str}
    for block in (1, 3, 4, 7):
        monkeypatch.setattr(latmodal.lattice, "_ENTAILS_BLOCK", block)
        for args, outcome in zip(queries, expected):
            result = _outcome(entails, *args)
            assert (result if isinstance(result, str) else result.witness) == outcome, args


def test_custom_implication_table_roundtrip(c3):
    n = c3.n
    table = ImplicationTable(tuple(tuple((a + b) % n for b in range(n)) for a in range(n)))
    lat = c3.with_imp(table)
    assert lat.imp.mode == "custom"
    assert classify_implication(Matrix(lat, frozenset({c3.top}))) is not None
