"""Acceptance suite: one test per release criterion, each printing a
pass/fail line.  Run with `pytest tests/test_acceptance.py -v -s`.

The criteria pin exact biconditionals at desk scale (lattices up to size 5
or 6, frames up to 3 worlds) plus two timing floors.  Universe conventions
match the harness: designated sets range over non-empty upward-closed
subsets, except the twist check which includes the empty set; the
K/linearity structural side includes the filter requirement that the
linear-outside notion presupposes (without it the biconditional is provably
false, e.g. on the diamond with designated {a, b, 1}).
"""

import itertools
import time

from latmodal import (
    DEDUCTIVE_EQ1,
    MATERIAL,
    KripkeModel,
    Matrix,
    big_meet,
    boolean_algebra,
    build_implication,
    chain,
    check_designated,
    check_lattice_properties,
    construct_witness,
    entails,
    enumerate_complementations,
    enumerate_frames,
    enumerate_lattices,
    enumerate_upsets,
    find_frame_counterexample,
    antichain_k5,
    matrix_from_names,
    model_satisfies,
    parse,
    twist,
    world_satisfies,
)
from latmodal.search import AXIOM_K, BOX_DISJUNCTION_DIST

from oracles import classical_satisfies, scan_frame, subset_join


def _report(number: int, description: str, ok: bool) -> None:
    print(f"criterion {number:02d} {'PASS' if ok else 'FAIL'}: {description}")
    assert ok, f"criterion {number} failed: {description}"


def _lattices(max_size):
    for n in range(1, max_size + 1):
        yield from enumerate_lattices(n)


def _nonempty_upsets(lat):
    return (u for u in enumerate_upsets(lat) if u)


def test_01_classical_oracle_equivalence():
    b2 = boolean_algebra(1)
    lat = b2.with_imp(build_implication(b2, MATERIAL))
    matrix = matrix_from_names(lat, ["1"])
    one = lat.index("1")
    formulas = [
        parse(s)
        for s in (
            "p",
            "~p",
            "p & q",
            "p | q",
            "p -> q",
            "[]p",
            "[](p -> q) -> ([]p -> []q)",
            "[][]p",
            "~[]~p",
            "p -> []p",
        )
    ]
    mismatches = 0
    checked = 0
    start = time.perf_counter()
    for frame in enumerate_frames(3):
        n_worlds = len(frame.worlds)
        successors = {w: frame.successors(w) for w in range(n_worlds)}
        slots = [(w, v) for w in range(n_worlds) for v in ("p", "q")]
        for bits in itertools.product((0, 1), repeat=len(slots)):
            valuation = dict(zip(slots, bits))
            model = KripkeModel(
                frame, lat, {s: (one if b else lat.index("0")) for s, b in valuation.items()}
            )
            boolean = {s: bool(b) for s, b in valuation.items()}
            for w in range(n_worlds):
                for f in formulas:
                    checked += 1
                    ours = world_satisfies(matrix, model, w, f)
                    reference = classical_satisfies(successors, boolean, w, f)
                    if ours != reference:
                        mismatches += 1
    elapsed = time.perf_counter() - start
    _report(
        1,
        f"two-valued oracle equivalence ({checked} checks, "
        f"{mismatches} mismatches, {elapsed:.1f}s < 10s)",
        mismatches == 0 and elapsed < 10.0,
    )


def test_02_regularity_iff_filter():
    from latmodal import check_regularity

    start = time.perf_counter()
    cases = 0
    exceptions = 0
    for lat in _lattices(5):
        for upset in _nonempty_upsets(lat):
            cases += 1
            result = check_regularity(Matrix(lat, upset))
            if result.regular != result.is_filter:
                exceptions += 1
    elapsed = time.perf_counter() - start
    _report(
        2,
        f"regularity <=> filter over {cases} matrices "
        f"({exceptions} exceptions, {elapsed:.1f}s < 60s)",
        exceptions == 0 and elapsed < 60.0,
    )


def test_03_eq1_makes_every_designated_set_implicative():
    exceptions = 0
    cases = 0
    for lat in _lattices(5):
        lat = lat.with_imp(build_implication(lat, DEDUCTIVE_EQ1))
        for upset in _nonempty_upsets(lat):
            cases += 1
            if lat.top not in upset:
                exceptions += 1  # non-empty upsets always contain the top
            if check_designated(Matrix(lat, upset)).is_implicative is not True:
                exceptions += 1
    _report(
        3,
        f"top-if-below implication is implicative for all {cases} designated sets "
        f"({exceptions} exceptions)",
        exceptions == 0,
    )


def _box_biconditional(lattices_with_upsets, structural_of, formula, witness_kind):
    cases = 0
    exceptions = 0
    defects_without_witness = 0
    for matrix in lattices_with_upsets:
        cases += 1
        structural = structural_of(matrix)
        counterexample = find_frame_counterexample(matrix, formula, 3)
        if structural != (counterexample is None):
            exceptions += 1
            continue
        if not structural:
            if counterexample is None or len(counterexample.model.frame.worlds) > 3:
                defects_without_witness += 1
            elif witness_kind is not None:
                model = construct_witness(witness_kind, matrix)
                holds, _ = model_satisfies(matrix, model, formula)
                if holds:
                    defects_without_witness += 1
    return cases, exceptions, defects_without_witness


def test_04_box_disjunction_distribution_iff_implicative():
    def matrices():
        for lat in _lattices(5):
            lat = lat.with_imp(build_implication(lat, DEDUCTIVE_EQ1))
            for upset in _nonempty_upsets(lat):
                yield Matrix(lat, upset)

    cases, exceptions, missing = _box_biconditional(
        matrices(),
        lambda m: check_designated(m).is_implicative is True,
        BOX_DISJUNCTION_DIST,
        "nonimplicative",
    )
    _report(
        4,
        f"box-disjunction distribution <=> implicative over {cases} matrices "
        f"({exceptions} exceptions, {missing} defects without a 3-world witness)",
        exceptions == 0 and missing == 0,
    )


def test_05_box_k_iff_linear_outside_filter():
    def matrices():
        for lat in _lattices(5):
            lat = lat.with_imp(build_implication(lat, DEDUCTIVE_EQ1))
            for upset in _nonempty_upsets(lat):
                yield Matrix(lat, upset)

    def structural(matrix):
        props = check_designated(matrix)
        return props.is_filter and props.linear_outside

    cases, exceptions, missing = _box_biconditional(
        matrices(), structural, AXIOM_K, None
    )
    _report(
        5,
        f"box-K <=> filter linear outside it, over {cases} matrices "
        f"({exceptions} exceptions, {missing} defects without a 3-world witness)",
        exceptions == 0 and missing == 0,
    )


def test_06_box_k_iff_implicative_under_material():
    def matrices():
        for lat in _lattices(5):
            if not check_lattice_properties(lat).down_distribution:
                continue
            for neg in enumerate_complementations(lat, "antimonotone_involutions"):
                lat_full = lat.with_neg(neg)
                lat_full = lat_full.with_imp(build_implication(lat_full, MATERIAL))
                for upset in _nonempty_upsets(lat_full):
                    yield Matrix(lat_full, upset)

    cases, exceptions, missing = _box_biconditional(
        matrices(),
        lambda m: check_designated(m).is_implicative is True,
        AXIOM_K,
        "nonimplicative_k_material",
    )
    _report(
        6,
        f"box-K <=> implicative (material implication, anti-monotone involutions) "
        f"over {cases} matrices ({exceptions} exceptions, {missing} missing witnesses)",
        exceptions == 0 and missing == 0,
    )


def test_07_k5_regression():
    matrix = antichain_k5()
    counterexample = find_frame_counterexample(matrix, AXIOM_K, 3)
    props = check_designated(matrix)
    ok = counterexample is None and not props.linear_outside
    _report(
        7,
        "five-element regression: box-K valid within 3 worlds and "
        "not linear outside {f, 1}",
        ok,
    )


def test_08_twist_k_iff_designated_covers_ones():
    cases = 0
    exceptions = 0
    sizes = {}
    for atoms in (1, 2):
        matrix = twist(boolean_algebra(atoms), restrict_p=True)
        lat = matrix.lattice
        ones = matrix.designated
        sizes[atoms] = lat.n
        for upset in enumerate_upsets(lat):
            cases += 1
            structural = ones <= upset
            counterexample = find_frame_counterexample(
                Matrix(lat, upset), AXIOM_K, 3
            )
            if structural != (counterexample is None):
                exceptions += 1
    _report(
        8,
        f"twist restriction: box-K <=> designated covers the top-first pairs, "
        f"P sizes {sizes[1]} and {sizes[2]}, {cases} designated sets "
        f"({exceptions} exceptions)",
        exceptions == 0 and sizes == {1: 3, 2: 9},
    )


def test_09_superadditivity_up_to_six():
    exceptions = 0
    cases = 0
    for n in range(1, 7):
        for lat in enumerate_lattices(n):
            subsets = [
                frozenset(c)
                for r in range(1, lat.n + 1)
                for c in itertools.combinations(range(lat.n), r)
            ]
            for fs in subsets:
                for gs in subsets:
                    cases += 1
                    lhs = lat.join_table[big_meet(lat, fs)][big_meet(lat, gs)]
                    if not lat.leq[lhs][big_meet(lat, subset_join(lat, fs, gs))]:
                        exceptions += 1
    _report(
        9,
        f"meet superadditivity over joins on {cases} subset pairs "
        f"({exceptions} exceptions)",
        exceptions == 0,
    )


def test_10_modus_ponens_pair():
    c3 = chain(3, "flip")
    premises = [parse("p"), parse("p -> q")]
    conclusion = parse("q")
    material = matrix_from_names(
        c3.with_imp(build_implication(c3, MATERIAL)), ["h", "1"]
    )
    eq1 = matrix_from_names(
        c3.with_imp(build_implication(c3, DEDUCTIVE_EQ1)), ["h", "1"]
    )
    fails = entails(material, premises, conclusion)
    holds = entails(eq1, premises, conclusion)
    _report(
        10,
        "modus ponens fails under material implication and holds under "
        "top-if-below on the three-valued chain",
        (not fails.holds) and holds.holds,
    )


def test_11_frame_valid_performance_floor():
    c5 = chain(5, "flip")
    lat = c5.with_imp(build_implication(c5, DEDUCTIVE_EQ1))
    matrix = matrix_from_names(lat, ["1"])
    frames = [f for f in enumerate_frames(3) if len(f.worlds) == 3][:20]
    worst = 0.0
    for frame in frames:
        start = time.perf_counter()
        scan_frame(matrix, frame, AXIOM_K)
        worst = max(worst, time.perf_counter() - start)
    _report(
        11,
        f"15625-valuation frame check worst case {worst * 1000:.1f}ms < 1s per frame",
        worst < 1.0,
    )
