import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latmodal import (
    DEDUCTIVE_EQ1,
    MATERIAL,
    BoundTooLarge,
    Matrix,
    WitnessNotApplicable,
    belnap_four,
    boolean_algebra,
    build_implication,
    check_regularity,
    construct_witness,
    enumerate_frames,
    find_frame_counterexample,
    matrix_from_names,
    model_satisfies,
    parse,
    world_satisfies,
)
from latmodal import formula, kripke
from latmodal.search import AXIOM_K, BOX_DISJUNCTION_DIST, canonical_frame_key


def test_frame_counts():
    assert sum(1 for _ in enumerate_frames(1)) == 2
    by_size = {}
    for frame in enumerate_frames(3):
        by_size.setdefault(len(frame.worlds), 0)
        by_size[len(frame.worlds)] += 1
    assert by_size == {1: 2, 2: 10, 3: 104}


def test_four_world_frame_counts_and_order():
    # unlabelled directed graphs with loops, by world count: OEIS A000595
    by_size = {}
    previous = (0, -1)
    for frame in enumerate_frames(4):
        n = len(frame.worlds)
        by_size[n] = by_size.get(n, 0) + 1
        key = (n, sum(1 << (i * n + j) for i, j in frame.rel))
        assert key > previous
        previous = key
    assert by_size == {1: 2, 2: 10, 3: 104, 4: 3044}


def test_frames_are_well_formed():
    for frame in enumerate_frames(3):
        n = len(frame.worlds)
        assert all(0 <= i < n and 0 <= j < n for i, j in frame.rel)


def test_frame_enumeration_guard():
    with pytest.raises(BoundTooLarge):
        list(enumerate_frames(5))


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_emitted_frames_are_canonical_and_cover_relabelings(data):
    n = data.draw(st.integers(1, 3))
    rel = frozenset(
        data.draw(
            st.sets(
                st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=n * n
            )
        )
    )
    perm = data.draw(st.permutations(range(n)))
    relabeled = frozenset((perm[i], perm[j]) for i, j in rel)
    assert canonical_frame_key(n, rel) == canonical_frame_key(n, relabeled)


def test_canonical_keys_of_emitted_frames_are_their_own():
    for frame in enumerate_frames(3):
        n = len(frame.worlds)
        mask = sum(1 << (i * n + j) for i, j in frame.rel)
        assert canonical_frame_key(n, frame.rel) == mask


def test_canonical_keys_of_emitted_four_world_frames_are_their_own():
    for frame in enumerate_frames(4):
        n = len(frame.worlds)
        if n == 4:
            mask = sum(1 << (i * n + j) for i, j in frame.rel)
            assert canonical_frame_key(n, frame.rel) == mask


# ---------------------------------------------------------------------------
# find_frame_counterexample


def test_search_finds_k_failure_on_diamond():
    m2 = boolean_algebra(2)
    mat = matrix_from_names(m2.with_imp(build_implication(m2, DEDUCTIVE_EQ1)), ["1"])
    report = find_frame_counterexample(mat, AXIOM_K, 3)
    assert report is not None
    assert len(report.model.frame.worlds) <= 3
    assert report.recheck()


def test_search_no_k_failure_on_lp_chain(c3_material_lp):
    assert find_frame_counterexample(c3_material_lp, AXIOM_K, 3) is None


def test_tautology_never_fails(c3_eq1):
    assert find_frame_counterexample(c3_eq1, parse("p -> p"), 3) is None


def test_search_is_deterministic(c3_eq1):
    a = find_frame_counterexample(c3_eq1, parse("[]p"), 2)
    b = find_frame_counterexample(c3_eq1, parse("[]p"), 2)
    assert a.to_dict() == b.to_dict()


def _dict(report):
    return None if report is None else report.to_dict()


def test_consecutive_searches_match_fresh_ones(c3_eq1, c3_material_lp):
    m2 = boolean_algebra(2)
    diamond = matrix_from_names(m2.with_imp(build_implication(m2, DEDUCTIVE_EQ1)), ["1"])
    queries = [
        (c3_eq1, parse("[]p")),
        (c3_eq1, AXIOM_K),
        (diamond, AXIOM_K),
        (diamond, BOX_DISJUNCTION_DIST),
        (c3_material_lp, AXIOM_K),
        (diamond, parse("[]p")),
        (c3_eq1, parse("[]p")),
    ]
    fresh = []
    for matrix, f in queries:
        kripke._last_plan = formula._last_compiled = None
        fresh.append(_dict(find_frame_counterexample(matrix, f, 3)))
    consecutive = [_dict(find_frame_counterexample(m, f, 3)) for m, f in queries]
    assert consecutive == fresh
    assert any(r is None for r in fresh) and any(r is not None for r in fresh)


def test_searches_on_short_lived_matrices_match_fresh_ones():
    # matrices built and dropped in a loop may reuse one another's ids
    m2 = boolean_algebra(2)
    cases = [(MATERIAL, ["1"]), (DEDUCTIVE_EQ1, ["1"]), (MATERIAL, ["a", "1"]),
             (DEDUCTIVE_EQ1, ["a", "b", "1"])]

    def search(imp, up):
        matrix = matrix_from_names(m2.with_imp(build_implication(m2, imp)), up)
        return _dict(find_frame_counterexample(matrix, AXIOM_K, 3))

    consecutive = [search(imp, up) for imp, up in cases]
    fresh = []
    for imp, up in cases:
        kripke._last_plan = formula._last_compiled = None
        fresh.append(search(imp, up))
    assert consecutive == fresh
    assert [r is None for r in fresh] == [True, False, True, False]


# ---------------------------------------------------------------------------
# regularity


def test_regularity_examples(b2, c3):
    assert check_regularity(matrix_from_names(b2, ["1"])).regular
    assert check_regularity(matrix_from_names(c3, ["h", "1"])).regular


def test_regularity_failure_diamond():
    m2 = boolean_algebra(2)
    result = check_regularity(matrix_from_names(m2, ["a", "b", "1"]))
    assert not result.regular
    assert not result.structural_regular
    assert result.is_filter is False
    w = result.witness
    assert w.direction == "successors_hold_but_box_fails"
    # witness is self-certifying: re-evaluating the model reproduces the gap
    matrix = matrix_from_names(m2, ["a", "b", "1"])
    box_ok = world_satisfies(matrix, w.model, w.world, parse("[]p"))
    naw = all(
        world_satisfies(matrix, w.model, w2, parse("p"))
        for w2 in w.model.frame.successors(w.world)
    )
    assert box_ok != naw


def test_regularity_empty_designated(c3):
    result = check_regularity(Matrix(c3, frozenset()))
    assert not result.regular
    assert result.is_filter  # vacuously meet-closed
    assert not result.meet_in_designated  # empty meet (top) is not designated
    assert not result.structural_regular


def test_regularity_structural_matches_semantic_small():
    from latmodal import enumerate_lattices, enumerate_upsets

    for n in (1, 2, 3, 4):
        for lat in enumerate_lattices(n):
            for upset in enumerate_upsets(lat):
                result = check_regularity(Matrix(lat, upset), 2)
                assert result.regular == result.structural_regular


# ---------------------------------------------------------------------------
# construct_witness


def test_nonfilter_witness():
    m2 = boolean_algebra(2)
    matrix = matrix_from_names(m2, ["a", "b", "1"])
    model = construct_witness("nonfilter", matrix)
    assert len(model.frame.worlds) == 2
    assert all(
        world_satisfies(matrix, model, w, parse("p")) for w in model.frame.successors(0)
    )
    assert not world_satisfies(matrix, model, 0, parse("[]p"))


def test_nonfilter_not_applicable(c3):
    with pytest.raises(WitnessNotApplicable):
        construct_witness("nonfilter", matrix_from_names(c3, ["h", "1"]))


def test_nonimplicative_witness():
    four = belnap_four()
    matrix = matrix_from_names(
        four.with_imp(build_implication(four, MATERIAL)), ["T", "B"]
    )
    model = construct_witness("nonimplicative", matrix)
    ok, world = model_satisfies(matrix, model, BOX_DISJUNCTION_DIST)
    assert not ok and world == 0


def test_nonlinear_k_witness():
    m2 = boolean_algebra(2)
    lat = m2.with_imp(build_implication(m2, DEDUCTIVE_EQ1))
    matrix = matrix_from_names(lat, ["1"])
    model = construct_witness("nonlinear_k", matrix)
    from latmodal import evaluate

    value = evaluate(model, 0, AXIOM_K)
    # the falsifying value is the meet of the incomparable pair
    a, b = matrix.lattice.index("a"), matrix.lattice.index("b")
    assert value == matrix.lattice.meet(a, b)
    assert value not in matrix.designated


def test_nonlinear_k_not_applicable(c3_eq1):
    with pytest.raises(WitnessNotApplicable):
        construct_witness("nonlinear_k", c3_eq1)


def test_nonimplicative_k_material_witness():
    four = belnap_four()
    matrix = matrix_from_names(
        four.with_imp(build_implication(four, MATERIAL)), ["T", "B"]
    )
    model = construct_witness("nonimplicative_k_material", matrix)
    ok, world = model_satisfies(matrix, model, AXIOM_K)
    assert not ok and world == 0


def test_unknown_witness_kind(c3_eq1):
    with pytest.raises(WitnessNotApplicable):
        construct_witness("no_such_kind", c3_eq1)


def test_witness_matches_search_at_proof_scale():
    # wherever the structural defect exists, the fixed construction and the
    # bounded search agree that a small countermodel exists
    four = belnap_four()
    matrix = matrix_from_names(
        four.with_imp(build_implication(four, MATERIAL)), ["T"]
    )
    model = construct_witness("nonimplicative_k_material", matrix)
    ok, _ = model_satisfies(matrix, model, AXIOM_K)
    assert not ok
    report = find_frame_counterexample(matrix, AXIOM_K, 3)
    assert report is not None and len(report.model.frame.worlds) <= 3
