import pytest

from latmodal import (
    DEDUCTIVE_EQ1,
    ImplicationTable,
    Matrix,
    WitnessNotApplicable,
    build_implication,
    boolean_algebra,
    check_designated,
    find_frame_counterexample,
    antichain_k5,
    matrix_from_names,
)
from latmodal.harness import (
    THEOREM_IDS,
    HarnessConfig,
    k5_regression,
    run_suite,
    verify_theorem,
)
from latmodal.search import AXIOM_K


def test_regularity_small_bounds():
    report = verify_theorem("regularity", 4, 2)
    assert report.passed
    assert report.cases == 15  # sizes 1..4: 1 + 2 + 3 + (5 + 4) non-empty upsets
    assert not report.failures


def test_eq1_implicative_small():
    report = verify_theorem("eq1_implicative", 4)
    assert report.passed and report.cases == 15


def test_disj_dist_small():
    report = verify_theorem("disj_dist", 4, 3)
    assert report.passed
    # under the top-if-below implication every non-empty upset is
    # implicative, so the defect direction has nothing to bite on; the
    # report records that imbalance instead of hiding it
    assert report.universe["structural_false_cases"] == 0


def test_k_linear_small():
    report = verify_theorem("k_linear", 4, 3)
    assert report.passed
    assert report.universe["structural_false_cases"] > 0


def test_k_linear_reports_a_failing_nonlinearity_witness(monkeypatch):
    import latmodal.harness

    construct = latmodal.harness.construct_witness

    def broken(kind, matrix):
        if kind == "nonlinear_k":
            raise WitnessNotApplicable("broken on purpose")
        return construct(kind, matrix)

    monkeypatch.setattr(latmodal.harness, "construct_witness", broken)
    report = verify_theorem("k_linear", 4, 3)
    assert not report.passed
    assert report.failures
    assert all(f["witness_error"] == "broken on purpose" for f in report.failures)


def test_k_linear_needs_the_filter_requirement():
    # the diamond with designated {a, b, 1} is linear outside the designated
    # set but not a filter, and box-K fails on a three-world frame; this is
    # why the structural side of k_linear includes the filter check
    m2 = boolean_algebra(2)
    lat = m2.with_imp(build_implication(m2, DEDUCTIVE_EQ1))
    matrix = matrix_from_names(lat, ["a", "b", "1"])
    props = check_designated(matrix)
    assert props.linear_outside and not props.is_filter
    report = find_frame_counterexample(matrix, AXIOM_K, 3)
    assert report is not None and report.recheck()


def test_k_material_small():
    report = verify_theorem("k_material", 4, 3)
    assert report.passed
    assert report.universe["structural_false_cases"] > 0


def test_twist_k_single_atom():
    report = verify_theorem("twist_k", 1, 3)
    assert report.passed and report.cases == 4


def test_k5_regression_passes():
    report = k5_regression(3)
    assert report.passed
    assert any("linear-outside fails" in note for note in report.notes)


def test_k5_regression_catches_corrupted_table():
    base = antichain_k5()
    lat = base.lattice
    f_, b = lat.index("f"), lat.index("b")
    rows = [list(row) for row in lat.imp.table]
    rows[f_][b] = b  # one entry outside the designated range breaks box-K
    corrupted = Matrix(
        lat.with_imp(ImplicationTable(tuple(tuple(r) for r in rows))),
        base.designated,
    )
    report = k5_regression(3, corrupted)
    assert not report.passed
    failure = report.failures[0]
    assert failure["check"] == "box-K frame validity"
    assert failure["self_certified"] is True


def test_world_bound_one_marks_bounded_only():
    report = verify_theorem("k_linear", 3, 1)
    assert any("witness directions not exercised" in n for n in report.notes)
    # with one world no defect direction is asserted, so this still passes
    assert report.passed


def test_run_suite_small_bounds():
    config = HarnessConfig(size_bound=3, world_bound=2, regularity_world_bound=2, twist_atoms=1)
    reports, status = run_suite(config)
    assert status == 0
    assert [r.theorem for r in reports] == [*THEOREM_IDS, "k5_regression"]
    assert all(r.passed for r in reports)


def test_run_suite_fails_on_corrupted_k5():
    base = antichain_k5()
    lat = base.lattice
    a, b = lat.index("a"), lat.index("b")
    fallback = tuple(
        tuple(
            lat.index("f") if (x, y) == (a, b) else (lat.top if lat.leq[x][y] else y)
            for y in range(lat.n)
        )
        for x in range(lat.n)
    )
    config = HarnessConfig(
        size_bound=2,
        world_bound=3,
        twist_atoms=1,
        k5_matrix=Matrix(lat.with_imp(ImplicationTable(fallback)), base.designated),
    )
    reports, status = run_suite(config)
    assert status == 1
    k5_report = [r for r in reports if r.theorem == "k5_regression"][0]
    assert not k5_report.passed


def test_unknown_theorem_id():
    with pytest.raises(ValueError):
        verify_theorem("no_such_theorem")


def test_report_serialization():
    report = verify_theorem("eq1_implicative", 3)
    d = report.to_dict()
    assert d["theorem"] == "eq1_implicative"
    assert d["passed"] is True
    assert isinstance(d["cases"], int)
