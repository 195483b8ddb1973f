import pytest

from latmodal import (
    DEDUCTIVE_EQ1,
    BoundTooLarge,
    ImplicationTable,
    Matrix,
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


def test_k_linear_reports_a_failing_nonlinearity_witness(broken_witness):
    # and regularity its filter witness, through the same driver
    for theorem in ("k_linear", "regularity"):
        report = verify_theorem(theorem, 4, 3)
        assert not report.passed
        assert report.failures
        assert all(f["witness_error"] == "broken on purpose" for f in report.failures)
        # one entry per case, each with the case's semantic counterexample
        cases = {(f["lattice"], tuple(f["designated"])) for f in report.failures}
        assert len(cases) == len(report.failures)
        assert all("counterexample" in f for f in report.failures)
    assert all("box_value" in f["counterexample"] for f in report.failures)


def test_a_witness_failing_its_recheck_fails_the_report(monkeypatch):
    import latmodal.harness

    search = latmodal.harness._regularity_pair_witnesses

    def corrupted(matrices, max_worlds, unsafe):
        return [
            w and w._replace(box_value=(w.box_value + 1) % w.matrix.lattice.n)
            for w in search(matrices, max_worlds, unsafe)
        ]

    monkeypatch.setattr(latmodal.harness, "_regularity_pair_witnesses", corrupted)
    report = verify_theorem("regularity", 4, 2)
    assert not report.passed
    assert report.failures
    assert all(f["error"] == "counterexample failed self-certification" for f in report.failures)


def test_designated_properties_computed_once_per_matrix(monkeypatch):
    import latmodal.harness
    import latmodal.search

    calls = []

    def counted(matrix):
        calls.append(matrix)
        return check_designated(matrix)

    monkeypatch.setattr(latmodal.harness, "check_designated", counted)
    monkeypatch.setattr(latmodal.search, "check_designated", counted)
    for theorem in ("regularity", "k_linear", "k_material"):
        calls.clear()
        report = verify_theorem(theorem, 4, 3 if theorem != "regularity" else 2)
        assert report.passed
        assert len(calls) == report.cases == len(set(map(id, calls)))


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


def test_k5_regression_catches_corrupted_table(monkeypatch):
    import latmodal.harness

    base = antichain_k5()
    lat = base.lattice
    f_, b = lat.index("f"), lat.index("b")
    rows = [list(row) for row in lat.imp.table]
    rows[f_][b] = b  # one entry outside the designated range breaks box-K
    corrupted = Matrix(
        lat.with_imp(ImplicationTable(tuple(tuple(r) for r in rows))),
        base.designated,
    )
    monkeypatch.setattr(latmodal.harness, "antichain_k5", lambda: corrupted)
    report = k5_regression(3)
    assert not report.passed
    failure = report.failures[0]
    assert failure["check"] == "box-K frame validity"
    assert failure["self_certified"] is True


def test_world_bound_one_marks_bounded_only():
    for theorem, size_bound in (("k_linear", 3), ("regularity", 4)):
        report = verify_theorem(theorem, size_bound, 1)
        assert any("witness directions not exercised" in n for n in report.notes)
        # with one world no defect direction is asserted, so this still passes
        assert report.passed, theorem


def test_run_suite_small_bounds():
    config = HarnessConfig(size_bound=3, world_bound=2)
    reports, status = run_suite(config)
    assert status == 0
    assert [r.theorem for r in reports] == [*THEOREM_IDS, "k5_regression"]
    assert all(r.passed for r in reports)


def test_run_suite_fails_on_corrupted_k5(corrupted_k5):
    reports, status = run_suite(HarnessConfig(size_bound=2, world_bound=3))
    assert status == 1
    k5_report = [r for r in reports if r.theorem == "k5_regression"][0]
    assert not k5_report.passed


def test_run_suite_scans_no_frame(monkeypatch):
    """Every check of the default suite is decided by a closure: with the
    frame scan, which the regularity scan shares, made to raise, it still
    passes with the reports of the golden file."""
    import json
    from pathlib import Path

    import latmodal.search

    def no_scan(*args, **kwargs):
        raise AssertionError("the suite scanned frames")

    monkeypatch.setattr(latmodal.search, "frame_root_values", no_scan)
    reports, status = run_suite()
    assert status == 0
    golden = Path(__file__).parent / "data" / "verify_all_compact.json"
    assert [r.to_dict() for r in reports] == json.loads(golden.read_text())["reports"]


def test_run_suite_at_the_default_bounds_loads_no_numpy():
    """Every closure of the default suite is within the coded closure's
    bound, and nothing else in it builds an array: in a fresh process it
    passes without importing numpy."""
    from test_cli import run_fresh

    script = (
        "import sys\n"
        "from latmodal.harness import HarnessConfig, run_suite\n"
        "reports, status = run_suite(HarnessConfig())\n"
        "print(status, 'numpy' in sys.modules)\n"
    )
    assert run_fresh(script) == ["0 False"]


def test_unsafe_bounds_reach_the_lattice_enumeration(monkeypatch):
    import latmodal.enumeration

    monkeypatch.setattr(latmodal.enumeration, "MAX_ENUM_SIZE", 3)
    for theorem in ("regularity", "eq1_implicative", "disj_dist", "k_linear", "k_material"):
        assert verify_theorem(theorem, 4, 2, unsafe_bounds=True).passed, theorem
        with pytest.raises(BoundTooLarge):
            verify_theorem(theorem, 4, 2)


def test_unknown_theorem_id():
    with pytest.raises(ValueError):
        verify_theorem("no_such_theorem")


def test_report_serialization():
    report = verify_theorem("eq1_implicative", 3)
    d = report.to_dict()
    assert d["theorem"] == "eq1_implicative"
    assert d["passed"] is True
    assert isinstance(d["cases"], int)
