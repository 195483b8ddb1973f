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
    report = verify_theorem("regularity", 4)
    assert report.passed
    assert report.cases == 15  # sizes 1..4: 1 + 2 + 3 + (5 + 4) non-empty upsets
    assert not report.failures


def test_eq1_implicative_small():
    report = verify_theorem("eq1_implicative", 4)
    assert report.passed and report.cases == 15


def test_disj_dist_small():
    report = verify_theorem("disj_dist", 4)
    assert report.passed
    # under the top-if-below implication every non-empty upset is
    # implicative, so the defect direction has nothing to bite on; the
    # report records that imbalance instead of hiding it
    assert report.universe["structural_false_cases"] == 0


def test_k_linear_small():
    report = verify_theorem("k_linear", 4)
    assert report.passed
    assert report.universe["structural_false_cases"] > 0


def test_k_linear_reports_a_failing_nonlinearity_witness(broken_witness):
    # and regularity its filter witness, through the same driver
    for theorem in ("k_linear", "regularity"):
        report = verify_theorem(theorem, 4)
        assert not report.passed
        assert report.failures
        assert all(f["witness_error"] == "broken on purpose" for f in report.failures)
        # one entry per case, each with the case's semantic counterexample
        cases = {(f["lattice"], tuple(f["designated"])) for f in report.failures}
        assert len(cases) == len(report.failures)
        assert all("counterexample" in f for f in report.failures)
    assert all("box_value" in f["counterexample"] for f in report.failures)


def test_a_witness_failing_its_recheck_fails_the_report(monkeypatch):
    """A witness that fails its recheck fails its case, and the case records
    that very witness: each regularity fan with its []p value moved, and one
    box-K fan with its root value moved."""
    import latmodal.harness

    first_defect = latmodal.harness._first_defect
    decide = latmodal.harness._decide_on_all_frames
    corrupted = []

    def corrupted_first_defect(matrix, frame):
        w = first_defect(matrix, frame)
        if w is not None:
            w = w._replace(box_value=(w.box_value + 1) % w.matrix.lattice.n)
            corrupted.append(w.to_dict())
        return w

    def one_corrupted_fan(matrices, f):
        reports = decide(matrices, f)
        for i, r in enumerate(reports):
            if r is not None and not corrupted:
                reports[i] = r._replace(value=(r.value + 1) % r.matrix.lattice.n)
                corrupted.append(reports[i].to_dict())
        return reports

    monkeypatch.setattr(latmodal.harness, "_first_defect", corrupted_first_defect)
    monkeypatch.setattr(latmodal.harness, "_decide_on_all_frames", one_corrupted_fan)
    for theorem in ("regularity", "k_linear"):
        corrupted.clear()
        report = verify_theorem(theorem, 4)
        assert not report.passed and corrupted, theorem
        assert [f["counterexample"] for f in report.failures] == corrupted, theorem
        for failure in report.failures:
            assert failure["error"] == "counterexample failed self-certification"
    assert len(corrupted) == 1


def test_both_directions_are_asserted(monkeypatch):
    """With the semantic side made to find no witness, every structurally
    false case fails, and only those: the defect direction is asserted at
    every size bound, regularity included."""
    import latmodal.harness

    monkeypatch.setattr(latmodal.harness, "_decide_on_all_frames", lambda run, f: [None] * len(run))
    monkeypatch.setattr(latmodal.harness, "_first_defect", lambda matrix, frame: None)
    for theorem, structural_false in (("regularity", 1), ("k_linear", 4), ("k_material", 5)):
        report = verify_theorem(theorem, 4)
        assert len(report.failures) == structural_false, theorem
        assert all((f["structural"], f["semantic"]) == (False, True) for f in report.failures)
        if theorem != "regularity":
            assert report.universe["structural_false_cases"] == structural_false


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
        report = verify_theorem(theorem, 4)
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
    report = verify_theorem("k_material", 4)
    assert report.passed
    assert report.universe["structural_false_cases"] > 0


def test_twist_k_single_atom():
    report = verify_theorem("twist_k", 1)
    assert report.passed and report.cases == 4


def test_k5_regression_passes():
    report = k5_regression()
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
    report = k5_regression()
    assert not report.passed
    failure = report.failures[0]
    assert failure["check"] == "box-K frame validity"
    assert failure["self_certified"] is True


def test_run_suite_small_bounds():
    config = HarnessConfig(size_bound=3)
    reports, status = run_suite(config)
    assert status == 0
    assert [r.theorem for r in reports] == [*THEOREM_IDS, "k5_regression"]
    assert all(r.passed for r in reports)


def test_run_suite_fails_on_corrupted_k5(corrupted_k5):
    reports, status = run_suite(HarnessConfig(size_bound=2))
    assert status == 1
    k5_report = [r for r in reports if r.theorem == "k5_regression"][0]
    assert not k5_report.passed


def test_run_suite_scans_no_frame(monkeypatch):
    """Every check of the default suite is decided by a closure: with the
    frame scan made to raise, it still passes with the reports of the
    golden file."""
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
    """The closure never builds an array, and every failure of the default
    suite unfolds into a fan, so no frame is scanned: in a fresh process it
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
        assert verify_theorem(theorem, 4, unsafe_bounds=True).passed, theorem
        with pytest.raises(BoundTooLarge):
            verify_theorem(theorem, 4)


def test_unknown_theorem_id():
    with pytest.raises(ValueError):
        verify_theorem("no_such_theorem")


def test_report_serialization():
    report = verify_theorem("eq1_implicative", 3)
    d = report.to_dict()
    assert d["theorem"] == "eq1_implicative"
    assert d["passed"] is True
    assert isinstance(d["cases"], int)


def test_a_closure_past_its_budget_raises_instead_of_scanning(monkeypatch, capsys):
    """With the closure's budget cut, a check whose closure ends before its
    fixpoint while some designated set still holds raises BoundTooLarge, and
    ``latmodal verify`` exits 2 with nothing on standard output; no frame is
    scanned in its place."""
    import latmodal.search
    from latmodal.cli import main

    def no_scan(*args, **kwargs):
        raise AssertionError("a frame was scanned")

    monkeypatch.setattr(latmodal.search, "frame_root_values", no_scan)
    monkeypatch.setattr(latmodal.search, "MAX_VALUATION_SPACE", 64)
    for theorem in ("k_linear", "twist_k"):
        with pytest.raises(BoundTooLarge, match="outgrew its budget of 64 cells and meets before"):
            verify_theorem(theorem, 4)
    code = main(["verify", "--theorem", "k_linear", "--max-size", "4"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err.startswith("error: BoundTooLarge: the closure of box-value tuples")
