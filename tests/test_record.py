"""The value classes behave as the frozen dataclasses they replaced: the
same fields, equality, hash, repr, defaults and construction errors."""

import pytest

from latmodal import formula, harness, kripke, lattice, search
from latmodal import (
    Box,
    BoxMode,
    CounterexampleReport,
    EntailmentResult,
    Frame,
    HarnessConfig,
    ImplicationTable,
    InvalidInput,
    KripkeModel,
    Lattice,
    Matrix,
    RegularityResult,
    TheoremReport,
    Var,
    chain,
    check_designated,
    check_lattice_properties,
    classify_implication,
    build_implication,
    matrix_from_names,
    parse,
)
from latmodal.record import Record

FIELDS = {
    "Var": ("name",),
    "Not": ("child",),
    "And": ("left", "right"),
    "Or": ("left", "right"),
    "Imp": ("left", "right"),
    "Box": ("child",),
    "ImplicationTable": ("table", "mode"),
    "Lattice": (
        "elements", "leq", "meet_table", "join_table", "top", "bottom", "neg", "imp", "name",
    ),
    "Matrix": ("lattice", "designated"),
    "DesignatedProperties": (
        "upward_closed", "upward_witness", "is_filter", "filter_witness",
        "is_implicative", "implicative_witness", "linear_outside", "linear_witness",
    ),
    "LatticeProperties": (
        "anti_monotone", "anti_monotone_witness", "involutive", "involutive_witness",
        "down_distribution", "down_distribution_witness",
    ),
    "ImplicationClassification": (
        "deductive", "deductive_witness", "strictly_deductive", "strict_witness",
    ),
    "EntailmentResult": ("holds", "witness"),
    "Frame": ("worlds", "rel"),
    "KripkeModel": ("frame", "lattice", "valuation"),
    "CounterexampleReport": ("matrix", "model", "formula", "world", "value", "box_mode"),
    "RegularityWitness": ("matrix", "model", "world", "box_value", "direction"),
    "RegularityResult": ("regular", "is_filter", "meet_in_designated", "witness"),
    "TheoremReport": ("theorem", "universe", "cases", "failures", "notes"),
    "HarnessConfig": ("size_bound", "world_bound", "unsafe_bounds"),
}
C2_REPR = (
    "Lattice(elements=('0', '1'), leq=((True, True), (False, True)), "
    "meet_table=((0, 0), (0, 1)), join_table=((0, 1), (1, 1)), top=1, bottom=0, "
    "neg=(1, 0), imp=None, name='C2')"
)


def _records():
    """One frozen record of each hashable class, built twice from equal
    fields."""
    for _ in range(2):
        lat = chain(3, "flip").with_imp(build_implication(chain(3, "flip"), "material"))
        matrix = matrix_from_names(lat, ["1"])
        frame = Frame(("w0", "w1"), frozenset({(0, 1)}))
        yield [
            parse("[](p -> q) -> ~[]p & q | r"),
            lat.imp,
            lat,
            matrix,
            check_designated(matrix),
            check_lattice_properties(lat),
            classify_implication(matrix),
            EntailmentResult(True, None),
            frame,
            RegularityResult(True, True, True, None),
        ]


def test_each_class_keeps_its_fields_in_order():
    classes = {
        name: obj
        for module in (formula, lattice, kripke, search, harness)
        for name, obj in vars(module).items()
        if isinstance(obj, type) and issubclass(obj, Record) and obj.__module__ == module.__name__
        and not name.startswith("_")
    }
    assert {name: cls._fields for name, cls in classes.items()} == FIELDS


def test_equal_fields_make_equal_records_with_equal_hashes():
    first, second = _records()
    for a, b in zip(first, second):
        assert a is not b and a == b and not a != b and hash(a) == hash(b), type(a).__name__
        fields = tuple(getattr(a, f) for f in a._fields)
        assert hash(a) == hash(fields) and type(a)(*fields) == a
    for a, b in zip(first, first[1:]):
        assert a != b
    assert Matrix(first[2], frozenset({1})) != first[3]
    # a model holds its valuation as a dict: equal, but unhashable
    frame, lat = first[8], first[2]
    reports = [
        CounterexampleReport(
            matrix, KripkeModel(frame, lat, {(0, "p"): 0}), parse("p"), 0, 0, BoxMode.NORMAL_MEET
        )
        for matrix in (first[3], second[3])
    ]
    assert reports[0] == reports[1] and reports[0] != reports[0]._replace(world=1)
    with pytest.raises(TypeError):
        hash(reports[0])


def test_a_record_never_equals_one_of_another_class():
    fields = (True, True, True, None)
    assert RegularityResult(*fields) != lattice.ImplicationClassification(*fields)
    assert EntailmentResult(True, None) != (True, None)
    assert Var("p") != Box(Var("p"))
    assert HarnessConfig() != (5, 3, False)


def test_repr_names_the_class_and_every_field():
    lat = chain(2)
    assert repr(lat) == C2_REPR
    assert repr(Matrix(lat, [1])) == f"Matrix(lattice={C2_REPR}, designated=frozenset({{1}}))"
    assert repr(ImplicationTable(((1, 1), (0, 1)))) == (
        "ImplicationTable(table=((1, 1), (0, 1)), mode='custom')"
    )
    assert repr(HarnessConfig()) == (
        "HarnessConfig(size_bound=5, world_bound=3, unsafe_bounds=False)"
    )


def test_frozen_records_reject_assignment_and_deletion():
    for record in next(_records()):
        for name in (record._fields[0], "other"):
            with pytest.raises(AttributeError):
                setattr(record, name, None)
            with pytest.raises(AttributeError):
                delattr(record, name)


def test_defaults_and_construction_errors():
    lat = chain(2)
    bare = Lattice(*[getattr(lat, f) for f in lat._fields[:6]])
    assert lat.name == "C2" and (bare.neg, bare.imp, bare.name) == (None, None, "")
    assert ImplicationTable(((1, 1), (0, 1))).mode == "custom"
    assert ImplicationTable(table=((1, 1), (0, 1)), mode="material").mode == "material"
    config = HarnessConfig()
    assert (config.size_bound, config.world_bound, config.unsafe_bounds) == (5, 3, False)
    assert HarnessConfig(4, unsafe_bounds=True) == HarnessConfig(4, 3, True)
    for make in (
        lambda: ImplicationTable(),  # missing
        lambda: ImplicationTable(((1,),), "custom", "extra"),  # too many
        lambda: ImplicationTable(((1,),), colour="red"),  # unknown
        lambda: ImplicationTable(((1,),), table=((1,),)),  # twice
        lambda: Matrix(lat),  # missing, written by hand
        lambda: Frame(("w",), frozenset(), colour="red"),  # unknown, written by hand
        lambda: lat._replace(colour="red"),
    ):
        with pytest.raises(TypeError):
            make()


def test_constructors_normalise_and_check_their_fields():
    lat = chain(3)
    matrix = Matrix(lat, [2, 1, 2])
    assert type(matrix.designated) is frozenset and matrix.designated == {1, 2}
    assert matrix._replace(designated=[0]).designated == frozenset({0})
    with pytest.raises(InvalidInput):
        Matrix(lat, [3])
    with pytest.raises(InvalidInput):
        matrix._replace(designated=[3])  # _replace runs the checks again
    with pytest.raises(InvalidInput, match="distinct"):
        Frame(("w", "w"), frozenset())
    with pytest.raises(InvalidInput):
        Frame(("w",), frozenset({(0, 1)}))
    with pytest.raises(InvalidInput):
        KripkeModel(Frame(("w",), frozenset()), lat, {(0, "p"): 3})
    assert lat._replace(name="x").name == "x" and lat.name == "C3"


def test_reports_and_configs_reject_assignment():
    report = TheoremReport("a", {}, 0, [], [])
    assert report.passed and not TheoremReport("a", {}, 0, [{}], []).passed
    for record, name in ((report, "failures"), (report, "passed"), (HarnessConfig(), "size_bound")):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
