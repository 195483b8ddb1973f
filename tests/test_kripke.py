import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latmodal import (
    DEDUCTIVE_EQ1,
    BoundTooLarge,
    BoxMode,
    Frame,
    InvalidInput,
    KripkeModel,
    Matrix,
    UnboundVariable,
    build_implication,
    enumerate_frames,
    enumerate_lattices,
    evaluate,
    frame_valid,
    matrix_from_names,
    model_satisfies,
    parse,
    world_satisfies,
)
from latmodal.formula import And, Box, Not, Or, Var, modal_depth, variables
from latmodal.lattice import propositional_value

from oracles import naive_frame_counterexample

FAN = Frame(("w1", "w2", "w3"), frozenset(((0, 1), (0, 2))))


def fan_model(lattice, values):
    """values: {(world, var): element name} on the two-successor fan."""
    return KripkeModel(
        FAN, lattice, {k: lattice.index(v) for k, v in values.items()}
    )


def test_box_is_meet_over_successors(diamond):
    # incomparable a, b at the successors: box of q is their meet
    model = fan_model(
        diamond,
        {(1, "p"): "a", (2, "p"): "a", (1, "q"): "b", (2, "q"): "a"},
    )
    assert evaluate(model, 0, parse("[]q")) == diamond.index("0")
    assert evaluate(model, 0, parse("[]p")) == diamond.index("a")


def test_dead_end_world_gives_top(c3):
    frame = Frame(("w",), frozenset())
    model = KripkeModel(frame, c3, {(0, "p"): c3.index("0")})
    assert evaluate(model, 0, parse("[]p")) == c3.top


def test_meet_with_top_is_identity(c3):
    model = fan_model(c3, {(1, "p"): "h", (2, "p"): "1"})
    assert evaluate(model, 0, parse("[]p")) == c3.index("h")


def test_local_box_mode(c3):
    model = fan_model(c3, {(0, "p"): "0", (1, "p"): "1", (2, "p"): "1"})
    assert evaluate(model, 0, parse("[]p"), BoxMode.LOCAL) == c3.index("0")
    assert evaluate(model, 0, parse("[]p"), BoxMode.NORMAL_MEET) == c3.index("1")


def test_world_satisfies_examples(b2, c3, m2):
    reflexive = Frame(("w",), frozenset(((0, 0),)))
    model = KripkeModel(reflexive, b2, {(0, "p"): b2.index("1")})
    assert world_satisfies(matrix_from_names(b2, ["1"]), model, 0, parse("[]p"))

    c3m = matrix_from_names(c3, ["h", "1"])
    model = fan_model(c3, {(1, "p"): "h", (2, "p"): "1"})
    assert world_satisfies(c3m, model, 0, parse("[]p"))

    chainy = Frame(("w1", "w2"), frozenset(((0, 1),)))
    model = KripkeModel(chainy, m2, {(1, "p"): m2.index("a")})
    assert not world_satisfies(matrix_from_names(m2, ["1"]), model, 0, parse("[]p"))


def test_model_satisfies_reports_first_failing_world(c3_eq1):
    lat = c3_eq1.lattice
    frame = Frame(("w1", "w2"), frozenset())
    model = KripkeModel(
        frame, lat, {(0, "p"): lat.index("1"), (1, "p"): lat.index("0")}
    )
    ok, world = model_satisfies(c3_eq1, model, parse("p"))
    assert not ok and world == 1
    ok, world = model_satisfies(c3_eq1, model, parse("p -> p"))
    assert ok and world is None


def test_unbound_variable_raises(c3):
    model = fan_model(c3, {(1, "p"): "h"})
    with pytest.raises(UnboundVariable) as exc:
        evaluate(model, 0, parse("[]p"))
    assert exc.value.world == "w3"


def test_locality_ignores_unreachable_worlds(c3):
    # w3 is not reachable from w2, and p is unbound there; depth-1 box at w2
    # must not care.
    frame = Frame(("w1", "w2", "w3"), frozenset(((0, 1), (0, 2), (1, 1))))
    model = KripkeModel(frame, c3, {(1, "p"): c3.index("h")})
    assert evaluate(model, 1, parse("[]p")) == c3.index("h")


def test_world_index_out_of_range_rejected(c3):
    model = KripkeModel(Frame(("w",), frozenset()), c3, {(0, "p"): c3.top})
    for world in (1, 5, -1):
        for f in (parse("p"), parse("[]p")):
            with pytest.raises(InvalidInput):
                evaluate(model, world, f)
    with pytest.raises(InvalidInput):
        world_satisfies(matrix_from_names(c3, ["1"]), model, 7, parse("[]p"))


def test_deeply_nested_formula_needs_no_recursion(c3):
    # built in a loop, not parsed: the parser itself recurses per "~"
    f = Var("p")
    for _ in range(5000):
        f = Not(f)
    bottom = c3.index("0")  # the flip negation swaps 0 and 1
    model = KripkeModel(Frame(("w",), frozenset()), c3, {(0, "p"): bottom})
    assert evaluate(model, 0, f) == bottom
    assert propositional_value(c3, {"p": bottom}, f) == bottom
    assert variables(f) == {"p"}
    assert modal_depth(f) == 0


def test_consecutive_evaluations_match_fresh_ones(c3_eq1):
    # equal formulas as distinct objects, and one formula object on
    # different models and box modes, in a row
    import latmodal.formula

    lat = c3_eq1.lattice
    cycle = Frame(("w1", "w2", "w3"), frozenset(((0, 1), (1, 2), (2, 0), (2, 2))))
    valuation = {(w, x): (w + i) % 3 for w in range(3) for i, x in enumerate("pq")}
    models = [KripkeModel(frame, lat, valuation) for frame in (FAN, cycle)]
    k = parse("[](p -> q) -> ([]p -> []q)")
    formulas = [parse("[]p -> p"), parse("[]p -> p"), k, parse("[][]p & ~q"), k]
    calls = [
        (model, w, f, mode)
        for f in formulas
        for model in models
        for mode in BoxMode
        for w in range(3)
    ]
    consecutive = [evaluate(*call) for call in calls]
    fresh = []
    for call in calls:
        latmodal.formula._last_compiled = None
        fresh.append(evaluate(*call))
    assert consecutive == fresh
    assert len(set(fresh)) == 3


def test_conservativity_on_box_free_formulas(c3_eq1):
    # depth-0 evaluation coincides with the single-valuation propositional
    # value, for every assignment at the world
    lat = c3_eq1.lattice
    frame = Frame(("w1", "w2"), frozenset(((0, 1),)))
    formulas = [parse(s) for s in ("p", "~p", "p & q", "p | q", "p -> q", "~(p -> q) | p")]
    for pv, qv in itertools.product(range(lat.n), repeat=2):
        model = KripkeModel(frame, lat, {(0, "p"): pv, (0, "q"): qv})
        for f in formulas:
            assert evaluate(model, 0, f) == propositional_value(
                lat, {"p": pv, "q": qv}, f
            )


def test_naw_biconditional_on_filter_matrices():
    # designated filter: box holds exactly when every successor satisfies
    # the child, on every model within 2 worlds
    for n in (2, 3, 4):
        for lat in enumerate_lattices(n):
            matrix = Matrix(lat, frozenset({lat.top}))
            for frame in enumerate_frames(2):
                n_worlds = len(frame.worlds)
                for combo in itertools.product(range(lat.n), repeat=n_worlds):
                    model = KripkeModel(
                        frame, lat, {(w, "p"): combo[w] for w in range(n_worlds)}
                    )
                    for w in range(n_worlds):
                        box_ok = world_satisfies(matrix, model, w, parse("[]p"))
                        naw = all(
                            world_satisfies(matrix, model, w2, parse("p"))
                            for w2 in frame.successors(w)
                        )
                        assert box_ok == naw


# ---------------------------------------------------------------------------
# frame_valid


def test_frame_valid_classical_k(b2):
    mat = matrix_from_names(
        b2.with_imp(build_implication(b2, "material")), ["1"]
    )
    for frame in enumerate_frames(3):
        assert frame_valid(mat, frame, parse("[](p -> q) -> ([]p -> []q)")) is None


def test_frame_valid_finds_proof_counterexample(m2):
    lat = m2.with_imp(build_implication(m2, DEDUCTIVE_EQ1))
    mat = matrix_from_names(lat, ["1"])
    report = frame_valid(mat, FAN, parse("[](p -> q) -> ([]p -> []q)"))
    assert report is not None
    assert report.recheck()
    # the fixed construction from the non-linearity also falsifies here
    proof_model = KripkeModel(
        FAN,
        lat,
        {
            (1, "p"): lat.index("a"),
            (2, "p"): lat.index("a"),
            (1, "q"): lat.index("b"),
            (2, "q"): lat.index("a"),
        },
    )
    ok, world = model_satisfies(mat, proof_model, parse("[](p -> q) -> ([]p -> []q)"))
    assert not ok and world == 0


def test_frame_valid_matches_naive_scan(c3_eq1, m2):
    formulas = [
        parse("[](p -> q) -> ([]p -> []q)"),
        parse("([]p | []q) -> [](p | q)"),
        parse("[]p -> p"),
        parse("~[]p | []p"),
    ]
    # every 2-world frame, plus 3-world frames with mixed successor counts
    frames = list(enumerate_frames(2))
    frames.append(FAN)
    frames.append(
        Frame(("w1", "w2", "w3"), frozenset(((0, 0), (0, 1), (0, 2), (1, 2))))
    )
    frames.append(Frame(("w1", "w2", "w3"), frozenset(((0, 1), (1, 2), (2, 0)))))
    m2mat = matrix_from_names(m2.with_imp(build_implication(m2, "material")), ["1"])
    for matrix in (c3_eq1, m2mat):
        for frame in frames:
            for f in formulas:
                names = sorted(variables(f))
                naive = naive_frame_counterexample(matrix, frame, f, names)
                report = frame_valid(matrix, frame, f)
                if naive is None:
                    assert report is None
                else:
                    assert report is not None
                    valuation, world = naive
                    assert dict(report.model.valuation) == valuation
                    assert report.world == world
                    assert report.recheck()


def test_frame_valid_local_mode(c3_eq1):
    # local box turns box-K into the propositional tautology shape
    frame = Frame(("w",), frozenset())
    assert (
        frame_valid(c3_eq1, frame, parse("[]p -> p"), BoxMode.LOCAL) is None
    )


def test_frame_valid_var_domain(c3_eq1):
    frame = Frame(("w",), frozenset(((0, 0),)))
    report = frame_valid(c3_eq1, frame, parse("p"), var_domain=["p", "q"])
    assert report is not None
    assert (0, "q") in report.model.valuation


def test_frame_valid_consecutive_calls_match_fresh_ones(c3_eq1):
    # same matrix and formula objects, different mode or variable domain
    import latmodal.formula
    import latmodal.kripke

    frame = Frame(("w1", "w2"), frozenset(((0, 1),)))
    f = parse("[]p -> p")
    calls = [
        (BoxMode.NORMAL_MEET, None),
        (BoxMode.LOCAL, None),
        (BoxMode.NORMAL_MEET, None),
        (BoxMode.NORMAL_MEET, ["p", "q"]),
        (BoxMode.NORMAL_MEET, ["p"]),
    ]

    def run(mode, domain):
        report = frame_valid(c3_eq1, frame, f, mode, var_domain=domain)
        return None if report is None else report.to_dict()

    consecutive = [run(*call) for call in calls]
    fresh = []
    for call in calls:
        latmodal.kripke._last_plan = latmodal.formula._last_compiled = None
        fresh.append(run(*call))
    assert consecutive == fresh
    assert fresh[1] is None and fresh[3] != fresh[4]


def test_frame_valid_guards():
    big = next(iter(enumerate_lattices(5)))
    big = big.with_imp(build_implication(big, DEDUCTIVE_EQ1))
    mat = Matrix(big, frozenset({big.top}))
    frame = Frame(tuple(f"w{i}" for i in range(4)), frozenset())
    with pytest.raises(BoundTooLarge):
        frame_valid(mat, frame, parse("[]p -> ([]q -> []r)"))


def test_frame_valid_deterministic(c3_eq1):
    frame = Frame(("w1", "w2"), frozenset(((0, 0), (0, 1))))
    f = parse("[]p -> []q")
    first = frame_valid(c3_eq1, frame, f)
    second = frame_valid(c3_eq1, frame, f)
    assert first.to_dict() == second.to_dict()


def test_counterexample_report_serialization(c3_eq1):
    frame = Frame(("w1", "w2"), frozenset(((0, 1),)))
    report = frame_valid(c3_eq1, frame, parse("[]p"))
    d = report.to_dict()
    assert d["designated"] == ["h", "1"]
    assert d["box"] == "normal"
    assert d["world"] in d["worlds"]
    assert d["formula"] == "[]p"


# ---------------------------------------------------------------------------
# monotone box


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_positive_formulas_monotone(data):
    lattices = [lat for n in (2, 3, 4) for lat in enumerate_lattices(n)]
    lat = data.draw(st.sampled_from(lattices))
    positive = st.recursive(
        st.builds(Var, st.sampled_from(["p", "q"])),
        lambda sub: st.one_of(
            st.builds(And, sub, sub), st.builds(Or, sub, sub), st.builds(Box, sub)
        ),
        max_leaves=5,
    )
    f = data.draw(positive)
    frame = data.draw(st.sampled_from(list(enumerate_frames(2))))
    n_worlds = len(frame.worlds)
    slots = [(w, x) for w in range(n_worlds) for x in ("p", "q")]
    lower = {s: data.draw(st.integers(0, lat.n - 1)) for s in slots}
    upper = {}
    for s, v in lower.items():
        above = [k for k in range(lat.n) if lat.le(v, k)]
        upper[s] = data.draw(st.sampled_from(above))
    low_model = KripkeModel(frame, lat, lower)
    high_model = KripkeModel(frame, lat, upper)
    for w in range(n_worlds):
        assert lat.le(evaluate(low_model, w, f), evaluate(high_model, w, f))
