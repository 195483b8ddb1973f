import itertools
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latmodal import (
    DEDUCTIVE_EQ1,
    BoundTooLarge,
    Frame,
    MATERIAL,
    InvalidInput,
    KripkeModel,
    Matrix,
    MissingOperation,
    UnboundVariable,
    belnap_four,
    boolean_algebra,
    build_implication,
    chain,
    enumerate_frames,
    enumerate_lattices,
    erase_boxes,
    evaluate,
    matrix_from_names,
    model_satisfies,
    parse,
    world_satisfies,
)
from latmodal.formula import And, Box, Imp, Not, Or, Var, modal_depth, render, substitute, variables
from latmodal.kripke import frame_root_values

from oracles import (
    first_evaluation_error,
    many_valued_value,
    naive_frame_counterexample,
    scan_frame,
)

DATA = Path(__file__).parent / "data"
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
    assert evaluate(model, 0, erase_boxes(parse("[]p"))) == c3.index("0")
    assert evaluate(model, 0, parse("[]p")) == c3.index("1")


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


def test_a_model_on_other_operations_is_rejected(c3, c3_eq1):
    # same carrier and order as the matrix, but material implication: at
    # p = h, q = 0 the model gives p -> q the value h, the matrix's table 0
    material = c3.with_imp(build_implication(c3, MATERIAL))
    frame = Frame(("w",), frozenset())
    model = KripkeModel(frame, material, {(0, "p"): c3.index("h"), (0, "q"): c3.index("0")})
    assert evaluate(model, 0, parse("p -> q")) == c3.index("h")
    assert c3_eq1.lattice.imp.table[c3.index("h")][c3.index("0")] == c3.index("0")
    other_neg = KripkeModel(frame, c3_eq1.lattice.with_neg([2, 2, 0]), model.valuation)
    for bad in (model, other_neg):
        with pytest.raises(InvalidInput, match="model and matrix use different lattices"):
            world_satisfies(c3_eq1, bad, 0, parse("p -> q"))
        with pytest.raises(InvalidInput, match="model and matrix use different lattices"):
            model_satisfies(c3_eq1, bad, parse("p -> q"))
    # an equal lattice built apart is the same lattice
    rebuilt = chain(3, "flip")
    rebuilt = rebuilt.with_imp(build_implication(rebuilt, DEDUCTIVE_EQ1))
    same = KripkeModel(frame, rebuilt, model.valuation)
    assert not world_satisfies(c3_eq1, same, 0, parse("p -> q"))


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
    assert variables(f) == {"p"}
    assert modal_depth(f) == 0
    report = scan_frame(matrix_from_names(c3, ["1"]), model.frame, f)
    assert report.model.valuation == model.valuation
    assert report.value == evaluate(model, 0, f) == bottom
    assert render(f) == "~" * 5000 + "p"
    boxed = substitute(f, {"p": Box(Var("q"))})
    assert render(boxed) == "~" * 5000 + "[]q" and modal_depth(boxed) == 1
    assert erase_boxes(boxed) == substitute(f, {"p": Var("q")})


def test_consecutive_evaluations_match_fresh_ones(c3_eq1):
    # equal formulas as distinct objects, and one formula object on
    # different models, each formula followed by its boxes erased, in a row
    import latmodal.formula

    lat = c3_eq1.lattice
    cycle = Frame(("w1", "w2", "w3"), frozenset(((0, 1), (1, 2), (2, 0), (2, 2))))
    valuation = {(w, x): (w + i) % 3 for w in range(3) for i, x in enumerate("pq")}
    models = [KripkeModel(frame, lat, valuation) for frame in (FAN, cycle)]
    k = parse("[](p -> q) -> ([]p -> []q)")
    formulas = [parse("[]p -> p"), parse("[]p -> p"), k, parse("[][]p & ~q"), k]
    formulas = [g for f in formulas for g in (f, erase_boxes(f))]
    calls = [(model, w, f) for f in formulas for model in models for w in range(3)]
    consecutive = [evaluate(*call) for call in calls]
    fresh = []
    for call in calls:
        latmodal.formula._last_compiled = None
        fresh.append(evaluate(*call))
    assert consecutive == fresh
    assert len(set(fresh)) == 3


def _with_imp(lat, mode):
    return lat.with_imp(build_implication(lat, mode))


# with and without each of neg and imp, on 2 to 5 elements
EVAL_LATTICES = [
    _with_imp(chain(3, "flip"), DEDUCTIVE_EQ1),
    _with_imp(boolean_algebra(2), MATERIAL),
    _with_imp(chain(5, "flip"), MATERIAL),
    _with_imp(chain(3, "none"), DEDUCTIVE_EQ1),
    belnap_four(),
    chain(2),
    *enumerate_lattices(4),
    *enumerate_lattices(5),
]
FULL_LATTICES = [lat for lat in EVAL_LATTICES if lat.neg is not None and lat.imp is not None]
EVAL_VARS = ("p", "q", "r")


@st.composite
def eval_formulas(draw):
    """A formula of modal depth at most 4 built bottom-up from earlier
    steps, so that subformula objects are shared, and equal ones built
    apart occur too."""
    built = [(Var(x), 0) for x in draw(st.lists(st.sampled_from(EVAL_VARS), min_size=1, max_size=3))]
    for _ in range(draw(st.integers(1, 12))):
        kind = draw(st.sampled_from([Box, Not, Box, And, Or, Imp]))
        # mostly on the last step, so that boxes nest
        child, depth = draw(st.sampled_from(built)) if draw(st.booleans()) else built[-1]
        if kind is Box and depth < 4:
            built.append((Box(child), depth + 1))
        elif kind is Not or kind is Box:
            built.append((Not(child), depth))
        else:
            other, other_depth = draw(st.sampled_from(built))
            built.append((kind(child, other), max(depth, other_depth)))
    return built[-1][0]


@st.composite
def eval_models(draw):
    """A model of at most 6 worlds on any relation (cycles, self-loops and
    dead ends): complete, on a lattice with every connective, or with some
    (world, variable) pairs unbound, on any lattice."""
    complete = draw(st.booleans())
    lat = draw(st.sampled_from(FULL_LATTICES if complete else EVAL_LATTICES))
    n = draw(st.integers(1, 6))
    pairs = [(i, j) for i in range(n) for j in range(n)]
    rel = frozenset(draw(st.lists(st.sampled_from(pairs), max_size=2 * n)))
    valuation = {}
    for w in range(n):
        for x in EVAL_VARS:
            if complete or draw(st.integers(0, 5)):
                valuation[w, x] = draw(st.integers(0, lat.n - 1))
    return KripkeModel(Frame(tuple(f"w{w}" for w in range(n)), rel), lat, valuation)


def _outcome(model, world, f):
    try:
        return evaluate(model, world, f)
    except UnboundVariable as exc:
        return ("unbound", exc.world, exc.variable)
    except MissingOperation as exc:
        return ("missing", exc.operation)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(eval_models(), eval_formulas(), st.booleans())
def test_evaluate_matches_the_recursive_oracle(model, f, local):
    """At every world: the value of the recursive evaluator, or the error
    the contract names, the first needed (world, variable) or the first
    needed operation in node post order; unbound pairs and missing
    operations where the formula does not reach are never read.  The
    local box, which the package reads as the formula with its boxes
    erased, against the oracle's own rule for it."""
    evaluated = erase_boxes(f) if local else f
    for w in range(len(model.frame.worlds)):
        expected = first_evaluation_error(model, w, f, local)
        if expected is None:
            expected = many_valued_value(model, w, f, local)
        assert _outcome(model, w, evaluated) == expected, (render(f), w)


def test_the_first_needed_unbound_pair_is_named(c3):
    # w1 -> w3, w1 -> w2; p is unbound at w3 and w2, q at w1
    frame = Frame(("w1", "w2", "w3"), frozenset(((0, 2), (0, 1))))
    model = KripkeModel(frame, c3, {(1, "q"): 0, (2, "q"): 0})
    # node post order before world order: p (at w2, w3) comes before q (at w1)
    for text, named in (("[]p & q", ("w2", "p")), ("q & []p", ("w1", "q"))):
        with pytest.raises(UnboundVariable) as exc:
            evaluate(model, 0, parse(text))
        assert (exc.value.world, exc.value.variable) == named, text
    # the local box needs p at w1 only
    with pytest.raises(UnboundVariable) as exc:
        evaluate(model, 0, erase_boxes(parse("[]p & q")))
    assert (exc.value.world, exc.value.variable) == ("w1", "p")


def test_a_missing_operation_is_raised_only_where_reached():
    """Alike by every evaluator: evaluate at the first world, and
    frame_root_values on lists and on arrays, raise it for the same
    operation on w1 -> w2, and on one world without successors only for
    the formula that needs it outside a box."""
    bare = chain(3, "none")  # neither neg nor imp
    edge = Frame(("w1", "w2"), frozenset(((0, 1),)))
    model = KripkeModel(edge, bare, {(w, x): 1 for w in range(2) for x in "pq"})
    # w2 is a dead end: the box's argument is needed nowhere
    assert evaluate(model, 1, parse("[]~p & [](p -> q)")) == bare.top
    assert evaluate(model, 1, parse("q | [][]~p")) == bare.top
    alone = Frame(("w1",), frozenset())
    for text, operation in (("[]~p", "neg"), ("[](p -> q)", "imp"), ("p & ~q", "neg")):
        f = parse(text)
        for frame, needed in ((edge, True), (alone, text == "p & ~q")):
            valuation = {(w, x): 1 for w in range(len(frame.worlds)) for x in "pq"}
            evaluators = (
                lambda: evaluate(KripkeModel(frame, bare, valuation), 0, f),
                lambda: frame_root_values(bare, frame, f, lists=True),
                lambda: frame_root_values(bare, frame, f),
            )
            for run in evaluators:
                if not needed:
                    run()
                    continue
                with pytest.raises(MissingOperation) as exc:
                    run()
                assert exc.value.operation == operation, (text, frame)


def test_eval_matches_the_golden_files(capsys):
    from latmodal.cli import main

    formula = "[]([]~p -> [](q | [][]~r)) & ~[](p & []q) -> [][]([]p | ~q)"
    for box in ("normal", "local"):
        argv = ["eval", "--model", str(DATA / "model_n5_40.json"), "--formula", formula]
        code = main([*argv, "--box", box, "--compact"])
        out = capsys.readouterr().out
        assert code == 1, box
        assert out.encode("utf-8") == (DATA / f"eval_model_n5_40_{box}.json").read_bytes(), box


def test_conservativity_on_box_free_formulas(c3_eq1):
    # depth-0 evaluation at a world with a successor coincides with the
    # reference value on one world alone, for every assignment at the world
    lat = c3_eq1.lattice
    frame = Frame(("w1", "w2"), frozenset(((0, 1),)))
    formulas = [parse(s) for s in ("p", "~p", "p & q", "p | q", "p -> q", "~(p -> q) | p")]
    for pv, qv in itertools.product(range(lat.n), repeat=2):
        valuation = {(0, "p"): pv, (0, "q"): qv}
        alone = KripkeModel(Frame(("w1",), frozenset()), lat, valuation)
        for f in formulas:
            assert evaluate(KripkeModel(frame, lat, valuation), 0, f) == many_valued_value(
                alone, 0, f
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
# the frame scan on one frame


def test_the_frame_scan_holds_classical_k(b2):
    mat = matrix_from_names(
        b2.with_imp(build_implication(b2, "material")), ["1"]
    )
    for frame in enumerate_frames(3):
        assert scan_frame(mat, frame, parse("[](p -> q) -> ([]p -> []q)")) is None


def test_the_frame_scan_finds_the_proof_counterexample(m2):
    lat = m2.with_imp(build_implication(m2, DEDUCTIVE_EQ1))
    mat = matrix_from_names(lat, ["1"])
    report = scan_frame(mat, FAN, parse("[](p -> q) -> ([]p -> []q)"))
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


def test_the_frame_scan_matches_the_naive_scan(c3_eq1, m2):
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
                report = scan_frame(matrix, frame, f)
                if naive is None:
                    assert report is None
                else:
                    assert report is not None
                    valuation, world = naive
                    assert dict(report.model.valuation) == valuation
                    assert report.world == world
                    assert report.recheck()


def test_the_frame_scan_of_a_formula_with_its_boxes_erased(c3_eq1):
    # the local box turns []p -> p into the tautology p -> p
    frame = Frame(("w",), frozenset())
    assert (
        scan_frame(c3_eq1, frame, erase_boxes(parse("[]p -> p"))) is None
    )


def test_consecutive_frame_scans_match_fresh_ones(c3_eq1):
    # same matrix and formula objects, the boxes erased or another formula
    import latmodal.formula
    import latmodal.kripke

    frame = Frame(("w1", "w2"), frozenset(((0, 1),)))
    f, g = parse("[]p -> p"), parse("[]p -> q")
    calls = [f, erase_boxes(f), f, g, f]

    def run(formula):
        report = scan_frame(c3_eq1, frame, formula)
        return None if report is None else report.to_dict()

    consecutive = [run(call) for call in calls]
    fresh = []
    for call in calls:
        latmodal.kripke._last_plan = latmodal.formula._last_compiled = None
        fresh.append(run(call))
    assert consecutive == fresh
    assert fresh[1] is None and fresh[3] != fresh[4]


def test_the_frame_scan_guards_the_valuation_space():
    big = next(iter(enumerate_lattices(5)))
    big = big.with_imp(build_implication(big, DEDUCTIVE_EQ1))
    mat = Matrix(big, frozenset({big.top}))
    frame = Frame(tuple(f"w{i}" for i in range(4)), frozenset())
    with pytest.raises(BoundTooLarge):
        scan_frame(mat, frame, parse("[]p -> ([]q -> []r)"))


def test_the_frame_scan_is_deterministic(c3_eq1):
    frame = Frame(("w1", "w2"), frozenset(((0, 0), (0, 1))))
    f = parse("[]p -> []q")
    first = scan_frame(c3_eq1, frame, f)
    second = scan_frame(c3_eq1, frame, f)
    assert first.to_dict() == second.to_dict()


def test_counterexample_report_serialization(c3_eq1):
    frame = Frame(("w1", "w2"), frozenset(((0, 1),)))
    report = scan_frame(c3_eq1, frame, parse("[]p"))
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
        above = [k for k in range(lat.n) if lat.leq[v][k]]
        upper[s] = data.draw(st.sampled_from(above))
    low_model = KripkeModel(frame, lat, lower)
    high_model = KripkeModel(frame, lat, upper)
    for w in range(n_worlds):
        assert lat.leq[evaluate(low_model, w, f)][evaluate(high_model, w, f)]
