import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latmodal import (
    DEDUCTIVE_EQ1,
    MATERIAL,
    BoundTooLarge,
    BoxMode,
    InvalidInput,
    Matrix,
    MissingOperation,
    WitnessNotApplicable,
    belnap_four,
    boolean_algebra,
    build_implication,
    chain,
    check_regularity,
    construct_witness,
    enumerate_frames,
    find_frame_counterexample,
    matrix_from_names,
    model_satisfies,
    parse,
    world_satisfies,
)
import latmodal.search
from latmodal import formula, kripke
from latmodal.search import (
    AXIOM_K,
    BOX_DISJUNCTION_DIST,
    BOX_P,
    _array_closure_rounds,
    _closure_rounds,
    _first_defect,
    _scalar_closure_rounds,
    _scan_frames,
)

from oracles import canonical_frame_key, naive_regularity_defect, naive_regularity_witness


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


def _reset_caches():
    kripke._last_plan = formula._last_compiled = None


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
        _reset_caches()
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
        _reset_caches()
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


def test_regularity_witness_recheck_rejects_mutations():
    # one witness of each direction; in both models w1 has no successors,
    # so []p is top there and "every successor" holds vacuously
    directions = {"successors_hold_but_box_fails", "box_holds_but_successor_fails"}
    seen = set()
    for lat, names in ((boolean_algebra(2), ["a", "b", "1"]), (chain(3), ["0", "1"])):
        w = check_regularity(matrix_from_names(lat, names)).witness
        assert w.world == 0 and w.recheck()
        seen.add(w.direction)
        (flipped,) = directions - {w.direction}
        mutants = [
            w._replace(box_value=(w.box_value + 1) % lat.n),
            w._replace(world=1),
            w._replace(direction=flipped),
            # every value designated: box and successors agree
            w._replace(matrix=Matrix(lat, frozenset(range(lat.n)))),
        ]
        assert not any(m.recheck() for m in mutants)
    assert seen == directions


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


def _regularity_scan(matrices, bound):
    """check_regularity's frame scan, batched over the matrices of one
    lattice."""
    scan = list(range(len(matrices)))
    frames = enumerate_frames(bound)
    return _scan_frames(matrices, scan, BOX_P, frames, BoxMode.NORMAL_MEET, False, _first_defect)


def test_regularity_matches_the_model_scan():
    """check_regularity on each matrix, and the batch of the upsets of each
    lattice, against the scan of the one-variable models."""
    from latmodal import enumerate_lattices, enumerate_upsets

    witnesses = 0
    for n in (1, 2, 3, 4):
        for lat in enumerate_lattices(n):
            matrices = [Matrix(lat, upset) for upset in [*enumerate_upsets(lat), frozenset()]]
            for bound in (1, 2, 3) if n <= 3 else (1, 2):
                batch = _regularity_scan(matrices, bound)
                for matrix, in_batch in zip(matrices, batch):
                    result = check_regularity(matrix, bound)
                    w = result.witness
                    found = None if w is None else (w.model, w.world, w.box_value, w.direction)
                    assert found == naive_regularity_witness(matrix, bound), (matrix, bound)
                    assert result.regular == (w is None)
                    assert w is None or w.recheck()
                    assert in_batch == w
                    witnesses += w is not None
    assert witnesses > 0


def test_regularity_pair_closure_matches_the_frame_scan():
    """The harness's regularity search, by the closure of the pairs
    ([]p, "p at every successor"), against the frame scan: every upset of
    every lattice of at most 5 elements, the empty one included, at bounds
    1 to 3; each witness re-checks itself and fits the bound."""
    from latmodal import enumerate_lattices, enumerate_upsets

    verdicts = {True: 0, False: 0}
    for n in range(1, 6):
        for lat in enumerate_lattices(n):
            matrices = [Matrix(lat, upset) for upset in enumerate_upsets(lat)]
            assert frozenset() in [m.designated for m in matrices]
            for bound in (1, 2, 3):
                scanned = _regularity_scan(matrices, bound)
                closed = latmodal.search._regularity_pair_witnesses(matrices, bound, False)
                for matrix, scan, witness in zip(matrices, scanned, closed):
                    assert (scan is None) == (witness is None), (matrix, bound)
                    if witness is not None:
                        assert witness.recheck(), (matrix, bound)
                        assert len(witness.model.frame.worlds) <= bound
                    verdicts[witness is None] += 1
    assert verdicts == {True: 126, False: 48}


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


# ---------------------------------------------------------------------------
# the exact depth-1 check inside find_frame_counterexample

DEPTH1_FORMULAS = [
    AXIOM_K,
    BOX_DISJUNCTION_DIST,
    parse("[](p & q) -> ([]p & []q)"),
    parse("[]p -> p"),
    parse("p -> []p"),
    parse("[]p | []q"),
    parse("p | ~p"),
    parse("~[]p -> []~p"),
    parse("[]p | []~p"),
    parse("[](p -> q) -> (~[]q -> ~[]p)"),
]


def _lattices_up_to(max_size):
    """Every lattice of at most max_size elements with the top-if-below
    implication and, per anti-monotone involution, with material
    implication."""
    from latmodal import enumerate_complementations, enumerate_lattices

    for n in range(1, max_size + 1):
        for lat in enumerate_lattices(n):
            yield lat.with_imp(build_implication(lat, DEDUCTIVE_EQ1))
            for neg in enumerate_complementations(lat, "antimonotone_involutions"):
                with_neg = lat.with_neg(neg)
                yield with_neg.with_imp(build_implication(with_neg, MATERIAL))


def _matrices_up_to_4():
    """Every upset of every lattice of at most 4 elements of
    ``_lattices_up_to``."""
    from latmodal import enumerate_upsets

    for lat in _lattices_up_to(4):
        for upset in enumerate_upsets(lat):
            yield Matrix(lat, upset)


DEPTH2_FORMULAS = [
    parse("[]([]p -> q) -> ([][]p -> []q)"),
    parse("[]p -> [][]p"),
    parse("[][]p -> []p"),
    formula.substitute(AXIOM_K, {"p": parse("[]p")}),
]


def _round_verdicts(matrix, f):
    """Per round of the closure: whether every root value attained so far
    is designated (None once the closure gives up), and whether the round
    is the fixpoint."""
    undesignated = ~matrix.designated_mask()
    for round_ in _closure_rounds(matrix.lattice, f):
        yield (None, True) if round_ is None else (not (round_[0] & undesignated).any(), round_[1])


def _closure_verdict(matrix, f):
    """Whether f holds on all frames by the closure: the verdict of its
    fixpoint or of its first failing round, or None if it gives up."""
    return next(verdict for verdict, fixpoint in _round_verdicts(matrix, f) if fixpoint or not verdict)


def _rounds_to_fixpoint(rounds):
    """Per round of a closure up to its fixpoint: the values attained, as a
    list of bools by index, and whether the round is the fixpoint; None
    last if the closure gives up."""
    found = []
    for round_ in rounds:
        if round_ is None:
            return found + [None]
        attained, fixpoint = round_
        found.append(([bool(hit) for hit in attained], fixpoint))
        if fixpoint:
            return found


def test_scalar_and_array_closures_agree_round_by_round():
    """On every lattice of at most 5 elements and the restricted twists of
    twist_k, for formulas with no variable above a box, with one there and
    of modal depth 2."""
    from latmodal import harness

    formulas = [
        AXIOM_K,
        BOX_DISJUNCTION_DIST,
        parse("[](p & q) -> ([]p & []q)"),
        parse("[]p -> p"),
        parse("p & []q -> []p"),
        parse("~[]p -> []~p"),
        DEPTH2_FORMULAS[0],
    ]
    twists = dict.fromkeys(matrix.lattice for matrix, _ in harness._twist_matrices(2))
    compared = 0
    for lat in [*_lattices_up_to(5), *twists]:
        for f in formulas:
            kinds = {kind for kind, _, _ in formula.compile_formula(f)}
            if lat.neg is None and formula.NOT in kinds:
                continue
            plan = kripke._Plan(lat, f)
            scalar = _rounds_to_fixpoint(_scalar_closure_rounds(plan))
            assert scalar == _rounds_to_fixpoint(_array_closure_rounds(plan)), (lat, f)
            compared += 1
    assert compared == 158


def test_each_closure_backend_ends_at_its_fixpoint():
    """Each backend's rounds end with exactly one fixpoint round, and both
    give the same rounds: on box-K, on a formula without a box (the arrays
    then evaluate tuples of width 0) and at modal depth 2.  At most 50
    rounds are taken, so a backend that kept yielding fails instead of
    running on."""
    lat = chain(3).with_imp(build_implication(chain(3), DEDUCTIVE_EQ1))
    for f in (AXIOM_K, parse("p -> p"), DEPTH2_FORMULAS[0]):
        plan = kripke._Plan(lat, f)
        rounds = []
        for backend in (_scalar_closure_rounds, _array_closure_rounds):
            found = [
                ([bool(hit) for hit in attained], fixpoint)
                for attained, fixpoint in itertools.islice(backend(plan), 50)
            ]
            assert [fixpoint for _, fixpoint in found] == [False] * (len(found) - 1) + [True], f
            rounds.append(found)
        assert rounds[0] == rounds[1], f


def test_scalar_and_array_closures_give_up_after_the_same_rounds(monkeypatch):
    """Both count the rows they evaluate and meet alike, so under any budget
    they give up after the same rounds, at modal depth 1 too, where the
    coded closure evaluates keys instead of rows."""
    ends = {"fixpoint": 0, "gave up": 0}
    for lat in _lattices_up_to(4):
        for f in [AXIOM_K, parse("p & []q -> []p"), *DEPTH2_FORMULAS]:
            plan = kripke._Plan(lat, f)
            for budget in (1 << e for e in range(2, 17)):
                monkeypatch.setattr(latmodal.search, "MAX_VALUATION_SPACE", budget)
                scalar = _rounds_to_fixpoint(_scalar_closure_rounds(plan))
                array = _rounds_to_fixpoint(_array_closure_rounds(plan))
                assert scalar == array, (lat, f, budget)
                ends["gave up" if scalar[-1] is None else "fixpoint"] += 1
    assert ends["fixpoint"] > 0 and ends["gave up"] > 0


def test_once_numpy_is_loaded_the_closure_backend_follows_the_closure_size():
    """n^(variables + box nodes) alone picks the backend, at every modal
    depth: the coded closure up to _CODED_CLOSURE_BOUND, the arrays past
    it, whether numpy is loaded (this process) or not (a fresh one, where
    the closures within the bound run first and leave it unloaded)."""
    from test_cli import run_fresh

    assert max(9**5, 6**6) <= latmodal.search._CODED_CLOSURE_BOUND < min(10**5, 7**6)
    # box-K has 2 variables and 3 box nodes, the depth-2 formula 2 and 4
    cases = [(AXIOM_K, 9), (DEPTH2_FORMULAS[0], 6), (AXIOM_K, 10), (DEPTH2_FORMULAS[0], 7)]
    expected = ["list", "list", "ndarray", "ndarray"]
    script = (
        "import sys\n"
        "from latmodal import DEDUCTIVE_EQ1, build_implication, chain, parse\n"
        "from latmodal.search import _closure_rounds\n"
        f"for text, size in {[(formula.render(f), size) for f, size in cases]!r}:\n"
        "    lat = chain(size).with_imp(build_implication(chain(size), DEDUCTIVE_EQ1))\n"
        "    attained, _ = next(_closure_rounds(lat, parse(text)))\n"
        "    print(type(attained).__name__, 'numpy' in sys.modules)\n"
    )
    assert run_fresh(script) == [f"{kind} {kind == 'ndarray'}" for kind in expected]
    import numpy as np

    for (f, size), kind in zip(cases, expected):
        lat = chain(size).with_imp(build_implication(chain(size), DEDUCTIVE_EQ1))
        attained, _ = next(_closure_rounds(lat, f))
        assert isinstance(attained, list if kind == "list" else np.ndarray), (f, size)


def test_list_and_array_frame_scans_agree():
    """The frame scan's two backends, called directly (this process has
    numpy loaded, so a search would take the arrays): on every matrix of at
    most 4 elements and every canonical frame of at most 3 worlds, in both
    box modes, the root values agree and each matrix gets the same first
    failure from either, or None from both.  On the values of []p under
    the normal box, every designated set, upset or not, gets the same first
    regularity defect from either as from the oracle, or None from all."""
    import numpy as np
    from latmodal import enumerate_upsets

    frames = list(enumerate_frames(3))
    cases = {"failing": 0, "passing": 0}
    defects = {"defect": 0, "regular": 0}
    for lat in _lattices_up_to(4):
        matrices = [Matrix(lat, upset) for upset in enumerate_upsets(lat)]
        subsets = [
            Matrix(lat, frozenset(itertools.compress(range(lat.n), bits)))
            for bits in itertools.product((False, True), repeat=lat.n)
        ]
        for f, frame, mode in itertools.product(
            [AXIOM_K, BOX_DISJUNCTION_DIST, BOX_P, *DEPTH2_FORMULAS], frames, BoxMode
        ):
            lists = kripke.frame_root_values(lat, frame, f, mode, lists=True)
            arrays = kripke.frame_root_values(lat, frame, f, mode)
            shape = (lat.n,) * (len(frame.worlds) * len(formula.variables(f)))
            flat = [np.broadcast_to(values, shape).ravel().tolist() for values in arrays]
            assert lists == flat, (lat, f, frame, mode)
            for matrix in matrices:
                report = _dict(kripke.first_failure(matrix, frame, f, lists, mode))
                assert report == _dict(kripke.first_failure(matrix, frame, f, arrays, mode))
                cases["passing" if report is None else "failing"] += 1
            for matrix in subsets if f is BOX_P and mode is BoxMode.NORMAL_MEET else ():
                defect = _first_defect(matrix, frame, f, lists, mode)
                assert _dict(defect) == _dict(_first_defect(matrix, frame, f, arrays, mode))
                found = defect if defect is None else (
                    defect.model, defect.world, defect.box_value, defect.direction
                )
                assert found == naive_regularity_defect(matrix, frame), (matrix, frame)
                defects["regular" if defect is None else "defect"] += 1
    assert cases["failing"] > 0 and cases["passing"] > 0
    assert defects["defect"] > 0 and defects["regular"] > 0


def _first_failing_world_count(matrix, f, frames):
    return next(
        (len(fr.worlds) for fr in frames if kripke.frame_valid(matrix, fr, f) is not None),
        None,
    )


def test_exact_depth1_check_matches_frame_scan():
    frames = list(enumerate_frames(3))
    verdicts = {True: 0, False: 0}
    deep_verdicts = {True: 0, False: 0}
    for matrix in _matrices_up_to_4():
        for f in DEPTH1_FORMULAS:
            kinds = {kind for kind, _, _ in formula.compile_formula(f)}
            if matrix.lattice.neg is None and formula.NOT in kinds:
                continue
            rounds = [verdict for verdict, _ in itertools.islice(_round_verdicts(matrix, f), 3)]
            # the rounds end at the fixpoint, whose verdict holds at every bound
            exact = rounds + rounds[-1:] * (3 - len(rounds))
            first_failing = _first_failing_world_count(matrix, f, frames)
            scanned = [first_failing is None or first_failing > m for m in (1, 2, 3)]
            assert exact == scanned, (matrix, f)
            for verdict in exact:
                verdicts[verdict] += 1
        for f in DEPTH2_FORMULAS:
            # valid on all frames implies valid on those of at most 3 worlds;
            # on these matrices every failure also shows within 3 worlds
            valid = _closure_verdict(matrix, f)
            assert valid == (_first_failing_world_count(matrix, f, frames) is None), (matrix, f)
            deep_verdicts[valid] += 1
    assert verdicts[True] > 0 and verdicts[False] > 0
    assert deep_verdicts[True] > 0 and deep_verdicts[False] > 0


def _count_frame_scans(monkeypatch):
    """The frames whose root values the search computes, in order."""
    calls = []
    scan = latmodal.search.frame_root_values

    def counted(*args, **kwargs):
        calls.append(args[1])
        return scan(*args, **kwargs)

    monkeypatch.setattr(latmodal.search, "frame_root_values", counted)
    return calls


def test_exact_check_skips_the_frame_scan_only_where_it_applies(monkeypatch, c3_material_lp):
    calls = _count_frame_scans(monkeypatch)
    assert find_frame_counterexample(c3_material_lp, AXIOM_K, 3) is None
    deep = parse("[]([]p -> q) -> ([][]p -> []q)")
    assert find_frame_counterexample(c3_material_lp, deep, 2) is None
    assert calls == []
    # the local box never reads the relation: the first frame decides, built
    # without enumerating frames
    monkeypatch.setattr(latmodal.search, "enumerate_frames", None)
    local = find_frame_counterexample(c3_material_lp, AXIOM_K, 2, BoxMode.LOCAL)
    assert local is None and len(calls) == 1
    report = find_frame_counterexample(c3_material_lp, parse("[]p"), 4, BoxMode.LOCAL)
    assert _dict(report) == _plain_scan(c3_material_lp, parse("[]p"), 4, BoxMode.LOCAL)
    assert len(calls) == 2


def _plain_scan(matrix, f, max_worlds, mode=BoxMode.NORMAL_MEET):
    for frame in enumerate_frames(max_worlds):
        report = kripke.frame_valid(matrix, frame, f, mode)
        if report is not None:
            return report.to_dict()
    return None


def test_the_frame_scan_runs_on_arrays_once_numpy_is_loaded(monkeypatch, c3_eq1):
    import numpy as np

    backends, scan = [], latmodal.search.frame_root_values

    def traced(*args, **kwargs):
        roots = scan(*args, **kwargs)
        backends.append(type(roots[0]))
        return roots

    monkeypatch.setattr(latmodal.search, "frame_root_values", traced)
    # a small scan: lists would run, were numpy not loaded yet
    assert find_frame_counterexample(c3_eq1, parse("[][]p -> []p"), 2) is not None
    assert backends and set(backends) == {np.ndarray}


def test_a_depth1_scan_starts_at_the_world_count_of_the_first_failing_round(monkeypatch):
    # in a Boolean algebra p & []~p keeps a world off its own successors, and
    # []q | []~q fails only at two successors that disagree on q: rounds 0
    # and 1 pass, round 2 fails, and no frame of 1 or 2 worlds is scanned
    b4 = boolean_algebra(2)
    matrix = matrix_from_names(b4.with_imp(build_implication(b4, MATERIAL)), ["1"])
    f = parse("p & []~p -> []q | []~q")
    calls = _count_frame_scans(monkeypatch)
    report = find_frame_counterexample(matrix, f, 3)
    assert len(report.model.frame.worlds) == 3 and report.recheck()
    assert calls and {len(frame.worlds) for frame in calls} == {3}
    assert report.to_dict() == _plain_scan(matrix, f, 3)
    assert find_frame_counterexample(matrix, f, 2) is None


def test_depth2_queries_scan_frames_only_when_they_fail(monkeypatch, c3_eq1, c3_material_lp):
    calls = _count_frame_scans(monkeypatch)
    valid = [DEPTH2_FORMULAS[0], DEPTH2_FORMULAS[3]]
    failing = [DEPTH2_FORMULAS[1], DEPTH2_FORMULAS[2]]
    for matrix in (c3_eq1, c3_material_lp):
        for f in valid:
            assert find_frame_counterexample(matrix, f, 4) is None
    assert calls == []
    for matrix in (c3_eq1, c3_material_lp):
        for f in failing:
            report = find_frame_counterexample(matrix, f, 3)
            assert report is not None and report.recheck()
            assert report.to_dict() == _plain_scan(matrix, f, 3)
    # not valid on all frames, yet valid on the one-world frames
    assert find_frame_counterexample(c3_eq1, parse("[][]p -> []p"), 1) is None


def test_missing_implication_still_gives_the_first_counterexample(c3):
    # the irreflexive one-world frame falsifies p before -> is ever reached
    matrix = matrix_from_names(c3, ["1"])
    report = find_frame_counterexample(matrix, parse("p & [](p -> q)"), 3)
    assert report is not None and report.model.frame.rel == frozenset()
    assert report.recheck()
    with pytest.raises(MissingOperation):
        find_frame_counterexample(matrix, parse("[](p -> q)"), 3)


def _closure_within_budget(monkeypatch, matrix, f):
    """The first closure verdict, and whether the rows the closure hands to
    _merge (those it evaluates and meets, and their merges) stay within its
    budget."""
    merge, rows = latmodal.search._merge, [0]

    def counting(kept, more, n):
        rows[0] += len(more)
        return merge(kept, more, n)

    monkeypatch.setattr(latmodal.search, "_merge", counting)
    verdict = _closure_verdict(matrix, f)
    monkeypatch.undo()
    return verdict, rows[0] <= kripke.MAX_VALUATION_SPACE


def test_deep_box_chain_outgrows_the_closure_and_falls_back_to_the_scan(monkeypatch):
    four = chain(4, "none")
    matrix = matrix_from_names(four.with_imp(build_implication(four, DEDUCTIVE_EQ1)), ["1"])
    boxes = "[]" * 10
    valid = parse(f"{boxes}p -> {boxes}p")
    # each round adds about 4 times the tuples of the last: the budget ends
    # the closure before the meets of a round pass it (0.26 of the budget is
    # merged; without that check, 4.1)
    assert _closure_within_budget(monkeypatch, matrix, valid) == (None, True)
    calls = _count_frame_scans(monkeypatch)
    assert find_frame_counterexample(matrix, valid, 3) is None
    assert len(calls) == 116
    failing = parse(f"{boxes}p -> []{boxes}p")
    assert _dict(find_frame_counterexample(matrix, failing, 3)) == _plain_scan(matrix, failing, 3)
    # three variables on 8 values: 46,816 new tuples x 512 valuations would
    # pass the budget in one evaluation, so it ends before that (0.15 of the
    # budget is merged; evaluating them anyway, 1.6)
    eight = chain(8, "none")
    matrix = matrix_from_names(eight.with_imp(build_implication(eight, DEDUCTIVE_EQ1)), ["1"])
    wide = parse("[]p & []q & []r & [](p | q) & [](q | r) & [][]r -> [][]r")
    assert _closure_within_budget(monkeypatch, matrix, wide) == (None, True)


def test_valid_query_over_the_valuation_guard_raises_as_the_scan_does(monkeypatch):
    seven = chain(7, "none")
    matrix = matrix_from_names(seven.with_imp(build_implication(seven, DEDUCTIVE_EQ1)), ["1"])

    def no_closure(*args):
        raise AssertionError("the closure runs only where the guard admits max_worlds")

    monkeypatch.setattr(latmodal.search, "_closure_rounds", no_closure)
    with pytest.raises(BoundTooLarge) as info:
        find_frame_counterexample(matrix, parse("[](p & q & r) -> []r"), 3)
    assert str(info.value) == "7^9 valuations exceed the guard; pass unsafe_bounds=True to override"
    monkeypatch.undo()
    assert find_frame_counterexample(matrix, parse("[](p & q & r) -> []r"), 2) is None
    # a bound below 1 is an input error, one above the frame guard too large
    for bound, error in ((0, InvalidInput), (5, BoundTooLarge)):
        with pytest.raises(error):
            find_frame_counterexample(matrix, parse("[]p -> []p"), bound)


def test_searches_sharing_a_closure_match_fresh_ones():
    """Matrices of one lattice share the closure of each formula; runs of
    them, broken by a search with another lattice or formula (A, B, A),
    give what each search gives with every cache reset."""
    from latmodal import enumerate_upsets

    formulas = [AXIOM_K, BOX_DISJUNCTION_DIST, *DEPTH2_FORMULAS]
    groups = [
        [Matrix(lat, upset) for upset in enumerate_upsets(lat) if upset]
        for lat in _lattices_up_to(4)
    ]
    queries = []  # (group, upset, formula) indices
    for j in range(len(formulas)):
        for i, group in enumerate(groups):
            run = [(i, k, j) for k in range(len(group))]
            other_lattice = ((i + 1) % len(groups), 0, j)
            other_formula = (i, 0, (j + 1) % len(formulas))
            queries += [*run, other_lattice, *run[::-1], other_formula, *run]
    fresh = {}
    for i, k, j in sorted(set(queries)):
        _reset_caches()
        fresh[i, k, j] = _dict(find_frame_counterexample(groups[i][k], formulas[j], 3))
    _reset_caches()
    for i, k, j in queries:
        report = find_frame_counterexample(groups[i][k], formulas[j], 3)
        assert _dict(report) == fresh[i, k, j], (groups[i][k], formulas[j])
    assert len(fresh) == len(formulas) * sum(map(len, groups))
    assert None in fresh.values() and any(r is not None for r in fresh.values())


def test_matrices_of_one_lattice_share_one_closure(monkeypatch):
    from latmodal.harness import verify_theorem

    built, closure_rounds = [], latmodal.search._closure_rounds

    def counted(lat, f):
        built.append(lat)
        return closure_rounds(lat, f)

    monkeypatch.setattr(latmodal.search, "_closure_rounds", counted)
    scans = _count_frame_scans(monkeypatch)
    _reset_caches()
    report = verify_theorem("disj_dist", 5, 3)
    assert report.passed and report.cases == 48
    assert len(built) == len(set(map(id, built))) == 10  # one per base lattice
    assert scans == []  # every matrix valid, each decided by its lattice's closure


def test_batches_match_searches_of_one_with_every_cache_reset():
    """Every upset of every lattice of at most 4 elements, the empty one
    included: one batch per lattice gives what a search of each designated
    set alone gives, in both box modes and at every bound up to 3."""
    from latmodal import enumerate_upsets

    formulas = [AXIOM_K, BOX_DISJUNCTION_DIST, *DEPTH2_FORMULAS]
    found = 0
    for lat in _lattices_up_to(4):
        matrices = [Matrix(lat, upset) for upset in enumerate_upsets(lat)]
        assert frozenset() in [m.designated for m in matrices]
        for f, bound, mode in itertools.product(formulas, (1, 2, 3), BoxMode):
            alone = []
            for matrix in matrices:
                _reset_caches()
                alone.append(_dict(find_frame_counterexample(matrix, f, bound, mode)))
            _reset_caches()
            batch = latmodal.search._find_counterexamples(matrices, f, bound, mode, False)
            assert list(map(_dict, batch)) == alone, (lat, f, bound, mode)
            found += sum(r is not None for r in alone)
    assert 0 < found


def test_each_lattice_and_frame_is_evaluated_once_per_check(monkeypatch):
    from latmodal.harness import verify_theorem

    calls = []
    frame_root_values = latmodal.search.frame_root_values

    def counted(lat, frame, *args, **kwargs):
        calls.append((lat, frame))
        return frame_root_values(lat, frame, *args, **kwargs)

    monkeypatch.setattr(latmodal.search, "frame_root_values", counted)
    report = verify_theorem("k_linear", 5, 3)
    assert report.passed and report.universe["structural_false_cases"] > 0
    # a search per matrix evaluated 162 (lattice, frame) pairs, and a frame
    # scan of the failing matrices 20; their counterexamples are now the
    # fans that the closure unfolds, so no frame is scanned
    assert calls == []


@pytest.mark.parametrize("backend", ["chosen", "scalar", "array"])
def test_closure_fans_match_the_frame_scan(monkeypatch, backend):
    """The harness's batches, whose failing matrices get the fans that the
    closure unfolds, against the canonical search: on the universes of
    disj_dist, k_linear, k_material and twist_k and on every upset of every
    lattice of at most 4 elements, for three formulas of modal depth 1 at
    bounds 1 to 3, the same matrices fail, and each fan re-checks itself and
    fits the bound.  Each closure runs where forced to (all of these are
    within the coded closure's bound)."""
    from latmodal import enumerate_upsets
    from latmodal import harness

    if backend != "chosen":
        rounds = _scalar_closure_rounds if backend == "scalar" else _array_closure_rounds
        monkeypatch.setattr(
            latmodal.search,
            "_closure_rounds",
            lambda lat, f: latmodal.search._Closure(kripke._plan_for(lat, f), rounds),
        )
    universes = itertools.chain(
        harness._eq1_matrices(5, False),
        harness._k_material_matrices(5, False),
        harness._twist_matrices(2),
    )
    runs = [
        [matrix for matrix, _ in run]
        for _, run in itertools.groupby(universes, key=lambda item: item[0].lattice)
    ]
    runs += [[Matrix(lat, upset) for upset in enumerate_upsets(lat)] for lat in _lattices_up_to(4)]
    counts = {"failing": 0, "passing": 0}
    for matrices, f, bound in itertools.product(
        runs, [AXIOM_K, BOX_DISJUNCTION_DIST, parse("[]p -> p")], (1, 2, 3)
    ):
        args = (matrices, f, bound, BoxMode.NORMAL_MEET, False)
        scanned = latmodal.search._find_counterexamples(*args)
        fans = latmodal.search._find_counterexamples(*args, canonical=False)
        for matrix, scan, fan in zip(matrices, scanned, fans):
            assert (scan is None) == (fan is None), (matrix, f, bound)
            if fan is not None:
                assert fan.recheck() and len(fan.model.frame.worlds) <= bound, (matrix, f, bound)
                assert fan.model.frame.rel <= {(0, w) for w in range(bound)}
            counts["passing" if fan is None else "failing"] += 1
    assert counts["failing"] > 0 and counts["passing"] > 0
