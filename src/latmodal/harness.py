"""Desk-scale exhaustive verification of the characterization properties.

Each check pairs a structural predicate on a matrix (filter, implicative,
linear-outside, ...) with a semantic decision of the matching validity on
all frames, over every lattice and upward-closed designated set within the
configured size bound, and asserts the biconditional in both directions.
One driver runs all five biconditional checks, and one dispatch in
``verify_theorem`` states, for each, its formula, structural verdict,
semantic decision, matrices and recorded universe.  The semantic side
scans no frame.  For a box formula it is the closure of box-value tuples,
run to its fixpoint, which decides validity on all frames at modal depth
<= 1, as all four box formulas are (``search._decide_on_all_frames``); it
unfolds a failing matrix's counterexample, a fan, from the cell that
attains a value outside its designated set, and a closure that outgrows
its budget raises BoundTooLarge.  For regularity it is the first defect of
each matrix on the one two-world frame that holds a defect of every frame,
which ``check_regularity`` decides by too.  A structural defect must also
show on its canonical witness model (``construct_witness``).
Every witness re-checks itself through the reference evaluator, and a case
that fails records the very witness its decision found and re-checked.
``k5_regression`` takes its witness from the same closure.  The matrices of
one lattice come in a run, and each run of a box check is decided in one
batch: one closure decides all its designated sets (see ``search``).  The
lattices of each size and the upsets of each order are enumerated once per
process, and the restricted twists built once.  Each report is built once,
when its check has run, and is frozen; it passes when it records no
failure.

Universe conventions, chosen to mirror each property's hypotheses: the
designated sets range over non-empty upward-closed subsets, except for
twist_k where the empty set is included (both sides of its biconditional
are false there); k_linear additionally requires the structural side to be
a filter, which the linear-outside notion presupposes.  Without the filter
requirement the biconditional is false: on the four-element diamond with
designated {a, b, 1} (not a filter) the lattice is linear outside the
designated set, yet box-K fails in a three-world model under the
top-if-below implication.
"""

from __future__ import annotations

import functools
import itertools
from collections.abc import Callable, Iterable, Iterator

from . import THEOREM_IDS
from .constructions import boolean_algebra, antichain_k5, twist
from .enumeration import (
    MAX_UPSET_SIZE,
    enumerate_complementations,
    enumerate_lattices,
    enumerate_upsets,
)
from .errors import InvalidInput, WitnessNotApplicable
from .formula import render
from .kripke import model_satisfies
from .lattice import (
    DEDUCTIVE_EQ1,
    MATERIAL,
    DesignatedProperties,
    Lattice,
    Matrix,
    build_implication,
    check_designated,
    check_lattice_properties,
)
from .record import Record
from .search import (
    AXIOM_K,
    BOX_DISJUNCTION_DIST,
    BOX_P,
    _REGULARITY_FRAME,
    _decide_on_all_frames,
    _first_defect,
    construct_witness,
)

# The restricted twist of the k-atom Boolean algebra has 3^k elements; this
# is the largest k whose carrier the upset enumeration admits.
_MAX_TWIST_ATOMS = max(k for k in range(1, MAX_UPSET_SIZE) if 3**k <= MAX_UPSET_SIZE)


class TheoremReport(Record):
    theorem: str
    universe: dict
    cases: int
    failures: list
    notes: list[str]

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        return {
            "theorem": self.theorem,
            "universe": self.universe,
            "cases": self.cases,
            "passed": self.passed,
            "failures": self.failures,
            "notes": self.notes,
        }


class HarnessConfig(Record):
    size_bound: int = 5
    unsafe_bounds: bool = False


def _lattice_universe(size_bound: int, unsafe_bounds: bool) -> Iterator[Lattice]:
    for n in range(1, size_bound + 1):
        yield from enumerate_lattices(n, unsafe_bounds=unsafe_bounds)


def _case_id(lattice: Lattice, designated: frozenset[int]) -> dict:
    return {
        "lattice": lattice.name,
        "elements": list(lattice.elements),
        "designated": [lattice.elements[i] for i in sorted(designated)],
    }


_UPSETS: dict[tuple[tuple[bool, ...], ...], tuple[frozenset[int], ...]] = {}


def _upsets(lat: Lattice) -> tuple[frozenset[int], ...]:
    """The upsets of the lattice's order, enumerated once per process, like
    the lattices, and shared by every negation and implication on it."""
    upsets = _UPSETS.get(lat.leq)
    if upsets is None:
        upsets = _UPSETS[lat.leq] = tuple(enumerate_upsets(lat))
    return upsets


def _upset_matrices(lattices: Iterable[Lattice]) -> Iterator[tuple[Matrix, dict]]:
    """Each lattice with each of its non-empty upsets designated."""
    for lat in lattices:
        for upset in _upsets(lat):
            if upset:
                yield Matrix(lat, upset), _case_id(lat, upset)


def _eq1_matrices(size_bound: int, unsafe_bounds: bool) -> Iterator[tuple[Matrix, dict]]:
    return _upset_matrices(
        lat.with_imp(build_implication(lat, DEDUCTIVE_EQ1))
        for lat in _lattice_universe(size_bound, unsafe_bounds)
    )


def _k_material_matrices(size_bound: int, unsafe_bounds: bool) -> Iterator[tuple[Matrix, dict]]:
    for lat in _lattice_universe(size_bound, unsafe_bounds):
        if not check_lattice_properties(lat).down_distribution:
            continue
        for neg in enumerate_complementations(lat, "antimonotone_involutions"):
            lat_neg = lat.with_neg(neg)
            lat_full = lat_neg.with_imp(build_implication(lat_neg, MATERIAL))
            case_neg = {
                lat_full.elements[i]: lat_full.elements[v] for i, v in enumerate(neg)
            }
            for matrix, case in _upset_matrices([lat_full]):
                yield matrix, {**case, "neg": case_neg}


@functools.cache
def _restricted_twist(atoms: int) -> Matrix:
    """Built once per process and shared, like the enumerated lattices."""
    return twist(boolean_algebra(atoms), restrict_p=True)


def _twist_matrices(max_atoms: int) -> Iterator[tuple[Matrix, dict]]:
    for atoms in range(1, max_atoms + 1):
        base_matrix = _restricted_twist(atoms)
        lat = base_matrix.lattice
        ones = [lat.elements[i] for i in sorted(base_matrix.designated)]
        for upset in _upsets(lat):
            yield Matrix(lat, upset), {**_case_id(lat, upset), "atoms": atoms, "ones": ones}


def _verify_eq1_implicative(size_bound: int, unsafe_bounds: bool) -> TheoremReport:
    cases, failures = 0, []
    for matrix, case in _eq1_matrices(size_bound, unsafe_bounds):
        cases += 1
        props = check_designated(matrix)
        if props.is_implicative is not True:
            failures.append({**case, "witness": props.implicative_witness})
    universe = {
        "max_lattice_size": size_bound,
        "implication": DEDUCTIVE_EQ1,
        "designated": "non-empty upsets (each contains the top)",
    }
    return TheoremReport("eq1_implicative", universe, cases, failures, [])


def _verify_biconditional(
    theorem: str,
    formula,
    classify: Callable[[dict, DesignatedProperties], tuple[bool, str | None]],
    search: Callable[[list[Matrix]], list],
    matrices: Iterator[tuple[Matrix, dict]],
    universe: dict,
    note: str,
    *,
    split: bool = True,
) -> TheoremReport:
    """Shared driver: structural predicate <=> valid on all frames.

    ``search`` gives each matrix of a run of one lattice a semantic witness,
    or None where the formula is valid on all frames; a witness has
    ``recheck`` and ``to_dict``.  A failing case records that witness, the
    one re-checked, so a report shows what its search found.  ``classify``
    gives a case's structural verdict, from its case id and its
    ``check_designated`` result, and the kind of the canonical witness that
    must falsify ``formula`` when the verdict is false (None when no
    witness applies).  That result is computed once per matrix and also
    given to ``construct_witness``.  Both directions are asserted.  The
    report's one note is ``note``, and its universe adds, with ``split``,
    the formula and the counts of structurally true and false cases.
    """
    cases = structural_true = 0
    failures = []
    for _, run in itertools.groupby(matrices, key=lambda item: item[0].lattice):
        run = list(run)
        for (matrix, case), witness in zip(run, search([matrix for matrix, _ in run])):
            cases += 1
            props = check_designated(matrix)
            structural, witness_kind = classify(case, props)
            semantic = witness is None
            structural_true += structural
            ok = structural == semantic
            if ok and witness is not None and not witness.recheck():
                ok = False
                case = {**case, "error": "counterexample failed self-certification"}
            if ok and not structural and witness_kind is not None:
                try:
                    model = construct_witness(witness_kind, matrix, props=props)
                    holds, _ = model_satisfies(matrix, model, formula)
                    if holds:
                        raise WitnessNotApplicable("constructed model does not falsify")
                except WitnessNotApplicable as exc:
                    ok = False
                    case = {**case, "witness_error": str(exc)}
            if not ok:
                entry = {**case, "structural": structural, "semantic": semantic}
                if witness is not None:
                    entry["counterexample"] = witness.to_dict()
                failures.append(entry)
    if split:
        universe = {
            **universe,
            "formula": render(formula),
            "structural_true_cases": structural_true,
            "structural_false_cases": cases - structural_true,
        }
    return TheoremReport(theorem, universe, cases, failures, [note])


def k5_regression() -> TheoremReport:
    """The five-element antichain example: box-K valid on all frames while
    the lattice is not linear outside the designated set.  A counterexample
    is the fan that the harness's closure unfolds."""
    matrix = antichain_k5()
    failures, notes = [], []
    (counterexample,) = _decide_on_all_frames([matrix], AXIOM_K)
    if counterexample is not None:
        failures.append(
            {
                "check": "box-K frame validity",
                "counterexample": counterexample.to_dict(),
                "self_certified": counterexample.recheck(),
            }
        )
    props = check_designated(matrix)
    if props.linear_outside:
        failures.append({"check": "not linear outside the designated set"})
    else:
        notes.append(
            "linear-outside fails with witness "
            f"{tuple(matrix.lattice.elements[i] for i in props.linear_witness)}"
        )
    return TheoremReport("k5_regression", {"lattice": matrix.lattice.name}, 2, failures, notes)


def verify_theorem(
    theorem: str, size_bound: int = 5, *, unsafe_bounds: bool = False
) -> TheoremReport:
    """Run one characterization check; for twist_k the size bound is the
    maximum number of atoms of the Boolean base, clamped to the largest
    count whose carrier the upset enumeration admits (2)."""
    if size_bound < 1:
        raise InvalidInput(f"size bound must be at least 1, got {size_bound}")
    if theorem == "eq1_implicative":
        return _verify_eq1_implicative(size_bound, unsafe_bounds)
    if theorem == "regularity":
        # on a non-empty set, a filter holds its big meet
        return _verify_biconditional(
            theorem,
            BOX_P,
            lambda case, props: (props.is_filter, "nonfilter"),
            lambda run: [_first_defect(matrix, _REGULARITY_FRAME) for matrix in run],
            _upset_matrices(_lattice_universe(size_bound, unsafe_bounds)),
            {"max_lattice_size": size_bound, "designated": "non-empty upsets"},
            "both directions exact (all frames): "
            "a defect on any frame shows on the two-world reflexive fan",
            split=False,
        )
    eq1 = {"max_lattice_size": size_bound, "implication": f"strictly deductive ({DEDUCTIVE_EQ1})"}
    if theorem == "disj_dist":
        formula, matrices = BOX_DISJUNCTION_DIST, _eq1_matrices(size_bound, unsafe_bounds)
        classify = lambda case, props: (props.is_implicative is True, "nonimplicative")
        universe = {**eq1, "designated": "non-empty upsets"}
    elif theorem == "k_linear":
        formula, matrices = AXIOM_K, _eq1_matrices(size_bound, unsafe_bounds)
        # the canonical non-linearity witness applies to filters only
        classify = lambda case, props: (
            props.is_filter and props.linear_outside,
            "nonlinear_k" if props.is_filter else None,
        )
        universe = {**eq1, "designated": "non-empty upsets; structural side requires a filter"}
    elif theorem == "k_material":
        formula, matrices = AXIOM_K, _k_material_matrices(size_bound, unsafe_bounds)
        classify = lambda case, props: (props.is_implicative is True, "nonimplicative_k_material")
        universe = {
            "max_lattice_size": size_bound,
            "implication": MATERIAL,
            "negations": "all anti-monotone involutions",
            "lattices": "down-distributive only",
            "designated": "non-empty upsets",
        }
    elif theorem == "twist_k":
        atoms = min(size_bound, _MAX_TWIST_ATOMS)
        formula, matrices = AXIOM_K, _twist_matrices(atoms)
        classify = lambda case, props: (
            set(case["ones"]) <= set(case["designated"]),
            "nonimplicative_k_material",
        )
        universe = {
            "twist_atoms": list(range(1, atoms + 1)),
            "carrier": "join-to-top pair restriction",
            "implication": MATERIAL,
            "designated": "all upsets (empty included)",
            "structural": "designated contains every first-coordinate-top pair",
        }
    else:
        raise ValueError(f"unknown theorem id {theorem!r}; known: {THEOREM_IDS}")
    return _verify_biconditional(
        theorem,
        formula,
        classify,
        lambda run: _decide_on_all_frames(run, formula),
        matrices,
        universe,
        "both directions exact (all frames): the closure of box-value tuples runs to its fixpoint",
    )


def run_suite(config: HarnessConfig | None = None) -> tuple[list[TheoremReport], int]:
    """All six checks plus the five-element regression; exit 0 iff all pass.
    twist_k runs at its largest atom count, whatever the size bound."""
    config = config or HarnessConfig()
    reports = [
        verify_theorem(
            theorem,
            _MAX_TWIST_ATOMS if theorem == "twist_k" else config.size_bound,
            unsafe_bounds=config.unsafe_bounds,
        )
        for theorem in THEOREM_IDS
    ]
    reports.append(k5_regression())
    return reports, 0 if all(r.passed for r in reports) else 1
