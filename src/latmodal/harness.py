"""Desk-scale exhaustive verification of the characterization properties.

Each check pairs a structural predicate on a matrix (filter, implicative,
linear-outside, ...) with a bounded semantic search for counterexamples to
the matching validity, over every lattice and upward-closed designated set
within the configured bounds, and asserts the biconditional.  The defect
direction is exact: whenever the structural predicate fails, the falsifying
model needs at most two worlds for regularity and three otherwise, so a
world bound at proof scale makes that direction a complete check rather
than a bounded one.  The validity direction ("no counterexample on any
frame") is necessarily bounded by the world bound and reported as such.

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

from dataclasses import dataclass, field
from typing import Callable, Iterator

from .constructions import boolean_algebra, antichain_k5, twist
from .enumeration import (
    MAX_UPSET_SIZE,
    enumerate_complementations,
    enumerate_lattices,
    enumerate_upsets,
)
from .errors import WitnessNotApplicable
from .formula import render
from .kripke import model_satisfies
from .lattice import (
    DEDUCTIVE_EQ1,
    MATERIAL,
    Lattice,
    Matrix,
    build_implication,
    check_designated,
    check_lattice_properties,
)
from .search import (
    AXIOM_K,
    BOX_DISJUNCTION_DIST,
    check_regularity,
    construct_witness,
    find_frame_counterexample,
)

THEOREM_IDS = (
    "regularity",
    "eq1_implicative",
    "disj_dist",
    "k_linear",
    "k_material",
    "twist_k",
)

# The restricted twist of the k-atom Boolean algebra has 3^k elements; this
# is the largest k whose carrier the upset enumeration admits.
_MAX_TWIST_ATOMS = max(k for k in range(1, MAX_UPSET_SIZE) if 3**k <= MAX_UPSET_SIZE)

_PROOF_SCALE = {
    "regularity": 2,
    "disj_dist": 3,
    "k_linear": 3,
    "k_material": 3,
    "twist_k": 3,
}


@dataclass
class TheoremReport:
    theorem: str
    universe: dict
    cases: int
    passed: bool
    failures: list = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "theorem": self.theorem,
            "universe": self.universe,
            "cases": self.cases,
            "passed": self.passed,
            "failures": self.failures,
            "notes": self.notes,
        }


@dataclass
class HarnessConfig:
    size_bound: int = 5
    world_bound: int = 3
    regularity_world_bound: int = 2
    twist_atoms: int = 2
    unsafe_bounds: bool = False
    k5_matrix: Matrix | None = None  # override hook for harness self-tests


def _lattice_universe(size_bound: int) -> Iterator[Lattice]:
    for n in range(1, size_bound + 1):
        yield from enumerate_lattices(n)


def _nonempty_upsets(lattice: Lattice) -> Iterator[frozenset[int]]:
    for upset in enumerate_upsets(lattice):
        if upset:
            yield upset


def _case_id(lattice: Lattice, designated: frozenset[int]) -> dict:
    return {
        "lattice": lattice.name,
        "elements": list(lattice.elements),
        "designated": [lattice.elements[i] for i in sorted(designated)],
    }


def _bounded_note(report: TheoremReport, theorem: str, world_bound: int) -> bool:
    """Mark reports whose defect direction is not exercised; returns whether
    that direction should be asserted."""
    scale = _PROOF_SCALE.get(theorem)
    if scale is None:
        return False
    report.universe["world_bound"] = world_bound
    if world_bound < scale:
        report.notes.append(
            "bounded-verification only, witness directions not exercised "
            f"(world bound {world_bound} below proof scale {scale})"
        )
        return False
    report.notes.append(
        f"defect direction exact at world bound >= {scale}; "
        "validity direction bounded by the world bound"
    )
    return True


def _verify_regularity(size_bound: int, world_bound: int, unsafe: bool) -> TheoremReport:
    report = TheoremReport(
        "regularity",
        {"max_lattice_size": size_bound, "designated": "non-empty upsets"},
        0,
        True,
    )
    assert_defects = _bounded_note(report, "regularity", world_bound)
    for lat in _lattice_universe(size_bound):
        for upset in _nonempty_upsets(lat):
            matrix = Matrix(lat, upset)
            result = check_regularity(matrix, world_bound, unsafe_bounds=unsafe)
            report.cases += 1
            ok = result.regular == result.structural_regular
            if ok and assert_defects and not result.structural_regular:
                try:
                    construct_witness("nonfilter", matrix)
                except WitnessNotApplicable as exc:
                    ok = False
                    report.failures.append(
                        {**_case_id(lat, upset), "witness_error": str(exc)}
                    )
            if not ok:
                report.passed = False
                entry = {
                    **_case_id(lat, upset),
                    "structural": result.structural_regular,
                    "semantic": result.regular,
                }
                if result.witness is not None:
                    entry["witness"] = {
                        "model": result.witness.model.to_dict(),
                        "world": result.witness.model.frame.worlds[result.witness.world],
                        "direction": result.witness.direction,
                    }
                report.failures.append(entry)
    return report


def _verify_eq1_implicative(size_bound: int) -> TheoremReport:
    report = TheoremReport(
        "eq1_implicative",
        {
            "max_lattice_size": size_bound,
            "implication": DEDUCTIVE_EQ1,
            "designated": "non-empty upsets (each contains the top)",
        },
        0,
        True,
    )
    for lat in _lattice_universe(size_bound):
        lat_imp = lat.with_imp(build_implication(lat, DEDUCTIVE_EQ1))
        for upset in _nonempty_upsets(lat_imp):
            matrix = Matrix(lat_imp, upset)
            report.cases += 1
            props = check_designated(matrix)
            if props.is_implicative is not True:
                report.passed = False
                report.failures.append(
                    {**_case_id(lat_imp, upset), "witness": props.implicative_witness}
                )
    return report


def _verify_box_biconditional(
    theorem: str,
    formula,
    classify: Callable[[Matrix], tuple[bool, str | None]],
    matrices: Iterator[tuple[Matrix, dict]],
    world_bound: int,
    unsafe: bool,
    universe: dict,
) -> TheoremReport:
    """Shared driver: structural predicate <=> no counterexample in bound.

    ``classify`` gives a matrix's structural verdict and the kind of the
    canonical witness that must falsify the formula when the verdict is
    false (None when no witness applies).
    """
    report = TheoremReport(theorem, dict(universe), 0, True)
    report.universe["formula"] = render(formula)
    assert_defects = _bounded_note(report, theorem, world_bound)
    structural_true = 0
    for matrix, case in matrices:
        report.cases += 1
        structural, witness_kind = classify(matrix)
        counterexample = find_frame_counterexample(
            matrix, formula, world_bound, unsafe_bounds=unsafe
        )
        semantic = counterexample is None
        if structural:
            structural_true += 1
        if structural:
            ok = semantic  # validity direction, always asserted within the bound
        elif assert_defects:
            ok = not semantic  # defect direction, exact at proof scale
        else:
            ok = True
        if ok and counterexample is not None and not counterexample.recheck():
            ok = False
            case = {**case, "error": "counterexample failed self-certification"}
        if ok and assert_defects and not structural and witness_kind is not None:
            try:
                model = construct_witness(witness_kind, matrix)
                holds, _ = model_satisfies(matrix, model, formula)
                if holds:
                    raise WitnessNotApplicable("constructed model does not falsify")
            except WitnessNotApplicable as exc:
                ok = False
                case = {**case, "witness_error": str(exc)}
        if not ok:
            report.passed = False
            entry = {**case, "structural": structural, "semantic": semantic}
            if counterexample is not None:
                entry["counterexample"] = counterexample.to_dict()
            report.failures.append(entry)
    report.universe["structural_true_cases"] = structural_true
    report.universe["structural_false_cases"] = report.cases - structural_true
    return report


def _disj_dist_matrices(size_bound: int) -> Iterator[tuple[Matrix, dict]]:
    for lat in _lattice_universe(size_bound):
        lat_imp = lat.with_imp(build_implication(lat, DEDUCTIVE_EQ1))
        for upset in _nonempty_upsets(lat_imp):
            yield Matrix(lat_imp, upset), _case_id(lat_imp, upset)


def _verify_disj_dist(size_bound: int, world_bound: int, unsafe: bool) -> TheoremReport:
    return _verify_box_biconditional(
        "disj_dist",
        BOX_DISJUNCTION_DIST,
        lambda m: (check_designated(m).is_implicative is True, "nonimplicative"),
        _disj_dist_matrices(size_bound),
        world_bound,
        unsafe,
        {
            "max_lattice_size": size_bound,
            "implication": "strictly deductive (" + DEDUCTIVE_EQ1 + ")",
            "designated": "non-empty upsets",
        },
    )


def _verify_k_linear(size_bound: int, world_bound: int, unsafe: bool) -> TheoremReport:
    def classify(matrix: Matrix) -> tuple[bool, str | None]:
        props = check_designated(matrix)
        # the canonical non-linearity witness applies to filters only
        witness = "nonlinear_k" if props.is_filter else None
        return props.is_filter and props.linear_outside, witness

    return _verify_box_biconditional(
        "k_linear",
        AXIOM_K,
        classify,
        _disj_dist_matrices(size_bound),
        world_bound,
        unsafe,
        {
            "max_lattice_size": size_bound,
            "implication": "strictly deductive (" + DEDUCTIVE_EQ1 + ")",
            "designated": "non-empty upsets; structural side requires a filter",
        },
    )


def _k_material_matrices(size_bound: int) -> Iterator[tuple[Matrix, dict]]:
    for lat in _lattice_universe(size_bound):
        if not check_lattice_properties(lat).down_distribution:
            continue
        for neg in enumerate_complementations(lat, "antimonotone_involutions"):
            lat_neg = lat.with_neg(neg)
            lat_full = lat_neg.with_imp(build_implication(lat_neg, MATERIAL))
            case_neg = {
                lat_full.elements[i]: lat_full.elements[v] for i, v in enumerate(neg)
            }
            for upset in _nonempty_upsets(lat_full):
                case = {**_case_id(lat_full, upset), "neg": case_neg}
                yield Matrix(lat_full, upset), case


def _verify_k_material(size_bound: int, world_bound: int, unsafe: bool) -> TheoremReport:
    return _verify_box_biconditional(
        "k_material",
        AXIOM_K,
        lambda m: (check_designated(m).is_implicative is True, "nonimplicative_k_material"),
        _k_material_matrices(size_bound),
        world_bound,
        unsafe,
        {
            "max_lattice_size": size_bound,
            "implication": MATERIAL,
            "negations": "all anti-monotone involutions",
            "lattices": "down-distributive only",
            "designated": "non-empty upsets",
        },
    )


def _verify_twist_k(max_atoms: int, world_bound: int, unsafe: bool) -> TheoremReport:
    ones_by_carrier: dict[tuple[str, ...], frozenset[int]] = {}

    def matrices() -> Iterator[tuple[Matrix, dict]]:
        for atoms in range(1, max_atoms + 1):
            base_matrix = twist(boolean_algebra(atoms), restrict_p=True)
            lat = base_matrix.lattice
            ones_by_carrier[lat.elements] = base_matrix.designated
            for upset in enumerate_upsets(lat):
                case = _case_id(lat, upset)
                case["atoms"] = atoms
                case["ones"] = [lat.elements[i] for i in sorted(base_matrix.designated)]
                yield Matrix(lat, upset), case

    def classify(matrix: Matrix) -> tuple[bool, str]:
        ones = ones_by_carrier[matrix.lattice.elements]
        return ones <= matrix.designated, "nonimplicative_k_material"

    return _verify_box_biconditional(
        "twist_k",
        AXIOM_K,
        classify,
        matrices(),
        world_bound,
        unsafe,
        {
            "twist_atoms": list(range(1, max_atoms + 1)),
            "carrier": "join-to-top pair restriction",
            "implication": MATERIAL,
            "designated": "all upsets (empty included)",
            "structural": "designated contains every first-coordinate-top pair",
        },
    )


def k5_regression(
    world_bound: int = 3, matrix: Matrix | None = None, *, unsafe_bounds: bool = False
) -> TheoremReport:
    """The five-element antichain example: box-K frame-valid within the
    bound while the lattice is not linear outside the designated set."""
    matrix = matrix if matrix is not None else antichain_k5()
    report = TheoremReport(
        "k5_regression",
        {"lattice": matrix.lattice.name, "world_bound": world_bound},
        2,
        True,
    )
    counterexample = find_frame_counterexample(
        matrix, AXIOM_K, world_bound, unsafe_bounds=unsafe_bounds
    )
    if counterexample is not None:
        report.passed = False
        report.failures.append(
            {
                "check": "box-K frame validity",
                "counterexample": counterexample.to_dict(),
                "self_certified": counterexample.recheck(),
            }
        )
    props = check_designated(matrix)
    if props.linear_outside:
        report.passed = False
        report.failures.append({"check": "not linear outside the designated set"})
    else:
        report.notes.append(
            "linear-outside fails with witness "
            f"{tuple(matrix.lattice.elements[i] for i in props.linear_witness)}"
        )
    return report


def verify_theorem(
    theorem: str,
    size_bound: int = 5,
    world_bound: int = 3,
    *,
    unsafe_bounds: bool = False,
) -> TheoremReport:
    """Run one characterization check; for twist_k the size bound is the
    maximum number of atoms of the Boolean base, clamped to the largest
    count whose carrier the upset enumeration admits (2)."""
    if theorem == "regularity":
        return _verify_regularity(size_bound, world_bound, unsafe_bounds)
    if theorem == "eq1_implicative":
        return _verify_eq1_implicative(size_bound)
    if theorem == "disj_dist":
        return _verify_disj_dist(size_bound, world_bound, unsafe_bounds)
    if theorem == "k_linear":
        return _verify_k_linear(size_bound, world_bound, unsafe_bounds)
    if theorem == "k_material":
        return _verify_k_material(size_bound, world_bound, unsafe_bounds)
    if theorem == "twist_k":
        return _verify_twist_k(min(size_bound, _MAX_TWIST_ATOMS), world_bound, unsafe_bounds)
    raise ValueError(f"unknown theorem id {theorem!r}; known: {THEOREM_IDS}")


def run_suite(config: HarnessConfig | None = None) -> tuple[list[TheoremReport], int]:
    """All six checks plus the five-element regression; exit 0 iff all pass."""
    config = config or HarnessConfig()
    reports = [
        verify_theorem(
            theorem,
            config.twist_atoms if theorem == "twist_k" else config.size_bound,
            config.regularity_world_bound if theorem == "regularity" else config.world_bound,
            unsafe_bounds=config.unsafe_bounds,
        )
        for theorem in THEOREM_IDS
    ]
    reports.append(
        k5_regression(config.world_bound, config.k5_matrix, unsafe_bounds=config.unsafe_bounds)
    )
    return reports, 0 if all(r.passed for r in reports) else 1
