"""Frame enumeration, counterexample search, regularity checking, and the
canonical defect-witness model constructions.

Frames are enumerated up to graph isomorphism by keeping only the
lexicographically minimal relation bitmask under world permutations, in
ascending world count and ascending mask, so every search is reproducible
without seeds.  The filter runs in numpy: each world permutation relabels a
whole block of masks at once by per-bit shifts, and a mask survives only if
no relabelling is smaller.  The surviving masks of each world count
are computed once per process and cached; the ``Frame`` objects are not.

``find_frame_counterexample`` decides formulas of modal depth <= 1 under
the normal box without scanning frames when they hold.  At a world r such
a formula's value depends only on r's own valuation s and on the tuple c
of its box values, the componentwise meet over r's successors of the
box-argument tuples t(s') of their valuations (all-top when there are
none), because box arguments are box-free.  On a frame of at most m
worlds, c is the meet of at most m - 1 such tuples of arbitrary
valuations when r is irreflexive, and t(s) meet such a meet when r is
reflexive; every such pair (s, c) occurs on a fan of at most m worlds.
So the values the formula takes on frames of at most m worlds are exactly
its values at (s, c) and (s, t(s) meet c), for every s and every meet c
of at most m - 1 single tuples, which the search grows level by level
from the all-top tuple.  If all are designated at m = max_worlds the
formula holds on every frame within the bound; otherwise the frame scan
runs and returns its canonically first counterexample.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import BoundTooLarge, MissingOperation, WitnessNotApplicable
from .formula import (
    AND,
    BOX,
    IMP,
    NOT,
    VAR,
    Box,
    Formula,
    Var,
    compile_formula,
    modal_depth,
    parse,
    variables,
)
from .kripke import (
    BoxMode,
    CounterexampleReport,
    Frame,
    KripkeModel,
    _guard_valuation_space,
    _plan_for,
    evaluate,
    frame_valid,
    world_satisfies,
)
from .lattice import DesignatedProperties, Matrix, big_meet, check_designated

AXIOM_K = parse("[](p -> q) -> ([]p -> []q)")
BOX_DISJUNCTION_DIST = parse("([]p | []q) -> [](p | q)")

MAX_FRAME_WORLDS = 4

WITNESS_KINDS = (
    "nonfilter",
    "nonimplicative",
    "nonlinear_k",
    "nonimplicative_k_material",
)


def _frame_mask_key(mask: int, n: int, perms) -> int:
    best = mask
    for perm in perms:
        relabeled = 0
        m = mask
        while m:
            bit = (m & -m).bit_length() - 1
            relabeled |= 1 << (perm[bit // n] * n + perm[bit % n])
            m &= m - 1
        if relabeled < best:
            best = relabeled
    return best


def canonical_frame_key(n_worlds: int, rel: frozenset[tuple[int, int]]) -> int:
    """Canonical bitmask of a relation under world permutations."""
    mask = 0
    for i, j in rel:
        mask |= 1 << (i * n_worlds + j)
    perms = list(itertools.permutations(range(n_worlds)))
    return _frame_mask_key(mask, n_worlds, perms)


# Relation masks are scanned in blocks of this many, so that no array of the
# canonical filter grows with the 2^(n*n) masks of n worlds.
_MASK_BLOCK = 1 << 16


@functools.cache
def _canonical_masks(n_worlds: int) -> np.ndarray:
    """Ascending relation masks on n worlds that no world permutation makes
    smaller: one per isomorphism class."""
    n = n_worlds
    bits = n * n
    dtype = np.uint16 if bits <= 16 else np.uint32 if bits <= 32 else np.uint64
    one = dtype(1)
    # per non-identity permutation: (source bit, relabelled bit) of each pair
    relabellings = [
        [(dtype(b), dtype(perm[b // n] * n + perm[b % n])) for b in range(bits)]
        for perm in itertools.islice(itertools.permutations(range(n)), 1, None)
    ]
    total = 1 << bits
    kept = []
    for start in range(0, total, _MASK_BLOCK):
        masks = np.arange(start, min(start + _MASK_BLOCK, total), dtype=dtype)
        for moves in relabellings:
            relabelled = np.zeros_like(masks)
            for source, target in moves:
                relabelled |= ((masks >> source) & one) << target
            masks = masks[relabelled >= masks]
        kept.append(masks)
    masks = np.concatenate(kept)
    masks.flags.writeable = False
    return masks


def _check_world_bound(max_worlds: int, unsafe_bounds: bool) -> None:
    if max_worlds < 1:
        raise BoundTooLarge("max_worlds must be at least 1")
    if max_worlds > MAX_FRAME_WORLDS and not unsafe_bounds:
        raise BoundTooLarge(f"frame enumeration is guarded to {MAX_FRAME_WORLDS} worlds")


def enumerate_frames(max_worlds: int, *, unsafe_bounds: bool = False) -> Iterator[Frame]:
    """All frames with 1..max_worlds worlds up to isomorphism."""
    _check_world_bound(max_worlds, unsafe_bounds)
    for n in range(1, max_worlds + 1):
        worlds = tuple(f"w{i}" for i in range(n))
        pairs = [(bit // n, bit % n) for bit in range(n * n)]
        for mask in _canonical_masks(n).tolist():
            rel = frozenset(pair for bit, pair in enumerate(pairs) if mask >> bit & 1)
            yield Frame(worlds, rel)


def _depth1_verdicts(matrix: Matrix, f: Formula) -> Iterator[bool]:
    """For m = 1, 2, ...: whether f takes only designated values at every
    world of every frame of at most m worlds, decided from the meet-closure
    of box-argument tuples (see the module docstring).  Needs the normal
    box, modal depth <= 1 and every connective of f defined."""
    plan = _plan_for(matrix, f, None)
    nodes, names, dtype = plan.nodes, plan.names, plan.dtype
    # every valuation sigma of the variables, one row each, last one fastest
    grid = np.indices((plan.n,) * len(names), dtype=dtype).reshape(len(names), -1, 1)
    own = dict(zip(names, grid))
    box_ids = [i for i, (kind, _, _) in enumerate(nodes) if kind == BOX]
    column = {i: j for j, i in enumerate(box_ids)}

    def node_values(box_value) -> list[np.ndarray]:
        values: list[np.ndarray] = []
        for i, (kind, a, b) in enumerate(nodes):
            if kind == VAR:
                values.append(own[a])
            elif kind == BOX:
                values.append(box_value(i, values[a]))
            else:
                values.append(plan.connective(kind, values[a], None if b is None else values[b]))
        return values

    if box_ids:
        # t(sigma): the box-argument tuple of each valuation
        values = node_values(lambda i, arg: arg)
        singles = np.unique(np.hstack([values[nodes[i][1]] for i in box_ids]), axis=0)
    # meets of at most m - 1 single tuples (the empty meet is all-top), and
    # those of them first reached at this m
    level = new = np.full((1, len(box_ids)), matrix.lattice.top, dtype)
    chunk = max(1, (1 << 20) // grid.shape[1])
    designated = True
    while True:
        for start in range(0, len(new), chunk):
            c = new[start : start + chunk].T
            # a root without and with itself among its successors
            for box_value in (
                lambda i, arg: c[column[i]],
                lambda i, arg: plan.connective(AND, arg, c[column[i]]),
            ):
                designated = designated and bool(
                    plan.designated[node_values(box_value)[-1]].all()
                )
        yield designated
        if not box_ids:
            new = new[:0]
            continue
        candidates = plan.connective(AND, new[:, None, :], singles[None, :, :])
        merged, first = np.unique(
            np.concatenate([level, candidates.reshape(-1, len(box_ids))]),
            axis=0,
            return_index=True,
        )
        level, new = merged, merged[first >= len(level)]


def _exact_check_applies(matrix: Matrix, f: Formula, mode: BoxMode) -> bool:
    kinds = {kind for kind, _, _ in compile_formula(f)}
    lat = matrix.lattice
    return (
        mode is BoxMode.NORMAL_MEET
        and modal_depth(f) <= 1
        and (NOT not in kinds or lat.neg is not None)
        and (IMP not in kinds or lat.imp is not None)
    )


def find_frame_counterexample(
    matrix: Matrix,
    f: Formula,
    max_worlds: int,
    mode: BoxMode = BoxMode.NORMAL_MEET,
    *,
    unsafe_bounds: bool = False,
) -> CounterexampleReport | None:
    """First counterexample to frame validity over all frames within the
    world bound, or None.

    Under the normal box, a formula of modal depth <= 1 whose connectives
    the matrix all defines is first decided exactly from the meet-closure of
    its box-argument tuples (see the module docstring): the values it takes
    at (s, c) and (s, t(s) meet c), c a meet of at most m - 1 single
    tuples, are exactly those it takes on frames of at most m worlds.  When
    all of them are designated for m = max_worlds, no frame is scanned.
    Otherwise, and for every other formula and box mode, the frames are
    scanned in canonical order, so a counterexample is always the first one
    of that order, and a missing operation is raised only where the scan
    reaches it.  Either way the same bound errors are raised: the world
    bound first, then the valuation guard of the first world count that no
    counterexample comes before.
    """
    exact = _exact_check_applies(matrix, f, mode)
    if exact:
        _check_world_bound(max_worlds, unsafe_bounds)
        verdicts = _depth1_verdicts(matrix, f)
        for n_worlds in range(1, max_worlds + 1):
            _guard_valuation_space(
                matrix.lattice.n, n_worlds, len(variables(f)), unsafe_bounds
            )
            if not next(verdicts):
                break
        else:
            return None
    for frame in enumerate_frames(max_worlds, unsafe_bounds=unsafe_bounds):
        report = frame_valid(matrix, frame, f, mode, unsafe_bounds=unsafe_bounds)
        if report is not None:
            return report
    if exact:
        raise AssertionError("the meet-closure found a failure the frame scan did not")
    return None


# ---------------------------------------------------------------------------
# Regularity


@dataclass(frozen=True)
class RegularityWitness:
    model: KripkeModel
    world: int
    box_value: int
    direction: str  # "box_holds_but_successor_fails" | "successors_hold_but_box_fails"


@dataclass(frozen=True)
class RegularityResult:
    """Semantic and structural verdicts on "necessity means true in all
    accessible worlds"."""

    regular: bool
    props: DesignatedProperties
    meet_in_designated: bool
    witness: RegularityWitness | None

    @property
    def is_filter(self) -> bool:
        return self.props.is_filter

    @property
    def structural_regular(self) -> bool:
        return self.is_filter and self.meet_in_designated


def check_regularity(
    matrix: Matrix, max_worlds: int = 2, *, unsafe_bounds: bool = False
) -> RegularityResult:
    """Scan all single-variable models within the world bound for a world
    where the box verdict and the all-successors verdict disagree.

    The structural side (designated set closed under meet, with its big meet
    designated) is computed independently; on finite lattices the two
    verdicts must coincide.
    """
    lat = matrix.lattice
    props = check_designated(matrix)
    meet_in = big_meet(lat, matrix.designated) in matrix.designated

    box_p = Box(Var("p"))
    witness = None
    for frame in enumerate_frames(max_worlds, unsafe_bounds=unsafe_bounds):
        n_worlds = len(frame.worlds)
        slots = [(w, "p") for w in range(n_worlds)]
        for combo in itertools.product(range(lat.n), repeat=n_worlds):
            model = KripkeModel(frame, lat, dict(zip(slots, combo)))
            for w in range(n_worlds):
                box_value = evaluate(model, w, box_p)
                box_ok = box_value in matrix.designated
                naw = all(combo[w2] in matrix.designated for w2 in frame.successors(w))
                if box_ok != naw:
                    witness = RegularityWitness(
                        model=model,
                        world=w,
                        box_value=box_value,
                        direction=(
                            "box_holds_but_successor_fails"
                            if box_ok
                            else "successors_hold_but_box_fails"
                        ),
                    )
                    break
            if witness:
                break
        if witness:
            break

    return RegularityResult(
        regular=witness is None,
        props=props,
        meet_in_designated=meet_in,
        witness=witness,
    )


# ---------------------------------------------------------------------------
# Canonical defect witnesses


def construct_witness(
    kind: str, matrix: Matrix, *, props: DesignatedProperties | None = None
) -> KripkeModel:
    """Build the fixed two- or three-world model that turns a structural
    defect of the matrix into a falsified validity.

    kind "nonfilter":     pair (x, y) designated with x.y not designated;
                          yields w0 R w0, w0 R w1 where every successor of w0
                          satisfies p but w0 does not satisfy []p.
    kind "nonimplicative": pair a <= b with (a imp b) not designated; yields
                          a 3-world model falsifying ([]p | []q) -> [](p|q).
    kind "nonlinear_k":   pair (a, b) incomparable with a not designated;
                          yields a 3-world model falsifying box-K under a
                          deductive implication.
    kind "nonimplicative_k_material": pair a <= b with -a + b not
                          designated; yields a 3-world model falsifying
                          box-K under material implication.

    The pair is the first witness reported by ``check_designated``, whose
    result a caller that already has it passes as ``props``;
    WitnessNotApplicable is raised when the matrix lacks the defect or the
    built model fails to falsify the target.
    """
    lat = matrix.lattice
    if props is None:
        props = check_designated(matrix)
    if kind == "nonfilter":
        pair = props.filter_witness
        if pair is None:
            raise WitnessNotApplicable("designated set is a filter")
        x, y = pair
        frame = Frame(("w0", "w1"), frozenset(((0, 0), (0, 1))))
        model = KripkeModel(frame, lat, {(0, "p"): x, (1, "p"): y})
        succ_ok = all(world_satisfies(matrix, model, w2, Var("p")) for w2 in (0, 1))
        box_ok = world_satisfies(matrix, model, 0, Box(Var("p")))
        if not (succ_ok and not box_ok):
            raise WitnessNotApplicable("pair does not violate the filter property")
        return model

    frame = Frame(("w0", "w1", "w2"), frozenset(((0, 1), (0, 2))))
    if kind == "nonimplicative":
        if lat.imp is None:
            raise MissingOperation("imp")
        pair = props.implicative_witness
        if pair is None:
            raise WitnessNotApplicable("designated set is implicative")
        a, b = pair
        model = KripkeModel(
            frame, lat, {(1, "p"): a, (1, "q"): b, (2, "p"): b, (2, "q"): a}
        )
        target = BOX_DISJUNCTION_DIST
    elif kind == "nonlinear_k":
        pair = props.linear_witness
        if pair is None:
            raise WitnessNotApplicable("lattice is linear outside the designated set")
        a, b = pair
        model = KripkeModel(
            frame, lat, {(1, "p"): a, (1, "q"): b, (2, "p"): a, (2, "q"): a}
        )
        target = AXIOM_K
    elif kind == "nonimplicative_k_material":
        if lat.neg is None:
            raise MissingOperation("neg")
        if lat.imp is None:
            raise MissingOperation("imp")
        pair = props.implicative_witness
        if pair is None:
            raise WitnessNotApplicable("designated set is implicative")
        a, b = pair
        model = KripkeModel(
            frame,
            lat,
            {(1, "p"): lat.neg[a], (1, "q"): a, (2, "p"): lat.neg[b], (2, "q"): a},
        )
        target = AXIOM_K
    else:
        raise WitnessNotApplicable(f"unknown witness kind {kind!r}")

    if world_satisfies(matrix, model, 0, target):
        raise WitnessNotApplicable(
            f"constructed model does not falsify the target for kind {kind!r}"
        )
    return model
