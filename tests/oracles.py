"""Independent reference implementations used to cross-check the package.

These deliberately avoid the package's evaluation and search code paths:
the classical evaluator works on plain booleans, the naive frame scan uses
itertools plus the scalar reference evaluator ``evaluate`` (which shares
only the formula compiler with ``frame_valid``), the entailment and
regularity scans loop over valuations and models where the package decides
on arrays and value sets, the canonical frame key relabels relation
bitmasks one pair at a time where the package's frame filter marks whole
classes of masks through lookup tables, and the box-K decision procedure
closes value triples under componentwise meet instead of touching frames.
"""

import itertools

from latmodal import BoxMode, KripkeModel, enumerate_frames, evaluate, variables
from latmodal.formula import And, Box, Imp, Not, Or, Var
from latmodal.lattice import propositional_value


def classical_satisfies(successors, valuation, world, formula):
    """Two-valued Kripke satisfaction; valuation maps (world, var) -> bool."""
    if isinstance(formula, Var):
        return valuation[(world, formula.name)]
    if isinstance(formula, Not):
        return not classical_satisfies(successors, valuation, world, formula.child)
    if isinstance(formula, And):
        return classical_satisfies(
            successors, valuation, world, formula.left
        ) and classical_satisfies(successors, valuation, world, formula.right)
    if isinstance(formula, Or):
        return classical_satisfies(
            successors, valuation, world, formula.left
        ) or classical_satisfies(successors, valuation, world, formula.right)
    if isinstance(formula, Imp):
        return not classical_satisfies(
            successors, valuation, world, formula.left
        ) or classical_satisfies(successors, valuation, world, formula.right)
    return all(
        classical_satisfies(successors, valuation, w2, formula.child)
        for w2 in successors[world]
    )


def _frame_mask_key(mask, n, perms):
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


def canonical_frame_key(n_worlds, rel):
    """Canonical bitmask of a relation under world permutations: the
    smallest of its relabellings."""
    mask = 0
    for i, j in rel:
        mask |= 1 << (i * n_worlds + j)
    perms = list(itertools.permutations(range(n_worlds)))
    return _frame_mask_key(mask, n_worlds, perms)


def naive_frame_counterexample(matrix, frame, formula, names, mode=BoxMode.NORMAL_MEET):
    """First failing (valuation, world) by explicit product enumeration."""
    lat = matrix.lattice
    slots = [(w, x) for w in range(len(frame.worlds)) for x in sorted(names)]
    for combo in itertools.product(range(lat.n), repeat=len(slots)):
        model = KripkeModel(frame, lat, dict(zip(slots, combo)))
        for w in range(len(frame.worlds)):
            if evaluate(model, w, formula, mode) not in matrix.designated:
                return dict(zip(slots, combo)), w
    return None


def naive_entailment_witness(matrix, premises, conclusion):
    """First valuation, last variable fastest, that designates every premise
    but not the conclusion, or None; a formula is evaluated only where the
    ones before it are designated."""
    names = sorted(set().union(*(variables(f) for f in [*premises, conclusion])))
    designated = matrix.designated
    for combo in itertools.product(range(matrix.lattice.n), repeat=len(names)):
        assignment = dict(zip(names, combo))
        if all(
            propositional_value(matrix.lattice, assignment, p) in designated for p in premises
        ) and propositional_value(matrix.lattice, assignment, conclusion) not in designated:
            return assignment
    return None


def naive_regularity_witness(matrix, max_worlds):
    """First (model, world, box value, direction) where []p and "p at every
    successor" disagree, over the one-variable models within the bound in
    canonical order (frames, valuations with the last world fastest,
    worlds), or None."""
    for frame in enumerate_frames(max_worlds):
        n_worlds = len(frame.worlds)
        for combo in itertools.product(range(matrix.lattice.n), repeat=n_worlds):
            model = KripkeModel(frame, matrix.lattice, {(w, "p"): v for w, v in enumerate(combo)})
            for w in range(n_worlds):
                box = evaluate(model, w, Box(Var("p")))
                successors_hold = all(combo[v] in matrix.designated for v in frame.successors(w))
                if (box in matrix.designated) != successors_hold:
                    direction = (
                        "successors_hold_but_box_fails"
                        if successors_hold
                        else "box_holds_but_successor_fails"
                    )
                    return model, w, box, direction
    return None


def axiom_k_valid_all_frames(matrix):
    """Exact box-K validity over arbitrary frames.

    The K value at a world is a function of the componentwise meets
    (A, B, C) of the vectors (p imp q, p, q) over the successor pairs, so
    closing the pair vectors under meet decides validity without a frame
    bound.  The empty successor set contributes the all-top triple.
    """
    lat = matrix.lattice
    imp = lat.imp.table
    meet = lat.meet_table

    vectors = [
        (imp[p][q], p, q) for p in range(lat.n) for q in range(lat.n)
    ]
    reachable = set(vectors)
    frontier = set(vectors)
    while frontier:
        new = set()
        for a, b, c in frontier:
            for x, y, z in vectors:
                t = (meet[a][x], meet[b][y], meet[c][z])
                if t not in reachable:
                    new.add(t)
        reachable |= new
        frontier = new
    reachable.add((lat.top, lat.top, lat.top))
    return all(
        imp[a][imp[b][c]] in matrix.designated for a, b, c in reachable
    )
