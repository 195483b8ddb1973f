"""Independent reference implementations used to cross-check the package.

These deliberately avoid the package's evaluation and search code paths:
the classical evaluator works on plain booleans, the naive frame scan uses
itertools plus the scalar reference evaluator ``evaluate`` (which shares
only the formula compiler with ``frame_valid``), and the box-K decision
procedure closes value triples under componentwise meet instead of
touching frames.
"""

import itertools

from latmodal import BoxMode, KripkeModel, evaluate
from latmodal.formula import And, Imp, Not, Or, Var


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
