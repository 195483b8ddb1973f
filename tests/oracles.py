"""Independent reference implementations used to cross-check the package.

These deliberately avoid the package's evaluation and search code paths:
the classical evaluator works on plain booleans, the many-valued evaluator
recurses over the formula objects with the lattice's tables instead of
running the compiled node list, the naive frame scan uses
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


def _children(g):
    if isinstance(g, Var):
        return ()
    return (g.child,) if isinstance(g, (Not, Box)) else (g.left, g.right)


def _box_successors(model, world, mode):
    if mode is BoxMode.LOCAL:
        return [world]
    return sorted(j for i, j in model.frame.rel if i == world)


def many_valued_value(model, world, formula, mode=BoxMode.NORMAL_MEET):
    """Value of a formula at a world by recursion over the formula objects,
    reading the lattice's tables directly; each (subformula object, world)
    is computed once, so shared subformulas cost no more than in a DAG."""
    lat = model.lattice
    memo = {}

    def value(w, g):
        key = (id(g), w)
        if key not in memo:
            if isinstance(g, Var):
                memo[key] = model.valuation[(w, g.name)]
            elif isinstance(g, Not):
                memo[key] = lat.neg[value(w, g.child)]
            elif isinstance(g, Box):
                result = lat.top
                for w2 in _box_successors(model, w, mode):
                    result = lat.meet_table[result][value(w2, g.child)]
                memo[key] = result
            else:
                x, y = value(w, g.left), value(w, g.right)
                if isinstance(g, And):
                    memo[key] = lat.meet_table[x][y]
                elif isinstance(g, Or):
                    memo[key] = lat.join_table[x][y]
                else:
                    memo[key] = lat.imp.table[x][y]
        return memo[key]

    return value(world, formula)


def first_evaluation_error(model, world, formula, mode=BoxMode.NORMAL_MEET):
    """The error that evaluating the formula at a world must raise, or None:
    over the distinct subformulas in post order (left child first, equal
    subformulas once, at their first occurrence), the first that fails at a
    world where it is needed, where a variable fails at its needed worlds in
    ascending order.  Returns ("unbound", world name, variable) or
    ("missing", operation)."""
    subformulas = []

    def visit(g):
        for c in _children(g):
            visit(c)
        if g not in subformulas:
            subformulas.append(g)

    visit(formula)
    needed = [set() for _ in subformulas]
    needed[-1].add(world)
    # every parent follows its children in post order
    for k in range(len(subformulas) - 1, -1, -1):
        g = subformulas[k]
        for c in _children(g):
            below = needed[subformulas.index(c)]
            for w in needed[k]:
                below.update(_box_successors(model, w, mode) if isinstance(g, Box) else [w])
    lat = model.lattice
    for g, worlds in zip(subformulas, needed):
        if not worlds:
            continue
        if isinstance(g, Var):
            for w in sorted(worlds):
                if (w, g.name) not in model.valuation:
                    return ("unbound", model.frame.worlds[w], g.name)
        elif isinstance(g, Not) and lat.neg is None:
            return ("missing", "neg")
        elif isinstance(g, Imp) and lat.imp is None:
            return ("missing", "imp")
    return None


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


def naive_regularity_defect(matrix, frame):
    """First (model, world, box value, direction) on the frame where []p and
    "p at every successor" disagree, valuations in canonical order (the
    last world fastest), then worlds, or None; []p is the meet of the
    successors' values, read from the lattice's meet table."""
    lat, n_worlds = matrix.lattice, len(frame.worlds)
    for combo in itertools.product(range(lat.n), repeat=n_worlds):
        for w in range(n_worlds):
            box = lat.top
            for v in frame.successors(w):
                box = lat.meet_table[box][combo[v]]
            successors_hold = all(combo[v] in matrix.designated for v in frame.successors(w))
            if (box in matrix.designated) != successors_hold:
                direction = (
                    "successors_hold_but_box_fails"
                    if successors_hold
                    else "box_holds_but_successor_fails"
                )
                model = KripkeModel(frame, lat, {(v, "p"): x for v, x in enumerate(combo)})
                return model, w, box, direction
    return None


def naive_regularity_witness(matrix, max_worlds):
    """The first ``naive_regularity_defect`` over the frames within the
    bound, in canonical order, or None."""
    for frame in enumerate_frames(max_worlds):
        found = naive_regularity_defect(matrix, frame)
        if found is not None:
            return found
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
