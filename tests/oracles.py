"""Independent reference implementations used to cross-check the package.

These deliberately avoid the package's evaluation and search code paths:
the lattice tables are searched for each pair's bounds by definition where
the package reads them off down-set and up-set bitmasks, the lattice
constructors close and check their orders on boolean rows, element by
element, where the package does both on the bitmasks,
the classical evaluator works on plain booleans, the many-valued evaluator
recurses over the formula objects with the lattice's tables instead of
running the compiled node list, and reads the local box, a box at the
world itself, by a flag on that recursion where the package erases the
boxes from the formula, the naive frame scan uses
itertools plus the scalar reference evaluator ``evaluate`` (which shares
only the formula compiler with the package's frame scan), the entailment
scan loops over valuations with the recursive many-valued evaluator where
the package sweeps blocks of them through the compiled node list, the
regularity scan covers every frame within the bound where the package
reads two fixed frames, the canonical frame key
relabels relation bitmasks one pair at a time where the package's frame
filter marks whole classes of masks through lookup tables, the box-K
decision procedure closes value triples under componentwise meet instead
of touching frames, and the values attained by frame size take the meets
of box-argument tuples as tuples of elements, level by level, where the
package packs each tuple into one int and traces its rounds, and
down-distribution is checked on every pair of non-empty subsets where the
package checks the binary law on triples.

Two helpers that the tests share are no oracles: ``scan_frame`` runs the
package's own frame scan on one frame, and ``subset_join`` forms the
elementwise join-set that the down-distribution law reads.
"""

import itertools

from latmodal import (
    Frame,
    InvalidInput,
    KripkeModel,
    Lattice,
    MissingOperation,
    NotALattice,
    NotAPoset,
    enumerate_frames,
    evaluate,
    variables,
)
from latmodal.formula import And, Box, Imp, Not, Or, Var
from latmodal.kripke import first_failure, frame_root_values


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


def _box_successors(model, world, local):
    """The worlds whose meet a box at the world takes: under the local box
    the world itself, else its successors."""
    if local:
        return [world]
    return sorted(j for i, j in model.frame.rel if i == world)


def many_valued_value(model, world, formula, local=False):
    """Value of a formula at a world by recursion over the formula objects,
    reading the lattice's tables directly; each (subformula object, world)
    is computed once, so shared subformulas cost no more than in a DAG.
    With ``local``, a box takes its argument's value at the same world."""
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
                for w2 in _box_successors(model, w, local):
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


def first_evaluation_error(model, world, formula, local=False):
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
                below.update(_box_successors(model, w, local) if isinstance(g, Box) else [w])
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


def naive_frame_counterexample(matrix, frame, formula, names):
    """First failing (valuation, world) by explicit product enumeration."""
    lat = matrix.lattice
    slots = [(w, x) for w in range(len(frame.worlds)) for x in sorted(names)]
    for combo in itertools.product(range(lat.n), repeat=len(slots)):
        model = KripkeModel(frame, lat, dict(zip(slots, combo)))
        for w in range(len(frame.worlds)):
            if evaluate(model, w, formula) not in matrix.designated:
                return dict(zip(slots, combo)), w
    return None


def naive_entailment_witness(matrix, premises, conclusion):
    """First valuation, last variable fastest, that designates every premise
    but not the conclusion, or None; a formula is evaluated only where the
    ones before it are designated."""
    names = sorted(set().union(*(variables(f) for f in [*premises, conclusion])))
    frame = Frame(("w0",), frozenset())

    def designated(model, f):
        error = first_evaluation_error(model, 0, f)
        if error is not None:
            raise MissingOperation(error[1])
        return many_valued_value(model, 0, f) in matrix.designated

    for combo in itertools.product(range(matrix.lattice.n), repeat=len(names)):
        model = KripkeModel(frame, matrix.lattice, {(0, x): v for x, v in zip(names, combo)})
        if all(designated(model, p) for p in premises) and not designated(model, conclusion):
            return dict(zip(names, combo))
    return None


def scan_frame(matrix, frame, formula, **bounds):
    """The package's frame scan on one frame: its canonically first
    counterexample to the formula, or None."""
    roots = frame_root_values(matrix.lattice, frame, formula, **bounds)
    return first_failure(matrix, frame, formula, roots)


def subset_join(lattice, xs, ys):
    """The elementwise join-set {x + y | x in xs, y in ys}, empty if either
    side is."""
    return frozenset(lattice.join_table[x][y] for x in xs for y in ys)


def naive_lattice_tables(leq):
    """The meet and join tables of a closed order, by definition: each
    pair's common lower bound above every other, and its common upper bound
    below every other.  Or the first pair (i <= j, in index order) that
    lacks one, as ("meet" or "join", (i, j)), the meet asked first."""
    n = len(leq)
    meet = [[None] * n for _ in range(n)]
    join = [[None] * n for _ in range(n)]
    for i, j in itertools.combinations_with_replacement(range(n), 2):
        lower = [k for k in range(n) if leq[k][i] and leq[k][j]]
        greatest = [m for m in lower if all(leq[k][m] for k in lower)]
        if not greatest:
            return "meet", (i, j)
        upper = [k for k in range(n) if leq[i][k] and leq[j][k]]
        least = [m for m in upper if all(leq[m][k] for k in upper)]
        if not least:
            return "join", (i, j)
        meet[i][j] = meet[j][i] = greatest[0]
        join[i][j] = join[j][i] = least[0]
    return meet, join


def _reference_lattice(names, leq, neg, imp):
    """The lattice of a closed order, its tables and bounds by definition."""
    tables = naive_lattice_tables(leq)
    if isinstance(tables[0], str):
        kind, (i, j) = tables
        raise NotALattice((names[i], names[j]), kind)
    n = len(names)
    meet, join = (tuple(map(tuple, table)) for table in tables)
    top = next(k for k in range(n) if all(row[k] for row in leq))
    bottom = next(k for k in range(n) if all(leq[k]))
    lat = Lattice(names, tuple(map(tuple, leq)), meet, join, top, bottom)
    if neg is not None:
        lat = lat.with_neg(neg)
    if imp is not None:
        lat = lat.with_imp(imp)
    return lat


def reference_from_leq(elements, leq_rows, *, neg=None, imp=None):
    """``from_leq`` as a triple loop over boolean rows: each row in order
    is checked for reflexivity, then at each j for antisymmetry and at each
    (j, k) for transitivity."""
    names = tuple(elements)
    n = len(names)
    leq = [[bool(v) for v in row] for row in leq_rows]
    if len(leq) != n or any(len(row) != n for row in leq):
        raise InvalidInput("leq matrix must be n x n")
    for i in range(n):
        if not leq[i][i]:
            raise InvalidInput("leq matrix must be reflexive")
        for j in range(n):
            if i != j and leq[i][j] and leq[j][i]:
                raise NotAPoset((names[i], names[j]))
            for k in range(n):
                if leq[i][j] and leq[j][k] and not leq[i][k]:
                    raise InvalidInput("leq matrix must be transitive")
    return _reference_lattice(names, leq, neg, imp)


def reference_validate_lattice(elements, pairs):
    """``validate_lattice`` with the closure by Warshall over boolean rows,
    then antisymmetry checked pair by pair."""
    names = tuple(elements)
    if len(set(names)) != len(names):
        raise InvalidInput("element names must be distinct")
    if not names:
        raise InvalidInput("a lattice needs at least one element")
    index = {x: i for i, x in enumerate(names)}
    n = len(names)
    rows = [[i == j for j in range(n)] for i in range(n)]
    for a, b in pairs:
        if a not in index or b not in index:
            raise InvalidInput(f"order pair ({a!r}, {b!r}) references an unknown element")
        rows[index[a]][index[b]] = True
    for k in range(n):
        for i in range(n):
            if rows[i][k]:
                for j in range(n):
                    rows[i][j] = rows[i][j] or rows[k][j]
    for i, j in itertools.combinations(range(n), 2):
        if rows[i][j] and rows[j][i]:
            raise NotAPoset((names[i], names[j]))
    return _reference_lattice(names, rows, None, None)


def down_distribution_exhaustive(lattice):
    """The first pair (X, Y) of non-empty subsets, in ascending bitmask
    order, with meet(X + Y) != meet X + meet Y, X + Y the elementwise
    join-set, or None: down-distribution over all finite subsets, by
    definition."""
    n = lattice.n
    meet_of = [lattice.top] * (1 << n)
    for mask in range(1, 1 << n):
        low = (mask & -mask).bit_length() - 1
        meet_of[mask] = lattice.meet_table[meet_of[mask & (mask - 1)]][low]
    members = [[i for i in range(n) if mask >> i & 1] for mask in range(1 << n)]
    for ma in range(1, 1 << n):
        for mb in range(1, 1 << n):
            joined = 0
            for x in members[ma]:
                row = lattice.join_table[x]
                for y in members[mb]:
                    joined |= 1 << row[y]
            if meet_of[joined] != lattice.join_table[meet_of[ma]][meet_of[mb]]:
                return frozenset(members[ma]), frozenset(members[mb])
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


def values_by_size(lat, formula):
    """For m = 1, 2, ...: the values that a formula of modal depth <= 1
    takes at some world of some model on a frame of at most m worlds, until
    they can grow no more.  A world's value is fixed by its own valuation s
    and the componentwise meet c of the tuples t(s') of box-argument values
    at its successors (all-top without successors).  With m worlds, c is a
    meet of at most m - 1 tuples at an irreflexive world, and t(s) meet such
    a meet at a reflexive one.  Values are read by recursion over the
    formula objects with the lattice's tables, each box from c."""
    boxes = []  # the distinct box subformulas, in the order first visited

    def visit(g, depth):
        if isinstance(g, Box):
            if depth:
                raise ValueError("values by size need modal depth <= 1")
            if g not in boxes:
                boxes.append(g)
        for child in _children(g):
            visit(child, depth + isinstance(g, Box))

    visit(formula, 0)

    def value(g, env, c):
        if isinstance(g, Var):
            return env[g.name]
        if isinstance(g, Box):
            return c[boxes.index(g)]
        if isinstance(g, Not):
            return lat.neg[value(g.child, env, c)]
        table = {And: lat.meet_table, Or: lat.join_table}.get(type(g)) or lat.imp.table
        return table[value(g.left, env, c)][value(g.right, env, c)]

    def meet(c, t):
        return tuple(lat.meet_table[x][y] for x, y in zip(c, t))

    names = sorted(variables(formula))
    envs = [dict(zip(names, combo)) for combo in itertools.product(range(lat.n), repeat=len(names))]
    own = [tuple(value(b.child, env, ()) for b in boxes) for env in envs]
    level = {(lat.top,) * len(boxes)}  # the meets of at most m - 1 tuples
    new, values = set(level), set()
    while new:
        values |= {
            value(formula, env, box)
            for env, t in zip(envs, own)
            for c in new
            for box in (c, meet(c, t))
        }
        yield frozenset(values)
        new = {meet(c, t) for c in new for t in own} - level
        level |= new


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
