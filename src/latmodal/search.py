"""Frame enumeration, counterexample search, regularity checking, and the
canonical defect-witness model constructions.

Frames are enumerated up to graph isomorphism by keeping only the
lexicographically minimal relation bitmask under world permutations, in
ascending world count and ascending mask, so every search is reproducible
without seeds.  The filter runs in plain Python: in ascending order, a mask
that no smaller one relabels to is kept, and its relabellings under every
world permutation, read from lookup tables, mark the rest of its class.  The
kept masks of each world count are computed once per process and cached;
the ``Frame`` objects are not.

``find_frame_counterexample`` decides validity under the normal box, on a
matrix that defines every connective of the formula, by type elimination
(as for the many-valued modal logics of Fitting, 1991/92, and of Bou,
Esteva, Godo and Rodriguez, 2011).  A world's values are fixed by its own
valuation s and its tuple c of box values, the componentwise meet over its
successors of their tuples t(s', c') of box-argument values (all-top when
there are none).  So the c at the roots of trees of height h are
C_0 = {all-top} and C_{h+1} = {all-top} with the finite meets of
{t(s, c) : s any valuation, c in C_h}, which grows to a fixpoint C.  Every
world takes the values of the root of its unravelling, a tree, and on a
finite lattice every meet is a finite one, so the formula is valid on all
frames iff its root values at the (s, c) with c in C all lie in the
designated set D.  The closure reads no D: it depends only on the lattice
and the formula, and a matrix's verdict is the inclusion of the root values
attained in its D.  Each round meets only the new tuples with the others.
C can grow exponentially with the modal depth, so past a budget of work the
closure ends without a fixpoint round and the frame scan decides instead.

The harness asks instead the verdict on all frames of every designated set
of a lattice, with a witness of each failure but not the canonically first
one, and takes both from one closure at its fixpoint, scanning no frame
(``_decide_on_all_frames``): see the fans below.

``check_regularity`` is decided by ``_first_defect`` on the one frame that
holds a defect of every frame (``_REGULARITY_FRAME``), which the harness
asks of each matrix too, one valuation of p at a time, with []p read from
the meet table.  A failing set's canonically first defect lies on the
one-world frame without successors where the top is not designated, and
on ``_REGULARITY_FRAME`` where it is, so no frame is enumerated.

At modal depth <= 1, t(s, c) = t(s) and round m - 1 decides the frames of
at most m worlds: there c is a meet of at most m - 1 tuples t(s') at an
irreflexive world and t(s) meet such a meet at a reflexive one, and each
such (s, c) occurs on a fan of at most m worlds.  So the frame scan of a
failing formula of depth <= 1 starts at the world count of the first round
that fails.  There each round of the closure unfolds, over its tuples and
the t(s) of each valuation s, a root value outside D into the fan that
attains it (``_fan``): its first (s, c) in the first round that attains
it, with c traced back, one t(s') at a time, to all-top.  The harness
takes that fan as its witness instead of scanning frames, whatever its
size.  A deeper formula that fails the closure may still hold within the
bound; for it, as for every failing formula of
``find_frame_counterexample``, the frame scan decides and finds the
canonically first counterexample.

The closure runs in plain Python.  It keeps each tuple as one int, the
down-set codes of its values packed side by side, so that a meet is a
bitwise and and the closure a set of ints; at modal depth <= 1 it evaluates
the part of the formula above the boxes, the nodes ``formula.needed_worlds``
gives at a world without successors, once per distinct (outer variables'
values, tuple), and deeper it decodes each round's new tuples and evaluates
every node at them, both through the plan's ``node_values`` on lists.  The
frame scan of ``find_frame_counterexample`` has two backends that give the
same results: a scalar one, ``frame_root_values`` on lists over the whole
valuation space, and an array one on numpy.  The scalar scan runs while
numpy is not loaded and the values it computes stay within
``_SCALAR_SCAN_BOUND``, and moves to arrays from the frame that would pass
it.  So ``run_suite``, ``latmodal regular``, and every ``valid`` query
that the closure settles, or whose scan stays within that bound, never
import numpy.  This module imports numpy nowhere; the array scan's
functions in ``kripke`` import it when they run.
"""

from __future__ import annotations

import functools
import itertools
import operator
import sys
from collections.abc import Callable, Iterable, Iterator, Sequence

from .errors import BoundTooLarge, InvalidInput, WitnessNotApplicable
from .formula import (
    AND,
    BOX,
    IMP,
    NOT,
    Box,
    Formula,
    VAR,
    Var,
    compile_formula,
    modal_depth,
    needed_worlds,
    parse,
    variables,
)
from .kripke import (
    CounterexampleReport,
    Frame,
    MAX_VALUATION_SPACE,
    MAX_WORLDS,
    KripkeModel,
    _guard_valuation_space,
    _Plan,
    _plan_for,
    evaluate,
    first_failure,
    frame_root_values,
    world_satisfies,
)
from .lattice import DesignatedProperties, Lattice, Matrix, _down_sets, big_meet, check_designated
from .record import Record

TYPE_CHECKING = False  # typing.TYPE_CHECKING, without importing typing
if TYPE_CHECKING:
    # (whether each value is a root value attained, fixpoint reached, unfold)
    _Round = tuple[list[bool], bool, Callable[[int], tuple[bool, list[int]]] | None]

AXIOM_K = parse("[](p -> q) -> ([]p -> []q)")
BOX_P = parse("[]p")
BOX_DISJUNCTION_DIST = parse("([]p | []q) -> [](p | q)")

@functools.cache
def _canonical_masks(n_worlds: int) -> tuple[int, ...]:
    """Ascending relation masks on n worlds that no world permutation makes
    smaller: one per isomorphism class.  Bit i * n + j of a mask is the pair
    (i, j).  In ascending order, a mask that no smaller one relabels to is
    the least of its class, and its relabellings mark the rest of the class;
    each relabelling is two table lookups, one per half of the mask's bits."""
    n = n_worlds
    bits = n * n
    half = (bits + 1) // 2
    perms = list(itertools.islice(itertools.permutations(range(n)), 1, None))
    # per bit: the bit that each non-identity permutation moves it to
    moved = [[1 << (p[b // n] * n + p[b % n]) for p in perms] for b in range(bits)]
    # per half and value of its bits: what each permutation makes of them
    low, high = [[0] * len(perms)], [[0] * len(perms)]
    for table, part in ((low, moved[:half]), (high, moved[half:])):
        for bit in part:
            table += [list(map(operator.or_, row, bit)) for row in table]
    seen, kept, mask = bytearray(1 << bits), [], 0
    while mask >= 0:
        kept.append(mask)
        for relabelled in map(operator.or_, low[mask & (1 << half) - 1], high[mask >> half]):
            seen[relabelled] = 1
        mask = seen.find(0, mask + 1)
    return tuple(kept)


def _check_world_bound(max_worlds: int, unsafe_bounds: bool) -> None:
    if max_worlds < 1:
        raise InvalidInput(f"world bound must be at least 1, got {max_worlds}")
    if max_worlds > MAX_WORLDS and not unsafe_bounds:
        raise BoundTooLarge(f"frame enumeration is guarded to {MAX_WORLDS} worlds")


def enumerate_frames(max_worlds: int, *, unsafe_bounds: bool = False) -> Iterator[Frame]:
    """All frames with 1..max_worlds worlds up to isomorphism."""
    _check_world_bound(max_worlds, unsafe_bounds)
    for n in range(1, max_worlds + 1):
        worlds = tuple(f"w{i}" for i in range(n))
        pairs = [(bit // n, bit % n) for bit in range(n * n)]
        for mask in _canonical_masks(n):
            rel = frozenset(pair for bit, pair in enumerate(pairs) if mask >> bit & 1)
            yield Frame(worlds, rel)


def _closure_rounds(lat: Lattice, f: Formula) -> Iterator[_Round]:
    """The closure of box-value tuples of f on the lattice (see the module
    docstring), one round (attained, fixpoint, unfold) at a time: whether
    each value, by index, is a root value so far (at modal depth <= 1 also
    with the root among its own successors), as a list of bools, whether
    the round had no new tuple to evaluate, which is the fixpoint and the
    last round, and the round's unfold of a value into its fan, None at
    modal depth > 1.  The rounds end without a fixpoint once their work
    exceeds MAX_VALUATION_SPACE: the closure can grow exponentially with the
    modal depth.  The work is the cells (row, valuation) evaluated, at modal
    depth > 1 times the formula's nodes, each evaluated at every cell, and
    the meets of rows taken.  Reads no designated set.  Needs every connective of f
    defined.

    Each row (box-value tuple) is one int: the down-set codes of its
    values, n bits each (bit x of a value's code is set for each x below
    it), packed box by box.  The code of a meet is the bitwise and of the
    codes, so two rows meet with one ``&`` and the closure keeps sets of
    ints.

    At modal depth <= 1 the box arguments hold no box, so they are
    evaluated once, at every valuation s, for the generators t(s).  Above
    the boxes the formula reads only its outer variables, those that occur
    outside every box, so its value at a cell (s, c) is that of the key
    (o(s), c), o(s) the outer variables' values at s; a loop cell, whose
    root is among its own successors, takes the key (o(s), c & t(s)).
    Each key is evaluated once, in batches through the plan's
    ``node_values`` on lists over the nodes above the boxes, and its value
    kept while the closure lives.  The rows of a round's
    loop keys are its meets with every generator, so they are the next
    round's meets, computed once.  Deeper formulas decode each round's new
    rows and evaluate them through the plan's ``node_values`` on lists, one
    entry per (row, valuation).

    At modal depth <= 1, where a row of round h >= 1 is the meet of a row
    of round h - 1 and a generator t(s), a round's ``unfold(value)`` gives
    (whether the root is its own successor, the fan's valuations): those of
    the value's first cell in the round (unlooped cells first, then rows,
    then valuations), then the s of each t(s) the row traces back through.
    Each round's cells and each value are searched once, on demand."""
    plan = _plan_for(lat, f)
    nodes, names, n = plan.nodes, plan.names, plan.n
    connective, root = plan.list_connective, len(nodes) - 1
    box_ids = [i for i, (kind, _, _) in enumerate(nodes) if kind == BOX]
    shifts = {i: j * n for j, i in enumerate(box_ids)}  # box node id -> its field's shift
    down = _down_sets(lat.leq)
    element, field = {code: a for a, code in enumerate(down)}, (1 << n) - 1
    row_bits = n * len(box_ids)
    top = (1 << row_bits) - 1  # every value top: down(top) is every element
    # every valuation s of the variables, last one fastest, and its columns
    valuations = list(itertools.product(range(n), repeat=len(names)))
    columns = dict(zip(names, map(list, zip(*valuations))))
    bounded = modal_depth(plan.formula) <= 1
    cost = len(valuations) * (1 if bounded else len(nodes))  # the work of a row

    def encode(values: dict, size: int) -> list[int]:
        """The row of box-argument values at each of the size positions,
        one row at a time: a part-row per box and position would take
        memory quadratic in the boxes."""
        args = [(values[nodes[i][1], 0], shift) for i, shift in shifts.items()]
        return [sum(down[a[k]] << shift for a, shift in args) for k in range(size)]

    def decode(rows: list[int], repeat: int = 1) -> Callable:
        """The box values of ``node_values``: a box's values in each row,
        each repeated."""

        def box_value(i: int, w: int, values: dict) -> list[int]:
            shift = shifts[i]
            return [v for c in rows for v in [element[c >> shift & field]] * repeat]

        return box_value

    if bounded:
        # the nodes above the boxes, needed at a world without successors,
        # and the variables among them
        above = needed_worlds(nodes, (0,), lambda w: ())
        outer_names = sorted({a for (kind, a, _), w in zip(nodes, above) if w and kind == VAR})
        # a key is o(s), the index of the outer variables' values, above a row
        outer_values = list(itertools.product(range(n), repeat=len(outer_names)))
        index = {o: k << row_bits for k, o in enumerate(outer_values)}
        o_of = [index[tuple(s[names.index(x)] for x in outer_names)] for s in valuations]
        o_keys = list(index.values())
        def argument(i: int, w: int, values: dict) -> list[int]:
            return values[nodes[i][1], w]

        # the box arguments at each valuation (each box takes its argument's
        # values here, a placeholder that no box argument reads)
        t_of = encode(
            plan.node_values(lambda name, w: columns[name], argument, connective), len(valuations)
        )
        # the generators at the valuations of each o(s)
        t_by_o: dict[int, set[int]] = {}
        for o, t in zip(o_of, t_of):
            t_by_o.setdefault(o, set()).add(t)
        values_of: dict[int, int] = {}  # the root value of each key evaluated

        def evaluate(keys: set[int]) -> None:
            keys = list(keys - values_of.keys())

            def outer_value(name: str, w: int) -> list[int]:
                k = outer_names.index(name)
                return [outer_values[key >> row_bits][k] for key in keys]

            values = plan.node_values(outer_value, decode(keys), connective, above)
            values_of.update(zip(keys, values[root, 0]))

    def root_values(rows: list[int]) -> tuple[set[int], list[int], set[int]]:
        """The root values of the cells of the rows, the box-argument rows
        to collect, and at depth <= 1 the rows of the loop keys."""
        if bounded:
            plain = {o | c for c in rows for o in o_keys}
            loops, meets = set(), set()
            for o, ts in t_by_o.items():
                met = {c & t for c in rows for t in ts}
                meets |= met
                loops.update({o | m for m in met} if o else met)
            evaluate(plain | loops)
            roots = set(map(values_of.__getitem__, plain)).union(map(values_of.__getitem__, loops))
            return roots, [], meets
        values = plan.node_values(
            lambda name, w: columns[name] * len(rows), decode(rows, len(valuations)), connective
        )
        return set(values[root, 0]), encode(values, len(rows) * len(valuations)), set()

    # the rows reached and those not yet evaluated; generators are the rows
    # t(s, c) not reached when found (t(s, c) = t(s) at depth <= 1)
    closure, new = {top}, [top]
    # at depth <= 1 every t(s) from the start, which round 0 meets with all-top
    generators = set(t_of) - closure if bounded else set()
    attained, work = [False] * n, 0
    rows: list[list[int]] = []  # each round's, at depth <= 1

    @functools.cache
    def parent(h: int, j: int) -> tuple[int, int]:
        for i, x in enumerate(rows[h - 1]):
            for t in generators:
                if x & t == rows[h][j]:
                    return i, t_of.index(t)
        raise AssertionError("a row of the closure is no meet of the round before")

    def unfolder(h: int) -> Callable[[int], tuple[bool, list[int]]]:
        cells: dict[int, tuple[bool, int, int]] = {}  # value: its first (loop, row, s)

        @functools.cache
        def unfold(value: int) -> tuple[bool, list[int]]:
            if not cells:  # the round's cells, searched on its first unfold
                for looped in (False, True):
                    for j, c in enumerate(rows[h]):
                        for s, (o, t) in enumerate(zip(o_of, t_of)):
                            key = o | (c & t if looped else c)
                            cells.setdefault(values_of[key], (looped, j, s))
            loop, j, s = cells[value]
            fan = [s]
            for k in range(h, 0, -1):
                j, s = parent(k, j)
                fan.append(s)
            return loop, fan

        return unfold

    while True:
        work += len(new) * cost
        if work > MAX_VALUATION_SPACE:
            return
        roots, found, meets = root_values(new)
        for v in roots:
            attained[v] = True
        if bounded:
            rows.append(new)
        yield attained.copy(), not new, unfolder(len(rows) - 1) if bounded else None
        if not new:
            return
        fresh = set(found) - closure  # the closure holds every generator
        work += len(new) * len(generators) + len(closure) * len(fresh)
        if work > MAX_VALUATION_SPACE:
            return
        if not bounded:
            meets = {x & y for x in new for y in generators}
            meets.update(x & y for x in closure for y in fresh)
        generators |= fresh
        new = list(meets - closure)
        closure |= meets


def _fan(plan: _Plan, rounds: Sequence[_Round], matrix: Matrix) -> CounterexampleReport:
    """The counterexample that a root value outside the matrix's designated
    set unfolds into, at modal depth <= 1: of the values that the
    closure's rounds attain first, the least, unfolded by its round.  The
    counterexample is a fan, whose root w0 takes the valuation of the
    value's first cell, with one leaf for each generator t(s) its row is
    the meet of, taking s, and the root among its own successors for a
    loop cell.  A cell of round h gives h + 1 worlds, so a failure that
    the closure finds by round m - 1 gets a witness of at most m worlds."""
    for attained, _, unfold in rounds:
        failing = set(itertools.compress(range(plan.n), attained)) - matrix.designated
        if failing:
            break
    value = min(failing)
    loop, valuations = unfold(value)
    k, n = len(plan.names), plan.n
    assignment = {
        (w, name): t // n ** (k - 1 - j) % n
        for w, t in enumerate(valuations)
        for j, name in enumerate(plan.names)
    }
    worlds = tuple(f"w{w}" for w in range(len(valuations)))
    rel = {(0, w) for w in range(0 if loop else 1, len(worlds))}
    model = KripkeModel(Frame(worlds, frozenset(rel)), plan.lattice, assignment)
    return CounterexampleReport(matrix, model, plan.formula, 0, value)


def _decide_on_all_frames(
    matrices: Sequence[Matrix], f: Formula
) -> list[CounterexampleReport | None]:
    """Whether f, of modal depth <= 1, is valid on all frames in each matrix,
    all of one lattice and defining every connective of f: the fan that the
    closure's rounds unfold (``_fan``) of each set that fails, None for each
    that holds.  The rounds run to the fixpoint, or until every set has
    failed: the root values attained only grow, so a failure is final.  A
    closure that outgrows its budget first raises BoundTooLarge."""
    lat, rounds = matrices[0].lattice, []
    for hits, fixpoint, unfold in _closure_rounds(lat, f):
        rounds.append((hits, fixpoint, unfold))
        attained = frozenset(itertools.compress(range(lat.n), hits))
        failed = [not attained <= m.designated for m in matrices]
        if all(failed) or fixpoint:
            fan = functools.partial(_fan, _plan_for(lat, f), rounds)
            return [fan(m) if was else None for was, m in zip(failed, matrices)]
    raise BoundTooLarge(
        f"the closure of box-value tuples outgrew its budget of {MAX_VALUATION_SPACE} cells "
        "and meets before its fixpoint"
    )


def find_frame_counterexample(
    matrix: Matrix,
    f: Formula,
    max_worlds: int,
    *,
    unsafe_bounds: bool = False,
) -> CounterexampleReport | None:
    """First counterexample to frame validity over all frames within the
    world bound, or None: the first one of the canonical frame scan.

    A formula without a box never reads the relation, so the first frame,
    one world without successors, decides it.  Otherwise the closure of
    box-value tuples (see the module docstring) comes first where the
    matrix defines every connective of f and the valuation guard admits
    max_worlds worlds (and so every smaller count): f holds where the root
    values it attains all lie in the designated set.  The scan runs where
    they do not or the closure outgrows its budget.  Every way, a missing
    operation is raised only where the scan reaches it, and the same bound
    errors are raised: the world bound first, then the valuation guard of
    the first world count that no counterexample comes before.
    """
    lat, n_vars, depth = matrix.lattice, len(variables(f)), modal_depth(f)
    _check_world_bound(max_worlds, unsafe_bounds)
    if depth == 0:
        report = _scan_frames(matrix, f, [_LEAF_FRAME], unsafe_bounds)
        for n_worlds in range(2, max_worlds + 1) if report is None else ():
            _guard_valuation_space(lat.n, n_worlds, n_vars, unsafe_bounds)
        return report
    kinds = [kind for kind, _, _ in compile_formula(f)]
    exact = (NOT not in kinds or lat.neg is not None) and (IMP not in kinds or lat.imp is not None)
    try:
        _guard_valuation_space(lat.n, max_worlds, n_vars, unsafe_bounds)
    except BoundTooLarge:
        exact = False  # the scan raises it, or finds a counterexample first
    failed, bounded = False, depth <= 1
    start = 1  # the fewest worlds of a frame that may hold a first counterexample
    if exact:
        # at depth <= 1 round m decides the frames of at most m worlds; the
        # root values attained only grow, so a failure is final.  Rounds
        # that end without a fixpoint leave f to the scan.
        for worlds, (hits, fixpoint, _) in enumerate(_closure_rounds(lat, f), 1):
            failed = not set(itertools.compress(range(lat.n), hits)) <= matrix.designated
            if bounded and not failed:
                start = worlds + 1
            if failed:
                break
            if fixpoint or bounded and worlds == max_worlds:
                return None
    frames = enumerate_frames(max_worlds, unsafe_bounds=unsafe_bounds)
    frames = itertools.dropwhile(lambda frame: len(frame.worlds) < start, frames)
    report = _scan_frames(matrix, f, frames, unsafe_bounds)
    if bounded and failed and report is None:
        raise AssertionError("the meet-closure found a failure the frame scan did not")
    return report


# The frame scan runs on lists where numpy is not loaded yet and, over the
# frames scanned so far, at most this many values can occur (per frame:
# worlds x formula nodes x valuations).  On a 2-vCPU Xeon VM with Python
# 3.11 a list value took 55-115 ns, so a scan within the bound takes at most
# about 0.1 s, while importing numpy and scanning on arrays adds about
# 0.16 s to the process: a failing query on the 4-element Boolean algebra
# whose scan computes 800,000 values ran as a fresh process in 0.17 s on
# lists and in 0.31 s on arrays.
_SCALAR_SCAN_BOUND = 1 << 20


def _scan_frames(
    matrix: Matrix, f: Formula, frames: Iterable[Frame], unsafe_bounds: bool
) -> CounterexampleReport | None:
    """The first counterexample on the frames, in order, or None: each
    frame's root values, then ``first_failure`` on them.  The values are
    lists while numpy is not loaded and the values computed stay within
    ``_SCALAR_SCAN_BOUND``, and arrays from the frame that would pass it."""
    lat = matrix.lattice
    plan = _plan_for(lat, f)
    lists, spent = "numpy" not in sys.modules, 0
    for frame in frames:
        k = len(frame.worlds)
        spent += k * len(plan.nodes) * plan.n ** (k * len(plan.names))
        lists = lists and spent <= _SCALAR_SCAN_BOUND
        roots = frame_root_values(lat, frame, f, unsafe_bounds=unsafe_bounds, lists=lists)
        report = first_failure(matrix, frame, f, roots)
        if report is not None:
            return report
    return None


# ---------------------------------------------------------------------------
# Regularity


# indexed by whether p holds at every successor
_DIRECTIONS = ("box_holds_but_successor_fails", "successors_hold_but_box_fails")


class RegularityWitness(Record):
    """A world where []p and "p holds at every successor" disagree in the
    matrix.  Self-certifying like ``CounterexampleReport``: ``recheck``
    re-runs the reference evaluator on the witness's own data."""

    matrix: Matrix
    model: KripkeModel
    world: int
    box_value: int
    direction: str  # one of _DIRECTIONS

    def recheck(self) -> bool:
        designated = self.matrix.designated
        box = evaluate(self.model, self.world, BOX_P)
        successors_hold = all(
            evaluate(self.model, w2, BOX_P.child) in designated
            for w2 in self.model.frame.successors(self.world)
        )
        return (
            box == self.box_value
            and (box in designated) != successors_hold
            and self.direction == _DIRECTIONS[successors_hold]
        )

    def to_dict(self) -> dict:
        return {
            "model": self.model.to_dict(),
            "world": self.model.frame.worlds[self.world],
            "box_value": self.matrix.lattice.elements[self.box_value],
            "direction": self.direction,
        }


class RegularityResult(Record):
    """Semantic and structural verdicts on "necessity means true in all
    accessible worlds"."""

    regular: bool
    is_filter: bool
    meet_in_designated: bool
    witness: RegularityWitness | None


def check_regularity(matrix: Matrix) -> RegularityResult:
    """Whether some world of a one-variable model has []p designated but p
    failing at some successor, or the reverse: whether ``_first_defect``
    finds a defect on ``_REGULARITY_FRAME``, which decides every frame.  The
    witness of a failing matrix is the first such world in canonical order
    (frames, then valuations with the last world fastest, then worlds).
    The frames of at most two worlds hold every defect and come first.  On
    them a world without successors gives (top, True), so it fails iff the
    top is not designated, and the one-world frame without successors comes
    first of all; a world of one successor never fails; and
    ``_REGULARITY_FRAME`` is the first frame with a world of two.

    The structural side (designated set closed under meet, with its big meet
    designated) is computed independently; on finite lattices the two
    verdicts must coincide.
    """
    lat = matrix.lattice
    witness = _first_defect(matrix, _LEAF_FRAME) or _first_defect(matrix, _REGULARITY_FRAME)
    return RegularityResult(
        regular=witness is None,
        is_filter=check_designated(matrix).is_filter,
        meet_in_designated=big_meet(lat, matrix.designated) in matrix.designated,
        witness=witness,
    )


# The frame that has a regularity defect iff some frame has one.  A world's
# []p and "p at every successor" are the pair (meet S, whether S lies in D)
# of its successors' values S; without successors it is (top, True).  A
# defect of any S shows on two values: if S lies in D but its meet does not,
# the running meet leaves D at some a meet s with a and s in D; if the meet
# lies in D but some s does not, take the meet and s.  The reflexive fan
# w0 -> {w0, w1} gives every (x meet y, x and y in D) at w0, (top, True) at
# w1.
_REGULARITY_FRAME = Frame(("w0", "w1"), frozenset(((0, 0), (0, 1))))
_LEAF_FRAME = Frame(("w0",), frozenset())


def _first_defect(matrix: Matrix, frame: Frame) -> RegularityWitness | None:
    """The first regularity defect on the frame: over the valuations of p,
    the last world fastest, then the worlds, the first where "[]p
    designated" and "p designated at every successor" differ, or None.
    []p is the meet of the successors' values, read from the meet table."""
    lat, designated = matrix.lattice, matrix.designated
    successors = [frame.successors(w) for w in range(len(frame.worlds))]
    for values in itertools.product(range(lat.n), repeat=len(successors)):
        for w, succ in enumerate(successors):
            box, holds = lat.top, True
            for v in succ:
                box, holds = lat.meet_table[box][values[v]], holds and values[v] in designated
            if (box in designated) != holds:
                model = KripkeModel(frame, lat, {(v, "p"): x for v, x in enumerate(values)})
                return RegularityWitness(matrix, model, w, box, _DIRECTIONS[holds])
    return None


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
        model = KripkeModel(_REGULARITY_FRAME, lat, {(0, "p"): x, (1, "p"): y})
        succ_ok = all(world_satisfies(matrix, model, w2, Var("p")) for w2 in (0, 1))
        box_ok = world_satisfies(matrix, model, 0, Box(Var("p")))
        if not (succ_ok and not box_ok):
            raise WitnessNotApplicable("pair does not violate the filter property")
        return model

    frame = Frame(("w0", "w1", "w2"), frozenset(((0, 1), (0, 2))))
    if kind == "nonimplicative":
        lat.operation(IMP)  # MissingOperation without an implication
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
        neg = lat.operation(NOT)  # MissingOperation without a negation
        lat.operation(IMP)  # or without an implication
        pair = props.implicative_witness
        if pair is None:
            raise WitnessNotApplicable("designated set is implicative")
        a, b = pair
        model = KripkeModel(
            frame,
            lat,
            {(1, "p"): neg[a], (1, "q"): a, (2, "p"): neg[b], (2, "q"): a},
        )
        target = AXIOM_K
    else:
        raise WitnessNotApplicable(f"unknown witness kind {kind!r}")

    if world_satisfies(matrix, model, 0, target):
        raise WitnessNotApplicable(
            f"constructed model does not falsify the target for kind {kind!r}"
        )
    return model
