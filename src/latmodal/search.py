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
C can grow exponentially with the modal depth, so past a budget of rows the
frame scan decides instead.

The search decides the designated sets of one lattice in one batch, as the
harness asks: one closure, grown until every set is settled, and one pass
over the canonical frames, which computes each frame's root values once and
gives each set still open its own first failure.  ``check_regularity`` runs
the same frame scan on the formula []p, where a set's test on a frame is
its first world at which "[]p designated" and "p designated at every
successor" differ.  The public searches are the batches of one.  The
harness, which needs a witness of each failure but not the canonically
first one, scans no frame: see the fans below, and
``_regularity_pair_witnesses``, a closure of ([]p, "p at every successor")
pairs.

At modal depth <= 1, t(s, c) = t(s) and round m - 1 decides the frames of
at most m worlds: there c is a meet of at most m - 1 tuples t(s') at an
irreflexive world and t(s) meet such a meet at a reflexive one, and each
such (s, c) occurs on a fan of at most m worlds.  So the frame scan of a
failing formula of depth <= 1 starts at the world count of the first round
that fails.  There the closure also keeps each round's tuples and the
t(s) of each valuation s, so that a root value outside D unfolds into the
fan that attains it (``_fan``): its first (s, c) in the first round that
attains it, with c traced back, one t(s') at a time, to all-top.  The
harness takes that fan as its witness instead of scanning frames.  A
deeper formula that fails the closure may still hold within the bound; for
it, as for every failing formula of ``find_frame_counterexample``, the
frame scan decides and finds the canonically first counterexample.

The closure and the frame scan each have two backends that give the same
results: a scalar one in plain Python and an array one on numpy.  The
scalar closure keeps each tuple as one int, the down-set codes of its
values packed side by side, so that a meet is a bitwise and and the closure
a set of ints; at modal depth <= 1 it evaluates the part of the formula
above the boxes, the nodes ``formula.needed_worlds`` gives at a world
without successors, once per distinct (outer variables' values, tuple), and
deeper it decodes each round's new tuples and evaluates every node at them,
both through the plan's ``node_values`` on lists.  The array closure runs
the same walk on arrays.  The scalar scan runs ``frame_root_values``
on lists over the whole valuation space.  The closure's backend is chosen
by size alone: the scalar closure runs wherever at most 2^16 (valuation,
tuple) pairs can occur, n^(variables + box nodes), at every modal depth,
which covers every closure of ``run_suite`` at its default bounds.  The
scalar scan runs while numpy is not loaded and the values it computes stay
within ``_SCALAR_SCAN_BOUND``, and moves to arrays from the frame that
would pass it; the regularity scan is that scan.  So ``run_suite`` at its
default bounds, ``latmodal regular`` at desk scale, and every ``valid``
query whose closure and scan stay within these bounds, never import numpy.
numpy is imported inside the functions that build arrays, so importing
this module does not load it.
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
    BoxMode,
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
from .lattice import DesignatedProperties, Lattice, Matrix, big_meet, check_designated
from .record import Record

TYPE_CHECKING = False  # typing.TYPE_CHECKING, without importing typing
if TYPE_CHECKING:
    import numpy as np

    # (whether each value is a root value attained, fixpoint reached)
    _Round = tuple[np.ndarray | list[bool], bool]

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


def _merge(rows: np.ndarray, more: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of both arrays of values below n, in ascending
    order, and those of them that the first lacks; rows are compared by
    their digits in base n."""
    import numpy as np

    weights = n ** np.arange(rows.shape[1] - 1, -1, -1, dtype=np.int64)
    codes = np.concatenate([rows, more]) @ weights
    # sorted and compared with the code before (np.unique would import numpy.ma)
    distinct = np.sort(codes)
    keep = np.ones(len(distinct), dtype=bool)
    keep[1:] = distinct[1:] != distinct[:-1]
    distinct = distinct[keep]
    lacked = np.ones(len(distinct), dtype=bool)
    lacked[np.searchsorted(distinct, codes[: len(rows)])] = False
    merged = (distinct[:, None] // weights % n).astype(rows.dtype)
    return merged, merged[lacked]


_CLOSURE_BLOCK = 1 << 20  # about the most values one array of the closure holds

# The closure runs on codes up to this many pairs, n^(variables + box
# nodes), and on numpy arrays past it.  Measured on a 2-vCPU Xeon VM with
# Python 3.11 and numpy 2.4.  In fresh processes without a bytecode cache,
# where the arrays first import numpy (0.19 s against 0.045 s for a bare
# interpreter), the codes win within the bound: a valid depth-2 query at
# 3^10 pairs ([]([]p & []q & []r) -> [][]p & [][]q & [][]r on the 3-element
# chain) ran in 0.175 s on codes against 0.28 s on arrays (medians of 15).
# In one process with numpy already loaded (medians of 7), three rounds at
# modal depth <= 1 took 0.15-0.3 ms on codes against 0.3-0.5 ms on arrays up
# to 5^5 pairs, but 0.8-1.1 against 0.5 ms at 8^5, 1.7-1.9 against 0.7-0.9 ms
# at 9^5 (twist_k's closure) and 0.9-1.1 against 0.7-1.0 ms at 4^8 = 2^16;
# the 3^10 closure above took 55 ms to its fixpoint on codes against 21-30 ms
# on arrays.  A valid query runs its closure before anything that loads
# numpy, so the bound follows the fresh processes.
_CODED_CLOSURE_BOUND = 1 << 16


def _closure_rounds(lat: Lattice, f: Formula) -> _Closure:
    """The closure of box-value tuples of f on the lattice (see the module
    docstring), one round at a time: after each, whether each value, by
    index, is a root value so far (at modal depth <= 1 also with the root
    among its own successors), and whether the round had no new tuple to
    evaluate, which is the fixpoint and the last round.  None, and no
    further round, once the rows evaluated and met exceed
    MAX_VALUATION_SPACE: the closure can grow exponentially with the modal
    depth.  Reads no designated set.  Needs every connective of f defined.
    At modal depth <= 1 the rounds also record where each root value comes
    from (``_Closure``).

    Two backends give the same rounds, chosen by the number of (valuation,
    box-value tuple) pairs that can occur, n^(variables + box nodes), at
    every modal depth: on sets of packed down-set codes up to
    ``_CODED_CLOSURE_BOUND``, and on numpy arrays past it.  The timings
    behind the bound are noted at it."""
    plan = _plan_for(lat, f)
    width = sum(kind == BOX for kind, _, _ in plan.nodes)
    if plan.n ** (len(plan.names) + width) <= _CODED_CLOSURE_BOUND:
        return _Closure(plan, _scalar_closure_rounds)
    return _Closure(plan, _array_closure_rounds)


class _Closure:
    """The rounds of ``_closure_rounds``, an iterator, and at modal depth
    <= 1 their provenance, from which ``_fan`` unfolds a counterexample.
    There a row (box-value tuple) of round h >= 1 is the meet of a row of
    round h - 1 and a generator t(s).  ``attained`` keeps what each round
    yielded of the values attained.  The backend keeps each round's rows
    and the tuple t(s) of each valuation s, and sets two functions that
    search them: ``cells(h)``, which maps each value that round h attains
    to its first cell there, (whether the root is its own successor, row,
    valuation), and ``parent(h, row)``, one (row of round h - 1, valuation
    s) whose meet with t(s) the row is.  Rows are indexed within their
    round and valuations in the order of ``itertools.product``, the last
    variable fastest.  Only the rounds and rows that a fan unfolds are
    searched, each once, so a closure that fails no matrix pays for nothing
    more."""

    def __init__(self, plan: _Plan, backend):
        self.plan = plan
        self.attained: list = []
        self.cells: Callable[[int], dict[int, tuple[bool, int, int]]] | None = None
        self.parent: Callable[[int, int], tuple[int, int]] | None = None
        self._rounds = backend(plan, self)

    def __iter__(self) -> _Closure:
        return self

    def __next__(self) -> _Round | None:
        round_ = next(self._rounds)
        if round_ is not None:
            self.attained.append(round_[0])
        return round_


def _scalar_closure_rounds(plan: _Plan, trace: _Closure | None = None) -> Iterator[_Round | None]:
    """``_closure_rounds`` with each row (box-value tuple) one int: the
    down-set codes of its values, n bits each (bit x of a value's code is
    set for each x below it), packed box by box.  The code of a meet is the
    bitwise and of the codes, so two rows meet with one ``&`` and the
    closure keeps sets of ints; the values attained are a list of bools.

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
    entry per (row, valuation).  At modal depth <= 1 keeps its provenance
    in ``trace``, if given."""
    lat, nodes, names, n = plan.lattice, plan.nodes, plan.names, plan.n
    connective, root = plan.list_connective, len(nodes) - 1
    box_ids = [i for i, (kind, _, _) in enumerate(nodes) if kind == BOX]
    shifts = [j * n for j in range(len(box_ids))]
    down = [sum(1 << x for x in range(n) if lat.leq[x][a]) for a in range(n)]
    element, field = {code: a for a, code in enumerate(down)}, (1 << n) - 1
    row_bits = n * len(box_ids)
    top = (1 << row_bits) - 1  # every value top: down(top) is every element
    # every valuation s of the variables, last one fastest, and its columns
    valuations = list(itertools.product(range(n), repeat=len(names)))
    columns = dict(zip(names, map(list, zip(*valuations))))
    bounded = modal_depth(plan.formula) <= 1
    traced = bounded and trace is not None

    def encode(values: dict, size: int) -> list[int]:
        """The row of box-argument values at each of the size positions."""
        fields = [
            [down[v] << shift for v in values[nodes[i][1], 0]] for i, shift in zip(box_ids, shifts)
        ]
        return list(map(sum, zip(*fields))) if fields else [0] * size

    def decode(rows: list[int], repeat: int = 1) -> Callable:
        """The box values of ``node_values``: a box's values in each row,
        each repeated."""

        def box_value(i: int, w: int, values: dict) -> list[int]:
            shift = shifts[box_ids.index(i)]
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
    if traced:
        rows: list[list[int]] = []  # each round's

        def cells(h: int) -> dict[int, tuple[bool, int, int]]:
            found: dict[int, tuple[bool, int, int]] = {}
            for looped in (False, True):
                for j, c in enumerate(rows[h]):
                    for s, (o, t) in enumerate(zip(o_of, t_of)):
                        found.setdefault(values_of[o | (c & t if looped else c)], (looped, j, s))
            return found

        def parent(h: int, j: int) -> tuple[int, int]:
            for i, x in enumerate(rows[h - 1]):
                for t in generators:
                    if x & t == rows[h][j]:
                        return i, t_of.index(t)
            raise AssertionError("a row of the closure is no meet of the round before")

        trace.cells, trace.parent = functools.cache(cells), functools.cache(parent)
    del trace  # it holds this generator: no reference back, so no cycle to collect
    while True:
        work += len(new) * len(valuations)
        if work > MAX_VALUATION_SPACE:
            yield None
            return
        roots, found, meets = root_values(new)
        for v in roots:
            attained[v] = True
        if traced:
            rows.append(new)
        yield attained.copy(), not new
        if not new:
            return
        fresh = set(found) - closure  # the closure holds every generator
        work += len(new) * len(generators) + len(closure) * len(fresh)
        if work > MAX_VALUATION_SPACE:
            yield None
            return
        if not bounded:
            meets = {x & y for x in new for y in generators}
            meets.update(x & y for x in closure for y in fresh)
        generators |= fresh
        new = list(meets - closure)
        closure |= meets


def _array_closure_rounds(plan: _Plan, trace: _Closure | None = None) -> Iterator[_Round | None]:
    """``_closure_rounds`` on numpy arrays of tuples, each round's new
    tuples evaluated in blocks by ``node_values`` over broadcasting arrays;
    the values attained are a boolean array.  At modal depth <= 1 keeps
    its provenance in ``trace``, if given."""
    import numpy as np

    lat, nodes, names, dtype, n = plan.lattice, plan.nodes, plan.names, plan.dtype, plan.n
    root = len(nodes) - 1
    # every valuation s of the variables, one row each, last one fastest
    grid = np.indices((n,) * len(names), dtype=dtype).reshape(len(names), -1, 1)
    own = dict(zip(names, grid))
    box_ids = [i for i, (kind, _, _) in enumerate(nodes) if kind == BOX]
    column = {i: j for j, i in enumerate(box_ids)}
    width = len(box_ids)
    bounded = modal_depth(plan.formula) <= 1
    traced = bounded and trace is not None

    def root_values(c: np.ndarray) -> tuple[dict, np.ndarray | None]:
        """The values of every node at each (valuation, row) of the block of
        rows c, one per column, and at depth <= 1 the root's with the root
        among its own successors (else None)."""

        def own_successor(i: int, w: int, values: dict) -> np.ndarray:
            return plan.connective(AND, values[nodes[i][1], w], c[column[i]])

        values = plan.node_values(lambda name, w: own[name], lambda i, w, values: c[column[i]])
        if not bounded:
            return values, None
        return values, plan.node_values(lambda name, w: own[name], own_successor)[root, 0]

    # the box-value tuples reached and those not yet evaluated; generators
    # are the tuples t(s, c) not reached when found (t(s, c) = t(s) at depth <= 1)
    closure = new = np.full((1, width), lat.top, dtype)
    none = generators = closure[:0]
    collect = width > 0
    chunk = max(1, _CLOSURE_BLOCK // grid.shape[1])
    attained, work = np.zeros(n, dtype=bool), 0
    if traced:
        rows: list[np.ndarray] = []  # each round's

        def cells(h: int) -> dict[int, tuple[bool, int, int]]:
            found: dict[int, tuple[bool, int, int]] = {}
            for start in range(0, len(rows[h]), chunk):
                c = rows[h][start : start + chunk].T
                values, loop = root_values(c)
                for looped, roots in ((False, values[root, 0]), (True, loop)):
                    # the first (valuation, row) of each value: a stable sort
                    # keeps the flat indices of equal values in order
                    roots = np.broadcast_to(roots, (grid.shape[1], c.shape[1])).ravel()
                    order = np.argsort(roots, kind="stable")
                    roots = roots[order]
                    firsts = np.flatnonzero(np.concatenate(([True], roots[1:] != roots[:-1])))
                    for v, k in zip(roots[firsts].tolist(), order[firsts].tolist()):
                        s, j = divmod(k, c.shape[1])
                        found.setdefault(v, (looped, start + j, s))
            return found

        def parent(h: int, j: int) -> tuple[int, int]:
            step = max(1, _CLOSURE_BLOCK // max(1, len(generators) * width))
            for start in range(0, len(rows[h - 1]), step):
                x = rows[h - 1][start : start + step, None]
                hits = (plan.connective(AND, x, generators[None]) == rows[h][j]).all(-1)
                if hits.any():
                    i, g = divmod(int(np.argmax(hits)), len(generators))
                    return start + i, int(np.argmax((t_of == generators[g]).all(-1)))
            raise AssertionError("a row of the closure is no meet of the round before")

        trace.cells, trace.parent = functools.cache(cells), functools.cache(parent)
    del trace  # it holds this generator: no reference back, so no cycle to collect
    while True:
        work += len(new) * grid.shape[1]
        if work > MAX_VALUATION_SPACE:
            yield None
            return
        found = [none]
        for start in range(0, len(new), chunk):
            c = new[start : start + chunk].T
            values, loop = root_values(c)  # loop: a root among its own successors
            attained[values[root, 0]] = True
            if loop is not None:
                attained[loop] = True
            if collect:
                tuples = np.stack(np.broadcast_arrays(*(values[nodes[i][1], 0] for i in box_ids)), -1)
                found.append(_merge(none, tuples.reshape(-1, width), n)[0])
        if traced:
            rows.append(new)
            if collect:
                # round 0 evaluates the one row all-top, at each valuation
                t_of = tuples.reshape(-1, width)
        yield attained.copy(), not len(new)
        if not len(new):
            return
        if not width:
            new = none
            continue
        collect = not bounded
        grown, fresh = _merge(generators, _merge(closure, np.concatenate(found), n)[1], n)
        work += len(new) * len(generators) + len(closure) * len(fresh)
        if work > MAX_VALUATION_SPACE:
            yield None
            return
        meets = [none]
        for x, y in ((new, generators), (closure, fresh)):
            step = max(1, _CLOSURE_BLOCK // max(1, len(y) * width))
            for start in range(0, len(x), step):
                block = plan.connective(AND, x[start : start + step, None], y[None])
                meets.append(_merge(none, block.reshape(-1, width), n)[0])
        generators = grown
        closure, new = _merge(closure, np.concatenate(meets), n)


def _fan(closure: _Closure, matrix: Matrix) -> CounterexampleReport:
    """The counterexample that a root value outside the matrix's designated
    set unfolds into, at modal depth <= 1: of the values attained first,
    the least, and its first cell.  The counterexample is a fan, whose root
    w0 takes the cell's valuation, with one leaf for each generator t(s)
    its row is the meet of, taking s, and the root among its own successors
    for a loop cell.  A cell of round h gives h + 1 worlds, so a failure
    that the closure finds by round m - 1 gets a witness of at most m
    worlds."""
    plan = closure.plan
    for h, attained in enumerate(closure.attained):
        failing = set(itertools.compress(range(plan.n), attained)) - matrix.designated
        if failing:
            break
    value = min(failing)
    loop, row, s = closure.cells(h)[value]
    valuations = [s]
    for h in range(h, 0, -1):
        row, s = closure.parent(h, row)
        valuations.append(s)
    k, n = len(plan.names), plan.n
    assignment = {
        (w, name): t // n ** (k - 1 - j) % n
        for w, t in enumerate(valuations)
        for j, name in enumerate(plan.names)
    }
    worlds = tuple(f"w{w}" for w in range(len(valuations)))
    rel = {(0, w) for w in range(0 if loop else 1, len(worlds))}
    model = KripkeModel(Frame(worlds, frozenset(rel)), plan.lattice, assignment)
    return CounterexampleReport(matrix, model, plan.formula, 0, value, BoxMode.NORMAL_MEET)


def find_frame_counterexample(
    matrix: Matrix,
    f: Formula,
    max_worlds: int,
    mode: BoxMode = BoxMode.NORMAL_MEET,
    *,
    unsafe_bounds: bool = False,
) -> CounterexampleReport | None:
    """First counterexample to frame validity over all frames within the
    world bound, or None: the first one of the canonical frame scan.

    The local box never reads the relation, so the first frame, one world
    without successors, decides it.  Under the normal box the closure of
    box-value tuples (see the module docstring) comes first where the
    matrix defines every connective of f and the valuation guard admits
    max_worlds worlds (and so every smaller count): f holds where the root
    values it attains all lie in the designated set.  The scan runs where
    they do not or the closure outgrows its budget.  Every way, a missing
    operation is raised only where the scan reaches it, and the same bound
    errors are raised: the world bound first, then the valuation guard of
    the first world count that no counterexample comes before.
    """
    return _find_counterexamples([matrix], f, max_worlds, mode, unsafe_bounds)[0]


def _find_counterexamples(
    matrices: Sequence[Matrix],
    f: Formula,
    max_worlds: int,
    mode: BoxMode,
    unsafe_bounds: bool,
    *,
    canonical: bool = True,
) -> list[CounterexampleReport | None]:
    """``find_frame_counterexample`` of each matrix, all of one lattice: one
    closure settles every designated set that passes it, and one frame scan
    computes each frame's root values once for the sets still open, each
    taking its own first failure.  Raises what the first of them to raise
    alone would.  Without ``canonical``, where the closure decides a formula
    of modal depth <= 1 each failing set gets the fan that the closure
    unfolds (``_fan``) instead, within the world bound, and no frame is
    scanned."""
    lat, n_vars = matrices[0].lattice, len(variables(f))
    _check_world_bound(max_worlds, unsafe_bounds)
    scan = list(range(len(matrices)))
    if mode is BoxMode.LOCAL:
        # the local box never reads the relation, so the first frame decides
        first = [Frame(("w0",), frozenset())]
        reports = _scan_frames(matrices, scan, f, first, mode, unsafe_bounds)
        for n_worlds in range(2, max_worlds + 1) if None in reports else ():
            _guard_valuation_space(lat.n, n_worlds, n_vars, unsafe_bounds)
        return reports
    kinds = [kind for kind, _, _ in compile_formula(f)]
    exact = (
        (NOT not in kinds or lat.neg is not None)
        and (IMP not in kinds or lat.imp is not None)
        and lat.n ** kinds.count(BOX) < 1 << 63  # the array closure codes tuples in int64
    )
    try:
        _guard_valuation_space(lat.n, max_worlds, n_vars, unsafe_bounds)
    except BoundTooLarge:
        exact = False  # the scan raises it, or finds a counterexample first
    failed = [False] * len(matrices)
    bounded = modal_depth(f) <= 1
    start = 1  # the fewest worlds of a frame that may hold a first counterexample
    if exact:
        # at depth <= 1 round m decides the frames of at most m worlds; the
        # root values attained only grow, so a set once failed stays failed
        closure = _closure_rounds(lat, f)
        for worlds, round_ in enumerate(closure, 1):
            if round_ is None:
                break
            attained = frozenset(itertools.compress(range(lat.n), round_[0]))
            failed = [was or not attained <= m.designated for was, m in zip(failed, matrices)]
            if bounded and not any(failed):
                start = worlds + 1
            if all(failed) or round_[1] or bounded and worlds == max_worlds:
                if bounded and not canonical:
                    return [_fan(closure, m) if was else None for was, m in zip(failed, matrices)]
                scan = [i for i, was in enumerate(failed) if was]
                break
    frames = enumerate_frames(max_worlds, unsafe_bounds=unsafe_bounds)
    frames = itertools.dropwhile(lambda frame: len(frame.worlds) < start, frames)
    reports = _scan_frames(matrices, scan, f, frames, mode, unsafe_bounds)
    if bounded and any(was and report is None for was, report in zip(failed, reports)):
        raise AssertionError("the meet-closure found a failure the frame scan did not")
    return reports


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
    matrices: Sequence[Matrix],
    scan: list[int],
    f: Formula,
    frames: Iterable[Frame],
    mode: BoxMode,
    unsafe_bounds: bool,
    first: Callable = first_failure,
) -> list:
    """What ``first`` finds first on the frames, in order, for each matrix in
    scan (by index; all of one lattice), or None: each frame's root values
    are computed once, for the sets still open, and ``first`` reads them as
    ``first_failure`` does, giving a set's first counterexample on the frame
    (or ``_first_defect`` its first regularity defect).  The values are
    lists while numpy is not loaded and the values computed stay within
    ``_SCALAR_SCAN_BOUND``, and arrays from the frame that would pass it."""
    lat = matrices[0].lattice
    plan = _plan_for(lat, f)
    reports: list = [None] * len(matrices)
    lists, spent = "numpy" not in sys.modules, 0
    for frame in frames if scan else ():
        k = len(frame.worlds)
        spent += k * len(plan.nodes) * plan.n ** (k * len(plan.names))
        lists = lists and spent <= _SCALAR_SCAN_BOUND
        roots = frame_root_values(lat, frame, f, mode, unsafe_bounds=unsafe_bounds, lists=lists)
        for i in scan:
            reports[i] = first(matrices[i], frame, f, roots, mode)
        scan = [i for i in scan if reports[i] is None]
        if not scan:
            break
    return reports


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

    @property
    def structural_regular(self) -> bool:
        return self.is_filter and self.meet_in_designated


def check_regularity(
    matrix: Matrix, max_worlds: int = 2, *, unsafe_bounds: bool = False
) -> RegularityResult:
    """Scan all one-variable models within the world bound for a world where
    []p is designated but p fails at some successor, or the reverse; the
    first such world in canonical order (frames, then valuations with the
    last world fastest, then worlds) is the witness.  The scan is the frame
    scan of ``find_frame_counterexample`` on the formula []p, with
    ``_first_defect`` in place of ``first_failure``, so it has the same
    backends and guards: each world count is scanned only if
    ``frame_valid``'s valuation guard admits it.

    The structural side (designated set closed under meet, with its big meet
    designated) is computed independently; on finite lattices the two
    verdicts must coincide.
    """
    frames = enumerate_frames(max_worlds, unsafe_bounds=unsafe_bounds)
    witness = _scan_frames(
        [matrix], [0], BOX_P, frames, BoxMode.NORMAL_MEET, unsafe_bounds, _first_defect
    )[0]
    return RegularityResult(
        regular=witness is None,
        is_filter=check_designated(matrix).is_filter,
        meet_in_designated=big_meet(matrix.lattice, matrix.designated) in matrix.designated,
        witness=witness,
    )


def _first_defect(
    matrix: Matrix, frame: Frame, f: Formula, roots: list, mode: BoxMode
) -> RegularityWitness | None:
    """The first regularity defect on the frame, from the values of f = []p
    that ``frame_root_values`` gives, lists or arrays: the lowest flat
    valuation index, then the lowest world, where "[]p designated" and "p
    designated at every successor" differ, or None."""
    lat, k = matrix.lattice, len(frame.worlds)
    lists = isinstance(roots[0], list)
    slots, p, _, strides = _plan_for(lat, f).layout(k, lists)
    defects = []  # (flat index, world) of the first defect at each world
    if lists:
        designated = [x in matrix.designated for x in range(lat.n)]
        for w, box in enumerate(roots):
            columns = [map(designated.__getitem__, p[w2, "p"]) for w2 in frame.successors(w)]
            holds = map(all, zip(*columns)) if columns else itertools.repeat(True)
            differ = [designated[x] != h for x, h in zip(box, holds)]
            if True in differ:
                defects.append((differ.index(True), w))
    else:
        import numpy as np

        designated = matrix.designated_mask()
        for w, box in enumerate(roots):
            holds = True  # at every successor, of none too
            for w2 in frame.successors(w):
                holds = holds & designated[p[w2, "p"]]
            differ = np.broadcast_to(designated[box] != holds, (lat.n,) * k).ravel()
            if differ.any():
                defects.append((int(np.argmax(differ)), w))
    if not defects:
        return None
    s, w = min(defects)
    model = KripkeModel(frame, lat, {slot: s // strides[j] % lat.n for j, slot in enumerate(slots)})
    box = evaluate(model, w, f, mode)
    return RegularityWitness(matrix, model, w, box, _DIRECTIONS[box not in matrix.designated])


def _regularity_pair_witnesses(
    matrices: Sequence[Matrix], max_worlds: int, unsafe_bounds: bool
) -> list[RegularityWitness | None]:
    """``check_regularity``'s verdict on each matrix, by a closure instead
    of a frame scan: a world's []p and "p at every successor" are the pair
    (meet S, whether S lies in D) of the multiset S of its successors'
    values of p.  A world of a frame of at most m worlds has at most m
    successors, and every multiset of m values is that of the root of the
    reflexive fan w0 -> {w0, ..., w(m-1)}; a world without successors gives
    (top, True).  So the closure of those pairs under the componentwise
    (meet, and), over multisets of at most max_worlds values, decides the
    bound exactly, and a pair (m, b) with (m in D) != b is a defect.  The
    witness is the fan of the first defect found, fewest values first."""
    _check_world_bound(max_worlds, unsafe_bounds)
    return [_regularity_pair_witness(matrix, max_worlds) for matrix in matrices]


def _regularity_pair_witness(matrix: Matrix, max_worlds: int) -> RegularityWitness | None:
    lat, designated = matrix.lattice, matrix.designated
    meet = lat.meet_table
    # the pairs first reached by k values, each with those values; k = 0 is a dead end
    layer, reached = {(lat.top, True): ()}, set()
    for _ in range(max_worlds + 1):
        for (box, holds), values in layer.items():
            if (box in designated) != holds:
                return _regularity_fan(matrix, values, box, holds)
        reached.update(layer)
        extended = (
            ((meet[box][x], holds and x in designated), (*values, x))
            for (box, holds), values in layer.items()
            for x in range(lat.n)
        )
        layer = {pair: values for pair, values in extended if pair not in reached}
    return None


def _regularity_fan(
    matrix: Matrix, values: tuple[int, ...], box: int, holds: bool
) -> RegularityWitness:
    """The witness of the pair that the multiset ``values`` reaches: w0
    with the k values as its successors, itself the first of them, or a
    world without successors for none."""
    lat = matrix.lattice
    worlds = tuple(f"w{w}" for w in range(max(1, len(values))))
    frame = Frame(worlds, frozenset((0, w) for w in range(len(values))))
    valuation = {(w, "p"): x for w, x in enumerate(values or (lat.top,))}
    model = KripkeModel(frame, lat, valuation)
    return RegularityWitness(matrix, model, 0, box, _DIRECTIONS[holds])


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
