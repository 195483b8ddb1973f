"""Kripke frames and models over finite lattices, and the meet-over-
successors box semantics.

The value of ``[]f`` at a world is the greatest lower bound of the values of
``f`` at the world's successors, so a world with no successors gives every
boxed formula the top value.  A degenerate "local" box mode (``[]f`` is just
``f`` at the same world) is also provided for probing which properties force
the meet semantics.

Both evaluators run on one compiled form of the formula, the post-order
list of its unique subformulas from ``formula.compile_formula``.
``evaluate`` is the scalar reference: it runs ``formula.interpret`` on the
model's valuation mapping, reading each needed world's successors once,
and computes one node at a time over the column of worlds at which the
node is needed, so it touches only the worlds the formula reaches from the
queried one.  It keeps nothing from one call to the next but the compiled
formula.
``frame_valid`` quantifies over every valuation of the formula's variables
on a frame; it evaluates all valuations at once, on numpy arrays or on
lists over the whole valuation space, but reports the counterexample that
comes first in canonical enumeration order (worlds in listed order,
variables sorted, elements in index order, last slot fastest) and
re-certifies it with ``evaluate``.  It runs in two steps:
``frame_root_values``, the root values of a frame, which read no
designated set, and ``first_failure``, the first counterexample for one
designated set, so a search of several sets computes each frame's values
once.  It builds the lattice tables once; that plan is kept for the next
call while the lattice and formula objects stay the same, as they do across
the frames of one search and across the designated sets of one lattice.
The plan's ``node_values`` is the one vectorized walk of the semantics.
It runs the node list bottom-up, each node at the worlds a per-node list
gives (by default at one world), a variable's and a box's values given by
the caller and each connective read from its table in
``Lattice.operation``, on broadcasting arrays (``connective``) or on
equal-length lists (``list_connective``).  ``frame_root_values`` runs it at
the worlds ``formula.needed_worlds`` gives, a box taking the meet over the
world's successors; the type closure of ``search.find_frame_counterexample``
runs it over valuations and box-value tuples, and ``lattice.entails`` over
valuations.  numpy is imported inside the functions that build arrays (the
plan's array tables and layouts, and ``first_failure`` on arrays): building a
plan loads none, and ``evaluate`` and model checking never load it.
"""

from __future__ import annotations

import enum
import functools
import itertools
from collections.abc import Iterable, Mapping, Sequence

from .errors import BoundTooLarge, InvalidInput, UnboundVariable
from .formula import (
    AND,
    BOX,
    NOT,
    VAR,
    Formula,
    compile_formula,
    interpret,
    needed_worlds,
    render,
)
from .lattice import Lattice, Matrix
from .record import Record

TYPE_CHECKING = False  # typing.TYPE_CHECKING, without importing typing
if TYPE_CHECKING:
    import numpy as np

MAX_LATTICE_SIZE = 12
MAX_WORLDS = 4
MAX_VARIABLES = 3
MAX_VALUATION_SPACE = 1 << 24


class BoxMode(enum.Enum):
    NORMAL_MEET = "normal"
    LOCAL = "local"


class Frame(Record):
    worlds: tuple[str, ...]
    rel: frozenset[tuple[int, int]]

    def __init__(self, worlds: tuple[str, ...], rel: frozenset[tuple[int, int]]):
        if len(set(worlds)) != len(worlds):
            raise InvalidInput("world names must be distinct")
        n = len(worlds)
        for i, j in rel:
            if not (0 <= i < n and 0 <= j < n):
                raise InvalidInput(f"relation pair ({i}, {j}) out of range")
        object.__setattr__(self, "worlds", worlds)
        object.__setattr__(self, "rel", rel)

    @classmethod
    def from_names(cls, worlds: Iterable[str], pairs: Iterable[Sequence[str]]) -> "Frame":
        """The frame of the named worlds and pairs of names, each pair read
        once, into the set of index pairs."""
        worlds = tuple(worlds)
        index = {w: i for i, w in enumerate(worlds)}

        def indices(pair: Sequence[str]) -> tuple[int, int]:
            a, b = pair
            if a not in index or b not in index:
                raise InvalidInput(f"relation pair ({a!r}, {b!r}) references an unknown world")
            return index[a], index[b]

        # a frozenset copied from a set gets a table sized to fit, half that of
        # one grown pair by pair
        return cls(worlds, frozenset(set(map(indices, pairs))))

    @functools.cached_property
    def _successor_table(self) -> dict[int, tuple[int, ...]]:
        table: dict[int, list[int]] = {}
        for i, j in sorted(self.rel):
            table.setdefault(i, []).append(j)
        return {i: tuple(js) for i, js in table.items()}

    def successors(self, w: int) -> tuple[int, ...]:
        return self._successor_table.get(w, ())

    def rel_name_pairs(self) -> list[list[str]]:
        return [[self.worlds[i], self.worlds[j]] for i, j in sorted(self.rel)]


class KripkeModel(Record):
    frame: Frame
    lattice: Lattice
    valuation: Mapping[tuple[int, str], int]

    def __init__(self, frame: Frame, lattice: Lattice, valuation: Mapping[tuple[int, str], int]):
        n_worlds = len(frame.worlds)
        for (w, _), e in valuation.items():
            if not (0 <= w < n_worlds):
                raise InvalidInput(f"valuation world index {w} out of range")
            if not (0 <= e < lattice.n):
                raise InvalidInput(f"valuation element index {e} out of range")
        object.__setattr__(self, "frame", frame)
        object.__setattr__(self, "lattice", lattice)
        object.__setattr__(self, "valuation", valuation)

    @classmethod
    def from_names(
        cls,
        frame: Frame,
        lattice: Lattice,
        valuation: Mapping[str, Mapping[str, str]],
    ) -> "KripkeModel":
        index = {w: i for i, w in enumerate(frame.worlds)}
        flat = {}
        for world, vals in valuation.items():
            if world not in index:
                raise InvalidInput(f"valuation references unknown world {world!r}")
            for var, element in vals.items():
                flat[(index[world], var)] = lattice.index(element)
        return cls(frame, lattice, flat)

    def to_dict(self) -> dict:
        per_world: dict[str, dict[str, str]] = {}
        for (w, var), e in sorted(self.valuation.items()):
            per_world.setdefault(self.frame.worlds[w], {})[var] = self.lattice.elements[e]
        return {
            "lattice": self.lattice.to_dict(),
            "worlds": list(self.frame.worlds),
            "rel": self.frame.rel_name_pairs(),
            "valuation": per_world,
        }


def evaluate(
    model: KripkeModel,
    world: int,
    f: Formula,
    mode: BoxMode = BoxMode.NORMAL_MEET,
) -> int:
    """Value of f at a world, computed on the compiled formula at only the
    worlds it reaches, one node at a time over those worlds.  A variable
    without a value at a world it needs raises ``UnboundVariable`` for the
    first such (world, variable) in node post order, worlds ascending; a
    missing negation or implication raises ``MissingOperation`` only where a
    node that uses it is needed."""
    worlds = model.frame.worlds
    if not 0 <= world < len(worlds):
        raise InvalidInput(f"world index {world} out of range")

    def unbound(w: int, name: str) -> UnboundVariable:
        return UnboundVariable(worlds[w], name)

    # the local box takes the meet over the world itself: its own value
    successors = model.frame.successors if mode is BoxMode.NORMAL_MEET else lambda w: (w,)
    return interpret(compile_formula(f), world, model.valuation, unbound, successors, model.lattice)


def world_satisfies(
    matrix: Matrix,
    model: KripkeModel,
    world: int,
    f: Formula,
    mode: BoxMode = BoxMode.NORMAL_MEET,
) -> bool:
    _check_same_lattice(matrix, model)
    return evaluate(model, world, f, mode) in matrix.designated


def model_satisfies(
    matrix: Matrix,
    model: KripkeModel,
    f: Formula,
    mode: BoxMode = BoxMode.NORMAL_MEET,
) -> tuple[bool, int | None]:
    """Whether every world satisfies f; reports the first failing world."""
    _check_same_lattice(matrix, model)
    for w in range(len(model.frame.worlds)):
        if evaluate(model, w, f, mode) not in matrix.designated:
            return False, w
    return True, None


def _check_same_lattice(matrix: Matrix, model: KripkeModel) -> None:
    """The model evaluates with its own lattice's operations, so the matrix's
    carrier, order, negation and implication must all be the model's."""

    def operations(lat: Lattice) -> tuple:
        return lat.elements, lat.leq, lat.neg, None if lat.imp is None else lat.imp.table

    if operations(matrix.lattice) != operations(model.lattice):
        raise InvalidInput("model and matrix use different lattices")


class CounterexampleReport(Record):
    """A concrete model, world and value witnessing failure of a validity.

    Reports are self-certifying: ``recheck`` re-runs the reference evaluator
    on the report's own data and confirms the non-designated value.
    """

    matrix: Matrix
    model: KripkeModel
    formula: Formula
    world: int
    value: int
    box_mode: BoxMode

    def recheck(self) -> bool:
        value = evaluate(self.model, self.world, self.formula, self.box_mode)
        return value == self.value and value not in self.matrix.designated

    def to_dict(self) -> dict:
        d = self.model.to_dict()
        d["lattice"] = self.matrix.to_dict()
        d["formula"] = render(self.formula)
        d["world"] = self.model.frame.worlds[self.world]
        d["value"] = self.matrix.lattice.elements[self.value]
        d["designated"] = self.matrix.designated_names()
        d["box"] = self.box_mode.value
        return d


def _guard_valuation_space(n: int, n_worlds: int, n_vars: int, unsafe: bool) -> None:
    if unsafe:
        return
    if n > MAX_LATTICE_SIZE:
        raise BoundTooLarge(f"lattice size {n} exceeds the guard ({MAX_LATTICE_SIZE})")
    if n_worlds > MAX_WORLDS:
        raise BoundTooLarge(f"{n_worlds} worlds exceed the guard ({MAX_WORLDS})")
    if n_vars > MAX_VARIABLES:
        raise BoundTooLarge(f"{n_vars} variables exceed the guard ({MAX_VARIABLES})")
    if n ** (n_worlds * n_vars) > MAX_VALUATION_SPACE:
        raise BoundTooLarge(
            f"{n}^{n_worlds * n_vars} valuations exceed the guard; "
            "pass unsafe_bounds=True to override"
        )


class _Plan:
    """What ``frame_valid``, the type closure of the search and ``entails``
    need of one (lattice, formula), built once: the compiled formula, the
    lattice tables and, per world count and backend, the valuation-space
    layout.  The box mode and the designated set are read per call.
    Building a plan loads no numpy: its array tables are made on first
    array use, so the scalar backends of the search run on a plan with list
    tables alone."""

    def __init__(self, lat: Lattice, f: Formula):
        self.lattice, self.formula = lat, f
        self.nodes = compile_formula(f)
        self.names = sorted({a for kind, a, _ in self.nodes if kind == VAR})
        self.n = lat.n
        self._layouts: dict[tuple[int, bool], tuple] = {}
        self._array_tables: dict[int, np.ndarray] = {}  # connective kind -> flat table

    @functools.cached_property
    def dtype(self) -> type:
        """The integer type of value arrays, wide enough for the flat table
        index a * n + b, so that binary connectives need no wider
        temporaries."""
        import numpy as np

        n = self.n
        return next(t for t in (np.int8, np.int16, np.int32) if n * n <= np.iinfo(t).max + 1)

    def connective(self, kind: int, x: np.ndarray, y: np.ndarray | None) -> np.ndarray:
        """Elementwise value of a connective node on value arrays, which
        broadcast against each other, read from the flat array of the
        lattice's table, made on first use and kept on the plan."""
        table = self._array_tables.get(kind)
        if table is None:
            import numpy as np

            table = np.array(self.lattice.operation(kind), dtype=self.dtype).ravel()
            self._array_tables[kind] = table
        return table[x] if kind == NOT else table.take(x * self.n + y)

    def list_connective(self, kind: int, x: list[int], y: list[int] | None) -> list[int]:
        """Elementwise value of a connective node on equal-length lists of
        values, read from the lattice's own tables."""
        table = self.lattice.operation(kind)
        if kind == NOT:
            return [table[a] for a in x]
        return [table[a][b] for a, b in zip(x, y)]

    def node_values(self, var_value, box_value, connective=None, needed=None) -> dict:
        """The values of the nodes, bottom-up, keyed by (node id, world):
        node i at each world of needed[i], a list of the shape
        ``formula.needed_worlds`` gives, or by default at world 0 alone.  A
        variable takes var_value(name, w), box node i box_value(i, w, the
        values so far), and a connective node ``connective`` of its
        arguments' values at w.  With the default, ``connective`` above,
        values are arrays that broadcast against each other; with
        ``list_connective`` they are lists of one length."""
        connective = connective or self.connective
        values: dict = {}
        for i, (kind, a, b) in enumerate(self.nodes):
            for w in (0,) if needed is None else needed[i]:
                if kind == VAR:
                    values[i, w] = var_value(a, w)
                elif kind == BOX:
                    values[i, w] = box_value(i, w, values)
                else:
                    values[i, w] = connective(kind, values[a, w], None if b is None else values[b, w])
        return values

    def layout(self, n_worlds: int, lists: bool = False) -> tuple:
        """Valuation slots, the values of each variable at each world, the
        all-top values and the strides of the full valuation space.  As
        arrays, each (world, variable) slot is one array axis; as lists,
        each value is a list over the whole space in flat order."""
        cached = self._layouts.get((n_worlds, lists))
        if cached is not None:
            return cached
        n = self.n
        slots = [(w, x) for w in range(n_worlds) for x in self.names]
        ndim = len(slots)
        if lists:
            columns = zip(*itertools.product(range(n), repeat=ndim))
            var_values = dict(zip(slots, map(list, columns)))
            top = [self.lattice.top] * n**ndim
        else:
            import numpy as np

            var_values = dict(zip(slots, np.indices((n,) * ndim, dtype=self.dtype, sparse=True)))
            top = np.full((1,) * ndim, self.lattice.top, dtype=self.dtype)
        strides = [n ** (ndim - 1 - k) for k in range(ndim)]
        layout = self._layouts[n_worlds, lists] = (slots, var_values, top, strides)
        return layout


_last_plan: _Plan | None = None


def _plan_for(lat: Lattice, f: Formula) -> _Plan:
    """The plan of the previous call if it was for the same lattice and
    formula objects, else a new one, which replaces it.  The plan holds its
    lattice and formula, so an object compared by identity here cannot be a
    new one at a reused address."""
    global _last_plan
    plan = _last_plan
    if plan is None or plan.lattice is not lat or plan.formula is not f:
        plan = _last_plan = _Plan(lat, f)
    return plan


def frame_valid(
    matrix: Matrix,
    frame: Frame,
    f: Formula,
    mode: BoxMode = BoxMode.NORMAL_MEET,
    *,
    unsafe_bounds: bool = False,
) -> CounterexampleReport | None:
    """Check f on every valuation of the frame; None means frame-valid.
    On failure returns the canonically first counterexample."""
    roots = frame_root_values(matrix.lattice, frame, f, mode, unsafe_bounds=unsafe_bounds)
    return first_failure(matrix, frame, f, roots, mode)


def frame_root_values(
    lat: Lattice,
    frame: Frame,
    f: Formula,
    mode: BoxMode = BoxMode.NORMAL_MEET,
    *,
    unsafe_bounds: bool = False,
    lists: bool = False,
) -> list:
    """The values of f at each world of the frame, over every valuation at
    once.  As arrays, each (world, variable) slot is one array axis, and the
    value of a subformula at a world spans only the axes it actually depends
    on, so the arrays stay small on sparse frames.  With lists, each value
    is a list over the whole valuation space in flat order, computed by
    ``list_connective`` without numpy.  Reads no designated set."""
    plan = _plan_for(lat, f)
    n_worlds = len(frame.worlds)
    _guard_valuation_space(plan.n, n_worlds, len(plan.names), unsafe_bounds)

    _, var_values, top, _ = plan.layout(n_worlds, lists)
    connective = plan.list_connective if lists else plan.connective
    nodes = plan.nodes
    # the local box takes the meet over the world itself: its own value
    successors = [(w,) if mode is BoxMode.LOCAL else frame.successors(w) for w in range(n_worlds)]

    def meet(i: int, w: int, values: dict) -> list | np.ndarray:
        out, a = top, nodes[i][1]  # the meet of no values; top meet v is v
        for w2 in successors[w]:
            out = values[a, w2] if out is top else connective(AND, out, values[a, w2])
        return out

    needed = needed_worlds(nodes, range(n_worlds), successors.__getitem__)
    values = plan.node_values(lambda name, w: var_values[w, name], meet, connective, needed)
    return [values[len(nodes) - 1, w] for w in range(n_worlds)]


def first_failure(
    matrix: Matrix,
    frame: Frame,
    f: Formula,
    roots: list,
    mode: BoxMode = BoxMode.NORMAL_MEET,
) -> CounterexampleReport | None:
    """The canonically first counterexample to f on the frame in the matrix,
    from the root values ``frame_root_values`` gives on its lattice, lists
    or arrays: the lowest flat valuation index that fails at some world,
    re-certified with ``evaluate``.  None if every root value is designated."""
    plan = _plan_for(matrix.lattice, f)
    lists = isinstance(roots[0], list)
    slots, _, _, strides = plan.layout(len(frame.worlds), lists)
    if lists:
        # each value not designated, first attained at an index of the flat space
        failing = [values.index(v) for values in roots for v in set(values) - matrix.designated]
    else:
        import numpy as np

        undesignated, failing = ~matrix.designated_mask(), []
        for values in roots:
            fails = undesignated[values]
            if fails.any():
                digits = np.unravel_index(int(np.argmax(fails.ravel())), fails.shape)
                failing.append(sum(int(d) * strides[k] for k, d in enumerate(digits)))
    if not failing:
        return None
    best = min(failing)
    assignment = {slot: (best // strides[k]) % plan.n for k, slot in enumerate(slots)}
    model = KripkeModel(frame, matrix.lattice, assignment)
    for w in range(len(frame.worlds)):
        value = evaluate(model, w, f, mode)
        if value not in matrix.designated:
            return CounterexampleReport(matrix, model, f, w, value, mode)
    raise AssertionError("the frame scan found a failure the evaluator cannot reproduce")
