"""Kripke frames and models over finite lattices, and the meet-over-
successors box semantics.

The value of ``[]f`` at a world is the greatest lower bound of the values of
``f`` at the world's successors, so a world with no successors gives every
boxed formula the top value.  A degenerate "local" box mode (``[]f`` is just
``f`` at the same world) is also provided for probing which properties force
the meet semantics.

``evaluate`` is the reference implementation: a memoized structural
recursion that touches only worlds reachable within the modal depth of the
formula.  ``frame_valid`` quantifies over every valuation of the formula's
variables on a frame; it evaluates all valuations at once on numpy arrays
but reports the counterexample that comes first in canonical enumeration
order (worlds in listed order, variables sorted, elements in index order,
last slot fastest) and re-certifies it with ``evaluate``.  It compiles the
formula once into a post-order list of unique subformulas with integer node
ids, and builds the lattice tables once; that plan is kept for the next call
while the matrix and formula objects stay the same, as they do across the
frames of one search.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .errors import BoundTooLarge, InvalidInput, MissingOperation, UnboundVariable
from .formula import And, Box, Formula, Imp, Not, Or, Var, render
from .lattice import ImplicationTable, Lattice, Matrix

MAX_LATTICE_SIZE = 12
MAX_WORLDS = 4
MAX_VARIABLES = 3
MAX_VALUATION_SPACE = 1 << 24


class BoxMode(enum.Enum):
    NORMAL_MEET = "normal"
    LOCAL = "local"


@dataclass(frozen=True)
class Frame:
    worlds: tuple[str, ...]
    rel: frozenset[tuple[int, int]]

    def __post_init__(self):
        if len(set(self.worlds)) != len(self.worlds):
            raise InvalidInput("world names must be distinct")
        n = len(self.worlds)
        for i, j in self.rel:
            if not (0 <= i < n and 0 <= j < n):
                raise InvalidInput(f"relation pair ({i}, {j}) out of range")

    @classmethod
    def from_names(cls, worlds: Iterable[str], pairs: Iterable[tuple[str, str]]) -> "Frame":
        worlds = tuple(worlds)
        index = {w: i for i, w in enumerate(worlds)}
        rel = set()
        for a, b in pairs:
            if a not in index or b not in index:
                raise InvalidInput(f"relation pair ({a!r}, {b!r}) references an unknown world")
            rel.add((index[a], index[b]))
        return cls(worlds, frozenset(rel))

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


@dataclass(frozen=True)
class KripkeModel:
    frame: Frame
    lattice: Lattice
    valuation: Mapping[tuple[int, str], int]

    def __post_init__(self):
        n_worlds = len(self.frame.worlds)
        for (w, _), e in self.valuation.items():
            if not (0 <= w < n_worlds):
                raise InvalidInput(f"valuation world index {w} out of range")
            if not (0 <= e < self.lattice.n):
                raise InvalidInput(f"valuation element index {e} out of range")

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
    imp: ImplicationTable | None = None,
) -> int:
    """Value of f at a world; structural recursion with memoization."""
    lat = model.lattice
    imp_table = imp if imp is not None else lat.imp
    memo: dict[tuple[int, Formula], int] = {}

    def go(w: int, g: Formula) -> int:
        key = (w, g)
        cached = memo.get(key)
        if cached is not None:
            return cached
        if isinstance(g, Var):
            try:
                value = model.valuation[(w, g.name)]
            except KeyError:
                raise UnboundVariable(model.frame.worlds[w], g.name) from None
        elif isinstance(g, Not):
            value = lat.negate(go(w, g.child))
        elif isinstance(g, And):
            value = lat.meet_table[go(w, g.left)][go(w, g.right)]
        elif isinstance(g, Or):
            value = lat.join_table[go(w, g.left)][go(w, g.right)]
        elif isinstance(g, Imp):
            if imp_table is None:
                raise MissingOperation("imp")
            value = imp_table.table[go(w, g.left)][go(w, g.right)]
        elif mode is BoxMode.LOCAL:
            value = go(w, g.child)
        else:
            value = lat.top
            for w2 in model.frame.successors(w):
                value = lat.meet_table[value][go(w2, g.child)]
        memo[key] = value
        return value

    return go(world, f)


def world_satisfies(
    matrix: Matrix,
    model: KripkeModel,
    world: int,
    f: Formula,
    mode: BoxMode = BoxMode.NORMAL_MEET,
    imp: ImplicationTable | None = None,
) -> bool:
    _check_same_lattice(matrix, model)
    return evaluate(model, world, f, mode, imp) in matrix.designated


def model_satisfies(
    matrix: Matrix,
    model: KripkeModel,
    f: Formula,
    mode: BoxMode = BoxMode.NORMAL_MEET,
    imp: ImplicationTable | None = None,
) -> tuple[bool, int | None]:
    """Whether every world satisfies f; reports the first failing world."""
    _check_same_lattice(matrix, model)
    for w in range(len(model.frame.worlds)):
        if evaluate(model, w, f, mode, imp) not in matrix.designated:
            return False, w
    return True, None


def _check_same_lattice(matrix: Matrix, model: KripkeModel) -> None:
    if matrix.lattice.elements != model.lattice.elements or matrix.lattice.leq != model.lattice.leq:
        raise InvalidInput("model and matrix use different lattices")


@dataclass(frozen=True)
class CounterexampleReport:
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


_VAR, _NOT, _AND, _OR, _IMP, _BOX = range(6)
_KIND = {Var: _VAR, Not: _NOT, And: _AND, Or: _OR, Imp: _IMP, Box: _BOX}


def _compile(f: Formula) -> list[tuple]:
    """The unique subformulas of f in post order, root last, as nodes
    (kind, a, b): a and b are the node ids of the children, or a is the
    name of a variable.  Walks f iteratively."""
    nodes: list[tuple] = []
    node_id: dict[tuple, int] = {}
    done: dict[int, int] = {}  # id of a subformula object -> its node id
    stack = [f]
    while stack:
        g = stack[-1]
        if id(g) in done:
            stack.pop()
            continue
        if isinstance(g, Var):
            node = (_VAR, g.name, None)
        else:
            children = (g.child,) if isinstance(g, (Not, Box)) else (g.left, g.right)
            pending = [c for c in children if id(c) not in done]
            if pending:
                stack.extend(reversed(pending))
                continue
            ids = [done[id(c)] for c in children]
            node = (_KIND[type(g)], ids[0], ids[1] if len(ids) == 2 else None)
        stack.pop()
        if node not in node_id:
            node_id[node] = len(nodes)
            nodes.append(node)
        done[id(g)] = node_id[node]
    return nodes


class _Plan:
    """What ``frame_valid`` needs of one (matrix, formula, variable domain),
    built once: the compiled formula, the lattice tables and, per world
    count, the valuation-space layout.  The box mode is read per call."""

    def __init__(self, matrix: Matrix, f: Formula, domain: tuple[str, ...] | None):
        self.matrix, self.formula, self.domain = matrix, f, domain
        self.nodes = _compile(f)
        names = sorted({a for kind, a, _ in self.nodes if kind == _VAR})
        if domain is not None:
            if not set(names) <= set(domain):
                raise InvalidInput("var_domain must cover the variables of the formula")
            names = list(domain)
        self.names = names
        lat = matrix.lattice
        n = self.n = lat.n
        # wide enough for the flat table index a * n + b, so that binary
        # connectives need no wider temporaries
        self.dtype = dtype = next(
            t for t in (np.int8, np.int16, np.int32) if n * n <= np.iinfo(t).max + 1
        )
        self.scale = dtype(n)
        self.meet_flat = np.array(lat.meet_table, dtype=dtype).ravel()
        self.join_flat = np.array(lat.join_table, dtype=dtype).ravel()
        self.neg_arr = np.array(lat.neg, dtype=dtype) if lat.neg is not None else None
        self.imp_flat = (
            np.array(lat.imp.table, dtype=dtype).ravel() if lat.imp is not None else None
        )
        self.designated = np.zeros(n, dtype=bool)
        self.designated[sorted(matrix.designated)] = True
        self._layouts: dict[int, tuple] = {}

    def layout(self, n_worlds: int) -> tuple:
        """Valuation slots, the array of each variable at each world, the
        all-top array and the strides of the full valuation space.  Each
        (world, variable) slot is one array axis."""
        cached = self._layouts.get(n_worlds)
        if cached is not None:
            return cached
        n = self.n
        slots = [(w, x) for w in range(n_worlds) for x in self.names]
        ndim = len(slots)
        var_arrays = {}
        for k, slot in enumerate(slots):
            shape = [1] * ndim
            shape[k] = n
            var_arrays[slot] = np.arange(n, dtype=self.dtype).reshape(shape)
        top_arr = np.full((1,) * ndim, self.matrix.lattice.top, dtype=self.dtype)
        strides = [n ** (ndim - 1 - k) for k in range(ndim)]
        layout = self._layouts[n_worlds] = (slots, var_arrays, top_arr, strides)
        return layout


_last_plan: _Plan | None = None


def _plan_for(matrix: Matrix, f: Formula, var_domain: Iterable[str] | None) -> _Plan:
    """The plan of the previous call if it was for the same matrix and
    formula objects and the same domain, else a new one, which replaces it.
    The plan holds its matrix and formula, so an object compared by
    identity here cannot be a new one at a reused address."""
    global _last_plan
    domain = None if var_domain is None else tuple(sorted(set(var_domain)))
    plan = _last_plan
    if (
        plan is None
        or plan.matrix is not matrix
        or plan.formula is not f
        or plan.domain != domain
    ):
        plan = _last_plan = _Plan(matrix, f, domain)
    return plan


def frame_valid(
    matrix: Matrix,
    frame: Frame,
    f: Formula,
    mode: BoxMode = BoxMode.NORMAL_MEET,
    var_domain: Iterable[str] | None = None,
    *,
    unsafe_bounds: bool = False,
) -> CounterexampleReport | None:
    """Check f on every valuation of the frame; None means frame-valid.

    On failure returns the canonically first counterexample.  Values are
    computed for all valuations at once: each (world, variable) slot is one
    array axis, and the value of a subformula at a world spans only the axes
    it actually depends on, so the arrays stay small on sparse frames.
    """
    plan = _plan_for(matrix, f, var_domain)
    n, scale = plan.n, plan.scale
    n_worlds = len(frame.worlds)
    _guard_valuation_space(n, n_worlds, len(plan.names), unsafe_bounds)

    slots, var_arrays, top_arr, strides = plan.layout(n_worlds)
    nodes = plan.nodes
    meet_flat, join_flat = plan.meet_flat, plan.join_flat
    neg_arr, imp_flat = plan.neg_arr, plan.imp_flat
    local = mode is BoxMode.LOCAL
    successors = [frame.successors(w) for w in range(n_worlds)]
    n_nodes = len(nodes)
    cache: list[np.ndarray | None] = [None] * (n_worlds * n_nodes)

    def val(w: int, i: int) -> np.ndarray:
        key = w * n_nodes + i
        out = cache[key]
        if out is not None:
            return out
        kind, a, b = nodes[i]
        if kind == _VAR:
            out = var_arrays[(w, a)]
        elif kind == _NOT:
            if neg_arr is None:
                raise MissingOperation("neg")
            out = neg_arr[val(w, a)]
        elif kind == _AND:
            out = meet_flat.take(val(w, a) * scale + val(w, b))
        elif kind == _OR:
            out = join_flat.take(val(w, a) * scale + val(w, b))
        elif kind == _IMP:
            if imp_flat is None:
                raise MissingOperation("imp")
            out = imp_flat.take(val(w, a) * scale + val(w, b))
        elif local:
            out = val(w, a)
        else:
            out = top_arr
            for w2 in successors[w]:
                out = meet_flat.take(out * scale + val(w2, a))
        cache[key] = out
        return out

    root = n_nodes - 1
    best: tuple[int, int] | None = None
    for w in range(n_worlds):
        fails = ~plan.designated[val(w, root)]
        if not fails.any():
            continue
        first = int(np.argmax(fails.ravel()))
        digits = np.unravel_index(first, fails.shape)
        flat_full = sum(int(d) * strides[k] for k, d in enumerate(digits))
        if best is None or flat_full < best[0]:
            best = (flat_full, w)
    if best is None:
        return None

    flat_full, _ = best
    assignment = {}
    for k, slot in enumerate(slots):
        assignment[slot] = (flat_full // strides[k]) % n
    model = KripkeModel(frame, matrix.lattice, assignment)
    for w in range(n_worlds):
        value = evaluate(model, w, f, mode)
        if value not in matrix.designated:
            return CounterexampleReport(matrix, model, f, w, value, mode)
    raise AssertionError("vectorized scan found a failure the evaluator cannot reproduce")
