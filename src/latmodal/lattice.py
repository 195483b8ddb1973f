"""Finite lattices, designated-value sets, and their property checks.

Elements are indices 0..n-1 into an ordered name list; every operation is a
table lookup or an exhaustive quantification in element-index order, so all
results are deterministic.  Conventions fixed here and relied on everywhere
else:

* the meet of the empty set is the top element,
* the elementwise join-set X + Y is empty whenever either side is empty,
* down-distribution is the binary law over all triples, which extends to
  all non-empty finite subsets by induction (the empty case is already
  fixed by the empty-meet convention).

Complementation carries no assumed laws; anti-monotonicity and involutivity
are checked, never presumed.

Every lattice is built by ``_from_down_sets`` from each element's down-set,
a bitmask with bit i set for each i below it: ``validate_lattice`` closes
its pairs' masks, ``from_leq`` checks its rows', and the enumeration passes
its labeled posets'.  The meet of i and j is the element whose down-set is
the intersection of theirs, where one is, and the join likewise with
up-sets.  Pairs are scanned in index order, so a reported witness is
canonical.  Hasse edges, upsets and the search's closure read the masks too.

Nothing here loads numpy: ``entails`` sweeps its valuations on the list
walk of ``kripke._Plan``, a block of them at a time.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence

from .errors import (
    BoundTooLarge,
    InvalidInput,
    MissingOperation,
    ModalFormulaRejected,
    NotALattice,
    NotAPoset,
)
from .formula import AND, IMP, NOT, OR, Formula, is_modal_free, variables
from .record import Record

MATERIAL = "material"
DEDUCTIVE_EQ1 = "deductive_eq1"
CUSTOM = "custom"

# the most elements a lattice from outside input may have: twist:4's 256 is
# the largest the program builds itself, and checking a lattice grows about
# as n^3 (``lattice check`` of a 256-element chain takes about 1 s on a
# 2-vCPU VM)
MAX_ELEMENTS = 256
# the most valuations one block of ``entails`` holds: each node's values are
# a list that long.  A 24-variable query over 2^24 valuations peaked at 16,
# 21 and 39 MB with blocks of 2^12, 2^14 and 2^16, in 40-49 s each (2-vCPU
# VM, Python 3.11); numpy on the whole space took 280 MB
_ENTAILS_BLOCK = 1 << 14


class ImplicationTable(Record):
    """Total binary table for the implication connective.

    The mode tag is advisory; classification always recomputes properties
    from the table itself.
    """

    table: tuple[tuple[int, ...], ...]
    mode: str = CUSTOM


class Lattice(Record):
    elements: tuple[str, ...]
    leq: tuple[tuple[bool, ...], ...]
    meet_table: tuple[tuple[int, ...], ...]
    join_table: tuple[tuple[int, ...], ...]
    top: int
    bottom: int
    neg: tuple[int, ...] | None = None
    imp: ImplicationTable | None = None
    name: str = ""

    @property
    def n(self) -> int:
        return len(self.elements)

    def index(self, name: str) -> int:
        try:
            return self.elements.index(name)
        except ValueError:
            raise InvalidInput(f"unknown element name {name!r}") from None

    def operation(self, kind: int) -> tuple:
        """The table of a connective kind of ``formula``: the negation table
        for NOT, the binary table for AND, OR and IMP.  Every evaluator reads
        its tables here, so a lattice without negation or implication raises
        ``MissingOperation`` alike everywhere."""
        if kind == AND:
            return self.meet_table
        if kind == OR:
            return self.join_table
        if kind == NOT:
            if self.neg is None:
                raise MissingOperation("neg")
            return self.neg
        if self.imp is None:
            raise MissingOperation("imp")
        return self.imp.table

    def with_neg(self, table: Sequence[int]) -> "Lattice":
        neg = tuple(int(x) for x in table)
        _check_unary_table(neg, self.n)
        return self._replace(neg=neg)

    def with_imp(self, imp: ImplicationTable) -> "Lattice":
        _check_binary_table(imp.table, self.n)
        return self._replace(imp=imp)

    def cover_pairs(self) -> list[tuple[int, int]]:
        """Hasse edges (i, j): i < j with nothing strictly between, that is
        with the interval from i to j just {i, j}."""
        n, down, up = self.n, _down_sets(self.leq), _up_sets(self.leq)
        return [
            (i, j) for i in range(n) for j in range(n)
            if i != j and down[j] & up[i] == 1 << i | 1 << j
        ]

    def to_dict(self) -> dict:
        d: dict = {
            "name": self.name,
            "elements": list(self.elements),
            "leq": [[self.elements[i], self.elements[j]] for i, j in self.cover_pairs()],
        }
        if self.neg is not None:
            d["neg"] = {self.elements[i]: self.elements[v] for i, v in enumerate(self.neg)}
        if self.imp is not None:
            if self.imp.mode in (MATERIAL, DEDUCTIVE_EQ1):
                d["imp"] = {"mode": self.imp.mode}
            else:
                d["imp"] = {
                    "mode": "table",
                    "table": {
                        self.elements[a]: {
                            self.elements[b]: self.elements[self.imp.table[a][b]]
                            for b in range(self.n)
                        }
                        for a in range(self.n)
                    },
                }
        return d


def _check_unary_table(table: tuple[int, ...], n: int) -> None:
    if len(table) != n or any(not (0 <= v < n) for v in table):
        raise InvalidInput("unary table must map every element to an element")


def _check_binary_table(table: tuple[tuple[int, ...], ...], n: int) -> None:
    if len(table) != n or any(
        len(row) != n or any(not (0 <= v < n) for v in row) for row in table
    ):
        raise InvalidInput("binary table must be total over the carrier")


def _down_sets(leq) -> list[int]:
    """Each element's down-set as a bitmask: bit i of mask j is set when
    i <= j."""
    return [sum(1 << i for i, row in enumerate(leq) if row[j]) for j in range(len(leq))]


def _up_sets(leq) -> list[int]:
    """Each element's up-set as a bitmask: bit j of mask i is set when
    i <= j."""
    return [sum(1 << j for j, v in enumerate(row) if v) for row in leq]


def _from_down_sets(names, down, *, name="", neg=None, imp=None) -> Lattice:
    """The lattice of a reflexive, transitive order given by its down-sets,
    an iterable read only once the names are checked.  NotAPoset names the
    first pair i < j related both ways, NotALattice the first pair without
    a meet or a join."""
    names = tuple(names)
    if len(set(names)) != len(names):
        raise InvalidInput("element names must be distinct")
    if not names:
        raise InvalidInput("a lattice needs at least one element")
    down = list(down)
    n = len(names)
    leq = tuple(tuple(bool(down[j] >> i & 1) for j in range(n)) for i in range(n))
    up = _up_sets(leq)
    for i in range(n):
        cycle = down[i] & up[i] & -(2 << i)  # the j > i both below and above i
        if cycle:
            raise NotAPoset((names[i], names[(cycle & -cycle).bit_length() - 1]))
    by_down = {mask: i for i, mask in enumerate(down)}
    by_up = {mask: i for i, mask in enumerate(up)}
    meet = [[0] * n for _ in range(n)]
    join = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            glb = by_down.get(down[i] & down[j])
            if glb is None:
                raise NotALattice((names[i], names[j]), "meet")
            lub = by_up.get(up[i] & up[j])
            if lub is None:
                raise NotALattice((names[i], names[j]), "join")
            meet[i][j] = meet[j][i] = glb
            join[i][j] = join[j][i] = lub
    full = (1 << n) - 1  # the down-set of the top, the up-set of the bottom
    meet, join = tuple(map(tuple, meet)), tuple(map(tuple, join))
    lat = Lattice(names, leq, meet, join, by_down[full], by_up[full], name=name)
    if neg is not None:
        lat = lat.with_neg(neg)
    if imp is not None:
        lat = lat.with_imp(imp)
    return lat


def validate_lattice(
    elements: Sequence[str],
    pairs: Iterable[tuple[str, str]],
    *,
    name: str = "",
) -> Lattice:
    """Build a lattice from element names and order pairs.

    Pairs may be Hasse edges or any relation; the reflexive-transitive
    closure is computed before validation.  Raises NotAPoset when
    antisymmetry fails after closure and NotALattice when some pair lacks a
    unique meet or join, naming the first offending pair.
    """
    names = tuple(elements)

    def closed_down_sets() -> Iterator[int]:
        # a generator, so that the pairs are read after the names are checked
        index = {x: i for i, x in enumerate(names)}
        down = [1 << i for i in range(len(names))]
        for a, b in pairs:
            if a not in index or b not in index:
                raise InvalidInput(f"order pair ({a!r}, {b!r}) references an unknown element")
            down[index[b]] |= 1 << index[a]
        for k, below_k in enumerate(down):  # Warshall: what is below k is below all above k
            for j, mask in enumerate(down):
                if mask >> k & 1:
                    down[j] = mask | below_k
        yield from down

    return _from_down_sets(names, closed_down_sets(), name=name)


def from_leq(
    elements: Sequence[str],
    leq_rows: Sequence[Sequence[bool]],
    *,
    neg: Sequence[int] | None = None,
    imp: ImplicationTable | None = None,
    name: str = "",
) -> Lattice:
    """Build a lattice from an already reflexive-transitive boolean matrix.

    The rows are checked in order, each for reflexivity, then at each j
    above it for antisymmetry and transitivity, so the first defect is
    the one reported."""
    names = tuple(elements)
    n = len(names)
    leq = [[bool(v) for v in row] for row in leq_rows]
    if len(leq) != n or any(len(row) != n for row in leq):
        raise InvalidInput("leq matrix must be n x n")
    up = _up_sets(leq)
    for i, above in enumerate(up):
        if not above >> i & 1:
            raise InvalidInput("leq matrix must be reflexive")
        for j in range(n):
            if above >> j & 1:
                if j != i and up[j] >> i & 1:
                    raise NotAPoset((names[i], names[j]))
                if up[j] & ~above:
                    raise InvalidInput("leq matrix must be transitive")
    return _from_down_sets(names, _down_sets(leq), neg=neg, imp=imp, name=name)


def big_meet(lattice: Lattice, subset: Iterable[int]) -> int:
    """Greatest lower bound of a subset; the empty meet is the top element."""
    result = lattice.top
    for x in subset:
        result = lattice.meet_table[result][x]
    return result


# ---------------------------------------------------------------------------
# Matrices and property checks


class Matrix(Record):
    """A lattice paired with a set of designated values."""

    lattice: Lattice
    designated: frozenset[int]

    def __init__(self, lattice: Lattice, designated: Iterable[int]):
        designated = frozenset(designated)
        for e in designated:
            if not (0 <= e < lattice.n):
                raise InvalidInput(f"designated element index {e} out of range")
        object.__setattr__(self, "lattice", lattice)
        object.__setattr__(self, "designated", designated)

    def designated_names(self) -> list[str]:
        return [self.lattice.elements[i] for i in sorted(self.designated)]

    def to_dict(self) -> dict:
        d = self.lattice.to_dict()
        d["designated"] = self.designated_names()
        return d


def matrix_from_names(lattice: Lattice, names: Iterable[str]) -> Matrix:
    return Matrix(lattice, frozenset(lattice.index(x) for x in names))


class DesignatedProperties(Record):
    upward_closed: bool
    upward_witness: tuple[int, int] | None
    is_filter: bool
    filter_witness: tuple[int, int] | None
    is_implicative: bool | None
    implicative_witness: tuple[int, int] | None
    linear_outside: bool
    linear_witness: tuple[int, int] | None


def check_designated(matrix: Matrix) -> DesignatedProperties:
    """Exhaustively check upward closure, filter, implicative and
    linear-outside properties of the designated set.

    Each failing flag carries the first witnessing pair in index order.  The
    implicative flag is None when the lattice has no implication table.
    """
    lat = matrix.lattice
    d = matrix.designated
    n, leq, meet = lat.n, lat.leq, lat.meet_table
    members = sorted(d)

    upward_witness = next(
        ((a, b) for a in members for b, le in enumerate(leq[a]) if le and b not in d), None
    )
    filter_witness = next(((a, b) for a in members for b in members if meet[a][b] not in d), None)
    is_filter = upward_witness is None and filter_witness is None

    if lat.imp is None:
        is_implicative = implicative_witness = None
    else:
        table = lat.imp.table
        implicative_witness = next(
            ((a, b) for a in range(n) for b in range(n) if leq[a][b] and table[a][b] not in d),
            None,
        )
        is_implicative = implicative_witness is None

    linear_witness = next(
        ((x, y) for x in range(n) if x not in d for y in range(n) if not (leq[x][y] or leq[y][x])),
        None,
    )

    return DesignatedProperties(  # each property's flag, then its witness
        upward_witness is None, upward_witness,
        is_filter, filter_witness,
        is_implicative, implicative_witness,
        linear_witness is None, linear_witness,
    )


class LatticeProperties(Record):
    anti_monotone: bool | None
    anti_monotone_witness: tuple[int, int] | None
    involutive: bool | None
    involutive_witness: int | None
    down_distribution: bool
    down_distribution_witness: tuple[frozenset[int], frozenset[int]] | None


def check_lattice_properties(lattice: Lattice) -> LatticeProperties:
    """Check anti-monotonicity, involutivity and down-distribution.

    Negation-dependent flags are None when no neg table is present.
    Down-distribution is the binary law a + (b.c) = (a+b).(a+c) over all
    triples, which extends to finite subsets by induction; its witness is
    the first failing triple, as the pair of subsets ({a}, {b, c}).
    """
    n = lattice.n

    if lattice.neg is None:
        anti = anti_witness = invol = invol_witness = None
    else:
        neg, leq = lattice.neg, lattice.leq
        anti_witness = next(
            ((a, b) for a in range(n) for b in range(n) if leq[a][b] and not leq[neg[b]][neg[a]]),
            None,
        )
        anti = anti_witness is None
        invol_witness = next((a for a in range(n) if neg[neg[a]] != a), None)
        invol = invol_witness is None

    join, meet = lattice.join_table, lattice.meet_table
    dd_witness = next(
        (
            (frozenset((a,)), frozenset((b, c)))
            for a, join_a in enumerate(join)
            for b, meet_b in enumerate(meet)
            for c in range(n)
            if join_a[meet_b[c]] != meet[join_a[b]][join_a[c]]
        ),
        None,
    )

    return LatticeProperties(
        anti_monotone=anti,
        anti_monotone_witness=anti_witness,
        involutive=invol,
        involutive_witness=invol_witness,
        down_distribution=dd_witness is None,
        down_distribution_witness=dd_witness,
    )


# ---------------------------------------------------------------------------
# Implications


def build_implication(lattice: Lattice, mode: str) -> ImplicationTable:
    """Build the material (-a + b) or the top-if-below (1 / consequent)
    implication table."""
    n = lattice.n
    if mode == MATERIAL:
        neg = lattice.operation(NOT)
        table = tuple(tuple(lattice.join_table[neg[a]][b] for b in range(n)) for a in range(n))
        return ImplicationTable(table, MATERIAL)
    if mode == DEDUCTIVE_EQ1:
        table = tuple(
            tuple(lattice.top if lattice.leq[a][b] else b for b in range(n)) for a in range(n)
        )
        return ImplicationTable(table, DEDUCTIVE_EQ1)
    raise InvalidInput(f"unknown implication mode {mode!r}")


class ImplicationClassification(Record):
    deductive: bool
    deductive_witness: tuple[int, int] | None
    strictly_deductive: bool
    strict_witness: tuple[int, int] | None


def classify_implication(matrix: Matrix) -> ImplicationClassification:
    """Recompute the deductive / strictly deductive flags from the table.

    Deductive: a <= b implies b <= (a imp b) in D, and a not<= b implies
    (a imp b) = b.  Strictly deductive additionally pins a <= b to the top.
    """
    lat = matrix.lattice
    table = lat.operation(IMP)
    n = lat.n
    d = matrix.designated

    leq = lat.leq
    deductive_witness = next(
        (
            (a, b)
            for a in range(n)
            for b, t in enumerate(table[a])
            if (not (leq[b][t] and t in d) if leq[a][b] else t != b)
        ),
        None,
    )
    strict_witness = deductive_witness or next(
        ((a, b) for a in range(n) for b in range(n) if leq[a][b] and table[a][b] != lat.top), None
    )

    return ImplicationClassification(
        deductive=deductive_witness is None,
        deductive_witness=deductive_witness,
        strictly_deductive=strict_witness is None,
        strict_witness=strict_witness,
    )


# ---------------------------------------------------------------------------
# Propositional consequence


class EntailmentResult(Record):
    holds: bool
    witness: dict[str, int] | None


def entails(
    matrix: Matrix,
    premises: Iterable[Formula],
    conclusion: Formula,
    *,
    unsafe_bounds: bool = False,
) -> EntailmentResult:
    """Decide the consequence relation of the matrix by brute force.

    Sweeps every valuation of the variables occurring in the premises and
    the conclusion in flat order (sorted variables, element-index order,
    last variable fastest), a block of n^k at a time, k the most variables
    whose valuations fit in ``_ENTAILS_BLOCK``, and returns the first one
    that designates every premise but not the conclusion, if any.  In each
    block every formula in turn runs the plan's list walk at the
    valuations that designate every premise before it, so a missing
    connective raises exactly where a valuation reaches it.  Box operators
    are rejected.
    """
    from .kripke import MAX_VALUATION_SPACE, _Plan  # kripke builds on this module

    premises = list(premises)
    for f in [*premises, conclusion]:
        if not is_modal_free(f):
            raise ModalFormulaRejected("entailment is defined for box-free formulas only")
    names = sorted(set().union(*(variables(f) for f in [*premises, conclusion])))
    lat = matrix.lattice
    if not unsafe_bounds and lat.n ** max(len(names), 1) > MAX_VALUATION_SPACE:
        raise BoundTooLarge(
            f"{lat.n}^{len(names)} valuations exceed the guard; "
            "pass unsafe_bounds=True to override"
        )
    plans = [_Plan(lat, f) for f in [*premises, conclusion]]
    n, total, k = lat.n, lat.n ** len(names), len(names)
    strides = {x: n ** (len(names) - 1 - j) for j, x in enumerate(names)}
    while n**k > _ENTAILS_BLOCK:
        k -= 1
    # a block is n^k valuations: in every block its last k variables take the
    # same columns, and each variable before them one value
    inner = {x: [j // strides[x] % n for j in range(n**k)] for x in names[len(names) - k :]}

    def var_value(name: str, _w: int) -> list[int]:
        column = inner.get(name)
        if column is None:
            return [start // strides[name] % n] * len(alive)
        return column if len(alive) == len(column) else [column[j] for j in alive]

    for start in range(0, total, n**k):
        alive = range(n**k)  # the block's offsets not yet ruled out
        for plan in plans:
            if not alive:
                break
            roots = plan.node_values(var_value, None, plan.list_connective)[len(plan.nodes) - 1, 0]
            last = plan is plans[-1]  # a premise must be designated, the conclusion not
            alive = [j for j, v in zip(alive, roots) if (v in matrix.designated) != last]
        if alive:
            return EntailmentResult(False, {x: (start + alive[0]) // strides[x] % n for x in names})
    return EntailmentResult(True, None)
