"""Finite lattices, designated-value sets, and their property checks.

Elements are indices 0..n-1 into an ordered name list; every operation is a
table lookup or an exhaustive quantification in element-index order, so all
results are deterministic.  Conventions fixed here and relied on everywhere
else:

* the meet of the empty set is the top element,
* the elementwise join-set X + Y is empty whenever either side is empty,
* down-distribution is checked over non-empty subsets only (the empty case
  is already fixed by the empty-meet convention).

Complementation carries no assumed laws; anti-monotonicity and involutivity
are checked, never presumed.

Everything here is scalar except ``entails`` and ``Matrix.designated_mask``,
which import numpy when they run, so the builders and property checks never
load it.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from .errors import (
    BoundTooLarge,
    InvalidInput,
    MissingOperation,
    ModalFormulaRejected,
    NotALattice,
    NotAPoset,
)
from .formula import AND, IMP, NOT, OR, Formula, compile_formula, interpret, is_modal_free, variables
from .record import Record

TYPE_CHECKING = False  # typing.TYPE_CHECKING, without importing typing
if TYPE_CHECKING:
    import numpy as np

MATERIAL = "material"
DEDUCTIVE_EQ1 = "deductive_eq1"
CUSTOM = "custom"

_EXHAUSTIVE_DOWN_DIST_MAX = 10
_ENTAILS_GUARD = 1 << 24


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

    def le(self, a: int, b: int) -> bool:
        return self.leq[a][b]

    def comparable(self, a: int, b: int) -> bool:
        return self.leq[a][b] or self.leq[b][a]

    def meet(self, a: int, b: int) -> int:
        return self.meet_table[a][b]

    def join(self, a: int, b: int) -> int:
        return self.join_table[a][b]

    def negate(self, a: int) -> int:
        return self.operation(NOT)[a]

    def implies(self, a: int, b: int) -> int:
        return self.operation(IMP)[a][b]

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
        """Hasse edges (i, j): i < j with nothing strictly between."""
        n = self.n
        covers = []
        for i in range(n):
            for j in range(n):
                if i == j or not self.leq[i][j]:
                    continue
                if any(k != i and k != j and self.leq[i][k] and self.leq[k][j] for k in range(n)):
                    continue
                covers.append((i, j))
        return covers

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


def _tables_from_leq(leq, names):
    """Meet/join tables from a closed order, or NotALattice with a witness.

    Pairs are scanned in index order, so the reported witness is canonical.
    """
    n = len(leq)
    meet = [[0] * n for _ in range(n)]
    join = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            lower = [k for k in range(n) if leq[k][i] and leq[k][j]]
            glb = next((m for m in lower if all(leq[k][m] for k in lower)), None)
            if glb is None:
                raise NotALattice((names[i], names[j]), "meet")
            upper = [k for k in range(n) if leq[i][k] and leq[j][k]]
            lub = next((m for m in upper if all(leq[m][k] for k in upper)), None)
            if lub is None:
                raise NotALattice((names[i], names[j]), "join")
            meet[i][j] = meet[j][i] = glb
            join[i][j] = join[j][i] = lub
    top = 0
    bottom = 0
    for i in range(n):
        top = join[top][i]
        bottom = meet[bottom][i]
    return (
        tuple(tuple(row) for row in meet),
        tuple(tuple(row) for row in join),
        top,
        bottom,
    )


def _close(rows: list[list[bool]]) -> None:
    """Reflexive-transitive closure in place (Warshall)."""
    n = len(rows)
    for i in range(n):
        rows[i][i] = True
    for k in range(n):
        rk = rows[k]
        for i in range(n):
            if rows[i][k]:
                ri = rows[i]
                for j in range(n):
                    if rk[j]:
                        ri[j] = True


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
    if len(set(names)) != len(names):
        raise InvalidInput("element names must be distinct")
    if not names:
        raise InvalidInput("a lattice needs at least one element")
    index = {x: i for i, x in enumerate(names)}
    n = len(names)
    rows = [[False] * n for _ in range(n)]
    for a, b in pairs:
        if a not in index or b not in index:
            raise InvalidInput(f"order pair ({a!r}, {b!r}) references an unknown element")
        rows[index[a]][index[b]] = True
    _close(rows)
    for i in range(n):
        for j in range(i + 1, n):
            if rows[i][j] and rows[j][i]:
                raise NotAPoset((names[i], names[j]))
    leq = tuple(tuple(row) for row in rows)
    meet, join, top, bottom = _tables_from_leq(leq, names)
    return Lattice(names, leq, meet, join, top, bottom, name=name)


def from_leq(
    elements: Sequence[str],
    leq_rows: Sequence[Sequence[bool]],
    *,
    neg: Sequence[int] | None = None,
    imp: ImplicationTable | None = None,
    name: str = "",
) -> Lattice:
    """Build a lattice from an already reflexive-transitive boolean matrix."""
    names = tuple(elements)
    n = len(names)
    leq = tuple(tuple(bool(v) for v in row) for row in leq_rows)
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
    meet, join, top, bottom = _tables_from_leq(leq, names)
    lat = Lattice(names, leq, meet, join, top, bottom, name=name)
    if neg is not None:
        lat = lat.with_neg(neg)
    if imp is not None:
        lat = lat.with_imp(imp)
    return lat


def apply_op(lattice: Lattice, operator: str, args: Sequence[int]) -> int:
    """Apply a named operation (meet, join, neg, imp) by table lookup."""
    if operator == "meet":
        (a, b) = args
        return lattice.meet(a, b)
    if operator == "join":
        (a, b) = args
        return lattice.join(a, b)
    if operator == "neg":
        (a,) = args
        return lattice.negate(a)
    if operator == "imp":
        (a, b) = args
        return lattice.implies(a, b)
    raise InvalidInput(f"unknown operator {operator!r}")


def big_meet(lattice: Lattice, subset: Iterable[int]) -> int:
    """Greatest lower bound of a subset; the empty meet is the top element."""
    result = lattice.top
    for x in subset:
        result = lattice.meet_table[result][x]
    return result


def subset_join(lattice: Lattice, xs: Iterable[int], ys: Iterable[int]) -> frozenset[int]:
    """Elementwise join-set {x + y | x in xs, y in ys}; empty if either is."""
    ys = list(ys)
    return frozenset(lattice.join_table[x][y] for x in xs for y in ys)


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

    def designated_mask(self) -> np.ndarray:
        """Whether each element, by index, is designated."""
        import numpy as np

        mask = np.zeros(self.lattice.n, dtype=bool)
        mask[sorted(self.designated)] = True
        return mask

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
    n = lat.n

    upward_witness = None
    for a in sorted(d):
        for b in range(n):
            if lat.leq[a][b] and b not in d:
                upward_witness = (a, b)
                break
        if upward_witness:
            break

    filter_witness = None
    for a in sorted(d):
        for b in sorted(d):
            if lat.meet_table[a][b] not in d:
                filter_witness = (a, b)
                break
        if filter_witness:
            break
    is_filter = upward_witness is None and filter_witness is None

    if lat.imp is None:
        is_implicative = None
        implicative_witness = None
    else:
        implicative_witness = None
        for a in range(n):
            for b in range(n):
                if lat.leq[a][b] and lat.imp.table[a][b] not in d:
                    implicative_witness = (a, b)
                    break
            if implicative_witness:
                break
        is_implicative = implicative_witness is None

    linear_witness = None
    for x in range(n):
        if x in d:
            continue
        for y in range(n):
            if not lat.comparable(x, y):
                linear_witness = (x, y)
                break
        if linear_witness:
            break

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


def check_lattice_properties(
    lattice: Lattice, *, down_distribution_mode: str = "fast"
) -> LatticeProperties:
    """Check anti-monotonicity, involutivity and down-distribution.

    Negation-dependent flags are None when no neg table is present.
    Down-distribution modes: "fast" checks the binary law
    a + (b.c) = (a+b).(a+c) over all triples (which extends to finite
    subsets by induction); "exhaustive" scans all non-empty subset pairs and
    serves as the test oracle for the fast mode.  Witnesses are reported as
    a pair of subsets in both modes.
    """
    n = lattice.n

    if lattice.neg is None:
        anti = None
        anti_witness = None
        invol = None
        invol_witness = None
    else:
        neg = lattice.neg
        anti_witness = None
        for a in range(n):
            for b in range(n):
                if lattice.leq[a][b] and not lattice.leq[neg[b]][neg[a]]:
                    anti_witness = (a, b)
                    break
            if anti_witness:
                break
        anti = anti_witness is None
        invol_witness = next((a for a in range(n) if neg[neg[a]] != a), None)
        invol = invol_witness is None

    if down_distribution_mode == "fast":
        dd_witness = None
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    lhs = lattice.join_table[a][lattice.meet_table[b][c]]
                    rhs = lattice.meet_table[lattice.join_table[a][b]][lattice.join_table[a][c]]
                    if lhs != rhs:
                        dd_witness = (frozenset((a,)), frozenset((b, c)))
                        break
                if dd_witness:
                    break
            if dd_witness:
                break
    elif down_distribution_mode == "exhaustive":
        if n > _EXHAUSTIVE_DOWN_DIST_MAX:
            raise BoundTooLarge(
                f"exhaustive down-distribution is guarded to n <= {_EXHAUSTIVE_DOWN_DIST_MAX}"
            )
        dd_witness = _down_distribution_exhaustive(lattice)
    else:
        raise InvalidInput(f"unknown down-distribution mode {down_distribution_mode!r}")

    return LatticeProperties(
        anti_monotone=anti,
        anti_monotone_witness=anti_witness,
        involutive=invol,
        involutive_witness=invol_witness,
        down_distribution=dd_witness is None,
        down_distribution_witness=dd_witness,
    )


def _down_distribution_exhaustive(lattice: Lattice):
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

    deductive_witness = None
    for a in range(n):
        for b in range(n):
            t = table[a][b]
            if lat.leq[a][b]:
                if not (lat.leq[b][t] and t in d):
                    deductive_witness = (a, b)
                    break
            elif t != b:
                deductive_witness = (a, b)
                break
        if deductive_witness:
            break

    strict_witness = deductive_witness
    if strict_witness is None:
        for a in range(n):
            for b in range(n):
                if lat.leq[a][b] and table[a][b] != lat.top:
                    strict_witness = (a, b)
                    break
            if strict_witness:
                break

    return ImplicationClassification(
        deductive=deductive_witness is None,
        deductive_witness=deductive_witness,
        strictly_deductive=strict_witness is None,
        strict_witness=strict_witness,
    )


# ---------------------------------------------------------------------------
# Propositional consequence


def propositional_value(lattice: Lattice, assignment: dict[str, int], f: Formula) -> int:
    """Value of a box-free formula under a single valuation of variables:
    the scalar semantics on one world with no successors."""
    if not is_modal_free(f):
        raise ModalFormulaRejected("box operators have no propositional value")

    def unbound(_world: int, name: str) -> InvalidInput:
        return InvalidInput(f"no value assigned to variable {name!r}")

    valuation = {(0, name): value for name, value in assignment.items()}
    return interpret(compile_formula(f), 0, valuation, unbound, None, lattice)


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

    Quantifies over every valuation of the variables occurring in the
    premises and the conclusion, all at once on numpy arrays, and returns
    the first valuation (sorted variable order, element-index order, last
    variable fastest) that designates every premise but not the conclusion,
    if any.  Box operators are rejected.
    """
    premises = list(premises)
    for f in [*premises, conclusion]:
        if not is_modal_free(f):
            raise ModalFormulaRejected("entailment is defined for box-free formulas only")
    names = sorted(set().union(*(variables(f) for f in [*premises, conclusion])))
    lat = matrix.lattice
    if not unsafe_bounds and lat.n ** max(len(names), 1) > _ENTAILS_GUARD:
        raise BoundTooLarge(
            f"{lat.n}^{len(names)} valuations exceed the guard; "
            "pass unsafe_bounds=True to override"
        )
    import numpy as np

    from .kripke import _Plan  # kripke builds on this module

    # one array axis per variable; like a scan that stops at the first
    # undesignated premise, a formula is evaluated only if a valuation reaches it
    plans = [_Plan(lat, f) for f in [*premises, conclusion]]
    grid = np.indices((lat.n,) * len(names), dtype=plans[0].dtype, sparse=True)
    var_values = dict(zip(names, grid))
    designated = matrix.designated_mask()
    fails = np.ones((1,) * len(names), dtype=bool)
    for plan in plans:
        if fails.any():
            values = plan.node_values(lambda name, w: var_values[name], None)
            holds = designated[values[len(plan.nodes) - 1, 0]]
            fails = fails & (~holds if plan is plans[-1] else holds)
    if fails.any():
        fails = np.broadcast_to(fails, (lat.n,) * len(names))
        combo = np.unravel_index(int(np.argmax(fails.ravel())), fails.shape)
        return EntailmentResult(False, {x: int(v) for x, v in zip(names, combo)})
    return EntailmentResult(True, None)

