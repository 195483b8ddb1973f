"""Built-in lattices and the twist-algebra construction.

The twist of a Boolean algebra B is the pair algebra on B x B with

    (a, b) + (c, d) = (a + c, b . d)
    (a, b) . (c, d) = (a . c, b + d)
    -(a, b)         = (b, a)

optionally restricted to the sub-carrier P of pairs whose coordinates join
to the top.  The order is derived from the meet table (x <= y iff x.y = x);
construction asserts that it coincides with the first-coordinate-up,
second-coordinate-down product order.
"""

from __future__ import annotations

from .errors import BoundTooLarge, InvalidInput, NotBoolean
from .lattice import (
    MATERIAL,
    ImplicationTable,
    Lattice,
    Matrix,
    build_implication,
    from_leq,
    validate_lattice,
)

_ATOM_LETTERS = "abcd"


def boolean_algebra(atoms: int) -> Lattice:
    """Powerset lattice of k atoms with set complement as negation."""
    if not (1 <= atoms <= 4):
        raise BoundTooLarge("boolean_algebra supports 1 to 4 atoms")
    full = (1 << atoms) - 1

    def label(mask: int) -> str:
        if mask == 0:
            return "0"
        if mask == full:
            return "1"
        return "".join(_ATOM_LETTERS[i] for i in range(atoms) if mask >> i & 1)

    masks = sorted(range(1 << atoms), key=lambda m: (bin(m).count("1"), m))
    names = [label(m) for m in masks]
    position = {m: i for i, m in enumerate(masks)}
    leq = [[(masks[i] & masks[j]) == masks[i] for j in range(len(masks))] for i in range(len(masks))]
    neg = [position[full ^ m] for m in masks]
    return from_leq(names, leq, neg=neg, name=f"B{1 << atoms}")


def chain(n: int, neg: str = "flip") -> Lattice:
    """Linear order 0 < ... < 1; "flip" negation maps i to n-1-i."""
    if n < 2:
        raise InvalidInput("chain needs at least 2 elements")
    if n == 2:
        names = ["0", "1"]
    elif n == 3:
        names = ["0", "h", "1"]
    else:
        names = ["0", *[f"h{i}" for i in range(1, n - 1)], "1"]
    leq = [[i <= j for j in range(n)] for i in range(n)]
    if neg == "flip":
        return from_leq(names, leq, neg=[n - 1 - i for i in range(n)], name=f"C{n}")
    if neg == "none":
        return from_leq(names, leq, name=f"C{n}")
    raise InvalidInput(f"unknown chain negation {neg!r}")


def belnap_four() -> Lattice:
    """Truth-order four-element lattice F < N,B < T; negation swaps T and F
    and fixes N and B."""
    lat = validate_lattice(
        ["F", "N", "B", "T"],
        [("F", "N"), ("F", "B"), ("N", "T"), ("B", "T")],
        name="FOUR",
    )
    return lat.with_neg([3, 1, 2, 0])


def antichain_k5() -> Matrix:
    """Five-element lattice 0 < a,b,f < 1 (middles pairwise incomparable)
    with designated {f, 1} and a merely-implicative custom implication.

    The table sends every comparable pair except (a, a) to the top and
    everything else, including (a, b), to f.  Its range is inside the
    designated set, so every implication-rooted formula, the box-K schema
    in particular, is valid on every frame, while the lattice is not linear
    outside {f, 1} and the implication is neither deductive nor strictly
    deductive.  (Strictly deductive fallbacks such as "incomparable pairs
    map to the consequent" break the K validity: successors with values
    p=b,q=b and p=b,q=f would drive box-K to 0.)
    """
    lat = validate_lattice(
        ["0", "a", "b", "f", "1"],
        [("0", "a"), ("0", "b"), ("0", "f"), ("a", "1"), ("b", "1"), ("f", "1")],
        name="K5",
    )
    a, f_, top = lat.index("a"), lat.index("f"), lat.top
    table = tuple(
        tuple(
            f_ if (x, y) == (a, a) or not lat.leq[x][y] else top
            for y in range(lat.n)
        )
        for x in range(lat.n)
    )
    lat = lat.with_imp(ImplicationTable(table, "custom"))
    return Matrix(lat, frozenset((f_, top)))


def _check_boolean(base: Lattice) -> None:
    if base.neg is None:
        raise NotBoolean("the base lattice has no complementation")
    n = base.n
    for x in range(n):
        if base.join_table[x][base.neg[x]] != base.top or base.meet_table[x][base.neg[x]] != base.bottom:
            raise NotBoolean(f"element {base.elements[x]!r} is not complemented by neg")
    for x in range(n):
        for y in range(n):
            for z in range(n):
                if base.join_table[x][base.meet_table[y][z]] != base.meet_table[base.join_table[x][y]][base.join_table[x][z]]:
                    raise NotBoolean("the base lattice is not distributive")


def twist(base: Lattice, restrict_p: bool = False) -> Matrix:
    """Twist algebra of a Boolean base, with material implication attached
    and the first-coordinate-top pairs designated.

    With restrict_p the carrier is cut down to pairs whose coordinates join
    to the top; closure of the restriction under the three operations is
    checked exhaustively.
    """
    _check_boolean(base)
    nb = base.n
    pairs = [
        (i, j)
        for i in range(nb)
        for j in range(nb)
        if not restrict_p or base.join_table[i][j] == base.top
    ]
    position = {p: k for k, p in enumerate(pairs)}
    names = [f"({base.elements[i]},{base.elements[j]})" for i, j in pairs]

    def t_join(p, q):
        return (base.join_table[p[0]][q[0]], base.meet_table[p[1]][q[1]])

    def t_meet(p, q):
        return (base.meet_table[p[0]][q[0]], base.join_table[p[1]][q[1]])

    def t_neg(p):
        return (p[1], p[0])

    for p in pairs:
        if t_neg(p) not in position:
            raise InvalidInput("carrier not closed under negation")
        for q in pairs:
            if t_meet(p, q) not in position or t_join(p, q) not in position:
                raise InvalidInput("carrier not closed under meet/join")

    m = len(pairs)
    leq = [[t_meet(pairs[i], pairs[j]) == pairs[i] for j in range(m)] for i in range(m)]
    lat = from_leq(
        names,
        leq,
        neg=[position[t_neg(p)] for p in pairs],
        name=f"T({base.name or 'B'})" + ("|P" if restrict_p else ""),
    )
    for i in range(m):
        for j in range(m):
            if lat.meet_table[i][j] != position[t_meet(pairs[i], pairs[j])]:
                raise InvalidInput("derived meet disagrees with the pair rule")
            if lat.join_table[i][j] != position[t_join(pairs[i], pairs[j])]:
                raise InvalidInput("derived join disagrees with the pair rule")
    lat = lat.with_imp(build_implication(lat, MATERIAL))
    designated = frozenset(k for k, (i, _) in enumerate(pairs) if i == base.top)
    return Matrix(lat, designated)
