"""Exhaustive generation of small lattices, upward-closed sets, and
complementation tables, up to the stated guards.

Lattices are generated as labeled posets in a topological labeling (element
0 the bottom, the last element the top, down-sets only among smaller
indices), filtered for existence of all meets and joins, and deduplicated by
canonical form.  The canonical form of an order matrix is its
lexicographically minimal row-major relabeling; permutation search is pruned
to label classes with equal (downset, upset) size profiles.  The lattices
of each size are built once per process and shared: ``Lattice`` is frozen.
"""

from __future__ import annotations

import functools
import itertools
from collections.abc import Iterable, Iterator

from .errors import BoundTooLarge, InvalidInput
from .lattice import Lattice, NotALattice, from_leq

MAX_ENUM_SIZE = 7
MAX_ALL_MAPS = 4
MAX_UPSET_SIZE = 20


def canonical_order_key(leq_rows: Iterable[Iterable[bool]]) -> int:
    """Lexicographically minimal row-major bit encoding over relabelings."""
    leq = [tuple(bool(v) for v in row) for row in leq_rows]
    n = len(leq)
    below = [sum(leq[k][i] for k in range(n)) for i in range(n)]
    above = [sum(leq[i][k] for k in range(n)) for i in range(n)]
    profile = [(below[i], above[i]) for i in range(n)]
    classes: dict[tuple[int, int], list[int]] = {}
    for i, p in enumerate(profile):
        classes.setdefault(p, []).append(i)
    best = None
    class_lists = sorted(classes.items())
    blocks = []
    pos = 0
    for _, members in class_lists:
        blocks.append(range(pos, pos + len(members)))
        pos += len(members)
    # Same-profile elements are interchangeable targets; pinning each profile
    # class to a fixed position block keeps the key isomorphism-invariant
    # while pruning the permutation search.
    for assignment in itertools.product(
        *[itertools.permutations(members) for _, members in class_lists]
    ):
        perm = [0] * n
        for block, ordered in zip(blocks, assignment):
            for target, source in zip(block, ordered):
                perm[source] = target
        key = 0
        for i in range(n):
            row = leq[i]
            pi = perm[i] * n
            for j in range(n):
                if row[j]:
                    key |= 1 << (pi + perm[j])
        if best is None or key < best:
            best = key
    return best


def _leq_from_key(key: int, n: int) -> list[list[bool]]:
    return [[bool(key >> (i * n + j) & 1) for j in range(n)] for i in range(n)]


def _labeled_posets(n: int) -> Iterator[list[int]]:
    """Strict-downset masks per element in a topological labeling.

    Element 0 is the bottom (inside every later downset) and element n-1 the
    top (its downset is everything below).  Downsets are down-closed with
    respect to the choices already made, which keeps the relation transitive
    by construction.
    """
    if n == 1:
        yield [0]
        return
    downs = [0] * n

    def closed_choices(i: int) -> Iterator[int]:
        for mask in range(1, 1 << i):
            if mask & 1 == 0:
                continue
            union = 0
            m = mask
            while m:
                j = (m & -m).bit_length() - 1
                union |= downs[j]
                m &= m - 1
            if union | mask == mask:
                yield mask

    def rec(i: int) -> Iterator[list[int]]:
        if i == n - 1:
            downs[i] = (1 << (n - 1)) - 1
            yield downs
            return
        for mask in closed_choices(i):
            downs[i] = mask
            yield from rec(i + 1)

    yield from rec(1)


def enumerate_lattices(n: int, *, unsafe_bounds: bool = False) -> Iterator[Lattice]:
    """All lattices on n elements up to order-isomorphism, deterministic
    order, named L{n}_{k}; each size is built once per process."""
    if n < 1:
        raise InvalidInput("lattice size must be at least 1")
    if n > MAX_ENUM_SIZE and not unsafe_bounds:
        raise BoundTooLarge(f"lattice enumeration is guarded to n <= {MAX_ENUM_SIZE}")
    yield from _lattices(n)


@functools.cache
def _lattices(n: int) -> tuple[Lattice, ...]:
    keys = set()
    for downs in _labeled_posets(n):
        leq = [[i == j or bool(downs[j] >> i & 1) for j in range(n)] for i in range(n)]
        try:
            lat = from_leq([f"e{i}" for i in range(n)], leq)
        except NotALattice:
            continue
        keys.add(canonical_order_key(lat.leq))
    return tuple(
        from_leq([f"e{i}" for i in range(n)], _leq_from_key(key, n), name=f"L{n}_{k}")
        for k, key in enumerate(sorted(keys))
    )


def enumerate_upsets(lattice: Lattice) -> Iterator[frozenset[int]]:
    """All upward-closed subsets, empty and full included, by ascending
    bitmask."""
    n = lattice.n
    if n > MAX_UPSET_SIZE:
        raise BoundTooLarge(f"upset enumeration is guarded to n <= {MAX_UPSET_SIZE}")
    ups = [0] * n
    for i in range(n):
        for j in range(n):
            if lattice.leq[i][j]:
                ups[i] |= 1 << j
    for mask in range(1 << n):
        good = True
        m = mask
        while m:
            i = (m & -m).bit_length() - 1
            if ups[i] | mask != mask:
                good = False
                break
            m &= m - 1
        if good:
            yield frozenset(i for i in range(n) if mask >> i & 1)


def _involutions(n: int) -> Iterator[tuple[int, ...]]:
    table = [-1] * n

    def rec(i: int) -> Iterator[tuple[int, ...]]:
        while i < n and table[i] != -1:
            i += 1
        if i == n:
            yield tuple(table)
            return
        table[i] = i
        yield from rec(i + 1)
        for j in range(i + 1, n):
            if table[j] == -1:
                table[i], table[j] = j, i
                yield from rec(i + 1)
                table[j] = -1
        table[i] = -1

    yield from rec(0)


def enumerate_complementations(
    lattice: Lattice, mode: str = "antimonotone_involutions"
) -> Iterator[tuple[int, ...]]:
    """Unary tables usable as complementations.

    "all_maps" yields every function (guarded to n <= 4); the default yields
    the order-reversing involutions in a deterministic order.
    """
    n = lattice.n
    if mode == "all_maps":
        if n > MAX_ALL_MAPS:
            raise BoundTooLarge(f"all_maps is guarded to n <= {MAX_ALL_MAPS}")
        yield from itertools.product(range(n), repeat=n)
        return
    if mode != "antimonotone_involutions":
        raise InvalidInput(f"unknown complementation mode {mode!r}")
    for table in _involutions(n):
        if all(
            not lattice.leq[a][b] or lattice.leq[table[b]][table[a]]
            for a in range(n)
            for b in range(n)
        ):
            yield table
