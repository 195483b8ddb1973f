#!/usr/bin/env python3
"""Explore implication tables on the five-element antichain lattice.

The lattice is 0 < a, b, f < 1 with a, b, f pairwise incomparable and
designated set {f, 1}.  The question: which implication tables keep box-K
frame-valid while staying implicative (every comparable pair lands in the
designated set) even though the lattice is not linear outside {f, 1}?

Box-K validity over arbitrary frames is decidable without a frame bound:
the K value at a world is determined by its own (p, q) and the
componentwise meets of the box-argument vectors (p imp q, p, q) over its
successors.  The library's closure of box-value tuples
(``latmodal.search``), run to its fixpoint, gives every root value K takes
on some frame, and K is valid when all of them are designated.

The sweep below varies the six middle-pair entries between the
"consequent" fallback (x imp y = y) and the designated damp (x imp y = f),
keeping the rest of the table strictly deductive.  Every variant that
leaves any bottom-reaching consequent in place fails; the table that sends
the whole non-comparable region to f is valid, and stays valid with
a imp a damped to f as well.  The packaged construction ships that table.
"""

import itertools
import sys

from latmodal import ImplicationTable, Matrix, check_designated, validate_lattice
from latmodal.search import AXIOM_K, _closure_rounds

NAMES = ["0", "a", "b", "f", "1"]


def build_lattice():
    return validate_lattice(
        NAMES,
        [("0", "a"), ("0", "b"), ("0", "f"), ("a", "1"), ("b", "1"), ("f", "1")],
        name="K5",
    )


def box_k_valid(matrix) -> bool:
    """Box-K on all frames: every root value of the closure's fixpoint is
    designated."""
    for attained, fixpoint in _closure_rounds(matrix.lattice, AXIOM_K):
        if fixpoint:
            return all(v in matrix.designated for v, hit in enumerate(attained) if hit)


def main() -> int:
    lat = build_lattice()
    n = lat.n
    f_ = lat.index("f")
    designated = frozenset((f_, lat.top))
    middles = [lat.index(x) for x in ("a", "b", "f")]
    middle_pairs = [(x, y) for x in middles for y in middles if x != y]

    def table_with(middle_choice, damp_aa):
        rows = []
        for x in range(n):
            row = []
            for y in range(n):
                if (x, y) in middle_choice:
                    row.append(middle_choice[(x, y)])
                elif x == y == lat.index("a") and damp_aa:
                    row.append(f_)
                elif lat.leq[x][y]:
                    row.append(lat.top)
                else:
                    row.append(y)  # strictly deductive consequent fallback
            rows.append(tuple(row))
        return ImplicationTable(tuple(rows))

    print("sweep: middle pairs set to consequent (C) or designated damp (f)")
    valid_count = 0
    for bits in itertools.product((0, 1), repeat=len(middle_pairs)):
        choice = {
            pair: (f_ if bit else pair[1]) for pair, bit in zip(middle_pairs, bits)
        }
        matrix = Matrix(lat.with_imp(table_with(choice, damp_aa=False)), designated)
        if box_k_valid(matrix):
            valid_count += 1
            pattern = "".join("f" if b else "C" for b in bits)
            print(f"  box-K valid with middle pattern {pattern}")
    print(f"{valid_count} of {2 ** len(middle_pairs)} middle-pair variants keep box-K")
    if valid_count == 0:
        print(
            "(the bottom column keeps its consequent fallback in this sweep,"
            " and a two-successor world exploits it every time)"
        )

    # The shipped shape: every non-comparable pair and a imp a damped to f.
    full_damp = {
        (x, y): f_ for x in range(n) for y in range(n) if not lat.leq[x][y]
    }
    shipped = Matrix(lat.with_imp(table_with(full_damp, damp_aa=True)), designated)
    props = check_designated(shipped)
    print(
        "full damp + (a imp a)=f:",
        "box-K valid" if box_k_valid(shipped) else "box-K fails",
        "| implicative:",
        props.is_implicative,
        "| linear outside:",
        props.linear_outside,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
