import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latmodal import (
    BoundTooLarge,
    InvalidInput,
    boolean_algebra,
    chain,
    enumerate_complementations,
    enumerate_lattices,
    enumerate_upsets,
    from_leq,
)
from latmodal.enumeration import canonical_order_key
from latmodal.errors import NotALattice


def test_lattice_counts():
    assert [sum(1 for _ in enumerate_lattices(n)) for n in range(1, 7)] == [
        1, 1, 1, 2, 5, 15,
    ]


def test_three_elements_is_a_chain():
    (lat,) = enumerate_lattices(3)
    assert all(lat.comparable(a, b) for a in range(3) for b in range(3))


def test_four_elements_chain_and_diamond():
    lats = list(enumerate_lattices(4))
    chains = [lat for lat in lats if all(lat.comparable(a, b) for a in range(4) for b in range(4))]
    assert len(lats) == 2 and len(chains) == 1


def test_enumeration_guard():
    with pytest.raises(BoundTooLarge):
        list(enumerate_lattices(8))


def test_each_size_is_built_once_and_guarded_on_every_call():
    first, again = list(enumerate_lattices(5)), list(enumerate_lattices(5))
    assert len(first) == 5 and all(a is b for a, b in zip(first, again))
    for _ in range(2):
        with pytest.raises(BoundTooLarge):
            list(enumerate_lattices(8))
        with pytest.raises(InvalidInput):
            list(enumerate_lattices(0))


def _upper_triangle_lattice_count(n):
    """Independent oracle: all strict relations inside the upper triangle,
    transitively closed, filtered for lattice structure, deduplicated by
    canonical key."""
    strict_pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    keys = set()
    for bits in itertools.product((False, True), repeat=len(strict_pairs)):
        rows = [[i == j for j in range(n)] for i in range(n)]
        for (i, j), bit in zip(strict_pairs, bits):
            if bit:
                rows[i][j] = True
        for k in range(n):
            for i in range(n):
                if rows[i][k]:
                    for j in range(n):
                        if rows[k][j]:
                            rows[i][j] = True
        try:
            lat = from_leq([str(i) for i in range(n)], rows)
        except NotALattice:
            continue
        keys.add(canonical_order_key(lat.leq))
    return len(keys)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_counts_match_independent_oracle(n):
    assert sum(1 for _ in enumerate_lattices(n)) == _upper_triangle_lattice_count(n)


def test_no_two_emitted_lattices_isomorphic():
    for n in (4, 5):
        keys = [canonical_order_key(lat.leq) for lat in enumerate_lattices(n)]
        assert len(keys) == len(set(keys))


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_relabeled_lattice_has_same_canonical_key(data):
    lats = [lat for n in (3, 4, 5) for lat in enumerate_lattices(n)]
    lat = data.draw(st.sampled_from(lats))
    perm = data.draw(st.permutations(range(lat.n)))
    relabeled = [[False] * lat.n for _ in range(lat.n)]
    for i in range(lat.n):
        for j in range(lat.n):
            relabeled[perm[i]][perm[j]] = lat.leq[i][j]
    assert canonical_order_key(relabeled) == canonical_order_key(lat.leq)


def test_enumeration_deterministic():
    first = [lat.leq for lat in enumerate_lattices(5)]
    second = [lat.leq for lat in enumerate_lattices(5)]
    assert first == second


# ---------------------------------------------------------------------------
# upsets


def test_upset_counts(c3, b2):
    assert sum(1 for _ in enumerate_upsets(c3)) == 4
    assert sum(1 for _ in enumerate_upsets(b2)) == 3
    m2 = boolean_algebra(2)
    assert sum(1 for _ in enumerate_upsets(m2)) == 6


def test_upsets_include_empty_and_full(c3):
    ups = list(enumerate_upsets(c3))
    assert frozenset() in ups
    assert frozenset(range(c3.n)) in ups
    for up in ups:
        for a in up:
            for b in range(c3.n):
                if c3.le(a, b):
                    assert b in up


# ---------------------------------------------------------------------------
# complementations


def test_complementation_counts(c3, b2):
    m2 = boolean_algebra(2)
    m2_tables = list(enumerate_complementations(m2, "antimonotone_involutions"))
    assert len(m2_tables) == 2
    swap = (3, 2, 1, 0)  # 0<->1, a<->b in (0, a, b, 1) index order
    fix = (3, 1, 2, 0)
    assert set(m2_tables) == {swap, fix}
    assert list(enumerate_complementations(c3, "antimonotone_involutions")) == [(2, 1, 0)]
    assert len(list(enumerate_complementations(b2, "all_maps"))) == 4


def test_all_maps_guard():
    with pytest.raises(BoundTooLarge):
        list(enumerate_complementations(chain(5, "none"), "all_maps"))


def test_antimonotone_involutions_are_what_they_claim(m3):
    for table in enumerate_complementations(m3, "antimonotone_involutions"):
        lat = m3.with_neg(table)
        from latmodal import check_lattice_properties

        props = check_lattice_properties(lat)
        assert props.anti_monotone and props.involutive
