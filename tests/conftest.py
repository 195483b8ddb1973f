import pytest

from latmodal import (
    DEDUCTIVE_EQ1,
    MATERIAL,
    ImplicationTable,
    Matrix,
    WitnessNotApplicable,
    belnap_four,
    boolean_algebra,
    build_implication,
    chain,
    antichain_k5,
    matrix_from_names,
    validate_lattice,
)


@pytest.fixture
def b2():
    return boolean_algebra(1)


@pytest.fixture
def c3():
    return chain(3, "flip")


@pytest.fixture
def m2():
    """Four-element diamond with complement negation."""
    return boolean_algebra(2)


@pytest.fixture
def diamond():
    """Bare four-element diamond, no negation."""
    return validate_lattice(
        ["0", "a", "b", "1"], [("0", "a"), ("0", "b"), ("a", "1"), ("b", "1")], name="M2"
    )


@pytest.fixture
def m3():
    """Three incomparable middles: the smallest non-distributive lattice."""
    return validate_lattice(
        ["0", "a", "b", "c", "1"],
        [("0", "a"), ("0", "b"), ("0", "c"), ("a", "1"), ("b", "1"), ("c", "1")],
        name="M3",
    )


@pytest.fixture
def four():
    return belnap_four()


@pytest.fixture
def k5():
    return antichain_k5()


@pytest.fixture
def c3_material_lp(c3):
    """Three-valued chain, material implication, middle-and-top designated."""
    return matrix_from_names(c3.with_imp(build_implication(c3, MATERIAL)), ["h", "1"])


@pytest.fixture
def c3_eq1(c3):
    return matrix_from_names(c3.with_imp(build_implication(c3, DEDUCTIVE_EQ1)), ["h", "1"])


@pytest.fixture
def corrupted_k5(monkeypatch):
    """The harness's K5 with its a -> b entry moved to f, which breaks box-K."""
    import latmodal.harness

    base = antichain_k5()
    lat = base.lattice
    a, b = lat.index("a"), lat.index("b")
    fallback = tuple(
        tuple(
            lat.index("f") if (x, y) == (a, b) else (lat.top if lat.leq[x][y] else y)
            for y in range(lat.n)
        )
        for x in range(lat.n)
    )
    corrupted = Matrix(lat.with_imp(ImplicationTable(fallback)), base.designated)
    monkeypatch.setattr(latmodal.harness, "antichain_k5", lambda: corrupted)


@pytest.fixture
def broken_witness(monkeypatch):
    """The harness's nonlinear_k and nonfilter witnesses fail to build."""
    import latmodal.harness

    construct = latmodal.harness.construct_witness

    def broken(kind, matrix, **kwargs):
        if kind in ("nonlinear_k", "nonfilter"):
            raise WitnessNotApplicable("broken on purpose")
        return construct(kind, matrix, **kwargs)

    monkeypatch.setattr(latmodal.harness, "construct_witness", broken)
