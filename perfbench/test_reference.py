"""Worked cases for the benchmark's reference computations.

    python3 -m pytest perfbench/test_reference.py
"""

import reference as R

P, Q = R.V("p"), R.V("q")
K = ("imp", ("box", ("imp", P, Q)), ("imp", ("box", P), ("box", Q)))
DIAMOND = (["0", "a", "b", "1"], [("0", "a"), ("0", "b"), ("a", "1"), ("b", "1")])


def _antichain_k5() -> R.Lat:
    """0 < a, b, f < 1 with designated {f, 1}; the implication sends every
    comparable pair except (a, a) to the top and everything else to f."""
    base = R.lattice(
        ["0", "a", "b", "f", "1"],
        [("0", "a"), ("0", "b"), ("0", "f"), ("a", "1"), ("b", "1"), ("f", "1")],
    )
    a, f, top = 1, 3, 4
    imp = [
        [f if (x, y) == (a, a) or not base.leq[x][y] else top for y in range(5)]
        for x in range(5)
    ]
    return R.Lat(base.elements, base.leq, imp=imp, designated=(f, top))


def test_box_k_fails_on_the_diamond_with_a_b_1_designated():
    lat = R.lattice(*DIAMOND, imp_mode=R.EQ1, designated=("a", "b", "1"))
    # two worlds: a reflexive w0 with p = q = a seeing w1 with p = a, q = b
    assert R.smallest_countermodel(lat, K) == 2
    assert not R.attained_values(lat, K) <= lat.designated


def test_box_k_holds_on_the_antichain_example():
    lat = _antichain_k5()
    assert R.smallest_countermodel(lat, K) is None
    assert R.attained_values(lat, K) <= lat.designated


def test_box_k_holds_on_a_chain_with_the_top_designated():
    lat = R.lattice(["0", "h", "1"], [("0", "h"), ("h", "1")], imp_mode=R.EQ1, designated=("1",))
    assert R.smallest_countermodel(lat, K) is None


def test_evaluator_on_the_diamond_countermodel():
    # w0 sees w1 and w2: [](p -> q) = b /\ 1 = b, []p = a, []q = a /\ b = 0,
    # so K at w0 is b -> (a -> 0) = b -> 0 = 0; the dead ends give 1.
    lat = R.lattice(*DIAMOND, imp_mode=R.EQ1, designated=("a", "b", "1"))
    worlds = ["w0", "w1", "w2"]
    rel = [["w0", "w1"], ["w0", "w2"]]
    valuation = {
        "w0": {"p": "0", "q": "0"},
        "w1": {"p": "a", "q": "a"},
        "w2": {"p": "a", "q": "b"},
    }
    values = R.eval_model(lat, worlds, rel, valuation, K)
    assert [lat.elements[v] for v in values] == ["0", "1", "1"]
    assert R.eval_model(lat, worlds, rel, valuation, ("box", Q)) == [lat.index("0"), 3, 3]


def test_evaluator_reads_reflexive_and_repeated_pairs():
    lat = R.lattice(["0", "h", "1"], [("0", "h"), ("h", "1")], {"0": "1", "h": "h", "1": "0"}, R.MATERIAL)
    worlds = ["u", "v"]
    rel = [["u", "u"], ["u", "v"], ["u", "v"]]
    valuation = {"u": {"p": "1"}, "v": {"p": "h"}}
    assert [lat.elements[x] for x in R.eval_model(lat, worlds, rel, valuation, ("box", ("not", P)))] == ["0", "1"]


def test_lattice_counts_follow_a006966():
    assert [len(R.lattices_of_size(n)) for n in range(1, 6)] == [1, 1, 1, 2, 5]


def test_suite_universe_sizes():
    sizes = {k: sum(len(ds) for _, ds in v) for k, v in R.suite_universes().items()}
    assert sizes == {"disj_dist": 48, "k_linear": 48, "k_material": 25, "twist_k": 24}
