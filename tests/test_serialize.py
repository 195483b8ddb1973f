import json

import pytest

from latmodal import FileFormatError, boolean_algebra, build_implication, chain, antichain_k5, twist
from latmodal.serialize import dumps, lattice_from_dict, load_lattice, load_model, model_from_dict


def test_lattice_roundtrip(tmp_path):
    base = chain(3, "flip")
    lat = base.with_imp(build_implication(base, "material"))
    path = tmp_path / "c3.json"
    path.write_text(dumps(lat.to_dict()))
    loaded, designated = load_lattice(path)
    assert loaded.elements == lat.elements
    assert loaded.leq == lat.leq
    assert loaded.neg == lat.neg
    assert loaded.imp.table == lat.imp.table
    assert designated is None
    # byte-identical re-dump
    assert dumps(loaded.to_dict()) == dumps(lat.to_dict())


def test_matrix_roundtrip_custom_table(tmp_path):
    k5 = antichain_k5()
    path = tmp_path / "k5.json"
    path.write_text(dumps(k5.to_dict()))
    lat, designated = load_lattice(path)
    assert lat.imp.table == k5.lattice.imp.table
    assert designated == k5.designated
    assert dumps(lat.to_dict() | {"designated": ["f", "1"]}) == dumps(k5.to_dict())


def test_twist_matrix_roundtrip(tmp_path):
    t = twist(boolean_algebra(1), restrict_p=True)
    path = tmp_path / "twist.json"
    path.write_text(dumps(t.to_dict()))
    lat, designated = load_lattice(path)
    assert set(lat.elements) == set(t.lattice.elements)
    assert designated is not None and len(designated) == 2


def test_unknown_keys_rejected():
    with pytest.raises(FileFormatError):
        lattice_from_dict({"elements": ["0", "1"], "leq": [["0", "1"]], "extra": 1})


def test_imp_table_mode_requires_table():
    base = {"elements": ["0", "1"], "leq": [["0", "1"]]}
    with pytest.raises(FileFormatError):
        lattice_from_dict({**base, "imp": {"mode": "table"}})
    with pytest.raises(FileFormatError):
        lattice_from_dict({**base, "imp": {"mode": "material"}})  # needs neg
    with pytest.raises(FileFormatError):
        lattice_from_dict(
            {**base, "imp": {"mode": "deductive_eq1", "table": {"0": {"0": "1"}}}}
        )


def test_neg_must_be_total():
    with pytest.raises(FileFormatError):
        lattice_from_dict(
            {"elements": ["0", "1"], "leq": [["0", "1"]], "neg": {"0": "1"}}
        )


def test_non_lattice_file_raises_lattice_errors():
    from latmodal import NotALattice

    with pytest.raises(NotALattice):
        lattice_from_dict(
            {
                "elements": ["0", "a", "b", "c", "d", "1"],
                "leq": [
                    ["0", "a"], ["0", "b"],
                    ["a", "c"], ["a", "d"], ["b", "c"], ["b", "d"],
                    ["c", "1"], ["d", "1"],
                ],
            }
        )


def test_model_roundtrip(tmp_path):
    lattice_path = tmp_path / "lat.json"
    lattice_path.write_text(
        dumps(chain(3, "flip").to_dict() | {"designated": ["h", "1"]})
    )
    model_path = tmp_path / "model.json"
    model_path.write_text(
        json.dumps(
            {
                "lattice": "lat.json",
                "worlds": ["w1", "w2"],
                "rel": [["w1", "w2"]],
                "valuation": {"w1": {"p": "h"}, "w2": {"p": "1"}},
            }
        )
    )
    model, designated = load_model(model_path)
    assert model.frame.worlds == ("w1", "w2")
    assert model.valuation[(0, "p")] == 1
    assert designated is not None


def test_model_inline_lattice():
    model, designated = model_from_dict(
        {
            "lattice": chain(3, "flip").to_dict(),
            "worlds": ["w"],
            "rel": [],
            "valuation": {"w": {"p": "0"}},
        }
    )
    assert designated is None
    assert model.valuation[(0, "p")] == 0


def test_model_missing_keys():
    with pytest.raises(FileFormatError):
        model_from_dict({"worlds": ["w"], "rel": [], "valuation": {}})


def test_a_missing_model_key_is_named_alike_under_every_hash_seed(tmp_path):
    """The keys are checked in their documented order (lattice, worlds,
    rel, valuation), not in the order of a set, which follows the hash
    seed: a file holding only "lattice" names "worlds" in each process."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    path = tmp_path / "model.json"
    path.write_text(dumps({"lattice": chain(3, "flip").to_dict()}))
    src = str(Path(__file__).resolve().parents[1] / "src")
    for seed in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed}
        argv = [sys.executable, "-m", "latmodal.cli", "eval", "--model", str(path), "--formula", "p"]
        run = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=60)
        assert (run.returncode, run.stdout) == (2, ""), seed
        assert run.stderr == "error: FileFormatError: model description needs key 'worlds'\n"


def test_model_unknown_world_rejected():
    with pytest.raises(FileFormatError):
        model_from_dict(
            {
                "lattice": chain(3, "flip").to_dict(),
                "worlds": ["w"],
                "rel": [["w", "v"]],
                "valuation": {},
            }
        )


def test_dumps_deterministic():
    payload = {"b": 1, "a": [3, 2], "c": {"y": 0, "x": 1}}
    assert dumps(payload) == dumps(json.loads(dumps(payload)))
    assert "\n" not in dumps(payload, compact=True)
