import json

from latmodal.cli import main
from latmodal.serialize import dumps


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_chain3(tmp_path, **extra):
    from latmodal import build_implication, chain

    lat = chain(3, "flip")
    if extra.get("imp"):
        lat = lat.with_imp(build_implication(lat, extra["imp"]))
    payload = lat.to_dict()
    if extra.get("designated"):
        payload["designated"] = extra["designated"]
    path = tmp_path / "c3.json"
    path.write_text(dumps(payload))
    return path


def test_construct_and_check_roundtrip(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "construct", "--kind", "chain:3", "--compact")
    assert code == 0
    path = tmp_path / "c3.json"
    path.write_text(out)
    code, out, _ = run_cli(capsys, "lattice", "check", str(path))
    assert code == 0
    payload = json.loads(out)
    assert payload["valid"] is True
    assert payload["top"] == "1"
    assert payload["properties"]["anti_monotone"] is True


def test_lattice_check_reports_violation(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(
        json.dumps(
            {
                "elements": ["0", "a", "b", "c", "d", "1"],
                "leq": [
                    ["0", "a"], ["0", "b"],
                    ["a", "c"], ["a", "d"], ["b", "c"], ["b", "d"],
                    ["c", "1"], ["d", "1"],
                ],
            }
        )
    )
    code, out, _ = run_cli(capsys, "lattice", "check", str(path))
    assert code == 1
    payload = json.loads(out)
    assert payload["valid"] is False and payload["error"] == "NotALattice"


def test_lattice_check_malformed_file(tmp_path, capsys):
    path = tmp_path / "junk.json"
    path.write_text('{"elements": ["x"], "nonsense": true}')
    code, _, err = run_cli(capsys, "lattice", "check", str(path))
    assert code == 2
    assert "FileFormatError" in err


def test_entails_modus_ponens(tmp_path, capsys):
    path = write_chain3(tmp_path, imp="material", designated=["h", "1"])
    code, out, _ = run_cli(
        capsys,
        "entails", "--lattice", str(path),
        "--premises", "p", "p -> q", "--conclusion", "q",
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["holds"] is False
    assert payload["witness"] == {"p": "h", "q": "0"}


def test_entails_eq1_holds(tmp_path, capsys):
    path = write_chain3(tmp_path, imp="deductive_eq1", designated=["h", "1"])
    code, out, _ = run_cli(
        capsys,
        "entails", "--lattice", str(path),
        "--premises", "p", "p -> q", "--conclusion", "q",
    )
    assert code == 0
    assert json.loads(out)["holds"] is True


def test_valid_k5_axiom_k(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "construct", "--kind", "k5", "--compact")
    path = tmp_path / "k5.json"
    path.write_text(out)
    code, out, _ = run_cli(
        capsys,
        "valid", "--lattice", str(path),
        "--formula", "[](p->q) -> ([]p -> []q)", "--max-worlds", "3",
    )
    assert code == 0
    assert json.loads(out)["valid"] is True


def test_valid_reports_counterexample(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys, "construct", "--kind", "boolean:2", "--imp", "deductive_eq1",
        "--designated", "1", "--compact",
    )
    path = tmp_path / "m2.json"
    path.write_text(out)
    code, out, _ = run_cli(
        capsys,
        "valid", "--lattice", str(path),
        "--formula", "[](p->q) -> ([]p -> []q)", "--max-worlds", "3",
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["valid"] is False
    assert "counterexample" in payload


def test_eval_and_unbound_variable(tmp_path, capsys):
    lattice_path = write_chain3(tmp_path, designated=["h", "1"])
    model = {
        "lattice": lattice_path.name,
        "worlds": ["w1", "w2", "w3"],
        "rel": [["w1", "w2"], ["w1", "w3"]],
        "valuation": {"w2": {"p": "h"}, "w3": {"p": "1"}},
    }
    model_path = tmp_path / "model.json"
    model_path.write_text(json.dumps(model))
    code, out, _ = run_cli(
        capsys, "eval", "--model", str(model_path), "--formula", "[]p", "--world", "w1"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["worlds"]["w1"] == {"value": "h", "designated": True}
    # missing variable at a world the formula needs
    code, _, err = run_cli(
        capsys, "eval", "--model", str(model_path), "--formula", "p", "--world", "w1"
    )
    assert code == 2
    assert "UnboundVariable" in err


def test_eval_local_box(tmp_path, capsys):
    lattice_path = write_chain3(tmp_path, designated=["h", "1"])
    model = {
        "lattice": lattice_path.name,
        "worlds": ["w1", "w2"],
        "rel": [["w1", "w2"]],
        "valuation": {"w1": {"p": "0"}, "w2": {"p": "1"}},
    }
    model_path = tmp_path / "model.json"
    model_path.write_text(json.dumps(model))
    code, out, _ = run_cli(
        capsys, "eval", "--model", str(model_path), "--formula", "[]p",
        "--world", "w1", "--box", "local",
    )
    assert code == 1  # local box sees the non-designated value at w1
    assert json.loads(out)["worlds"]["w1"]["value"] == "0"


def test_regular_subcommand(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys, "construct", "--kind", "boolean:2", "--designated", "a,b,1", "--compact"
    )
    path = tmp_path / "m2.json"
    path.write_text(out)
    code, out, _ = run_cli(capsys, "regular", "--lattice", str(path), "--max-worlds", "2")
    assert code == 1
    payload = json.loads(out)
    assert payload["regular"] is False
    assert payload["structural"]["is_filter"] is False
    assert payload["witness"]["direction"] == "successors_hold_but_box_fails"


def test_enumerate_json_lines(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--size", "4")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    for line in lines:
        assert json.loads(line)["elements"]


def test_enumerate_with_negations(capsys):
    code, out, _ = run_cli(
        capsys, "enumerate", "--size", "4", "--neg", "antimonotone-involutions"
    )
    assert code == 0
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert len(lines) == 3  # chain-4 flip, diamond swap, diamond fixpoints
    assert all("neg" in line for line in lines)


def test_construct_twist(capsys):
    code, out, _ = run_cli(capsys, "construct", "--kind", "twist:1:P", "--compact")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["elements"]) == 3
    assert payload["designated"] == ["(1,0)", "(1,1)"]


def test_construct_designated_accepts_names_with_commas(capsys):
    code, out, _ = run_cli(
        capsys,
        "construct", "--kind", "twist:1:P",
        "--designated", "(1,0)", "(1,1)", "--compact",
    )
    assert code == 0
    assert json.loads(out)["designated"] == ["(1,0)", "(1,1)"]


def test_construct_unknown_kind(capsys):
    code, _, err = run_cli(capsys, "construct", "--kind", "dodecahedron")
    assert code == 2 and "unknown construct kind" in err


def test_construct_non_integer_count_is_an_input_error(capsys):
    for kind in ("chain:x", "boolean:x", "twist:x", "twist:x:P"):
        code, out, err = run_cli(capsys, "construct", "--kind", kind)
        assert code == 2 and out == ""
        assert "not an integer" in err


def test_verify_single_theorem(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--theorem", "eq1_implicative", "--max-size", "3"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert payload["reports"][0]["theorem"] == "eq1_implicative"


def test_verify_all_small(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--all", "--max-size", "2", "--max-worlds", "2"
    )
    assert code == 0
    payload = json.loads(out)
    assert len(payload["reports"]) == 7


def test_outputs_are_byte_identical(tmp_path, capsys):
    path = write_chain3(tmp_path, imp="material", designated=["h", "1"])
    _, first, _ = run_cli(
        capsys, "entails", "--lattice", str(path), "--premises", "p",
        "--conclusion", "q",
    )
    _, second, _ = run_cli(
        capsys, "entails", "--lattice", str(path), "--premises", "p",
        "--conclusion", "q",
    )
    assert first == second


def test_formula_syntax_error_exit_code(tmp_path, capsys):
    path = write_chain3(tmp_path, imp="material", designated=["h", "1"])
    code, _, err = run_cli(
        capsys, "entails", "--lattice", str(path), "--premises", "p",
        "--conclusion", "q ->",
    )
    assert code == 2
    assert "FormulaSyntaxError" in err


def test_deeply_nested_formula_is_an_input_error(tmp_path, capsys):
    path = write_chain3(tmp_path, imp="material", designated=["h", "1"])
    code, out, err = run_cli(
        capsys, "valid", "--lattice", str(path), "--formula", "~" * 3000 + "p",
        "--max-worlds", "1",
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: RecursionError") and err.count("\n") == 1


def test_verify_twist_k_at_default_bounds(capsys):
    code, out, _ = run_cli(capsys, "verify", "--theorem", "twist_k", "--compact")
    assert code == 0
    report = json.loads(out)["reports"][0]
    assert report["universe"]["twist_atoms"] == [1, 2]

    from latmodal import HarnessConfig, verify_theorem

    # the report run_suite gives at its defaults
    config = HarnessConfig()
    suite_report = verify_theorem("twist_k", config.twist_atoms, config.world_bound)
    assert report == suite_report.to_dict()
