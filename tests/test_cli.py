import json
import os
import subprocess
import sys
import time
from pathlib import Path

from latmodal.cli import main
from latmodal.serialize import dumps


DATA = Path(__file__).parent / "data"
BOX_K = "[](p -> q) -> ([]p -> []q)"
WIDE = "[]([]p & []q & []r) -> [][]p & [][]q & [][]r"
WIDE_DEPTH1 = "[](p -> q) & [](q -> r) & []p -> []q & []r & [](p & q) & [](q | r)"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_fresh(script: str, *flags: str) -> list[str]:
    """Standard output lines of a script run in a fresh interpreter, with
    these command-line flags, that imports latmodal from this checkout."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    run = subprocess.run(
        [sys.executable, *flags, "-c", script], capture_output=True, text=True, env=env, timeout=120
    )
    assert run.returncode == 0, run.stderr
    return run.stdout.splitlines()


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


def test_regular_refuses_a_lattice_over_the_valuation_guard(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys, "construct", "--kind", "boolean:4", "--designated", "1", "--compact"
    )
    path = tmp_path / "b16.json"
    path.write_text(out)
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "regular", "--lattice", str(path), "--max-worlds", "4")
    assert (code, out) == (2, "")
    assert err == "error: BoundTooLarge: lattice size 16 exceeds the guard (12)\n"
    assert time.perf_counter() - start < 5  # refused before any model is scanned
    code, out, _ = run_cli(
        capsys, "regular", "--lattice", str(path), "--max-worlds", "2", "--unsafe-bounds"
    )
    assert code == 0 and json.loads(out)["regular"] is True


def test_valid_query_leaves_numpy_ma_unimported(tmp_path, capsys):
    _, out, _ = run_cli(
        capsys, "construct", "--kind", "chain:4:none", "--imp", "deductive_eq1",
        "--designated", "1", "--compact",
    )
    path = tmp_path / "c4.json"
    path.write_text(out)
    script = (
        "import sys\n"
        "from latmodal.cli import main\n"
        f"code = main(['valid', '--lattice', {str(path)!r}, '--formula',"
        " '[](p -> q) -> ([]p -> []q)', '--max-worlds', '4', '--compact'])\n"
        "print(code, 'numpy.ma' in sys.modules)\n"
    )
    assert run_fresh(script)[-1] == "0 False"


def _loaded_after_each(*argvs: list[str], modules=("numpy",), flags=()) -> list[str]:
    """Per command, run in turn in one fresh process: its name, its exit
    code and whether any of the modules is loaded after it."""
    script = (
        "import contextlib, io, sys\n"
        f"loaded = lambda: any(m in sys.modules for m in {modules!r})\n"
        "from latmodal.cli import main\n"
        "print('import', loaded())\n"
        f"for argv in {list(argvs)!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        code = main(argv)\n"
        "    print(argv[0], code, loaded())\n"
    )
    return run_fresh(script, *flags)


def _write_boolean4(tmp_path, capsys) -> str:
    """A file of the 4-element Boolean algebra, material implication, top
    designated: classical, so a failure can need 3 worlds."""
    _, out, _ = run_cli(
        capsys, "construct", "--kind", "boolean:2", "--imp", "material", "--designated", "1"
    )
    path = tmp_path / "b4.json"
    path.write_text(out)
    return str(path)


def test_numpy_is_loaded_only_when_an_array_kernel_runs(tmp_path, capsys):
    lattice, model = str(DATA / "chain3_eq1_h_1.json"), str(DATA / "model_chain3_eq1.json")
    assert _loaded_after_each(
        ["eval", "--model", model, "--formula", "[]p -> p"],
        ["lattice", "check", lattice],
        ["construct", "--kind", "boolean:2", "--imp", "material"],
        ["enumerate", "--size", "5", "--neg", "antimonotone-involutions"],
        ["valid", "--lattice", lattice, "--formula", BOX_K, "--max-worlds", "4"],
        ["valid", "--lattice", lattice, "--formula", "[]p -> p", "--max-worlds", "2"],
        ["valid", "--lattice", lattice, "--formula", BOX_K, "--max-worlds", "4", "--box", "local"],
        ["valid", "--lattice", lattice, "--formula", WIDE_DEPTH1, "--max-worlds", "2"],
        ["valid", "--lattice", lattice, "--formula", WIDE, "--max-worlds", "2"],
        ["regular", "--lattice", str(DATA / "boolean2_a_b_1.json")],
        ["regular", "--lattice", str(DATA / "chain3_0_1.json")],
    ) == [
        "import False",
        "eval 1 False",
        "lattice 0 False",
        "construct 0 False",
        "enumerate 0 False",
        # valid by the scalar closure, no frame scanned
        "valid 0 False",
        # failing: the frame scan runs on lists
        "valid 1 False",
        # the local box: one world without successors, on lists
        "valid 0 False",
        # valid, of modal depth 1 and 3^10 (valuation, tuple) pairs: the
        # coded closure runs
        "valid 0 False",
        # valid too, of modal depth 2 and 3^10 pairs: the coded closure runs
        "valid 0 False",
        # the regularity scan, on lists, finds a defect in each
        "regular 1 False",
        "regular 1 False",
    ]
    # 3^11 pairs, past the coded closure's bound, at modal depth 1 and 2
    # (a conjunct more in the antecedent keeps WIDE valid)
    for past in (WIDE_DEPTH1 + " & [](p | r)", WIDE.replace(" ->", " & [](p | q) ->", 1)):
        assert _loaded_after_each(
            ["valid", "--lattice", lattice, "--formula", past, "--max-worlds", "2"]
        ) == ["import False", "valid 0 True"], past
    # failing, and the first 3-world frame alone has 4^9 valuations x 3 worlds
    # x 13 nodes, past the scan's budget: deferred to arrays, not dropped
    b4 = _write_boolean4(tmp_path, capsys)
    wide_scan = "p & []~p & [](q | r) -> []q | []r"
    assert _loaded_after_each(
        ["valid", "--lattice", b4, "--formula", wide_scan, "--max-worlds", "3"]
    ) == ["import False", "valid 1 True"]


def test_a_command_parses_alike_on_its_own_parser_and_on_the_full_one(monkeypatch, capsys):
    """main builds only the invoked command's parser, and the full one for
    help, no command, an unknown command or a rejected argument: every
    outcome is that of the full parser alone."""
    import latmodal.cli as cli

    monkeypatch.setenv("COLUMNS", "80")
    lattice = str(DATA / "chain3_eq1_h_1.json")
    argvs = [
        ["--help"], [], ["foo"], ["--compact", "valid"],
        *([name, "--help"] for name in cli._COMMANDS),
        *([name] for name in cli._COMMANDS),
        ["valid", "--lattice", lattice, "--formula", "p", "--max-worlds", "one"],
        ["valid", "--lattice", lattice, "--formula", "p", "--max-worlds", "1", "--bogus"],
        ["enumerate", "--size", "2", "extra"],
        ["construct", "--kind", "chain:2", "--compact"],
    ]

    def outcome(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        return (code, *capsys.readouterr())

    own = [outcome(argv) for argv in argvs]
    assert cli.build_parser("valid").format_usage() == "usage: latmodal [-h] {valid} ...\n"
    full = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda command=None: full())
    assert [outcome(argv) for argv in argvs] == own
    assert {code for code, _, _ in own} == {0, 2}


def test_start_up_loads_neither_dataclasses_nor_inspect():
    lattice, model = str(DATA / "chain3_eq1_h_1.json"), str(DATA / "model_chain3_eq1.json")
    # each command in a process of its own, so that none hides another's import
    for argv, code in (
        (["valid", "--lattice", lattice, "--formula", BOX_K, "--max-worlds", "4"], 0),
        (["valid", "--lattice", lattice, "--formula", "[]p -> p", "--max-worlds", "4"], 1),
        (["eval", "--model", model, "--formula", "[]p -> p"], 1),
    ):
        assert _loaded_after_each(argv, modules=("dataclasses", "inspect")) == [
            "import False",
            f"{argv[0]} {code} False",
        ], argv


def test_start_up_and_valid_queries_leave_typing_unimported():
    # without -S, a site module that imports typing would hide latmodal's
    # own import of it
    lattice = str(DATA / "chain3_eq1_h_1.json")
    for argv, code in (
        (["valid", "--lattice", lattice, "--formula", BOX_K, "--max-worlds", "4"], 0),
        (["valid", "--lattice", lattice, "--formula", "[]p -> p", "--max-worlds", "4"], 1),
    ):
        assert _loaded_after_each(argv, modules=("typing",), flags=("-S",)) == [
            "import False",
            f"valid {code} False",
        ], argv


def test_the_frame_scan_moves_to_arrays_from_the_frame_that_spends_its_budget(tmp_path, capsys):
    """A failing scan that starts on lists and passes its budget midway
    finds what a scan on arrays alone finds."""
    b4 = _write_boolean4(tmp_path, capsys)
    script = (
        "import latmodal.search as search\n"
        "from latmodal import Matrix, find_frame_counterexample, parse\n"
        "from latmodal.serialize import load_lattice\n"
        f"matrix = Matrix(*load_lattice({b4!r}))\n"
        "f = parse('p & []~p -> []q | []~q')\n"
        "backends, scan = [], search.frame_root_values\n"
        "def traced(*args, **kwargs):\n"
        "    backends.append(kwargs['lists'])\n"
        "    return scan(*args, **kwargs)\n"
        "search.frame_root_values = traced\n"
        # each 3-world frame is 4^6 valuations x 3 worlds x 10 nodes
        "search._SCALAR_SCAN_BOUND = 3 * 4**6 * 3 * 10\n"
        "mixed = find_frame_counterexample(matrix, f, 3).to_dict()\n"
        "print(*backends)\n"
        "search._SCALAR_SCAN_BOUND = 0\n"
        "print(mixed == find_frame_counterexample(matrix, f, 3).to_dict())\n"
    )
    assert run_fresh(script) == ["True True True False False", "True"]


def _latmodal_modules_after(statements: str) -> list[str]:
    script = (
        "import contextlib, io, sys\n"
        f"{statements}\n"
        "print(*sorted(m for m in sys.modules if m.startswith('latmodal')))\n"
    )
    return run_fresh(script)[-1].split()


def test_importing_latmodal_loads_none_of_its_modules():
    assert _latmodal_modules_after("import latmodal") == ["latmodal"]


def test_valid_loads_neither_the_harness_nor_the_builders():
    lattice = str(DATA / "chain3_eq1_h_1.json")
    for formula, max_worlds in ((BOX_K, "4"), ("[]p -> p", "2")):
        loaded = _latmodal_modules_after(
            "from latmodal.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    main(['valid', '--lattice', {lattice!r}, '--formula', {formula!r},"
            f" '--max-worlds', {max_worlds!r}])"
        )
        assert "latmodal.search" in loaded
        for module in ("harness", "constructions", "enumeration"):
            assert f"latmodal.{module}" not in loaded


# what the package exported when it imported every module eagerly
PUBLIC_NAMES = {
    "constructions": "belnap_four boolean_algebra chain antichain_k5 twist",
    "enumeration": "enumerate_complementations enumerate_lattices enumerate_upsets",
    "errors": (
        "BoundTooLarge FileFormatError FormulaSyntaxError InvalidInput LatModalError "
        "MissingOperation ModalFormulaRejected NotALattice NotAPoset NotBoolean "
        "UnboundVariable WitnessNotApplicable"
    ),
    "formula": (
        "And Box Formula Imp Not Or Var is_modal_free modal_depth parse render substitute "
        "variables"
    ),
    "harness": "HarnessConfig TheoremReport k5_regression run_suite verify_theorem",
    "kripke": (
        "BoxMode CounterexampleReport Frame KripkeModel evaluate frame_valid model_satisfies "
        "world_satisfies"
    ),
    "lattice": (
        "DEDUCTIVE_EQ1 MATERIAL EntailmentResult ImplicationTable Lattice Matrix apply_op "
        "big_meet build_implication check_designated check_lattice_properties "
        "classify_implication entails from_leq matrix_from_names propositional_value "
        "subset_join validate_lattice"
    ),
    "search": (
        "AXIOM_K BOX_DISJUNCTION_DIST RegularityResult RegularityWitness check_regularity "
        "construct_witness enumerate_frames find_frame_counterexample"
    ),
}


def test_every_public_name_resolves_lazily():
    pairs = [(module, name) for module, names in PUBLIC_NAMES.items() for name in names.split()]
    for access in ("from latmodal import {name} as value", "value = latmodal.{name}"):
        script = "import importlib, latmodal\n" + "".join(
            access.format(name=name) + "\n"
            f"print(value is getattr(importlib.import_module('latmodal.{module}'), {name!r}))\n"
            for module, name in pairs
        )
        assert run_fresh(script) == ["True"] * len(pairs)
    import latmodal

    assert sorted(latmodal.__all__) == sorted(name for _, name in pairs)


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


def test_verify_rejects_a_size_bound_below_one(capsys):
    for argv in (["--all"], ["--theorem", "eq1_implicative"], ["--theorem", "twist_k"]):
        code, out, err = run_cli(capsys, "verify", *argv, "--max-size", "0")
        assert (code, out) == (2, "")
        assert err == "error: InvalidInput: size bound must be at least 1, got 0\n"


def test_verify_rejects_a_world_bound_below_one(capsys):
    for argv in (
        ["--all"],
        ["--theorem", "eq1_implicative", "--max-size", "2"],
        ["--theorem", "k_linear"],
    ):
        code, out, err = run_cli(capsys, "verify", *argv, "--max-worlds", "0")
        assert (code, out) == (2, "")
        assert err == "error: InvalidInput: world bound must be at least 1, got 0\n"


def test_verify_all_compact_matches_the_golden_file(capsys):
    code, out, _ = run_cli(capsys, "verify", "--all", "--compact")
    assert code == 0
    golden = Path(__file__).parent / "data" / "verify_all_compact.json"
    assert out.encode("utf-8") == golden.read_bytes()


def test_verify_at_other_bounds_matches_the_golden_files(capsys):
    # below and above each check's proof scale, and the twist clamp
    for name, argv in (
        ("all_size3_worlds1", ["--all", "--max-size", "3", "--max-worlds", "1"]),
        ("all_size1_worlds2", ["--all", "--max-size", "1", "--max-worlds", "2"]),
        ("regularity_size4_worlds1", ["--theorem", "regularity", "--max-size", "4", "--max-worlds", "1"]),
        ("twist_k_size1", ["--theorem", "twist_k", "--max-size", "1"]),
    ):
        code, out, _ = run_cli(capsys, "verify", *argv, "--compact")
        assert code == 0, name
        assert out.encode("utf-8") == (DATA / f"verify_{name}.json").read_bytes(), name


def test_failing_reports_match_the_golden_files(corrupted_k5, request):
    from latmodal.harness import HarnessConfig, run_suite, verify_theorem

    reports, status = run_suite(HarnessConfig(size_bound=2, world_bound=3))
    payload = {"status": status, "reports": [r.to_dict() for r in reports]}
    assert dumps(payload, compact=True) + "\n" == (DATA / "run_suite_corrupted_k5.json").read_text()
    request.getfixturevalue("broken_witness")  # only now, so the suite above keeps its witnesses
    report = verify_theorem("k_linear", 4, 3)
    golden = (DATA / "k_linear_broken_witness.json").read_text()
    assert dumps(report.to_dict(), compact=True) + "\n" == golden


def test_regular_matches_the_golden_files(capsys):
    # one golden per witness direction
    data = Path(__file__).parent / "data"
    for name in ("boolean2_a_b_1", "chain3_0_1"):
        code, out, _ = run_cli(
            capsys, "regular", "--lattice", str(data / f"{name}.json"), "--compact"
        )
        assert code == 1
        assert out.encode("utf-8") == (data / f"regular_{name}.json").read_bytes()


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
        capsys, "valid", "--lattice", str(path), "--formula", "(" * 3000 + "p" + ")" * 3000,
        "--max-worlds", "1",
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: FormulaSyntaxError") and err.count("\n") == 1
    # a long run of prefixes is no error: ~~p is p on this chain
    code, out, _ = run_cli(
        capsys, "valid", "--lattice", str(path), "--formula", "~" * 3000 + "p",
        "--max-worlds", "1",
    )
    assert code == 1 and json.loads(out)["valid"] is False


def test_undecodable_files_are_input_errors(tmp_path, capsys):
    path = tmp_path / "bom.json"
    path.write_bytes(b"\xff\xfe" + json.dumps({"elements": ["0"], "leq": []}).encode("utf-16-le"))
    code, out, err = run_cli(
        capsys, "valid", "--lattice", str(path), "--formula", "p", "--max-worlds", "1"
    )
    assert (code, out) == (2, "")
    assert err.startswith("error: FileFormatError: cannot read lattice file") and err.count("\n") == 1
    code, out, err = run_cli(capsys, "eval", "--model", str(path), "--formula", "p")
    assert (code, out) == (2, "")
    assert err.startswith("error: FileFormatError: cannot read model file")


def test_relation_pairs_must_name_worlds(tmp_path, capsys):
    lattice_path = write_chain3(tmp_path, designated=["h", "1"])
    model = {
        "lattice": lattice_path.name,
        "worlds": ["w"],
        "rel": [[["w"], "w"]],
        "valuation": {"w": {"p": "h"}},
    }
    model_path = tmp_path / "model.json"
    model_path.write_text(json.dumps(model))
    code, out, err = run_cli(capsys, "eval", "--model", str(model_path), "--formula", "p")
    assert (code, out) == (2, "")
    assert err == 'error: FileFormatError: "rel" must be a list of [world, world] pairs\n'


def test_an_unexpected_exception_exits_3_with_one_line(monkeypatch, capsys):
    import latmodal.cli

    def broken(args):
        raise ValueError("broken handler")

    monkeypatch.setattr(latmodal.cli, "_cmd_construct", broken)
    code, out, err = run_cli(capsys, "construct", "--kind", "chain:3")
    assert (code, out) == (3, "")
    assert err == "error: internal: ValueError: broken handler\n"


def test_verify_twist_k_at_default_bounds(capsys):
    code, out, _ = run_cli(capsys, "verify", "--theorem", "twist_k", "--compact")
    assert code == 0
    report = json.loads(out)["reports"][0]
    assert report["universe"]["twist_atoms"] == [1, 2]

    from latmodal import run_suite

    # the report run_suite gives at its defaults
    suite_report = next(r for r in run_suite()[0] if r.theorem == "twist_k")
    assert report == suite_report.to_dict()


def test_valid_exit_codes_and_messages_at_the_bounds(tmp_path, capsys):
    no_imp = write_chain3(tmp_path, designated=["1"])
    _, out, _ = run_cli(
        capsys, "construct", "--kind", "chain:7", "--imp", "deductive_eq1",
        "--designated", "1", "--compact",
    )
    c7 = tmp_path / "c7.json"
    c7.write_text(out)
    guard = "error: BoundTooLarge: "
    cases = [
        # the irreflexive one-world frame falsifies p before -> is reached
        (no_imp, "p & [](p -> q)", "3", [], 1, ""),
        (no_imp, "[](p -> q)", "3", [], 2,
         "error: MissingOperation: operation 'imp' is not defined on this lattice\n"),
        (c7, "[](p & q & r) -> []r", "3", [], 2,
         guard + "7^9 valuations exceed the guard; pass unsafe_bounds=True to override\n"),
        (c7, "[](p & q & r) -> []r", "2", [], 0, ""),
        (c7, "[]p -> []p", "0", [], 2,
         "error: InvalidInput: world bound must be at least 1, got 0\n"),
        (c7, "[]p -> []p", "5", [], 2, guard + "frame enumeration is guarded to 4 worlds\n"),
        (c7, "[]p -> p", "2", ["--box", "local"], 0, ""),
        (c7, "[]p -> p", "2", [], 1, ""),
    ]
    for path, text, bound, extra, expected_code, expected_err in cases:
        code, out, err = run_cli(
            capsys, "valid", "--lattice", str(path), "--formula", text,
            "--max-worlds", bound, "--compact", *extra,
        )
        assert (code, err) == (expected_code, expected_err), text
        if code == 1:
            assert json.loads(out)["counterexample"]["value"] == "0"
        else:
            assert out == "" if code == 2 else json.loads(out)["valid"] is True
