"""Hostile input: the parser and the file loaders raise only LatModalError,
and the command line keeps its exit-code contract.

Hypothesis runs derandomized, so every run tries the same examples and the
suite stays seedless.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from latmodal import LatModalError, parse
from latmodal.cli import main
from latmodal.serialize import lattice_from_dict, load_lattice, load_model, model_from_dict

fuzz = settings(derandomize=True, max_examples=200, deadline=None)

NAMES = st.sampled_from(["0", "a", "b", "1", "w", "v", "p"]) | st.text(max_size=3)
SCALARS = st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | NAMES
JSON = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(NAMES, inner, max_size=4),
    max_leaves=8,
)
PAIRS = st.lists(st.lists(NAMES | JSON, min_size=2, max_size=2), max_size=5)
IMPS = st.fixed_dictionaries(
    {},
    optional={
        "mode": st.sampled_from(["material", "deductive_eq1", "table"]) | JSON,
        "table": st.dictionaries(NAMES, st.dictionaries(NAMES, NAMES, max_size=4), max_size=4)
        | JSON,
    },
)
# mostly near-valid lattice objects, so that the checks past the first run too
LATTICES = st.fixed_dictionaries(
    {"elements": st.lists(NAMES, max_size=5) | JSON, "leq": PAIRS | JSON},
    optional={
        "name": JSON,
        "neg": st.dictionaries(NAMES, NAMES, max_size=5) | JSON,
        "imp": IMPS | JSON,
        "designated": st.lists(NAMES, max_size=4) | JSON,
    },
) | JSON
CHAIN = {"elements": ["0", "1"], "leq": [["0", "1"]]}
MODELS = st.fixed_dictionaries(
    {
        "lattice": st.just(CHAIN) | LATTICES,
        "worlds": st.just(["w", "v"]) | st.lists(NAMES, max_size=3) | JSON,
        "rel": st.lists(st.lists(st.sampled_from(["w", "v"]) | JSON, min_size=2, max_size=2))
        | PAIRS
        | JSON,
        "valuation": st.dictionaries(NAMES, st.dictionaries(NAMES, NAMES | JSON, max_size=2))
        | JSON,
    },
    optional={"extra": JSON},
)
FORMULA_TEXT = st.text(st.sampled_from(list("pq_x1()~&|->[] \t□¬∧∨→")), max_size=30) | st.text(
    max_size=30
)
WELL_FORMED = st.recursive(
    st.sampled_from(["p", "q", "r"]),
    lambda inner: st.builds("~{}".format, inner)
    | st.builds("[]{}".format, inner)
    | st.builds("({} {} {})".format, inner, st.sampled_from(["&", "|", "->"]), inner),
    max_leaves=6,
)
FILE_BYTES = st.binary(max_size=80) | st.builds(
    lambda data, raw: json.dumps(data).encode()[: len(raw) + 40] + raw,
    st.one_of(LATTICES, MODELS),
    st.binary(max_size=8),
)


def _only_latmodal_errors(call, *args, **kwargs):
    try:
        call(*args, **kwargs)
    except LatModalError:
        pass


@fuzz
@given(FORMULA_TEXT)
def test_parse_raises_only_latmodal_errors(text):
    _only_latmodal_errors(parse, text)


@fuzz
@given(LATTICES)
def test_lattice_from_dict_raises_only_latmodal_errors(data):
    _only_latmodal_errors(lattice_from_dict, data)


@fuzz
@given(MODELS, JSON)
def test_model_from_dict_raises_only_latmodal_errors(data, other):
    # a string "lattice" entry is a path: resolve it inside an empty directory
    with tempfile.TemporaryDirectory() as empty:
        _only_latmodal_errors(model_from_dict, data, base_dir=Path(empty))
        _only_latmodal_errors(model_from_dict, other, base_dir=Path(empty))


@fuzz
@given(FILE_BYTES)
def test_loaders_raise_only_latmodal_errors_on_any_bytes(raw):
    with tempfile.TemporaryDirectory() as work:
        path = Path(work) / "input.json"
        path.write_bytes(raw)
        _only_latmodal_errors(load_lattice, path)
        _only_latmodal_errors(load_model, path)


DATA = Path(__file__).parent / "data"
LATTICE_FILES = [
    str(DATA / name) for name in ("boolean2_a_b_1.json", "chain3_0_1.json", "chain3_eq1_h_1.json")
]
MODEL_FILE = str(DATA / "model_chain3_eq1.json")


@fuzz
@given(
    st.sampled_from(["valid", "entails", "eval"]),
    FORMULA_TEXT | WELL_FORMED,
    st.lists(FORMULA_TEXT | WELL_FORMED, max_size=1),
    st.sampled_from(LATTICE_FILES),
    st.sampled_from(["1", "2"]),
    st.sampled_from(["normal", "local"]),
)
def test_cli_exit_codes_on_any_formula(command, text, premises, lattice, worlds, box):
    # "--flag=text", so that a text starting with "-" is not read as a flag
    if command == "valid":
        argv = [f"--lattice={lattice}", f"--formula={text}", f"--max-worlds={worlds}", f"--box={box}"]
    elif command == "entails":
        argv = [f"--lattice={lattice}", f"--conclusion={text}", *(f"--premises={p}" for p in premises)]
    else:
        argv = [f"--model={MODEL_FILE}", f"--formula={text}", f"--box={box}"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, *argv, "--compact"])
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2), err
    if code == 2:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    else:
        assert err == "" and out.count("\n") == 1 and isinstance(json.loads(out), dict)
