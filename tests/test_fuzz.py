"""Hostile input: the parser and the file loaders raise only LatModalError.

Hypothesis runs derandomized, so every run tries the same examples and the
suite stays seedless.
"""

import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from latmodal import LatModalError, parse
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
