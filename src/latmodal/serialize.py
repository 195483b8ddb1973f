"""JSON file formats for lattices and Kripke models.

Lattice files:

    { "name": str, "elements": [str...], "leq": [[str, str]...],
      "neg": {str: str}?,
      "imp": {"mode": "material"|"deductive_eq1"|"table", "table": {...}?}?,
      "designated": [str...]? }

"leq" entries are order pairs (Hasse edges or any relation; the closure is
computed).  "imp.table" is required exactly when mode is "table".  Model
files:

    { "lattice": <lattice object or file path>, "worlds": [str...],
      "rel": [[str, str]...], "valuation": {world: {var: element}} }

Unknown keys are rejected in both formats.  Dumps are deterministic: sorted
keys, and the same input always produces byte-identical output.
"""

from __future__ import annotations

import json
from collections.abc import Iterable
from pathlib import Path

from .errors import FileFormatError, LatModalError, NotALattice, NotAPoset
from .kripke import Frame, KripkeModel
from .lattice import (
    DEDUCTIVE_EQ1,
    MATERIAL,
    ImplicationTable,
    Lattice,
    build_implication,
    validate_lattice,
)

_LATTICE_KEYS = {"name", "elements", "leq", "neg", "imp", "designated"}
_IMP_KEYS = {"mode", "table"}
_MODEL_KEYS = ("lattice", "worlds", "rel", "valuation")  # the order missing keys are named in


def dumps(payload, compact: bool = False) -> str:
    if compact:
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return json.dumps(payload, sort_keys=True, indent=2)


def _reject_unknown(data: dict, allowed: Iterable[str], what: str) -> None:
    unknown = set(data).difference(allowed)
    if unknown:
        raise FileFormatError(f"unknown {what} keys: {sorted(unknown)}")


def lattice_from_dict(data: dict) -> tuple[Lattice, frozenset[int] | None]:
    """Parse the lattice object; returns the lattice and the designated set
    if one is present."""
    if not isinstance(data, dict):
        raise FileFormatError("lattice description must be a JSON object")
    _reject_unknown(data, _LATTICE_KEYS, "lattice")
    try:
        elements = data["elements"]
        pairs = data["leq"]
    except KeyError as exc:
        raise FileFormatError(f"lattice description needs key {exc.args[0]!r}") from None
    if not isinstance(elements, list) or not all(isinstance(x, str) for x in elements):
        raise FileFormatError('"elements" must be a list of strings')
    if not isinstance(pairs, list) or not all(
        isinstance(p, list) and len(p) == 2 and all(isinstance(x, str) for x in p)
        for p in pairs
    ):
        raise FileFormatError('"leq" must be a list of [element, element] pairs')
    try:
        lat = validate_lattice(elements, [tuple(p) for p in pairs], name=data.get("name", ""))
        if "neg" in data:
            neg_map = data["neg"]
            if not isinstance(neg_map, dict) or set(neg_map) != set(elements):
                raise FileFormatError('"neg" must map every element to an element')
            lat = lat.with_neg([lat.index(neg_map[x]) for x in lat.elements])
        if "imp" in data:
            lat = lat.with_imp(_imp_from_dict(data["imp"], lat))
        designated = None
        if "designated" in data:
            names = data["designated"]
            if not isinstance(names, list):
                raise FileFormatError('"designated" must be a list of element names')
            designated = frozenset(lat.index(x) for x in names)
        return lat, designated
    except (FileFormatError, NotAPoset, NotALattice):
        raise  # order-law violations keep their own types for callers
    except LatModalError as exc:
        raise FileFormatError(str(exc)) from exc


def _imp_from_dict(data, lat: Lattice) -> ImplicationTable:
    if not isinstance(data, dict):
        raise FileFormatError('"imp" must be an object')
    _reject_unknown(data, _IMP_KEYS, "imp")
    mode = data.get("mode")
    if mode in (MATERIAL, DEDUCTIVE_EQ1):
        if "table" in data:
            raise FileFormatError(f'"imp.table" is not allowed with mode {mode!r}')
        return build_implication(lat, mode)
    if mode != "table":
        raise FileFormatError('"imp.mode" must be "material", "deductive_eq1" or "table"')
    table = data.get("table")
    if not isinstance(table, dict) or set(table) != set(lat.elements):
        raise FileFormatError('"imp.table" must have a row for every element')
    rows = []
    for a in lat.elements:
        row = table[a]
        if not isinstance(row, dict) or set(row) != set(lat.elements):
            raise FileFormatError(f'"imp.table" row for {a!r} must cover every element')
        rows.append(tuple(lat.index(row[b]) for b in lat.elements))
    return ImplicationTable(tuple(rows), "custom")


def load_lattice(path: str | Path) -> tuple[Lattice, frozenset[int] | None]:
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError, RecursionError) as exc:  # undecodable bytes and bad JSON too
        raise FileFormatError(f"cannot read lattice file {path}: {exc}") from exc
    return lattice_from_dict(data)


def model_from_dict(
    data: dict, base_dir: Path | None = None
) -> tuple[KripkeModel, frozenset[int] | None]:
    """Parse a model object; the lattice may be inline or a file path
    (resolved against base_dir)."""
    if not isinstance(data, dict):
        raise FileFormatError("model description must be a JSON object")
    _reject_unknown(data, _MODEL_KEYS, "model")
    for key in _MODEL_KEYS:
        if key not in data:
            raise FileFormatError(f"model description needs key {key!r}")
    lattice_entry = data["lattice"]
    if isinstance(lattice_entry, str):
        lattice_path = Path(lattice_entry)
        if base_dir is not None and not lattice_path.is_absolute():
            lattice_path = base_dir / lattice_path
        lat, designated = load_lattice(lattice_path)
    else:
        lat, designated = lattice_from_dict(lattice_entry)
    worlds = data["worlds"]
    if not isinstance(worlds, list) or not all(isinstance(w, str) for w in worlds):
        raise FileFormatError('"worlds" must be a list of strings')
    rel = data["rel"]
    if not isinstance(rel, list) or not all(
        isinstance(p, list) and len(p) == 2 and all(isinstance(x, str) for x in p) for p in rel
    ):
        raise FileFormatError('"rel" must be a list of [world, world] pairs')
    valuation = data["valuation"]
    if not isinstance(valuation, dict) or not all(
        isinstance(v, dict) for v in valuation.values()
    ):
        raise FileFormatError('"valuation" must map worlds to {variable: element}')
    try:
        frame = Frame.from_names(worlds, rel)
        model = KripkeModel.from_names(frame, lat, valuation)
    except LatModalError as exc:
        raise FileFormatError(str(exc)) from exc
    return model, designated


def load_model(path: str | Path) -> tuple[KripkeModel, frozenset[int] | None]:
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError, RecursionError) as exc:  # undecodable bytes and bad JSON too
        raise FileFormatError(f"cannot read model file {path}: {exc}") from exc
    return model_from_dict(data, base_dir=path.parent)
