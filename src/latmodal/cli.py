"""Command-line front-end.

Exit codes are the machine contract: 0 when the checked property holds (or
plain output succeeded), 1 when a counterexample or property failure was
found (the report goes to standard output as JSON), 2 for input or usage
errors, input nested too deeply to process included, and 3 for an internal
error (any other exception, reported on one line of standard error).  JSON
output is deterministic: sorted keys, pretty-printed unless --compact is
given.

The search, the harness and the lattice builders and enumerators are
imported inside the commands that use them, so a command compiles and loads
only the modules it runs, and a command builds only its own parser.
"""

from __future__ import annotations

import argparse
import sys

from . import THEOREM_IDS
from .errors import LatModalError, NotALattice, NotAPoset
from .formula import parse, render
from .kripke import BoxMode, evaluate
from .lattice import (
    DEDUCTIVE_EQ1,
    MATERIAL,
    Matrix,
    build_implication,
    check_designated,
    check_lattice_properties,
    classify_implication,
    entails,
)
from .serialize import dumps, load_lattice, load_model

_BOX_MODES = {"normal": BoxMode.NORMAL_MEET, "local": BoxMode.LOCAL}


def _emit(args, payload) -> None:
    print(dumps(payload, compact=getattr(args, "compact", False)))


def _names(lattice, witness):
    if witness is None:
        return None
    if isinstance(witness, int):
        return lattice.elements[witness]
    return [
        sorted(lattice.elements[i] for i in w)
        if isinstance(w, frozenset)
        else lattice.elements[w]
        for w in witness
    ]


def _require_matrix(path: str) -> Matrix:
    lattice, designated = load_lattice(path)
    if designated is None:
        raise LatModalError(
            f'lattice file {path} carries no "designated" set, which this command needs'
        )
    return Matrix(lattice, designated)


def _cmd_lattice(args) -> int:
    try:
        lattice, designated = load_lattice(args.file)
    except LatModalError as exc:
        if isinstance(exc, (NotAPoset, NotALattice)):
            _emit(args, {"valid": False, "error": type(exc).__name__, "detail": str(exc)})
            return 1
        raise
    props = check_lattice_properties(lattice, down_distribution_mode=args.down_distribution)
    payload = {
        "valid": True,
        "name": lattice.name,
        "elements": list(lattice.elements),
        "top": lattice.elements[lattice.top],
        "bottom": lattice.elements[lattice.bottom],
        "properties": {
            "anti_monotone": props.anti_monotone,
            "anti_monotone_witness": _names(lattice, props.anti_monotone_witness),
            "involutive": props.involutive,
            "involutive_witness": _names(lattice, props.involutive_witness),
            "down_distribution": props.down_distribution,
            "down_distribution_witness": _names(lattice, props.down_distribution_witness),
        },
    }
    if designated is not None:
        matrix = Matrix(lattice, designated)
        dprops = check_designated(matrix)
        payload["designated"] = matrix.designated_names()
        payload["designated_properties"] = {
            "upward_closed": dprops.upward_closed,
            "upward_witness": _names(lattice, dprops.upward_witness),
            "is_filter": dprops.is_filter,
            "filter_witness": _names(lattice, dprops.filter_witness),
            "is_implicative": dprops.is_implicative,
            "implicative_witness": _names(lattice, dprops.implicative_witness),
            "linear_outside": dprops.linear_outside,
            "linear_witness": _names(lattice, dprops.linear_witness),
        }
        if lattice.imp is not None:
            cls = classify_implication(matrix)
            payload["implication"] = {
                "mode": lattice.imp.mode,
                "deductive": cls.deductive,
                "deductive_witness": _names(lattice, cls.deductive_witness),
                "strictly_deductive": cls.strictly_deductive,
                "strict_witness": _names(lattice, cls.strict_witness),
            }
    _emit(args, payload)
    return 0


def _cmd_eval(args) -> int:
    model, designated = load_model(args.model)
    formula = parse(args.formula)
    mode = _BOX_MODES[args.box]
    worlds = model.frame.worlds
    targets = range(len(worlds))
    if args.world is not None:
        if args.world not in worlds:
            raise LatModalError(f"unknown world {args.world!r}")
        targets = [worlds.index(args.world)]
    values = {}
    all_designated = True
    for w in targets:
        value = evaluate(model, w, formula, mode)
        entry = {"value": model.lattice.elements[value]}
        if designated is not None:
            entry["designated"] = value in designated
            all_designated = all_designated and value in designated
        values[worlds[w]] = entry
    _emit(args, {"formula": render(formula), "box": args.box, "worlds": values})
    if designated is not None and not all_designated:
        return 1
    return 0


def _cmd_valid(args) -> int:
    from .search import find_frame_counterexample

    matrix = _require_matrix(args.lattice)
    formula = parse(args.formula)
    report = find_frame_counterexample(
        matrix,
        formula,
        args.max_worlds,
        _BOX_MODES[args.box],
        unsafe_bounds=args.unsafe_bounds,
    )
    if report is None:
        _emit(
            args,
            {
                "valid": True,
                "formula": render(formula),
                "max_worlds": args.max_worlds,
                "box": args.box,
            },
        )
        return 0
    _emit(args, {"valid": False, "counterexample": report.to_dict()})
    return 1


def _cmd_entails(args) -> int:
    matrix = _require_matrix(args.lattice)
    premises = [parse(text) for text in args.premises]
    conclusion = parse(args.conclusion)
    result = entails(matrix, premises, conclusion, unsafe_bounds=args.unsafe_bounds)
    payload = {
        "premises": [render(p) for p in premises],
        "conclusion": render(conclusion),
        "holds": result.holds,
    }
    if result.witness is not None:
        payload["witness"] = {
            var: matrix.lattice.elements[v] for var, v in result.witness.items()
        }
    _emit(args, payload)
    return 0 if result.holds else 1


def _cmd_regular(args) -> int:
    from .search import check_regularity

    matrix = _require_matrix(args.lattice)
    result = check_regularity(matrix, args.max_worlds, unsafe_bounds=args.unsafe_bounds)
    payload = {
        "regular": result.regular,
        "structural": {
            "is_filter": result.is_filter,
            "meet_in_designated": result.meet_in_designated,
        },
    }
    if result.witness is not None:
        payload["witness"] = result.witness.to_dict()
    _emit(args, payload)
    return 0 if result.regular else 1


def _cmd_enumerate(args) -> int:
    from .enumeration import enumerate_complementations, enumerate_lattices

    for lattice in enumerate_lattices(args.size, unsafe_bounds=args.unsafe_bounds):
        if args.neg is None:
            print(dumps(lattice.to_dict(), compact=True))
            continue
        mode = "antimonotone_involutions" if args.neg == "antimonotone-involutions" else "all_maps"
        for neg in enumerate_complementations(lattice, mode):
            print(dumps(lattice.with_neg(neg).to_dict(), compact=True))
    return 0


def _count(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise LatModalError(f"construct count {text!r} is not an integer") from None


def _cmd_construct(args) -> int:
    from .constructions import antichain_k5, belnap_four, boolean_algebra, chain, twist

    parts = args.kind.split(":")
    kind = parts[0]
    if kind == "boolean" and len(parts) == 2:
        payload_obj = boolean_algebra(_count(parts[1]))
    elif kind == "chain" and len(parts) in (2, 3):
        payload_obj = chain(_count(parts[1]), parts[2] if len(parts) == 3 else "flip")
    elif kind == "belnap" and len(parts) == 1:
        payload_obj = belnap_four()
    elif kind == "k5" and len(parts) == 1:
        payload_obj = antichain_k5()
    elif kind == "twist" and len(parts) in (2, 3):
        if len(parts) == 3 and parts[2] != "P":
            raise LatModalError(f"unknown twist restriction {parts[2]!r}")
        payload_obj = twist(boolean_algebra(_count(parts[1])), restrict_p=len(parts) == 3)
    else:
        raise LatModalError(
            f"unknown construct kind {args.kind!r}; expected boolean:k, chain:n[:flip|none], "
            "belnap, k5, or twist:k[:P]"
        )
    lattice = payload_obj.lattice if isinstance(payload_obj, Matrix) else payload_obj
    designated = payload_obj.designated if isinstance(payload_obj, Matrix) else None
    if args.imp is not None:
        lattice = lattice.with_imp(build_implication(lattice, args.imp))
    if args.designated is not None:
        names = []
        for token in args.designated:
            # a token is either one element name (may contain commas, as
            # twist pair names do) or a comma-separated list of names
            if token in lattice.elements:
                names.append(token)
            else:
                names.extend(x for x in token.split(",") if x)
        designated = frozenset(lattice.index(x) for x in names)
    payload = (
        Matrix(lattice, designated).to_dict() if designated is not None else lattice.to_dict()
    )
    _emit(args, payload)
    return 0


def _cmd_verify(args) -> int:
    from .harness import HarnessConfig, run_suite, verify_theorem

    if args.all:
        config = HarnessConfig(
            size_bound=args.max_size,
            world_bound=args.max_worlds,
            unsafe_bounds=args.unsafe_bounds,
        )
        reports, status = run_suite(config)
    else:
        if args.theorem is None:
            raise LatModalError("verify needs --theorem <id> or --all")
        report = verify_theorem(
            args.theorem,
            args.max_size,
            args.max_worlds,
            unsafe_bounds=args.unsafe_bounds,
        )
        reports, status = [report], 0 if report.passed else 1
    _emit(
        args,
        {"passed": status == 0, "reports": [r.to_dict() for r in reports]},
    )
    return status


# each command, run by _cmd_<name>: its help, whether it takes
# --unsafe-bounds, and its own arguments in the order of its usage line
_COMMANDS = {
    "lattice": ("validate and report on a lattice file", False, [
        ("action", {"choices": ["check"]}),
        ("file", {}),
        ("--down-distribution", {
            "choices": ["fast", "exhaustive"], "default": "fast",
            "help": "how to check down-distribution",
        }),
    ]),
    "eval": ("evaluate a formula on a model file", False, [
        ("--model", {"required": True}),
        ("--formula", {"required": True}),
        ("--world", {}),
        ("--box", {"choices": sorted(_BOX_MODES), "default": "normal"}),
    ]),
    "valid": ("search frames for a counterexample", True, [
        ("--lattice", {"required": True}),
        ("--formula", {"required": True}),
        ("--max-worlds", {"type": int, "required": True}),
        ("--box", {"choices": sorted(_BOX_MODES), "default": "normal"}),
    ]),
    "entails": ("brute-force the consequence relation", True, [
        ("--lattice", {"required": True}),
        ("--premises", {"nargs": "*", "default": []}),
        ("--conclusion", {"required": True}),
    ]),
    "regular": ("check necessity-means-all-successors", True, [
        ("--lattice", {"required": True}),
        ("--max-worlds", {"type": int, "default": 2}),
    ]),
    "enumerate": ("emit lattices as JSON lines", True, [
        ("--size", {"type": int, "required": True}),
        ("--neg", {"choices": ["antimonotone-involutions", "all-maps"]}),
    ]),
    "construct": ("emit a built-in lattice", False, [
        ("--kind", {"required": True}),
        ("--designated", {
            "nargs": "+", "help": "element names to designate (space- or comma-separated)",
        }),
        ("--imp", {"choices": [MATERIAL, DEDUCTIVE_EQ1]}),
    ]),
    "verify": ("run the verification harness", True, [
        ("--theorem", {"choices": list(THEOREM_IDS)}),
        ("--all", {"action": "store_true"}),
        ("--max-size", {"type": int, "default": 5}),
        ("--max-worlds", {"type": int, "default": 3}),
    ]),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every command, or of ``command`` alone where it names
    one.  argparse translates each help string through ``gettext`` as it
    builds a parser, so a process builds only the parser it runs."""
    parser = argparse.ArgumentParser(
        prog="latmodal",
        description="Finite lattice-based logics, modal evaluation, and desk-scale verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (text, bounded, arguments) in _COMMANDS.items():
        if command in _COMMANDS and name != command:
            continue
        p = sub.add_parser(name, help=text)
        p.add_argument("--compact", action="store_true", help="single-line JSON output")
        if bounded:
            p.add_argument(
                "--unsafe-bounds", action="store_true", help="override the built-in size guards"
            )
        for flag, options in arguments:
            p.add_argument(flag, **options)
        p.set_defaults(func=globals()[f"_cmd_{name}"])
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # the command's own parser; the full one answers for no command, an
    # unknown one or --help, and reports arguments that the command rejects
    args, rejected = build_parser(argv[0] if argv else None).parse_known_args(argv)
    if rejected:
        build_parser().parse_args(argv)
    try:
        return args.func(args)
    except LatModalError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except RecursionError as exc:
        print(f"error: RecursionError: input nested too deeply ({exc})", file=sys.stderr)
        return 2
    except Exception as exc:  # a fault of the program, not of the input
        print(f"error: internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
