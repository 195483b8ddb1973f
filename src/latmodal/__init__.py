"""Finite lattice-based logics and their meet-over-successors modal
extensions: evaluation, counterexample search, and desk-scale verification
of the box-axiom characterizations.

The public names resolve on first access (PEP 562): importing the package
loads none of its modules, and each name imports just the module that
defines it, so a short command pays only for the modules it uses.
"""

import importlib

# the public names, by the module that defines each
_EXPORTS = {
    "constructions": "belnap_four boolean_algebra chain antichain_k5 twist",
    "enumeration": "enumerate_complementations enumerate_lattices enumerate_upsets",
    "errors": "BoundTooLarge FileFormatError FormulaSyntaxError InvalidInput LatModalError"
    " MissingOperation ModalFormulaRejected NotALattice NotAPoset NotBoolean UnboundVariable"
    " WitnessNotApplicable",
    "formula": "And Box Formula Imp Not Or Var is_modal_free modal_depth parse render"
    " substitute variables",
    "harness": "HarnessConfig TheoremReport k5_regression run_suite verify_theorem",
    "kripke": "BoxMode CounterexampleReport Frame KripkeModel evaluate frame_valid"
    " model_satisfies world_satisfies",
    "lattice": "DEDUCTIVE_EQ1 MATERIAL EntailmentResult ImplicationTable Lattice Matrix apply_op"
    " big_meet build_implication check_designated check_lattice_properties classify_implication"
    " entails from_leq matrix_from_names propositional_value subset_join validate_lattice",
    "search": "AXIOM_K BOX_DISJUNCTION_DIST RegularityResult RegularityWitness check_regularity"
    " construct_witness enumerate_frames find_frame_counterexample",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = list(_MODULE_OF)

__version__ = "0.1.0"

# The checks of `latmodal verify`, defined here so that the command line can
# list them without importing the harness.
THEOREM_IDS = (
    "regularity",
    "eq1_implicative",
    "disj_dist",
    "k_linear",
    "k_material",
    "twist_k",
)


def __getattr__(name: str):
    """A public name, or a submodule that defines some, imported on first
    access and then kept in the package namespace."""
    if name in _MODULE_OF:
        value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    elif name in _EXPORTS:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value
