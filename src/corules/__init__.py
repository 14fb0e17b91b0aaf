"""Inference systems with corules: inductive, coinductive, and generated
interpretations, proof-principle checking, and lasso-colist predicates.

Each export loads on first use: ``import corules`` imports no submodule, and reading a
name (or ``from corules import name``) imports only its home module, which resolves as an
attribute too: a program never compiles the home modules it never touches, such as
``predicates`` or ``prooftree``. ``_forward`` makes this lookup, and the one by which
``inference`` and ``cli`` answer for the names that moved out of them.
"""

from importlib import import_module as _import_module

# Each home module and the names it exports, written once here.
_EXPORTS = {
    "colist": ("Colist", "Finite", "Lasso", "SuffixAutomaton", "get", "suffix",
               "suffix_automaton"),
    "inference": ("InferenceSystem", "InternalError", "JudgmentSet", "Rule", "StructuralError",
                  "coind_interpretation", "gen_interpretation", "ind_interpretation", "rule"),
    "predicates": ("EVEN", "FAMILIES", "ODD", "POSITIVE", "ElementPredicate", "Family",
                   "JudgmentScheme", "Kind", "decide_direct", "eq_to", "greater_than",
                   "predicate_by_name", "gen_allpos_system", "gen_always_system",
                   "gen_eventually_system", "gen_infoften_system", "gen_maxelem_system",
                   "gen_member_system", "spec_oracle", "three_way"),
    "principles": ("BOUNDEDNESS", "CLOSEDNESS", "CONSISTENCY", "CheckReport", "Failure",
                   "bounded_coinduction_check", "is_closed", "is_consistent"),
    "prooftree": ("RationalProofTree", "check_finite", "check_rational_in_gen",
                  "extract_finite_proof", "extract_rational_proof", "is_acyclic"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)


def _forward(namespace: dict, homes: dict[str, str]):
    """The PEP 562 ``__getattr__`` of the module whose globals are ``namespace``: a name of
    ``homes`` is imported from its home module (a home module's own name is the module)
    and kept in ``namespace``; any other name raises AttributeError naming the module."""
    def __getattr__(name: str):
        home = homes.get(name)
        if home is None:
            raise AttributeError(f"module {namespace['__name__']!r} has no attribute {name!r}")
        module = _import_module(f".{home}", __name__)
        namespace[name] = value = module if name == home else getattr(module, name)
        return value
    return __getattr__


__getattr__ = _forward(globals(), {**_HOME, **{home: home for home in _EXPORTS}})


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__) | set(_EXPORTS))
