"""Inference systems with corules: inductive, coinductive, and generated
interpretations, proof-principle checking, and lasso-colist predicates."""

from .colist import Colist, Finite, Lasso, SuffixAutomaton, equal, get, pointwise, suffix, suffix_automaton
from .inference import (BOUNDEDNESS, CLOSEDNESS, CONSISTENCY, CheckReport, Failure,
                        InferenceSystem, InternalError, JudgmentSet, Rule,
                        bounded_coinduction_check, coind_interpretation, gen_interpretation,
                        ind_interpretation, is_closed, is_consistent, rule)
from .predicates import (EVEN, FAMILIES, ODD, POSITIVE, ElementPredicate, Family, JudgmentScheme,
                         Kind, decide_direct, eq_to, greater_than, predicate_by_name,
                         gen_allpos_system, gen_always_system, gen_eventually_system,
                         gen_infoften_system, gen_maxelem_system, gen_member_system, max_of,
                         spec_oracle, three_way)
from .prooftree import (FiniteProofTree, RationalNode, RationalProofTree, StructuralError,
                        check_finite, check_rational_in_gen, extract_finite_proof,
                        extract_rational_proof, is_acyclic)

__all__ = [
    # colist
    "Colist", "Finite", "Lasso", "SuffixAutomaton", "equal", "get", "pointwise", "suffix",
    "suffix_automaton",
    # inference
    "BOUNDEDNESS", "CLOSEDNESS", "CONSISTENCY", "CheckReport", "Failure", "InferenceSystem",
    "InternalError", "JudgmentSet", "Rule", "bounded_coinduction_check", "coind_interpretation",
    "gen_interpretation", "ind_interpretation", "is_closed", "is_consistent", "rule",
    # predicates
    "EVEN", "FAMILIES", "ODD", "POSITIVE", "ElementPredicate", "Family", "JudgmentScheme", "Kind",
    "decide_direct", "eq_to", "greater_than", "predicate_by_name",
    "gen_allpos_system", "gen_always_system", "gen_eventually_system", "gen_infoften_system",
    "gen_maxelem_system", "gen_member_system", "max_of", "spec_oracle", "three_way",
    # prooftree
    "FiniteProofTree", "RationalNode", "RationalProofTree", "StructuralError", "check_finite",
    "check_rational_in_gen", "extract_finite_proof", "extract_rational_proof", "is_acyclic",
]
