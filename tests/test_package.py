import importlib
import pkgutil
import re
import types
from pathlib import Path

import corules

README = Path(__file__).resolve().parent.parent / "README.md"

PUBLIC = [  # sorted
    "BOUNDEDNESS", "CLOSEDNESS", "CONSISTENCY", "CheckReport", "Colist", "EVEN",
    "ElementPredicate", "FAMILIES", "Failure", "Family", "Finite", "FiniteProofTree",
    "InferenceSystem", "InternalError", "JudgmentScheme", "JudgmentSet", "Kind", "Lasso", "ODD",
    "POSITIVE", "RationalProofTree", "Rule", "StructuralError",
    "SuffixAutomaton", "bounded_coinduction_check", "check_finite", "check_rational_in_gen",
    "coind_interpretation", "decide_direct", "eq_to", "equal", "extract_finite_proof",
    "extract_rational_proof", "gen_allpos_system", "gen_always_system", "gen_eventually_system",
    "gen_infoften_system", "gen_interpretation", "gen_maxelem_system", "gen_member_system",
    "get", "greater_than", "ind_interpretation", "is_acyclic", "is_closed", "is_consistent",
    "max_of", "pointwise", "predicate_by_name", "rule", "spec_oracle", "suffix",
    "suffix_automaton", "three_way",
]


def test_all_lists_every_public_name_and_no_module():
    public = {name for name, value in vars(corules).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert len(set(corules.__all__)) == len(corules.__all__)
    assert set(corules.__all__) == public
    for name in corules.__all__:
        assert not isinstance(getattr(corules, name), types.ModuleType), name


def test_public_names_are_pinned():
    assert sorted(corules.__all__) == PUBLIC and len(PUBLIC) == 54


def modules():
    """The package and each of its modules."""
    found = [corules] + [importlib.import_module(f"corules.{m.name}")
                         for m in pkgutil.iter_modules(corules.__path__)]
    assert {m.__name__ for m in found} >= {"corules.inference", "corules.predicates",
                                           "corules.prooftree"}
    return found


def test_test_only_helpers_stay_out_of_the_library():
    # the step reference and the restriction live in tests/util.py
    for module in modules():
        for name in ("apply_step", "derivation_rounds", "restrict", "from_table"):
            assert not hasattr(module, name), f"{module.__name__}.{name}"


def test_a_rational_proof_node_is_a_table_entry():
    # no node type: a rational proof's nodes are (judgment, rule index, children) tuples
    for module in modules():
        assert not hasattr(module, "RationalNode"), module.__name__


def test_readme_python_blocks_run():
    # each fenced python block of README.md runs as written, in a fresh namespace
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```$", text, re.MULTILINE | re.DOTALL)
    assert len(blocks) == text.count("```python") >= 2
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
