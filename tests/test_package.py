import importlib
import inspect
from functools import cached_property
import pickle
import pkgutil
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

import corules

README = Path(__file__).resolve().parent.parent / "README.md"

PUBLIC = [  # sorted
    "BOUNDEDNESS", "CLOSEDNESS", "CONSISTENCY", "CheckReport", "Colist", "EVEN",
    "ElementPredicate", "FAMILIES", "Failure", "Family", "Finite",
    "InferenceSystem", "InternalError", "JudgmentScheme", "JudgmentSet", "Kind", "Lasso", "ODD",
    "POSITIVE", "RationalProofTree", "Rule", "StructuralError",
    "SuffixAutomaton", "bounded_coinduction_check", "check_finite", "check_rational_in_gen",
    "coind_interpretation", "decide_direct", "eq_to", "extract_finite_proof",
    "extract_rational_proof", "gen_allpos_system", "gen_always_system", "gen_eventually_system",
    "gen_infoften_system", "gen_interpretation", "gen_maxelem_system", "gen_member_system",
    "get", "greater_than", "ind_interpretation", "is_acyclic", "is_closed", "is_consistent",
    "predicate_by_name", "rule", "spec_oracle", "suffix",
    "suffix_automaton", "three_way",
]


HOMES = ("colist", "inference", "predicates", "principles", "prooftree")


def test_all_lists_every_public_name_and_no_module():
    # exports load on first use, so resolve every one before reading vars()
    for name in corules.__all__:
        assert not isinstance(getattr(corules, name), types.ModuleType), name
    public = {name for name, value in vars(corules).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert len(set(corules.__all__)) == len(corules.__all__)
    assert set(corules.__all__) == public


def test_each_export_is_the_object_of_its_home_module():
    assert tuple(corules._EXPORTS) == HOMES
    for home, names in corules._EXPORTS.items():
        module = importlib.import_module(f"corules.{home}")
        for name in names:
            assert getattr(corules, name) is getattr(module, name), f"{home}.{name}"
    # defined beside InternalError, so every command catches it without prooftree
    assert corules.StructuralError is corules.prooftree.StructuralError
    assert corules.StructuralError.__module__ == "corules.inference"


# CheckReport((Failure(2, CONSISTENCY),), {0: 1}), pickled when the checks lived in inference
OLD_REPORT = (b"\x80\x04\x95U\x00\x00\x00\x00\x00\x00\x00\x8c\x11corules.inference\x94"
              b"\x8c\x0bCheckReport\x94\x93\x94h\x00\x8c\x07Failure\x94\x93\x94K\x02"
              b"\x8c\x0bconsistency\x94N\x87\x94R\x94\x85\x94}\x94K\x00K\x01s\x86\x94R\x94.")


def test_inference_answers_for_each_name_of_principles(monkeypatch):
    # the checks moved to principles: inference reads each of their names from there on
    # first use and keeps it, so its old callers and reports pickled before still work
    inference, principles = corules.inference, corules.principles
    for name in corules._EXPORTS["principles"]:
        monkeypatch.delitem(vars(inference), name, raising=False)
        assert getattr(inference, name) is getattr(principles, name)
        assert vars(inference)[name] is getattr(principles, name)
    with pytest.raises(AttributeError, match="has no attribute 'restrict'"):
        getattr(inference, "restrict")
    report = corules.CheckReport((corules.Failure(2, corules.CONSISTENCY),), {0: 1})
    assert pickle.loads(OLD_REPORT) == report


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from corules import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == PUBLIC
    assert all(namespace[name] is getattr(corules, name) for name in PUBLIC)


def test_lazy_lookup_reads_an_export_a_home_module_or_nothing():
    # __getattr__ called directly, since these names may be cached here already
    assert corules.__getattr__("Kind") is corules.predicates.Kind
    assert vars(corules)["Kind"] is corules.predicates.Kind
    assert corules.__getattr__("prooftree") is importlib.import_module("corules.prooftree")
    with pytest.raises(AttributeError, match="has no attribute 'restrict'"):
        corules.__getattr__("restrict")
    assert getattr(corules, "restrict", None) is None
    assert not hasattr(corules, "interpret")  # public in inference, not exported
    assert set(PUBLIC) | set(HOMES) <= set(dir(corules))


def test_a_bare_import_loads_no_submodule_and_resolves_each_home():
    code = ("import sys\n"
            f"sys.path.append({str(Path(corules.__file__).resolve().parent.parent)!r})\n"
            "import corules\n"
            "def loaded():\n"
            "    return sorted(m for m in sys.modules if m.partition('.')[0] == 'corules')\n"
            "print(loaded(), set(corules.__all__).union(sys.argv[1:]) <= set(dir(corules)))\n"
            "print([getattr(corules, home).__name__ for home in sys.argv[1:]])\n"
            "print(loaded())\n")
    done = subprocess.run([sys.executable, "-c", code, *HOMES], capture_output=True,
                          text=True, check=True)
    homes = [f"corules.{home}" for home in HOMES]
    assert done.stdout.splitlines() == [
        "['corules'] True", str(homes), str(sorted(["corules", *homes]))]


def test_public_names_are_pinned():
    assert sorted(corules.__all__) == PUBLIC and len(PUBLIC) == 50


def modules():
    """The package and each of its modules."""
    found = [corules] + [importlib.import_module(f"corules.{m.name}")
                         for m in pkgutil.iter_modules(corules.__path__)]
    assert {m.__name__ for m in found} >= {"corules.inference", "corules.predicates",
                                           "corules.prooftree"}
    return found


def test_test_only_helpers_stay_out_of_the_library():
    # the step reference, the restriction and the colist comparisons live in tests/util.py
    for module in modules():
        for name in ("apply_step", "derivation_rounds", "restrict", "from_table", "equal",
                     "pointwise", "max_of"):
            assert not hasattr(module, name), f"{module.__name__}.{name}"


def test_a_rational_proof_node_is_a_table_entry():
    # no node type: a rational proof's nodes are (judgment, rule index, children) tuples
    for module in modules():
        assert not hasattr(module, "RationalNode"), module.__name__


def test_each_thing_is_said_once():
    # the operators are a judgment set's only algebra, and truth comes from len
    for name in ("union", "intersection", "difference", "is_subset_of", "empty", "full", "ids",
                 "__bool__"):
        assert not hasattr(corules.JudgmentSet, name), name
    assert not hasattr(corules.SuffixAutomaton, "states")  # range(state_count)
    # a report's ok is read from its failures, a file's names from its system's labels
    assert "ok" not in inspect.signature(corules.CheckReport).parameters
    assert corules.CheckReport.__match_args__ == ("failures", "witnesses")
    assert isinstance(inspect.getattr_static(corules.CheckReport, "ok"), property)
    from corules.cli import SystemFile
    assert list(inspect.signature(SystemFile).parameters) == ["system", "spec"]
    assert "names" not in SystemFile.__slots__
    assert isinstance(inspect.getattr_static(SystemFile, "names"), property)
    # which rules a proof may use is decided where its steps are matched
    checked_walk = corules.prooftree._checked_walk
    assert list(inspect.signature(checked_walk).parameters) == ["tree", "system"]


def test_a_system_keeps_each_pass_one_way():
    # each pass returns its evidence, and a system caches it with inference._cached, a
    # cached_property without a lock: only that descriptor writes into a system's __dict__
    system_type, cached = corules.InferenceSystem, corules.inference._cached
    names = ("_ind", "_bound", "_gen", "_users", "rules", "corules", "labels")
    for name in names:
        assert type(inspect.getattr_static(system_type, name)) is cached, name
    assert {name for name, value in vars(system_type).items()
            if isinstance(value, (cached_property, property))} == set(names)
    for name in ("_layers", "_rule", "_waiting", "_kept"):
        assert not hasattr(system_type, name), name
    system = system_type(3, [corules.rule(0), corules.rule(1, 2)], [corules.rule(2)])
    for query in (corules.gen_interpretation, corules.ind_interpretation,
                  corules.coind_interpretation):
        query(system)
    corules.extract_rational_proof(system, 1)
    assert set(system.__dict__) == {"_ind", "_bound", "_gen", "_users"}
    assert "__dict__[" in inspect.getsource(cached.__get__)
    for path in sorted(Path(corules.__file__).parent.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        assert text.count("__dict__[") == (path.name == "inference.py"), path.name
        assert "@cached_property" not in text, path.name


def test_a_module_answers_for_a_name_it_does_not_own_one_way(monkeypatch):
    # the package, inference and cli each bind a closure of _forward as their PEP 562
    # hook, and no other function of the package is a module's __getattr__
    cli = importlib.import_module("corules.cli")
    forwarding = (corules, corules.inference, cli)
    for module in forwarding:
        assert module.__getattr__.__qualname__.startswith("_forward."), module.__name__
    for module in modules():
        hook = vars(module).get("__getattr__")
        assert hook is None or module in forwarding, module.__name__
    for path in sorted(Path(corules.__file__).parent.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        assert text.count("def __getattr__") == (path.name == "__init__.py"), path.name
    # cli answers for the colist readers and writer of colist with colist's objects, and
    # keeps them
    colist = importlib.import_module("corules.colist")
    for name in ("parse_colist", "format_colist", "parse_candidates"):
        monkeypatch.delitem(vars(cli), name, raising=False)
        assert getattr(cli, name) is getattr(colist, name)
        assert vars(cli)[name] is getattr(colist, name)
    # perfbench/spans.py's install reads each module's wrappable names this way
    for module in forwarding:
        assert getattr(module, "restrict", None) is None
        with pytest.raises(AttributeError) as excinfo:
            getattr(module, "restrict")
        assert str(excinfo.value) == f"module {module.__name__!r} has no attribute 'restrict'"


def test_readme_python_blocks_run():
    # each fenced python block of README.md runs as written, in a fresh namespace
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```$", text, re.MULTILINE | re.DOTALL)
    assert len(blocks) == text.count("```python") >= 2
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
