"""The package's value types, one table row each: construction, defaults,
coercions, validation errors, ``==``, ``hash``, ``repr``, copying and
immutability. A value equals only a value of its own type, never a tuple.
"""

import copy
import pickle
import random
import subprocess
import sys
from pathlib import Path

import pytest

import corules
from corules import (
    CLOSEDNESS,
    POSITIVE,
    CheckReport,
    ElementPredicate,
    Failure,
    Finite,
    InferenceSystem,
    JudgmentScheme,
    JudgmentSet,
    Kind,
    Lasso,
    RationalProofTree,
    Rule,
    SuffixAutomaton,
    coind_interpretation,
    gen_interpretation,
    get,
    bounded_coinduction_check,
    check_finite,
    check_rational_in_gen,
    decide_direct,
    extract_finite_proof,
    extract_rational_proof,
    gen_always_system,
    gen_maxelem_system,
    gen_member_system,
    ind_interpretation,
    is_acyclic,
    is_closed,
    is_consistent,
    rule,
    spec_oracle,
    suffix,
    suffix_automaton,
    three_way,
)
from corules.inference import Value
from corules.cli import (ParseError, SystemFile, format_colist, parse_candidates, parse_colist,
                         parse_system, render_system, run)
from corules.predicates import predicate_by_name
from corules.prooftree import format_finite, format_rational

from util import random_system

EMPTY = frozenset()
R0 = Rule(EMPTY, 0)
R1 = Rule(frozenset({0}), 1)
SYSTEM = InferenceSystem(2, (R0, R1), (), ("a", "b"))
SYSTEM_REPR = ("InferenceSystem(universe_size=2, rules=(Rule(premises=frozenset(), "
               "conclusion=0), Rule(premises=frozenset({0}), conclusion=1)), corules=(), "
               "labels=('a', 'b'))")
AUT = SuffixAutomaton((1, None), (1, None))
AUT_REPR = "SuffixAutomaton(heads=(1, None), nexts=(1, None))"
SPEC = JudgmentSet(2, {1})
NODE = (1, 1, (1,))  # a proof's node: judgment, rule index, child indices
FINITE = ((1, 1, (1,)), (0, 0, ()))  # a finite proof's table: 1 <- 0 above the axiom 0


def holds(n):
    return n > 2


# type, field names, field values, repr
CASES = [
    # a file's names are its system's labels
    (SystemFile, ("system", "spec"), (SYSTEM, SPEC),
     f"SystemFile(system={SYSTEM_REPR}, spec=JudgmentSet(size=2, members=frozenset({{1}})))"),
    (Finite, ("elements",), ((1, 2),), "Finite(elements=(1, 2))"),
    (Lasso, ("prefix", "loop"), ((1,), (2, 3)), "Lasso(prefix=(1,), loop=(2, 3))"),
    (SuffixAutomaton, ("heads", "nexts"), ((1, None), (1, None)), AUT_REPR),
    (Rule, ("premises", "conclusion"), (frozenset({1, 2}), 0),
     "Rule(premises=frozenset({1, 2}), conclusion=0)"),
    (JudgmentSet, ("size", "members"), (3, frozenset({0, 2})),
     "JudgmentSet(size=3, members=frozenset({0, 2}))"),
    (InferenceSystem, ("universe_size", "rules", "corules", "labels"),
     (2, (R0, R1), (), ("a", "b")), SYSTEM_REPR),
    # reports name a rule by its index, here R1's in SYSTEM
    (Failure, ("judgment", "reason", "rule"), (1, CLOSEDNESS, 1),
     "Failure(judgment=1, reason='closedness', rule=1)"),
    # ok is read from the failures
    (CheckReport, ("failures", "witnesses"), ((), {1: 1}),
     "CheckReport(failures=(), witnesses={1: 1})"),
    (ElementPredicate, ("name", "holds"), ("gt:2", holds), "ElementPredicate('gt:2')"),
    (JudgmentScheme, ("kind", "colist", "automaton", "candidates", "predicate"),
     (Kind.MAX_ELEM, Finite((1,)), AUT, (1, 3), None),
     "JudgmentScheme(kind=<Kind.MAX_ELEM: 'max'>, colist=Finite(elements=(1,)), "
     f"automaton={AUT_REPR}, candidates=(1, 3), predicate=None)"),
    # A finite proof is a table without a cycle; the row keeps the id of the
    # FiniteProofTree type it tested before finite proofs were tables.
    (RationalProofTree, ("nodes", "root"), (FINITE, 0),
     "RationalProofTree(nodes=((1, 1, (1,)), (0, 0, ())), root=0)"),
    # A proof of one node, a plain table entry; the row keeps the id of the
    # RationalNode type it tested before nodes were entries.
    (RationalProofTree, ("nodes", "root"), ((NODE,), 0),
     "RationalProofTree(nodes=((1, 1, (1,)),), root=0)"),
    (RationalProofTree, ("nodes", "root"), (((0, 0, ()), NODE), 1),
     "RationalProofTree(nodes=((0, 0, ()), (1, 1, (1,))), root=1)"),
]
IDS = [case[0].__name__ for case in CASES]
IDS[-3:-1] = ["FiniteProofTree", "RationalNode"]

# The message of calling each type with no arguments.
MISSING = {
    SystemFile: "2 required positional arguments: 'system' and 'spec'",
    Finite: "1 required positional argument: 'elements'",
    Lasso: "2 required positional arguments: 'prefix' and 'loop'",
    SuffixAutomaton: "2 required positional arguments: 'heads' and 'nexts'",
    Rule: "2 required positional arguments: 'premises' and 'conclusion'",
    JudgmentSet: "1 required positional argument: 'size'",
    InferenceSystem: "2 required positional arguments: 'universe_size' and 'rules'",
    Failure: "2 required positional arguments: 'judgment' and 'reason'",
    ElementPredicate: "2 required positional arguments: 'name' and 'holds'",
    JudgmentScheme: "3 required positional arguments: 'kind', 'colist', and 'automaton'",
    RationalProofTree: "1 required positional argument: 'nodes'",
}


def message(excinfo) -> str:
    return str(excinfo.value)


def unreadable_rules():
    """A rules iterable whose own iteration raises TypeError after one rule."""
    yield R0
    raise TypeError("the rules could not be read")


@pytest.mark.parametrize("cls, names, values, text", CASES, ids=IDS)
class TestEveryValueType:
    def test_fields_in_declaration_order(self, cls, names, values, text):
        value = cls(*values)
        assert cls.__match_args__ == names
        assert tuple(getattr(value, name) for name in names) == values

    def test_keyword_construction_equals_positional(self, cls, names, values, text):
        assert cls(**dict(zip(names, values))) == cls(*values)
        assert not cls(**dict(zip(names, values))) != cls(*values)

    def test_missing_arguments(self, cls, names, values, text):
        if cls is CheckReport:  # every field has a default
            assert cls() == cls((), {})
        else:
            with pytest.raises(TypeError) as excinfo:
                cls()
            assert message(excinfo) == f"{cls.__qualname__}.__init__() missing {MISSING[cls]}"
        with pytest.raises(TypeError) as excinfo:
            cls(*values, extra=1)
        assert message(excinfo) == (f"{cls.__qualname__}.__init__() got an unexpected "
                                    "keyword argument 'extra'")

    def test_never_equal_to_a_tuple_or_another_type(self, cls, names, values, text):
        value = cls(*values)
        assert (value == values) is False and (values == value) is False
        assert value != values and values != value
        assert value.__eq__(values) is NotImplemented
        other = R0 if cls is not Rule else SPEC
        assert value != other and value.__eq__(other) is NotImplemented

    def test_hash_is_the_field_tuple_hash(self, cls, names, values, text):
        value = cls(*values)
        if cls is CheckReport:  # its witnesses are a dict
            with pytest.raises(TypeError, match="unhashable type: 'dict'"):
                hash(value)
        else:
            assert hash(value) == hash(values)
            assert hash(value) == hash(cls(*values))

    def test_repr(self, cls, names, values, text):
        assert repr(cls(*values)) == text

    def test_assignment_and_deletion_raise(self, cls, names, values, text):
        value = cls(*values)
        for name in names + ("other",):
            with pytest.raises(AttributeError) as excinfo:
                setattr(value, name, None)
            assert message(excinfo) == f"cannot assign to field {name!r}"
        for name in names:
            with pytest.raises(AttributeError) as excinfo:
                delattr(value, name)
            assert message(excinfo) == f"cannot delete field {name!r}"
        assert tuple(getattr(value, name) for name in names) == values

    def test_copies_are_equal(self, cls, names, values, text):
        value = cls(*values)
        assert copy.copy(value) == value and copy.deepcopy(value) == value
        if cls is not ElementPredicate:  # a predicate's function may be a lambda
            assert pickle.loads(pickle.dumps(value)) == value
            assert repr(pickle.loads(pickle.dumps(value))) == text


class TestCoercionsAndDefaults:
    def test_finite_and_lasso_store_tuples(self):
        assert Finite([1, 2]).elements == (1, 2)
        assert type(Finite(iter([1])).elements) is tuple
        lasso = Lasso([1], [2, 3])
        assert (lasso.prefix, lasso.loop) == ((1,), (2, 3))
        assert type(lasso.prefix) is tuple and type(lasso.loop) is tuple

    def test_suffix_automaton_keeps_its_arguments(self):
        aut = SuffixAutomaton([1, None], [1, None])
        assert type(aut.heads) is list and type(aut.nexts) is list
        assert aut.state_count == 2

    def test_rule_premises_become_a_frozenset(self):
        r = Rule([2, 1, 2], 0)
        assert r.premises == frozenset({1, 2}) and type(r.premises) is frozenset
        assert r == rule(0, 1, 2) == rule(0, 2, 1, 1)
        assert str(r) == "0 <- 1 2" and str(rule(3)) == "3 <-"

    def test_judgment_set_members(self):
        assert JudgmentSet(3).members == EMPTY and type(JudgmentSet(3).members) is frozenset
        s = JudgmentSet(3, [True, 2])
        assert s.members == frozenset({1, 2})
        assert all(type(j) is int for j in s.members)
        assert JudgmentSet(3, iter([0, 1])) == JudgmentSet.of(3, (1, 0))
        coerced = JudgmentSet(True, [0])  # the size is coerced, as a system's is
        assert coerced == JudgmentSet(1, [0]) and type(coerced.size) is int
        assert repr(coerced) == "JudgmentSet(size=1, members=frozenset({0}))"

    def test_inference_system_stores_tuples(self):
        system = InferenceSystem(2, [R0], [R1], ["a", "b"])
        assert system.rules == (R0,) and type(system.rules) is tuple
        assert system.corules == (R1,) and type(system.corules) is tuple
        assert system.labels == ("a", "b") and type(system.labels) is tuple
        bare = InferenceSystem(2, (R0,))
        assert bare.corules == () and bare.labels is None
        assert bare.label_of(1) == "j1" and bare.all_rules(True) == (R0,)

    def test_failure_default_rule(self):
        assert Failure(1, CLOSEDNESS).rule is None

    def test_check_report_defaults(self):
        report = CheckReport([])
        assert report.failures == () and type(report.failures) is tuple
        assert report.witnesses == {} and report.ok is True
        assert CheckReport().witnesses is not CheckReport().witnesses
        assert CheckReport((), None).witnesses is None
        assert CheckReport(iter([Failure(0, CLOSEDNESS)])).ok is False

    def test_element_predicate(self):
        p = ElementPredicate("gt:2", holds)
        assert p(3) is True and p(2) is False
        assert p == ElementPredicate("gt:2", holds)
        assert p != ElementPredicate("gt:2", lambda n: n > 2)
        assert repr(POSITIVE) == "ElementPredicate('positive')"

    def test_judgment_scheme_defaults_and_counts(self):
        scheme = JudgmentScheme(Kind.ALWAYS, Finite((1,)), AUT)
        assert scheme.candidates is None and scheme.predicate is None
        assert scheme.state_count == 2 and scheme.universe_size == 2
        listed = JudgmentScheme(Kind.MAX_ELEM, Finite((1,)), AUT, (1, 3))
        assert listed.candidates == (1, 3) and listed.universe_size == 4

    def test_judgment_scheme_cache_stays_out_of_the_fields(self):
        values = (Kind.MAX_ELEM, Finite((1,)), AUT, (1, 3), None)
        scheme, fresh = JudgmentScheme(*values), JudgmentScheme(*values)
        assert scheme.encode(1, 3) == 3 and scheme.decode(3) == (3, 1)
        assert scheme == fresh and hash(scheme) == hash(fresh) == hash(values)
        assert repr(scheme) == repr(fresh)
        with pytest.raises(AttributeError):
            scheme.state_count = 5
        assert pickle.loads(pickle.dumps(scheme)) == scheme

    def test_proof_children_and_nodes_become_tuples(self):
        tree = RationalProofTree(list(FINITE))
        assert tree.nodes == FINITE and type(tree.nodes) is tuple
        assert tree.children == (RationalProofTree(FINITE, 1),) and type(tree.children) is tuple
        assert tree.children[0] is tree.children[0] and tree.children[0].children == ()
        graph = RationalProofTree(iter([(0, 0, ()), NODE]))
        assert graph.nodes == ((0, 0, ()), NODE) and type(graph.nodes) is tuple
        assert graph.nodes[1] is NODE and graph.root == 0

    def test_proof_caches_stay_out_of_the_fields(self):
        tree, fresh = RationalProofTree(FINITE), RationalProofTree(FINITE)
        assert tree.depth() == 2 and tree.children[0].root == 1
        assert RationalProofTree([FINITE[1]]).depth() == 1  # the leaf, on its own table
        assert tree == fresh and hash(tree) == hash(fresh) and repr(tree) == repr(fresh)
        assert pickle.loads(pickle.dumps(tree)) == fresh and copy.copy(tree) == fresh
        nodes = ((0, 0, (1,)), NODE)
        graph = RationalProofTree(nodes)
        assert is_acyclic(graph) is False
        assert graph == RationalProofTree(nodes) and hash(graph) == hash((nodes, 0))
        assert not hasattr(graph, "__dict__")  # its fields are its table
        for value in (tree, graph):
            for cache in ("_walk", "_handles", "_system"):
                with pytest.raises(AttributeError):
                    setattr(value, cache, None)

    def test_system_file(self):
        sf = parse_system("judgments: a b\nrule: a <-\nrule: b <- a\nspec: b\n")
        assert sf == SystemFile(SYSTEM, SPEC)
        assert sf.names == ("a", "b") and sf.names is sf.system.labels
        assert sf.id_of("b") == 1
        with pytest.raises(ParseError, match="unknown judgment name 'z'"):
            sf.id_of("z")


class TestValidationErrors:
    @pytest.mark.parametrize("build, error, text", [
        (lambda: Finite((1, -1)), ValueError, "elements must be natural numbers, got -1"),
        (lambda: Finite((True,)), ValueError, "elements must be natural numbers, got True"),
        (lambda: Finite(("1",)), ValueError, "elements must be natural numbers, got '1'"),
        (lambda: Finite(5), TypeError, "elements must be an Iterable, not int"),
        (lambda: Finite(None), TypeError, "elements must be an Iterable, not NoneType"),
        (lambda: Lasso(1, (2,)), TypeError, "prefix must be an Iterable, not int"),
        (lambda: Lasso((), None), TypeError, "loop must be an Iterable, not NoneType"),
        (lambda: Lasso((1,), ()), ValueError, "lasso loop must be nonempty"),
        (lambda: Lasso((-1,), ()), ValueError, "prefix must be natural numbers, got -1"),
        (lambda: Lasso((), (1.0,)), ValueError, "loop must be natural numbers, got 1.0"),
        (lambda: Rule([[1]], 0), TypeError, "unhashable type: 'list'"),
        (lambda: JudgmentSet(-1), ValueError, "universe size must be a natural number"),
        (lambda: JudgmentSet(2.0), TypeError, "universe size 2.0 is not an integer"),
        (lambda: JudgmentSet(3, [3]), ValueError,
         "judgment id 3 out of range for universe of 3"),
        (lambda: JudgmentSet(3, [5, -1, 4]), ValueError,
         "judgment id -1 out of range for universe of 3"),
        (lambda: JudgmentSet(3, [1.5]), TypeError,
         "a judgment id in members must be an integer, not float"),
        (lambda: JudgmentSet(3, ["a"]), TypeError,
         "a judgment id in members must be an integer, not str"),
        (lambda: JudgmentSet(3, None), TypeError, "members must be an Iterable, not NoneType"),
        (lambda: InferenceSystem(-1, [rule(0)]), ValueError,
         "universe size must be a natural number"),
        (lambda: InferenceSystem(-1, 5), TypeError, "rules must be an Iterable, not int"),
        (lambda: InferenceSystem(2, None), TypeError, "rules must be an Iterable, not NoneType"),
        (lambda: InferenceSystem(2, [], None), TypeError,
         "corules must be an Iterable, not NoneType"),
        (lambda: InferenceSystem(2, [], labels=5), TypeError,
         "labels must be an Iterable, not int"),
        (lambda: InferenceSystem(2, [rule(2, 0, 3)]), ValueError,
         "rule 2 <- 0 3 references judgment ids [2, 3] outside universe of 2"),
        (lambda: InferenceSystem(2, [], [rule(0, -1)]), ValueError,
         "rule 0 <- -1 references judgment ids [-1] outside universe of 2"),
        (lambda: InferenceSystem(2, [Rule([0.5], 1), rule(0)]), TypeError,
         "rule 1 <- 0.5 references a judgment id that is not an integer"),
        (lambda: InferenceSystem(2, [rule(0)], [rule(1.0)]), TypeError,
         "rule 1.0 <- references a judgment id that is not an integer"),
        (lambda: InferenceSystem(2, [Rule(["a"], 1)]), TypeError,
         "rule 1 <- a references a judgment id that is not an integer"),
        (lambda: InferenceSystem(2, [0]), TypeError,
         "rules and corules must be Rule objects, not int"),
        (lambda: InferenceSystem(2, [rule(0)], [(0, ())]), TypeError,
         "rules and corules must be Rule objects, not tuple"),
        (lambda: InferenceSystem(2.0, [rule(0)]), TypeError,
         "universe size 2.0 is not an integer"),
        (lambda: InferenceSystem(2, [rule(5)], labels=["a"]), ValueError,
         "rule 5 <- references judgment ids [5] outside universe of 2"),
        (lambda: InferenceSystem(2, [], labels=["a"]), ValueError,
         "label table must name every judgment"),
        (lambda: InferenceSystem(2, [], labels=["a", "a"]), ValueError,
         "judgment labels must be unique"),
        (lambda: InferenceSystem(2, [], labels=[[1], [2]]), TypeError,
         "a label in labels must be a str, not list"),
        (lambda: InferenceSystem(2, [], labels=[1, 2]), TypeError,
         "a label in labels must be a str, not int"),
        (lambda: SuffixAutomaton(5, 6), TypeError, "heads must be a Sequence, not int"),
        (lambda: SuffixAutomaton((1, None), {1, None}), TypeError,
         "nexts must be a Sequence, not set"),
        (lambda: SuffixAutomaton([1, None], [1]), ValueError,
         "nexts must be as long as heads (2), not 1"),
        (lambda: SuffixAutomaton((1, 2), (1, None)), ValueError,
         "heads and nexts must be None at the same states"),
        (lambda: SuffixAutomaton((-1, None), (1, None)), ValueError,
         "heads must be natural numbers or None, got -1"),
        (lambda: SuffixAutomaton((True,), (0,)), ValueError,
         "heads must be natural numbers or None, got True"),
        (lambda: SuffixAutomaton((1, None), (2, None)), ValueError,
         "nexts must be state indices below 2, got 2"),
        (lambda: SuffixAutomaton((1, None), (1.0, None)), ValueError,
         "nexts must be state indices or None, got 1.0"),
        (lambda: JudgmentScheme(Kind.MEMBER_OF, Finite((1,)), None), TypeError,
         "automaton must be a SuffixAutomaton, not NoneType"),
        (lambda: JudgmentScheme("x", Finite((1,)), suffix_automaton(Finite((1,)))), TypeError,
         "kind must be a Kind, not str"),
        (lambda: JudgmentScheme(Kind.MAX_ELEM, (1,), AUT), TypeError,
         "colist must be a Finite or Lasso, not tuple"),
        (lambda: JudgmentScheme(Kind.MAX_ELEM, Finite((1,)), AUT, (1, 1)), ValueError,
         "candidates must be distinct, got (1, 1)"),
        (lambda: JudgmentScheme(Kind.MAX_ELEM, Finite((1,)), AUT, {1: 2}), TypeError,
         "candidates must be a tuple, not dict"),
        (lambda: JudgmentScheme(Kind.MAX_ELEM, Finite((1,)), AUT, 5), TypeError,
         "candidates must be a tuple, not int"),
        (lambda: JudgmentScheme(Kind.MAX_ELEM, Finite((1,)), AUT, [1, 3]), TypeError,
         "candidates must be a tuple, not list"),
        (lambda: JudgmentScheme(Kind.MAX_ELEM, Finite((1,)), AUT, (1, True)), ValueError,
         "candidates must be natural numbers, got True"),
        (lambda: JudgmentScheme(Kind.MAX_ELEM, Finite((1,)), AUT, (-1,)), ValueError,
         "candidates must be natural numbers, got -1"),
        (lambda: JudgmentScheme(Kind.ALWAYS, Finite((1,)), AUT, predicate="even"), TypeError,
         "predicate must be an ElementPredicate, not str"),
        (lambda: gen_maxelem_system(Finite((1,)), 5), TypeError,
         "candidates must be an Iterable, not int"),
        (lambda: gen_maxelem_system(Finite((1,)), None), TypeError,
         "candidates must be an Iterable, not NoneType"),
        (lambda: SystemFile(InferenceSystem(2, [R0]), None), ValueError,
         "a system file's system must label its judgments"),
        (lambda: SystemFile(None, SPEC), TypeError,
         "system must be an InferenceSystem, not NoneType"),
        (lambda: SystemFile(SYSTEM, frozenset({1})), TypeError,
         "spec must be a JudgmentSet, not frozenset"),
        (lambda: SystemFile(SYSTEM, JudgmentSet(5, [4])), ValueError,
         "spec is over a universe of 5, not 2: different universes"),
        (lambda: Rule(5, 1), TypeError, "premises must be an Iterable, not int"),
        (lambda: Rule(None, 0), TypeError, "premises must be an Iterable, not NoneType"),
        # an iterable's own TypeError, and an iterator's id that is not an integer,
        # which is read before it could be named, propagate as they are
        (lambda: InferenceSystem(2, unreadable_rules()), TypeError,
         "the rules could not be read"),
        (lambda: JudgmentSet(3, iter([0.5])), TypeError,
         "'float' object cannot be interpreted as an integer"),
        # a proof's node table is named as the other iterables are
        (lambda: RationalProofTree(None), TypeError, "nodes must be an Iterable, not NoneType"),
        (lambda: RationalProofTree(5), TypeError, "nodes must be an Iterable, not int"),
        # a report's failures are named as the other iterables are, and each is a Failure
        (lambda: CheckReport(None), TypeError, "failures must be an Iterable, not NoneType"),
        (lambda: CheckReport(5, {}), TypeError, "failures must be an Iterable, not int"),
        (lambda: CheckReport([1, 2]), TypeError,
         "a failure in failures must be a Failure, not int"),
        (lambda: CheckReport((Failure(0, CLOSEDNESS), (0, CLOSEDNESS))), TypeError,
         "a failure in failures must be a Failure, not tuple"),
        # the size is coerced before the members are checked against it
        (lambda: JudgmentSet(True, [1]), ValueError,
         "judgment id 1 out of range for universe of 1"),
    ])
    def test_construction(self, build, error, text):
        with pytest.raises(error) as excinfo:
            build()
        assert type(excinfo.value) is error and message(excinfo) == text

    # A judgment-set argument must be a JudgmentSet over the system's universe.
    @pytest.mark.parametrize("call, error, text", [
        (lambda: is_closed(SYSTEM, frozenset()), TypeError,
         "s must be a JudgmentSet, not frozenset"),
        (lambda: is_consistent(SYSTEM, {0}), TypeError, "s must be a JudgmentSet, not set"),
        (lambda: bounded_coinduction_check(SYSTEM, None), TypeError,
         "spec must be a JudgmentSet, not NoneType"),
        (lambda: JudgmentSet(2) | frozenset(), TypeError,
         "other must be a JudgmentSet, not frozenset"),
        (lambda: JudgmentSet(2) <= {1}, TypeError, "other must be a JudgmentSet, not set"),
        (lambda: is_closed(SYSTEM, JudgmentSet(3)), ValueError,
         "s is over a universe of 3, not 2: different universes"),
        (lambda: JudgmentSet(2) | JudgmentSet(3), ValueError,
         "other is over a universe of 3, not 2: different universes"),
    ])
    def test_judgment_set_argument(self, call, error, text):
        with pytest.raises(error) as excinfo:
            call()
        assert type(excinfo.value) is error and message(excinfo) == text

    # A proof or system argument of another type is named, at the entry of the
    # validator, the extractors, the interpretations and the principle checks.
    @pytest.mark.parametrize("call, text", [
        (lambda t: check_finite(None, SYSTEM), "tree must be a RationalProofTree, not NoneType"),
        (lambda t: check_finite(t, None), "system must be an InferenceSystem, not NoneType"),
        (lambda t: check_rational_in_gen(t, None),
         "system must be an InferenceSystem, not NoneType"),
        (lambda t: format_finite(t, None), "system must be an InferenceSystem, not NoneType"),
        (lambda t: format_rational(FINITE, SYSTEM), "tree must be a RationalProofTree, not tuple"),
        (lambda t: is_acyclic(None), "tree must be a RationalProofTree, not NoneType"),
        (lambda t: extract_finite_proof(None, 0),
         "system must be an InferenceSystem, not NoneType"),
        (lambda t: extract_rational_proof(FINITE, 0),
         "system must be an InferenceSystem, not tuple"),
        (lambda t: ind_interpretation(None), "system must be an InferenceSystem, not NoneType"),
        (lambda t: coind_interpretation(5), "system must be an InferenceSystem, not int"),
        (lambda t: gen_interpretation("x"), "system must be an InferenceSystem, not str"),
        (lambda t: is_closed(None, SPEC), "system must be an InferenceSystem, not NoneType"),
        (lambda t: is_consistent(None, SPEC), "system must be an InferenceSystem, not NoneType"),
        (lambda t: bounded_coinduction_check(None, SPEC),
         "system must be an InferenceSystem, not NoneType"),
    ])
    def test_proof_argument(self, call, text):
        with pytest.raises(TypeError) as excinfo:
            call(RationalProofTree(FINITE))
        assert type(excinfo.value) is TypeError and message(excinfo) == text

    # A text to parse that is not a str is named.
    @pytest.mark.parametrize("call, text", [
        (lambda: parse_system(None), "text must be a str, not NoneType"),
        (lambda: parse_system(b"judgments: a"), "text must be a str, not bytes"),
        (lambda: parse_colist(None), "text must be a str, not NoneType"),
        (lambda: parse_colist(5), "text must be a str, not int"),
        (lambda: parse_candidates(None), "text must be a str, not NoneType"),
        (lambda: predicate_by_name(None), "text must be a str, not NoneType"),
        (lambda: run([5]), "an argument in argv must be a str, not int"),
        (lambda: run(["ind", 5]), "an argument in argv must be a str, not int"),
        (lambda: run(["pred", "max", "--list", None]),
         "an argument in argv must be a str, not NoneType"),
    ])
    def test_text_argument(self, call, text):
        with pytest.raises(TypeError) as excinfo:
            call()
        assert type(excinfo.value) is TypeError and message(excinfo) == text

    # A colist that is not a Finite or Lasso, and an element predicate that is
    # not an ElementPredicate, are named.
    @pytest.mark.parametrize("call, text", [
        (lambda: suffix_automaton([1, 2]), "xs must be a Finite or Lasso, not list"),
        (lambda: gen_member_system(1, [1, 2]), "xs must be a Finite or Lasso, not list"),
        (lambda: gen_maxelem_system((1, 2), [1, 2]), "xs must be a Finite or Lasso, not tuple"),
        (lambda: decide_direct(Kind.ALWAYS, [1, 2], predicate=POSITIVE),
         "xs must be a Finite or Lasso, not list"),
        (lambda: spec_oracle(Kind.MAX_ELEM, None, x=1),
         "xs must be a Finite or Lasso, not NoneType"),
        (lambda: gen_always_system(None, Lasso((), (1,))),
         "predicate must be an ElementPredicate, not NoneType"),
        (lambda: three_way(Kind.ALWAYS, Lasso((), (1,)), predicate="even"),
         "predicate must be an ElementPredicate, not str"),
    ])
    def test_colist_and_predicate_argument(self, call, text):
        with pytest.raises(TypeError) as excinfo:
            call()
        assert type(excinfo.value) is TypeError and message(excinfo) == text

    # So are those of the colist position functions and the CLI formatters.
    @pytest.mark.parametrize("call, text", [
        (lambda: get(None, 1), "xs must be a Finite or Lasso, not NoneType"),
        (lambda: suffix(None, 1), "xs must be a Finite or Lasso, not NoneType"),
        (lambda: format_colist(None), "xs must be a Finite or Lasso, not NoneType"),
        (lambda: format_colist((1, 2)), "xs must be a Finite or Lasso, not tuple"),
        (lambda: render_system(None), "sf must be a SystemFile, not NoneType"),
        (lambda: render_system(SYSTEM), "sf must be a SystemFile, not InferenceSystem"),
    ], ids=["get", "suffix", "format_colist", "format_colist-tuple", "render_system",
            "render_system-system"])
    def test_position_and_formatter_argument(self, call, text):
        with pytest.raises(TypeError) as excinfo:
            call()
        assert type(excinfo.value) is TypeError and message(excinfo) == text

    @pytest.mark.parametrize("call, text", [
        (lambda s: s.encode(5), "state 5 out of range"),
        (lambda s: s.encode(0, 7), "value 7 is not a candidate"),
        (lambda s: s.encode(0, [1]), "value [1] is not a candidate"),
        (lambda s: s.decode(9), "judgment id 9 out of range"),
        (lambda s: JudgmentScheme(Kind.ALWAYS, Finite((1,)), AUT).encode(0, 1),
         "always judgments carry no value"),
    ])
    def test_judgment_scheme(self, call, text):
        scheme = JudgmentScheme(Kind.MAX_ELEM, Finite((1,)), AUT, (1, 3))
        with pytest.raises(ValueError) as excinfo:
            call(scheme)
        assert message(excinfo) == text

    # Positions and ids are coerced with operator.index: True is 1, a float is refused.
    @pytest.mark.parametrize("call, text", [
        (lambda s, xs: s.encode(0.0, 1), "state 0.0 is not an integer"),
        (lambda s, xs: s.decode(1.5), "judgment id 1.5 is not an integer"),
        (lambda s, xs: get(xs, 1.5), "index 1.5 is not an integer"),
        (lambda s, xs: suffix(xs, 1.5), "index 1.5 is not an integer"),
    ], ids=["encode", "decode", "get", "suffix"])
    def test_index_that_is_not_an_integer(self, call, text):
        scheme = JudgmentScheme(Kind.MAX_ELEM, Finite((1,)), AUT, (1, 3))
        xs = Lasso((1,), (2, 3))
        with pytest.raises(TypeError) as excinfo:
            call(scheme, xs)
        assert type(excinfo.value) is TypeError and message(excinfo) == text
        assert scheme.encode(True, 1) == 1 and scheme.decode(True) == (1, 1)
        assert get(xs, True) == 2 and suffix(xs, True) == Lasso((), (2, 3))


class TestEngineBuiltSets:
    """Sets the engine and the set operations build equal, hash and print
    as the same members given to the public constructor."""

    @staticmethod
    def assert_as_public(s: JudgmentSet, members):
        public = JudgmentSet(s.size, members)
        assert s == public and hash(s) == hash(public)
        assert repr(s) == repr(public)
        assert type(s.size) is int and type(s.members) is frozenset

    def test_interpretations(self):
        rng = random.Random(7)
        for _ in range(200):
            system = random_system(rng, 40, 60, max_corules=6)
            ind = ind_interpretation(system)
            self.assert_as_public(ind, iter(sorted(ind.members)))
            for s in (coind_interpretation(system), gen_interpretation(system)):
                self.assert_as_public(s, s.members)

    def test_set_operations(self):
        rng = random.Random(8)
        for _ in range(300):
            n = rng.choice([5, 30, 70, 200, 1000])
            a, b = (JudgmentSet(n, (j for j in range(n) if rng.random() < rng.random()))
                    for _ in range(2))
            for got, members in ((a | b, a.members | b.members),
                                 (a & b, a.members & b.members),
                                 (a - b, a.members - b.members)):
                self.assert_as_public(got, members)

    def test_repr_lists_members_in_ascending_order(self):
        assert repr(JudgmentSet(16, [8, 0])) == "JudgmentSet(size=16, members=frozenset({0, 8}))"
        assert repr(JudgmentSet(3)) == "JudgmentSet(size=3, members=frozenset())"
        rng = random.Random(9)
        for _ in range(100):
            n = rng.choice([5, 40, 300])
            ids = [j for j in range(n) if rng.random() < 0.3]
            forward, backward = JudgmentSet(n, ids), JudgmentSet(n, reversed(ids))
            shuffled = JudgmentSet(n, rng.sample(ids, len(ids)))
            assert repr(forward) == repr(backward) == repr(shuffled)
            assert repr(forward) == repr(JudgmentSet(n, set(ids)) | JudgmentSet(n))


def value_classes() -> set[type]:
    """Every subclass of ``Value`` the package defines, once all its modules are loaded."""
    found, todo = set(), [Value]
    while todo:
        for cls in todo.pop().__subclasses__():
            found.add(cls)
            todo.append(cls)
    return found


class TestOneUncheckedConstructor:
    """``Value._valid`` is the one way to build a value unchecked: it fills every slot
    but ``__dict__``, in ``__slots__`` order, and no value type has a way of its own."""

    TEXT = "judgments: a b c\nrule: a <- b\nrule: b <- a\ncorule: a <-\nspec: a b\n"

    @staticmethod
    def rebuilt(v: Value) -> Value:
        return type(v)._valid(*[getattr(v, s) for s in type(v).__slots__ if s != "__dict__"])

    def test_every_value_type_rebuilds_from_its_slots(self):
        public = {value for value in (getattr(corules, name) for name in corules.__all__)
                  if isinstance(value, type) and issubclass(value, Value)}
        extracted = extract_rational_proof(parse_system(self.TEXT).system, 0)
        values = [cls(*fields) for cls, _, fields, _ in CASES]
        values += [parse_system(self.TEXT), extracted, suffix_automaton(Lasso((1,), (2, 3)))]
        assert {type(v) for v in values} == public | {SystemFile}
        assert extracted._walk is not None  # a cached slot is filled too
        for v in values:
            again = self.rebuilt(v)
            assert type(again) is type(v) and again == v
            for name in type(v).__slots__:
                if name != "__dict__":
                    assert getattr(again, name) is getattr(v, name), (type(v), name)

    def test_a_rebuilt_system_reads_alike(self):
        rng = random.Random(28)
        for _ in range(100):
            system = random_system(rng, 10, 20, max_corules=3)
            again = self.rebuilt(system)
            assert again.__dict__ == {} and again == system
            for reading in (ind_interpretation, coind_interpretation, gen_interpretation):
                assert reading(again) == reading(system)

    def test_no_value_type_has_its_own(self):
        assert "_valid" in vars(Value)
        classes = value_classes()
        assert {SystemFile, RationalProofTree, JudgmentScheme} <= classes
        for cls in classes:
            for name in ("_valid", "_compiled", "_store"):
                assert name not in vars(cls), (cls, name)


def test_import_loads_neither_dataclasses_nor_inspect():
    """Start-up stays lean: importing the package and its CLI pulls in no
    dataclass or source-introspection machinery, no argument parser, and of
    the package only what every command uses. A command then loads only what
    it runs: ``check`` adds ``principles``, ``prove`` adds ``prooftree``, ``pred``
    adds ``colist`` and ``predicates`` and the other commands add nothing. A
    well-formed command line is read without ``argparse``; ``--help`` and a
    malformed command line load it."""
    root = Path(__file__).resolve().parent.parent
    code = ("import contextlib, io, sys\n"
            f"sys.path.append({str(root / 'src')!r})\n"
            "import corules, corules.cli\n"
            "def loaded():\n"
            "    return {m for m in sys.modules if m.partition('.')[0] == 'corules'}\n"
            "before = loaded()\n"
            "print(sorted({'argparse', 'dataclasses', 'inspect'} & set(sys.modules)))\n"
            "print(sorted(before))\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = corules.cli.run(sys.argv[1:])\n"
            "print(code, sorted(loaded() - before), 'argparse' in sys.modules)\n")
    startup = ["corules", "corules.cli", "corules.inference"]
    demo = str(root / "demos" / "basics.inf")
    pred = ["corules.colist", "corules.predicates"]
    for argv, added in ((["ind", demo], []), (["coind", demo], []), (["gen", demo], []),
                        (["check", demo], ["corules.principles"]),
                        (["prove", demo, "b"], ["corules.prooftree"]),
                        (["prove", demo, "b", "--rational"], ["corules.prooftree"]),
                        (["pred", "allpos", "--list", "| 1"], pred),
                        (["pred", "max", "--list", "2 | 1", "--x", "2"], pred)):
        done = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True,
                              text=True, check=True)
        assert done.stdout == f"[]\n{startup}\n0 {added} False\n", argv
    for argv, exit_code in ((["pred", "--help"], 0), (["pred", "nope", "--list", "1"], 64)):
        done = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True,
                              text=True, check=True)
        assert done.stdout == f"[]\n{startup}\n{exit_code} [] True\n", argv
