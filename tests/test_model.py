"""A model test of the state a system builds when it is first queried.

An ``InferenceSystem`` builds its premise index, its fixpoint passes, its generated
interpretation, ``rules``, ``corules`` and its labels when a query first needs them,
and keeps them; a proof keeps its walk. The state machine below runs any sequence of
public queries on a seeded random system of at most 10 judgments (with or without
corules and labels) and on copies of it taken at any point: ``copy.copy``,
``copy.deepcopy`` and pickle round trips. Each answer must equal the same query on a
fresh system, which has built nothing yet, and the 2^n oracles of ``tests/util.py``.
The expected proofs are read by a scan over the ``Rule`` objects, not by the checkers.
What a system keeps is checked too: after each step, every pass a pooled system holds
equals the same pass of a fresh system, and a system that has answered a query holds the
pass that query read.
"""

from __future__ import annotations

import copy
import pickle
import random

import pytest
from hypothesis import HealthCheck, Phase, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from corules import (
    InferenceSystem,
    JudgmentSet,
    RationalProofTree,
    Rule,
    StructuralError,
    bounded_coinduction_check,
    check_finite,
    check_rational_in_gen,
    coind_interpretation,
    extract_finite_proof,
    extract_rational_proof,
    gen_interpretation,
    ind_interpretation,
    is_acyclic,
    is_closed,
    is_consistent,
)
from corules.prooftree import format_finite, format_rational

from util import coind_oracle, gen_oracle, ind_oracle, reports_by_scan, set_from_bits

MAX_UNIVERSE = 10

READINGS = {"ind": ind_interpretation, "ind+co": lambda s: ind_interpretation(s, True),
            "coind": coind_interpretation, "gen": gen_interpretation}
CHECKS = {"is_closed": is_closed, "is_consistent": is_consistent,
          "bounded_coinduction_check": bounded_coinduction_check}
# the passes a system keeps once a query has read them, and the pass each reading reads
PASSES = ("_users", "_ind", "_bound", "_gen")
READS = {"ind": "_ind", "ind+co": "_bound", "coind": None, "gen": "_gen"}
COPIES = {"copy": copy.copy, "deepcopy": copy.deepcopy,
          "pickle": lambda s: pickle.loads(pickle.dumps(s))}

picks = st.integers(0, 15)  # a system or proof of the pool, taken modulo its length
judgments = st.integers(0, MAX_UNIVERSE - 1)  # taken modulo the universe size


def drawn_rules(rng: random.Random, n: int, count: int, premises: int) -> tuple[Rule, ...]:
    """``count`` rules, each of at most ``premises`` premises."""
    return tuple(Rule(frozenset(rng.sample(range(n), rng.randint(0, min(premises, n)))),
                      rng.randrange(n)) for _ in range(count))


def acyclic(table) -> bool:
    """Whether the table has no cycle: its nodes can be taken leaves first."""
    done: set[int] = set()
    while True:
        ready = {i for i, (_, _, children) in enumerate(table)
                 if i not in done and done.issuperset(children)}
        if not ready:
            return len(done) == len(table)
        done |= ready


def derives(table, every: tuple[Rule, ...], inside: JudgmentSet) -> bool:
    """Whether each node's judgment lies in ``inside`` and the rule of the node's index
    among ``every`` concludes it from exactly one child per premise."""
    for judgment, i, children in table:
        found = [table[c][0] for c in children]
        if not (judgment in inside and 0 <= i < len(every) and every[i].conclusion == judgment
                and len(found) == len(every[i].premises) == len(set(found))
                and set(found) == every[i].premises):
            return False
    return True


class SystemModel(RuleBasedStateMachine):
    @initialize(seed=st.integers(0, 2**32 - 1), with_corules=st.booleans(),
                labelled=st.booleans())
    def build(self, seed, with_corules, labelled):
        rng = random.Random(seed)
        self.n = n = rng.randint(1, MAX_UNIVERSE)
        self.rules = drawn_rules(rng, n, rng.randint(0, 14), 3)
        # corules of at most one premise, so that more of them change the bound
        self.corules = drawn_rules(rng, n, rng.randint(1, 4), 1) if with_corules else ()
        self.labels = tuple(rng.sample([f"q{v}" for v in range(3 * n)], n)) if labelled else None
        self.systems = [self.fresh()]
        self.proofs: list[RationalProofTree] = []
        oracle = self.fresh()
        self.expected = {"ind": ind_oracle(oracle), "ind+co": ind_oracle(oracle, True),
                         "coind": coind_oracle(oracle), "gen": gen_oracle(oracle)}
        self.reports = {}  # spec -> what each check reports on it, by a scan
        self.oracle = oracle

    def fresh(self) -> InferenceSystem:
        return InferenceSystem(self.n, self.rules, self.corules, self.labels)

    def pick(self, k: int) -> InferenceSystem:
        return self.systems[k % len(self.systems)]

    def judgment(self, j: int) -> int:
        return j % self.n

    @rule(k=picks, how=st.sampled_from(sorted(COPIES)))
    def copied(self, k, how):
        original = self.pick(k)
        twin = COPIES[how](original)
        assert type(twin) is InferenceSystem
        assert twin == original and hash(twin) == hash(original)
        self.systems.append(twin)

    @rule(k=picks, m=picks)
    def compared(self, k, m):
        a, b, fresh = self.pick(k), self.pick(m), self.fresh()
        assert a == b == fresh and hash(a) == hash(b) == hash(fresh)
        other = InferenceSystem(self.n, self.rules + (Rule((), 0),), self.corules, self.labels)
        assert a != other and other != a

    @rule(k=picks, names=st.lists(st.sampled_from(sorted(READINGS)), min_size=1, max_size=4))
    def interpreted(self, k, names):
        for name in names:  # in turn on one system
            read = READINGS[name]
            assert read(self.pick(k)) == read(self.fresh()) == self.expected[name]
            assert READS[name] is None or READS[name] in vars(self.pick(k))

    @rule(k=picks, check=st.sampled_from(sorted(CHECKS)),
          spec=st.one_of(st.integers(0, 2**MAX_UNIVERSE - 1), st.sampled_from(sorted(READINGS))))
    def checked(self, k, check, spec):
        spec = self.expected[spec] if isinstance(spec, str) else set_from_bits(
            self.n, spec % (1 << self.n))
        report = CHECKS[check](self.pick(k), spec)
        assert report == CHECKS[check](self.fresh(), spec)
        if spec not in self.reports:
            self.reports[spec] = reports_by_scan(self.oracle, spec)
        failures, witnesses = self.reports[spec][check]
        assert [(f.judgment, f.reason, f.rule) for f in report.failures] == failures
        assert report.witnesses == witnesses

    @rule(k=picks, i=st.integers(-1, 20), j=judgments)
    def read(self, k, i, j):
        system, every, j = self.pick(k), self.rules + self.corules, self.judgment(j)
        assert system.rules == self.rules and system.corules == self.corules
        assert system.all_rules(True) == every
        if 0 <= i < len(every):
            assert system.rule_at(i) == every[i]
        else:
            with pytest.raises(ValueError, match="rule index"):
                system.rule_at(i)
        assert system.labels == self.labels
        assert system.label_of(j) == (self.labels[j] if self.labels else f"j{j}")

    @rule(k=picks, j=judgments, allow_corules=st.booleans())
    def finite_proof(self, k, j, allow_corules):
        j = self.judgment(j)
        proof = extract_finite_proof(self.pick(k), j, allow_corules)
        assert proof == extract_finite_proof(self.fresh(), j, allow_corules)
        assert ("_bound" if allow_corules else "_ind") in vars(self.pick(k))
        inside = self.expected["ind+co" if allow_corules else "ind"]
        assert (proof is not None) == (j in inside)
        if proof is not None:
            every = self.rules + self.corules if allow_corules else self.rules
            assert proof.nodes[proof.root][0] == j and acyclic(proof.nodes)
            assert derives(proof.nodes, every, inside)
            self.proofs.append(proof)

    @rule(k=picks, j=judgments)
    def rational_proof(self, k, j):
        j = self.judgment(j)
        proof = extract_rational_proof(self.pick(k), j)
        assert proof == extract_rational_proof(self.fresh(), j)
        assert "_gen" in vars(self.pick(k))
        assert (proof is not None) == (j in self.expected["gen"])
        if proof is not None:
            assert proof.nodes[proof.root][0] == j
            assert derives(proof.nodes, self.rules, self.expected["gen"])
            if j in self.expected["ind"]:
                assert proof == extract_finite_proof(self.fresh(), j)
            self.proofs.append(proof)

    @rule(k=picks, p=picks, allow_corules=st.booleans())
    def proof_checked(self, k, p, allow_corules):
        if not self.proofs:
            return
        proof, system = self.proofs[p % len(self.proofs)], self.pick(k)
        every = self.rules + self.corules if allow_corules else self.rules
        full = JudgmentSet(self.n, range(self.n))
        finite = acyclic(proof.nodes) and derives(proof.nodes, every, full)
        in_gen = derives(proof.nodes, self.rules, self.expected["ind+co"])
        for tree in (proof, RationalProofTree(proof.nodes, proof.root)):
            assert check_finite(tree, system, allow_corules) == finite
            assert check_finite(tree, self.fresh(), allow_corules) == finite
            assert check_rational_in_gen(tree, system) == in_gen
            assert check_rational_in_gen(tree, self.fresh()) == in_gen
            assert is_acyclic(tree) == acyclic(proof.nodes)

    @rule(k=picks, p=picks, rational=st.booleans())
    def rendered(self, k, p, rational):
        if not self.proofs:
            return
        proof, system = self.proofs[p % len(self.proofs)], self.pick(k)
        render = format_rational if rational else format_finite
        if rational or acyclic(proof.nodes):
            text = render(proof, system)
            assert text == render(proof, self.fresh())
            assert text == render(RationalProofTree(proof.nodes, proof.root), system)
        else:
            with pytest.raises(StructuralError, match="cycle"):
                render(proof, system)

    @invariant()
    def kept_passes_are_those_of_a_fresh_system(self):
        fresh = self.fresh()
        for system in self.systems:
            for name in PASSES:
                if name in vars(system):
                    assert vars(system)[name] == getattr(fresh, name), name


TestSystemModel = SystemModel.TestCase
# no shrink phase: a failing run prints its steps as drawn, where shrinking them would
# take minutes
TestSystemModel.settings = settings(max_examples=100, stateful_step_count=30, deadline=None,
                                    derandomize=True, database=None,
                                    phases=(Phase.explicit, Phase.generate),
                                    suppress_health_check=[HealthCheck.too_slow])
