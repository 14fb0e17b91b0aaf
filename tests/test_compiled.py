"""The two ways into an inference system build the same value.

The parser and the builders hand (conclusion, premises) pairs to the
unchecked ``InferenceSystem._compiled``; everyone else calls the public
constructor with ``Rule`` objects. Built both ways from the same rules, a
system must compare, hash, print and pickle alike, and every interpretation,
check report, proof and render read off it must be the same. The 2^n
oracles check the compiled systems too: they read ``.rules``, which is
built back from the arrays, so they stay independent of the storage.
"""

import pickle
import random

from corules import (FAMILIES, EVEN, ODD, POSITIVE, InferenceSystem, JudgmentSet, Kind, Rule,
                     bounded_coinduction_check, check_finite, check_rational_in_gen,
                     coind_interpretation, eq_to, extract_finite_proof, extract_rational_proof,
                     gen_interpretation, greater_than, ind_interpretation, is_closed,
                     is_consistent, rule)
from corules.prooftree import format_finite, format_rational

from util import coind_oracle, gen_oracle, ind_oracle, random_colist, random_system


def compiled_from(system: InferenceSystem) -> InferenceSystem:
    """``system`` rebuilt through the private constructor from its rules."""
    pairs = [(r.conclusion, sorted(r.premises)) for r in system.rules + system.corules]
    return InferenceSystem._compiled(system.universe_size, pairs, len(system.rules),
                                     system.labels)


def public_from(system: InferenceSystem) -> InferenceSystem:
    return InferenceSystem(system.universe_size, system.rules, system.corules, system.labels)


def observations(system: InferenceSystem, rng: random.Random) -> list:
    """Everything the library reads off ``system``, in a comparable form."""
    n = system.universe_size
    ind, coind, gen = (ind_interpretation(system), coind_interpretation(system),
                       gen_interpretation(system))
    out: list = [ind, ind_interpretation(system, use_corules=True), coind, gen]
    probe = JudgmentSet(n, (j for j in range(n) if rng.random() < 0.5))
    for s in (ind, coind, gen, probe, JudgmentSet.full(n)):
        for report in (is_closed(system, s), is_consistent(system, s),
                       bounded_coinduction_check(system, s)):
            out += [report, repr(report)]
    for j in range(n):
        for allow in (False, True):
            proof = extract_finite_proof(system, j, allow_corules=allow)
            out.append(proof)
            if proof is not None:
                assert check_finite(proof, system, allow_corules=allow)
                out.append(format_finite(proof, system))
        proof = extract_rational_proof(system, j)
        out.append(proof)
        if proof is not None:
            assert check_rational_in_gen(proof, system)
            out.append(format_rational(proof, system))
    return out


def assert_same(built: InferenceSystem, rebuilt: InferenceSystem, seed: int) -> None:
    assert built == rebuilt and hash(built) == hash(rebuilt)
    assert repr(built) == repr(rebuilt)
    for system in (built, rebuilt):
        copy = pickle.loads(pickle.dumps(system))
        assert copy == built and repr(copy) == repr(built)
    assert observations(built, random.Random(seed)) == observations(rebuilt, random.Random(seed))


def test_random_systems_built_both_ways():
    rng = random.Random(11)
    for seed in range(250):
        public = random_system(rng, max_universe=10, max_rules=18, max_corules=4)
        compiled = compiled_from(public)
        assert_same(public, compiled, seed)
        if public.universe_size <= 8:
            for oracle in (ind_oracle, coind_oracle, gen_oracle):
                assert oracle(compiled) == oracle(public)
            assert ind_interpretation(compiled) == ind_oracle(public)
            assert coind_interpretation(compiled) == coind_oracle(public)
            assert gen_interpretation(compiled) == gen_oracle(public)


def test_every_builder_built_both_ways():
    rng = random.Random(12)
    predicates = (POSITIVE, EVEN, ODD, eq_to(1), greater_than(2))
    for seed in range(60):
        xs = random_colist(rng)
        for kind, family in FAMILIES.items():
            x = rng.randint(0, 4)
            p = rng.choice(predicates)
            candidates = sorted(set(range(5)) | {x}) if kind is Kind.MAX_ELEM else None
            built, _ = family.build(xs, x, p, candidates)
            assert_same(built, public_from(built), seed)
            assert built.rules == public_from(built).rules


def test_premises_are_stored_once_and_ascending():
    system = InferenceSystem(4, [Rule([3, 1, 2], 0), rule(1, 2, 2)], [rule(3)])
    assert system._premises(0) == [1, 2, 3] and system._premises(1) == [2]
    assert system._premises(2) == []
    assert system.rules == (rule(0, 1, 2, 3), rule(1, 2)) and system.corules == (rule(3),)


def test_a_bool_id_is_stored_as_one():
    system = InferenceSystem(True + 1, [Rule([True], 0), rule(True)])
    assert system.rules == (rule(0, 1), rule(1))
    assert all(type(j) is int for r in system.rules for j in (r.conclusion, *r.premises))
    assert repr(system) == repr(InferenceSystem(2, [rule(0, 1), rule(1)]))
    assert InferenceSystem(True, [rule(0)]).universe_size == 1
    assert type(InferenceSystem(True, [rule(0)]).universe_size) is int


def test_rule_repr_lists_premises_in_ascending_order():
    assert repr(rule(0, 9, 1)) == repr(rule(0, 1, 9)) == \
        "Rule(premises=frozenset({1, 9}), conclusion=0)"
    assert repr(rule(2)) == "Rule(premises=frozenset(), conclusion=2)"
