"""The two ways into an inference system build the same value.

The parser and the builders hand rule arrays (conclusions, premise offsets
and premises) to the unchecked ``InferenceSystem._valid``; everyone else
calls the public constructor with ``Rule`` objects. Built both ways from the
same rules, a system must compare, hash, print and pickle alike, and every
interpretation, check report, proof and render read off it must be the same. The 2^n
oracles check the compiled systems too: they read ``.rules``, which is
built back from the arrays, so they stay independent of the storage. The
builders and the parser are checked against references in ``util`` that
emit one ``Rule`` per rule for the public constructor.
"""

import pickle
import random
from pathlib import Path

from corules import (FAMILIES, EVEN, ODD, POSITIVE, Finite, InferenceSystem, JudgmentScheme,
                     JudgmentSet, Kind, Lasso, Rule, bounded_coinduction_check, check_finite,
                     check_rational_in_gen, coind_interpretation, eq_to, extract_finite_proof,
                     extract_rational_proof, gen_interpretation, greater_than,
                     ind_interpretation, is_closed, is_consistent, rule, three_way)
from corules.cli import parse_system
from corules.prooftree import format_finite, format_rational

from util import (coind_oracle, elements_of, gen_oracle, ind_oracle, random_colist,
                  random_system, reference_parse, reference_predicate_system)

DEMOS = Path(__file__).resolve().parent.parent / "demos"


def compiled_from(system: InferenceSystem) -> InferenceSystem:
    """``system`` rebuilt through the private constructor from the arrays of its rules."""
    heads, starts, body = [], [0], []
    for r in system.rules + system.corules:
        heads.append(r.conclusion)
        body += sorted(r.premises)
        starts.append(len(body))
    return InferenceSystem._valid(system.universe_size, heads, starts, body,
                                  len(system.rules), system.labels)


def public_from(system: InferenceSystem) -> InferenceSystem:
    return InferenceSystem(system.universe_size, system.rules, system.corules, system.labels)


def observations(system: InferenceSystem, rng: random.Random) -> list:
    """Everything the library reads off ``system``, in a comparable form."""
    n = system.universe_size
    ind, coind, gen = (ind_interpretation(system), coind_interpretation(system),
                       gen_interpretation(system))
    out: list = [ind, ind_interpretation(system, use_corules=True), coind, gen]
    probe = JudgmentSet(n, (j for j in range(n) if rng.random() < 0.5))
    for s in (ind, coind, gen, probe, JudgmentSet(n, range(n))):
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


def test_rules_and_corules_are_the_rules_of_their_indices():
    """The bulk fill of ``rules`` and ``corules`` makes, index by index, the ``Rule``
    that ``rule_at`` makes, axioms and repeated rules included, on both ways in."""
    rng = random.Random(24)
    for _ in range(300):
        n = rng.randint(1, 6)
        pool = [Rule(rng.sample(range(n), min(rng.choice([0, 0, 1, 2, 4]), n)),
                     rng.randrange(n)) for _ in range(rng.randint(1, 5))]
        rules, corules = (rng.choices(pool, k=rng.randint(0, 10)) for _ in "rc")
        public = InferenceSystem(n, rules, corules)
        for system in (public, compiled_from(public)):
            every = tuple(map(system.rule_at, range(len(system._heads))))
            assert system.rules + system.corules == every == tuple(rules + corules)
            assert all(type(r) is Rule and type(r.premises) is frozenset
                       and hash(r) == hash(rule(r.conclusion, *r.premises))
                       for r in system.rules + system.corules)


def test_rule_repr_lists_premises_in_ascending_order():
    assert repr(rule(0, 9, 1)) == repr(rule(0, 1, 9)) == \
        "Rule(premises=frozenset({1, 9}), conclusion=0)"
    assert repr(rule(2)) == "Rule(premises=frozenset(), conclusion=2)"


def arrays(system: InferenceSystem) -> tuple:
    return (system.universe_size, system._heads, system._starts, system._body, system._plain)


def test_builders_match_the_pair_references():
    """Each builder writes the arrays that one (conclusion, premises) pair per rule
    gives, on finite, lasso and empty colists; a finite colist's max axiom comes
    before its state's candidate rules."""
    rng = random.Random(13)
    predicates = (POSITIVE, EVEN, ODD, eq_to(1), greater_than(2))
    colists = [Finite(()), Finite((3,)), Lasso((), (0,)), Lasso((2, 2), (1,))]
    for _ in range(80):
        xs = random_colist(rng, max_prefix=5)
        colists += [xs, Finite(elements_of(xs))]
    for xs in colists:
        for kind, family in FAMILIES.items():
            x, p = rng.randint(0, 5), rng.choice(predicates)
            candidates = None
            if kind is Kind.MAX_ELEM and rng.random() < 0.5:
                candidates = set(elements_of(xs)) | set(rng.sample(range(8), 2))
            built, scheme = family.build(xs, x, p, candidates)
            reference = reference_predicate_system(kind, xs, x, p, candidates)
            assert arrays(built) == arrays(reference)
            assert (built.rules, built.corules) == (reference.rules, reference.corules)
            assert built.labels == reference.labels == scheme.labels()
            assert built == reference and hash(built) == hash(reference)
            assert repr(built) == repr(reference)
            assert pickle.loads(pickle.dumps(built)) == reference


def system_text(rng: random.Random, system: InferenceSystem, names: list[str],
                spec: JudgmentSet | None) -> str:
    """``system`` as a system file: rule and corule lines interleaved, premises
    shuffled and some repeated, with drawn spacing, comments and blank lines."""
    def line(*words: str) -> str:
        gaps = [rng.choice([" ", "  ", "\t"]) for _ in words]
        text = rng.choice(["", " ", "\t"]) + "".join(g + w for g, w in zip(gaps, words))[1:]
        return text + rng.choice(["", " ", "  # a note", "\t#rule: x <- y"])

    lines = [line("judgments:", *names)]
    left = {"rule:": list(system.rules), "corule:": list(system.corules)}
    order = ["rule:"] * len(system.rules) + ["corule:"] * len(system.corules)
    rng.shuffle(order)
    for directive in order:
        r = left[directive].pop(0)
        premises = sorted(r.premises)
        premises += rng.sample(premises, rng.randint(0, len(premises)))
        rng.shuffle(premises)
        lines.append(line(directive, names[r.conclusion], "<-", *map(names.__getitem__, premises)))
        lines += rng.choice([[], [], [""], ["   # just a comment"]])
    if spec is not None:
        lines.append(line("spec:", *(names[j] for j in spec)))
    return "\n".join(lines) + rng.choice(["", "\n"])


def assert_parsed_as_reference(text: str) -> None:
    sf = parse_system(text)
    names, reference, spec = reference_parse(text)
    assert arrays(sf.system) == arrays(reference)
    assert (sf.names, sf.spec) == (names, spec)
    assert sf.system == reference and repr(sf.system) == repr(reference)


def test_parser_matches_the_pair_reference():
    rng = random.Random(14)
    stems = ("a", "n", "max(2,s1)", "x.y", "β", "<=")
    for _ in range(200):
        system = random_system(rng, max_universe=10, max_rules=20, max_corules=5,
                               max_premises=5)
        names = [f"{rng.choice(stems)}{k}" for k in range(system.universe_size)]
        rng.shuffle(names)
        spec = None
        if rng.random() < 0.6:
            n = system.universe_size
            spec = JudgmentSet(n, rng.sample(range(n), rng.randint(0, min(n, 3))))
        assert_parsed_as_reference(system_text(rng, system, names, spec))
    for demo in sorted(DEMOS.glob("*.inf")):
        assert_parsed_as_reference(demo.read_text(encoding="utf-8"))


def test_queries_leave_a_builders_labels_unbuilt(monkeypatch):
    """Only a read of ``labels`` (a render, ``==``, ``repr``) formats them, and no
    query builds a ``Rule``: reports and proofs name rules by index, so ``rules``
    and ``corules`` stay unbuilt too. ``rule_at``, like ``rules`` and ``corules``,
    reads the bulk fill, which calls no ``Rule.__init__``, so it is counted on its own."""
    made = []
    init, fill = Rule.__init__, InferenceSystem._rules

    def counted(self, premises, conclusion):
        made.append(conclusion)
        init(self, premises, conclusion)

    def filled(self, first, last):
        made.append((first, last))
        return fill(self, first, last)

    monkeypatch.setattr(Rule, "__init__", counted)
    monkeypatch.setattr(InferenceSystem, "_rules", filled)
    xs = Lasso((1, 0, 2), (3, 1))
    built = [family.build(xs, 1, EVEN, None) for family in FAMILIES.values()]
    parsed = [(parse_system(demo.read_text(encoding="utf-8")).system, None)
              for demo in sorted(DEMOS.glob("*.inf"))]
    for system, scheme in built + parsed:
        n = system.universe_size
        gen = gen_interpretation(system)
        ind_interpretation(system), ind_interpretation(system, use_corules=True)
        coind_interpretation(system)
        reports = [check(system, s)
                   for s in (gen, JudgmentSet(n, range(0, n, 2)), JudgmentSet(n, range(n)))
                   for check in (is_closed, is_consistent, bounded_coinduction_check)]
        assert any(r.failures for r in reports) and any(r.witnesses for r in reports)
        for j in range(n):
            extract_finite_proof(system, j, allow_corules=True)
            proof = extract_rational_proof(system, j)
            assert proof is None or check_rational_in_gen(proof, system)
        assert made == []
        assert not {"labels", "rules", "corules"} & set(system.__dict__)
        if scheme is not None:
            assert system.labels == scheme.labels() and "labels" in system.__dict__

    def unbuilt(scheme):
        raise AssertionError("labels were built")

    monkeypatch.setattr(JudgmentScheme, "labels", unbuilt)
    for kind in FAMILIES:
        family = FAMILIES[kind]
        engine, direct, oracle = three_way(kind, xs, x=1 if family.needs_value else None,
                                           predicate=EVEN if family.needs_predicate else None)
        assert engine == direct == oracle
    # the two checks above see a read of rules or corules
    for system, _ in built + parsed:
        made.clear()
        assert system.rules + system.corules == tuple(map(system.rule_at,
                                                          range(len(system._heads))))
        assert made[:2] == [(0, system._plain), (system._plain, len(system._heads))]
        assert {"rules", "corules"} <= set(system.__dict__)
