"""Shared test helpers: independent oracles and random generators.

The oracles here deliberately avoid the engine's fixed-point iteration.
Closed and consistent sets are found by enumerating all 2^n subsets of the
universe, one inference step is a scan over ``Rule`` objects, and colists
are compared by unrolling indices. These are the ground truths the engine
gets checked against, so they must stay independent of the code under test.
The reference builder and parser emit one ``Rule`` per rule, for the public
constructor, where the library writes the flat rule arrays directly.
Colist equality and pointwise relations, and ``max_of``, live here because
only tests use them.
"""

from __future__ import annotations

import operator
import random
from itertools import product
from typing import Callable

from corules import (
    BOUNDEDNESS,
    CLOSEDNESS,
    CONSISTENCY,
    Colist,
    ElementPredicate,
    Finite,
    InferenceSystem,
    JudgmentSet,
    Kind,
    Lasso,
    Rule,
    eq_to,
    get,
    greater_than,
    suffix_automaton,
)
from corules.predicates import EVEN, ODD, POSITIVE


def closed_by_scan(rules: tuple[Rule, ...], members: frozenset[int]) -> bool:
    return all(r.conclusion in members
               for r in rules if r.premises <= members)


def consistent_by_scan(rules: tuple[Rule, ...], members: frozenset[int]) -> bool:
    return all(any(r.conclusion == j and r.premises <= members for r in rules)
               for j in members)


def reports_by_scan(system: InferenceSystem, s: JudgmentSet) -> dict[str, tuple[list, dict]]:
    """What ``is_closed``, ``is_consistent`` and ``bounded_coinduction_check``
    report on ``s``, keyed by the check's name, found by a scan over the ``Rule``
    objects: the ``(judgment, reason, rule index)`` of each failure, in report
    order, and each witness's rule index, by ascending judgment."""
    rules, inside = system.rules, s.members
    closed = sorted((r.conclusion, CLOSEDNESS, i) for i, r in enumerate(rules)
                    if r.premises <= inside and r.conclusion not in inside)
    witnesses: dict[int, int] = {}
    for j in sorted(inside):
        support = [i for i, r in enumerate(rules) if r.conclusion == j and r.premises <= inside]
        if support:
            witnesses[j] = support[0]
    unsupported = [(j, CONSISTENCY, None) for j in sorted(inside - witnesses.keys())]
    bound = JudgmentSet(system.universe_size)
    while apply_step(system, bound, use_corules=True) != bound:
        bound = apply_step(system, bound, use_corules=True)
    unbounded = [(j, BOUNDEDNESS, None) for j in sorted(inside - bound.members)]
    return {"is_closed": (closed, {}), "is_consistent": (unsupported, witnesses),
            "bounded_coinduction_check": (sorted(unbounded + unsupported), witnesses)}


def set_from_bits(n: int, bits: int) -> JudgmentSet:
    """The set over a universe of ``n`` whose members are the 1 bits of ``bits``."""
    return JudgmentSet.of(n, (j for j in range(n) if bits >> j & 1))


def _subsets(n: int):
    for bits in range(1 << n):
        yield frozenset(j for j in range(n) if bits >> j & 1)


def ind_oracle(system: InferenceSystem, use_corules: bool = False) -> JudgmentSet:
    """Intersection of all closed subsets, by exhaustive enumeration."""
    rules = system.all_rules(use_corules)
    n = system.universe_size
    acc = frozenset(range(n))
    for members in _subsets(n):
        if closed_by_scan(rules, members):
            acc &= members
    return JudgmentSet.of(n, acc)


def coind_oracle(system: InferenceSystem) -> JudgmentSet:
    """Union of all consistent subsets, by exhaustive enumeration."""
    n = system.universe_size
    acc: frozenset[int] = frozenset()
    for members in _subsets(n):
        if consistent_by_scan(system.rules, members):
            acc |= members
    return JudgmentSet.of(n, acc)


def gen_oracle(system: InferenceSystem) -> JudgmentSet:
    """The generated interpretation via the enumeration oracles only."""
    return coind_oracle(restricted(system, ind_oracle(system, use_corules=True)))


def restricted(system: InferenceSystem, s: JudgmentSet) -> InferenceSystem:
    """The rules of ``system`` that conclude in ``s``, in order; no corules."""
    return InferenceSystem(system.universe_size,
                           tuple(r for r in system.rules if r.conclusion in s), (), system.labels)


def apply_step(system: InferenceSystem, s: JudgmentSet,
               use_corules: bool = False) -> JudgmentSet:
    """One inference step, by a scan over the ``Rule`` objects: the conclusions of
    the rules (and corules, if used) whose premises lie in ``s``. Its least and
    greatest fixed points are the inductive and coinductive interpretations."""
    return JudgmentSet(s.size, (r.conclusion for r in system.all_rules(use_corules)
                                if r.premises <= s.members))


# How each step-rule kind reads its step rule (see ``corules.predicates``).
READINGS = {Kind.MEMBER_OF: "ind", Kind.EVENTUALLY: "ind", Kind.ALL_POS: "coind",
            Kind.ALWAYS: "coind", Kind.INFINITELY_OFTEN: "gen"}


def reference_predicate_system(kind: Kind, xs: Colist, x=None, p=None,
                               candidates=None) -> InferenceSystem:
    """The system ``FAMILIES[kind].build(xs, x, p, candidates)`` builds, emitted one
    (conclusion, premises) pair per rule and labelled as ``JudgmentScheme`` documents."""
    aut = suffix_automaton(xs)
    rules, corules = [], []  # (conclusion, premises)
    if kind is Kind.MAX_ELEM:
        cands = tuple(sorted(set(elements_of(xs) + (x,) if candidates is None else candidates)))
        offset = dict(zip(cands, range(0, len(cands) * aut.state_count, aut.state_count)))
        for s in range(aut.state_count):
            head = aut.heads[s]
            if head is None:
                continue
            nxt = aut.nexts[s]
            if aut.heads[nxt] is None:
                rules.append((offset[head] + s, ()))
            # max(head, y) is itself a candidate: it is head or y.
            rules += [(offset[y if y > head else head] + s, (offset[y] + nxt,)) for y in cands]
            corules.append((offset[head] + s, ()))
        labels = [f"max({v},s{s})" for v in cands for s in range(aut.state_count)]
    else:
        reading = READINGS[kind]
        p = eq_to(x) if kind is Kind.MEMBER_OF else POSITIVE if kind is Kind.ALL_POS else p
        for s in range(aut.state_count):
            head = aut.heads[s]
            hit = head is not None and p(head)
            if (head is None and reading == "coind") or (hit and reading == "ind"):
                rules.append((s, ()))  # an axiom
            if head is not None and (hit or reading != "coind"):
                rules.append((s, (aut.nexts[s],)))
            if hit and reading == "gen":
                corules.append((s, ()))
        value = f"{x}," if kind is Kind.MEMBER_OF else ""
        labels = [f"{kind.value}({value}s{s})" for s in range(aut.state_count)]
    return InferenceSystem(len(labels), [Rule(ps, c) for c, ps in rules],
                           [Rule(ps, c) for c, ps in corules], labels)


def reference_parse(text: str) -> tuple[tuple[str, ...], InferenceSystem, JudgmentSet | None]:
    """The names, system and spec of a well-formed system file, read one ``Rule``
    per rule or corule line."""
    names: list[str] = []
    rules: dict[str, list[Rule]] = {"rule:": [], "corule:": []}
    spec = None
    for raw in text.splitlines():
        words = raw.split("#", 1)[0].split()
        if not words:
            continue
        if words[0] == "judgments:":
            names = words[1:]
        elif words[0] == "spec:":
            spec = [names.index(name) for name in words[1:]]
        else:
            assert words[2] == "<-"
            rules[words[0]].append(Rule({names.index(name) for name in words[3:]},
                                        names.index(words[1])))
    n = len(names)
    return (tuple(names), InferenceSystem(n, rules["rule:"], rules["corule:"], names),
            None if spec is None else JudgmentSet(n, spec))


def random_system(rng: random.Random, max_universe: int = 8, max_rules: int = 16,
                  max_corules: int = 0, max_premises: int = 3) -> InferenceSystem:
    n = rng.randint(1, max_universe)

    def some_rules(count: int) -> tuple[Rule, ...]:
        out = []
        for _ in range(count):
            k = rng.randint(0, min(max_premises, n))
            premises = frozenset(rng.sample(range(n), k))
            out.append(Rule(premises, rng.randrange(n)))
        return tuple(out)

    rules = some_rules(rng.randint(0, max_rules))
    corules = some_rules(rng.randint(0, max_corules)) if max_corules else ()
    return InferenceSystem(n, rules, corules)


def coaxioms_for(system: InferenceSystem) -> InferenceSystem:
    """The same rules with one coaxiom per judgment of the universe."""
    coaxioms = tuple(Rule(frozenset(), j) for j in range(system.universe_size))
    return InferenceSystem(system.universe_size, system.rules, coaxioms)


def without_corules(system: InferenceSystem) -> InferenceSystem:
    return InferenceSystem(system.universe_size, system.rules, ())


def random_colist(rng: random.Random, max_element: int = 4, max_prefix: int = 3,
                  max_loop: int = 3) -> Colist:
    def chunk(lo: int, hi: int) -> tuple[int, ...]:
        return tuple(rng.randint(0, max_element)
                     for _ in range(rng.randint(lo, hi)))

    if rng.random() < 0.3:
        return Finite(chunk(0, max_prefix + max_loop))
    return Lasso(chunk(0, max_prefix), chunk(1, max_loop))


def random_lasso(rng: random.Random, max_element: int = 4, max_prefix: int = 3,
                 max_loop: int = 3) -> Lasso:
    while True:
        xs = random_colist(rng, max_element, max_prefix, max_loop)
        if isinstance(xs, Lasso):
            return xs


def pointwise(relation: Callable[[int, int], bool], xs: Colist, ys: Colist) -> bool:
    """Whether ``xs`` and ``ys`` have the same shape and ``relation`` holds
    at every position.

    Decided on the product of the two suffix automata: every reachable pair
    of states must agree on emptiness and satisfy the relation on heads. At
    most ``state_count(xs) * state_count(ys)`` pairs are ever visited.
    """
    a = suffix_automaton(xs)
    b = suffix_automaton(ys)
    seen = set()
    stack = [(0, 0)]
    while stack:
        pair = stack.pop()
        if pair in seen:
            continue
        seen.add(pair)
        i, j = pair
        hi, hj = a.heads[i], b.heads[j]
        if (hi is None) != (hj is None):
            return False
        if hi is None:
            continue
        if not relation(hi, hj):
            return False
        stack.append((a.nexts[i], b.nexts[j]))
    return True


def equal(xs: Colist, ys: Colist) -> bool:
    """Whether ``xs`` and ``ys`` denote the same element sequence.

    This is bisimulation equality, so syntactically different builds of the
    same stream (rotated loops, unrolled prefixes) compare equal.
    """
    return pointwise(operator.eq, xs, ys)


def max_of(a: int, b: int) -> int:
    """Larger of two naturals."""
    return a if a >= b else b


def all_finite_lists(max_len: int, max_element: int) -> list[Finite]:
    out = [Finite(())]
    for length in range(1, max_len + 1):
        out.extend(Finite(es)
                   for es in product(range(max_element + 1), repeat=length))
    return out


def unroll(xs: Colist, count: int) -> list:
    return [get(xs, i) for i in range(count)]


def elements_of(xs: Colist) -> tuple[int, ...]:
    return xs.elements if isinstance(xs, Finite) else xs.prefix + xs.loop


PREDICATE_POOL: tuple[ElementPredicate, ...] = (
    POSITIVE, EVEN, ODD, eq_to(0), eq_to(2), greater_than(1),
)


def kleene_iterations(system: InferenceSystem, use_corules: bool,
                      downward: bool) -> int:
    """Count step applications until stabilization, via ``apply_step`` only."""
    n = system.universe_size
    current = JudgmentSet(n, range(n) if downward else ())
    for rounds in range(1, n + 3):
        nxt = apply_step(system, current, use_corules=use_corules)
        if nxt == current:
            return rounds
        current = nxt
    raise AssertionError("no fixed point found within universe_size + 2 rounds")
