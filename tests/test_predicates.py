import random
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from corules import (
    EVEN,
    FAMILIES,
    POSITIVE,
    ElementPredicate,
    Finite,
    JudgmentScheme,
    Kind,
    Lasso,
    bounded_coinduction_check,
    coind_interpretation,
    decide_direct,
    eq_to,
    gen_allpos_system,
    gen_always_system,
    gen_eventually_system,
    gen_infoften_system,
    gen_interpretation,
    gen_maxelem_system,
    gen_member_system,
    greater_than,
    ind_interpretation,
    predicate_by_name,
    rule,
    spec_oracle,
    suffix,
    suffix_automaton,
    three_way,
)
from corules.cli import _build_parser
from corules.inference import BOUNDEDNESS, InferenceSystem, JudgmentSet

from util import (
    PREDICATE_POOL,
    all_finite_lists,
    coind_oracle,
    elements_of,
    ind_oracle,
    max_of,
    quantified_spec,
    random_colist,
    random_lasso,
)


class TestMaxOf:
    @pytest.mark.parametrize("a,b,expected", [(0, 7, 7), (3, 2, 3), (2, 2, 2)])
    def test_examples(self, a, b, expected):
        assert max_of(a, b) == expected

    def test_result_is_one_of_the_arguments(self):
        for a in range(51):
            for b in range(51):
                assert max_of(a, b) in (a, b)

    @given(st.integers(0, 50), st.integers(0, 50), st.integers(0, 50))
    def test_commutative_associative_idempotent(self, a, b, c):
        assert max_of(a, b) == max_of(b, a)
        assert max_of(a, max_of(b, c)) == max_of(max_of(a, b), c)
        assert max_of(a, a) == a

    @given(st.integers(0, 50), st.integers(0, 50))
    def test_fixed_point_iff_geq(self, m, x):
        assert (m == max_of(m, x)) == (m >= x)


class TestElementPredicates:
    def test_named_predicates(self):
        assert POSITIVE(1) and not POSITIVE(0)
        assert EVEN(0) and not EVEN(3)
        assert eq_to(4)(4) and not eq_to(4)(5)
        assert greater_than(2)(3) and not greater_than(2)(2)

    def test_parse_names(self):
        assert predicate_by_name("positive") is POSITIVE
        assert predicate_by_name("eq:3")(3)
        assert predicate_by_name("gt:3")(4)
        assert predicate_by_name("odd")(3)
        with pytest.raises(ValueError):
            predicate_by_name("prime")
        with pytest.raises(ValueError):
            predicate_by_name("eq:x")

    @pytest.mark.parametrize("holds", [None, 3, "n > 0"])
    def test_holds_must_be_callable(self, holds):
        with pytest.raises(TypeError) as e:
            ElementPredicate("bad", holds)
        assert str(e.value) == f"holds must be callable, not {type(holds).__name__}"


class TestJudgmentScheme:
    def test_encoding_is_a_bijection(self):
        rng = random.Random(31)
        for _ in range(50):
            xs = random_colist(rng)
            _, scheme = gen_maxelem_system(xs, sorted(set(elements_of(xs)) | {9}))
            seen = set()
            for j in range(scheme.universe_size):
                value, state = scheme.decode(j)
                assert scheme.encode(state, value) == j
                seen.add((value, state))
            assert len(seen) == scheme.universe_size

    def test_state_only_decode_has_no_value(self):
        _, scheme = gen_always_system(EVEN, Lasso((1,), (2, 3)))
        assert [scheme.decode(j) for j in range(3)] == [(None, 0), (None, 1), (None, 2)]

    def test_labels_are_unique(self):
        sys_, scheme = gen_member_system(1, Finite((2, 1)))
        assert len(set(scheme.labels())) == scheme.universe_size
        assert sys_.labels == scheme.labels()


class TestMemberSystem:
    def test_present_element_derivable_at_both_states(self):
        sys_, scheme = gen_member_system(1, Finite((2, 1)))
        ind = ind_interpretation(sys_)
        assert scheme.encode(0, 1) in ind
        assert scheme.encode(1, 1) in ind

    def test_absent_element_underivable(self):
        sys_, _ = gen_member_system(3, Finite((2, 1)))
        assert not ind_interpretation(sys_)

    def test_lasso_membership(self):
        xs = Lasso((), (1, 2))
        sys_, scheme = gen_member_system(2, xs)
        assert scheme.encode(0, 2) in ind_interpretation(sys_)
        assert any(spec_oracle(Kind.MEMBER_OF, xs, x=2) for _ in [0])

    def test_member_is_eventually_eq(self):
        rng = random.Random(30)
        for _ in range(60):
            xs = random_colist(rng)
            x = rng.randint(0, 5)
            member_sys, _ = gen_member_system(x, xs)
            eventually_sys, _ = gen_eventually_system(eq_to(x), xs)
            assert member_sys.rules == eventually_sys.rules
            assert member_sys.corules == eventually_sys.corules == ()

    def test_negative_element_rejected(self):
        with pytest.raises(ValueError, match="element must be a natural number"):
            gen_member_system(-1, Finite((1,)))

    @pytest.mark.parametrize("x", [1.5, 1.0, True, "1"])
    def test_element_that_is_not_a_natural_number(self, x):
        text = f"element must be a natural number, got {x!r}"
        for build in (lambda: gen_member_system(x, Finite((1,))),
                      lambda: three_way(Kind.MEMBER_OF, Finite((1,)), x=x)):
            with pytest.raises(ValueError) as excinfo:
                build()
            assert str(excinfo.value) == text

    def test_nothing_concludes_at_the_empty_state(self):
        sys_, scheme = gen_member_system(1, Finite((1,)))
        empty_state = 1
        assert all(r.conclusion != scheme.encode(empty_state, 1)
                   for r in sys_.rules)


class TestAlwaysSystem:
    def test_infinite_list_needs_coinduction(self):
        sys_, _ = gen_allpos_system(Lasso((), (1,)))
        assert not ind_interpretation(sys_)
        assert len(coind_interpretation(sys_)) == sys_.universe_size

    def test_finite_list_matches_enumeration_oracle(self):
        sys_, _ = gen_allpos_system(Finite((1, 2)))
        assert ind_interpretation(sys_) == ind_oracle(sys_)
        assert coind_interpretation(sys_) == coind_oracle(sys_)
        assert len(ind_interpretation(sys_)) == sys_.universe_size

    def test_zero_in_loop_blocks_initial_state(self):
        sys_, scheme = gen_allpos_system(Lasso((1,), (0,)))
        assert not decide_direct(Kind.ALL_POS, Lasso((1,), (0,)))
        assert scheme.encode(0) not in coind_interpretation(sys_)

    def test_allpos_is_the_positive_instance(self):
        xs = Lasso((3,), (0, 1))
        allpos_sys, _ = gen_allpos_system(xs)
        always_sys, _ = gen_always_system(POSITIVE, xs)
        assert allpos_sys.rules == always_sys.rules
        assert allpos_sys.corules == always_sys.corules == ()


class TestEventuallySystem:
    def test_hit_inside_loop(self):
        xs = Lasso((2,), (1, 3))
        sys_, scheme = gen_eventually_system(eq_to(1), xs)
        assert spec_oracle(Kind.EVENTUALLY, xs, predicate=eq_to(1))
        assert scheme.encode(0) in ind_interpretation(sys_)

    def test_no_hit_on_finite_list(self):
        sys_, _ = gen_eventually_system(eq_to(9), Finite((1, 2)))
        assert not ind_interpretation(sys_)

    def test_coinductive_reading_overshoots_on_lassos(self):
        # the tail rule alone is consistent, whatever the predicate says
        rng = random.Random(32)
        for _ in range(40):
            xs = random_lasso(rng)
            for p in PREDICATE_POOL:
                sys_, _ = gen_eventually_system(p, xs)
                assert len(coind_interpretation(sys_)) == sys_.universe_size
                assert coind_interpretation(sys_) == coind_oracle(sys_)


class TestInfinitelyOftenSystem:
    def test_even_hits_forever(self):
        sys_, scheme = gen_infoften_system(EVEN, Lasso((1,), (2,)))
        assert scheme.encode(0) in gen_interpretation(sys_)

    def test_single_occurrence_does_not_count(self):
        sys_, scheme = gen_infoften_system(eq_to(1), Lasso((1,), (2,)))
        assert scheme.encode(0) not in gen_interpretation(sys_)

    def test_finite_lists_never_qualify(self):
        for xs in all_finite_lists(3, 2):
            for p in (EVEN, POSITIVE):
                sys_, _ = gen_infoften_system(p, xs)
                assert not gen_interpretation(sys_)

    def test_matches_always_eventually_composition(self):
        # a suffix qualifies exactly when every reachable suffix still has a hit
        rng = random.Random(33)
        for _ in range(60):
            xs = random_colist(rng)
            for p in PREDICATE_POOL:
                sys_, scheme = gen_infoften_system(p, xs)
                gen = gen_interpretation(sys_)
                aut = scheme.automaton
                for s in range(aut.state_count):
                    reachable = set()
                    cursor = s
                    while cursor is not None and cursor not in reachable:
                        reachable.add(cursor)
                        cursor = aut.nexts[cursor]
                    expected = all(
                        decide_direct(Kind.EVENTUALLY, suffix(xs, t), predicate=p)
                        for t in reachable)
                    assert (scheme.encode(s) in gen) == expected


class TestMaxElemSystem:
    def test_stream_golden_judgments(self):
        sys_, scheme = gen_maxelem_system(Lasso((), (1, 2)), [1, 2, 3])
        gen = gen_interpretation(sys_)
        coind = coind_interpretation(sys_)
        state0 = {scheme.decode(j) for j in gen if scheme.decode(j)[1] == 0}
        assert state0 == {(2, 0)}
        assert scheme.encode(0, 2) in coind
        assert scheme.encode(0, 3) in coind
        assert not ind_interpretation(sys_)

    def test_singleton_finite_list(self):
        sys_, scheme = gen_maxelem_system(Finite((5,)), [5])
        target = JudgmentSet.of(sys_.universe_size, [scheme.encode(0, 5)])
        assert gen_interpretation(sys_) == target
        assert ind_interpretation(sys_) == target

    def test_finite_list_picks_true_maximum(self):
        sys_, scheme = gen_maxelem_system(Finite((1, 2)), [1, 2])
        gen = gen_interpretation(sys_)
        assert scheme.encode(0, 2) in gen
        assert scheme.encode(0, 1) not in gen
        assert decide_direct(Kind.MAX_ELEM, Finite((1, 2))) == 2

    def test_candidates_must_cover_elements(self):
        with pytest.raises(ValueError):
            gen_maxelem_system(Lasso((), (1, 2)), [2, 3])
        with pytest.raises(ValueError):
            gen_maxelem_system(Finite((1,)), [])

    def test_coinductive_over_derivation(self):
        # coinductively, anything at least the maximum can be claimed;
        # generation keeps exactly the maximum
        rng = random.Random(34)
        for _ in range(50):
            xs = random_lasso(rng)
            true_max = decide_direct(Kind.MAX_ELEM, xs)
            candidates = sorted(set(elements_of(xs)) | {true_max + 1, true_max + 3})
            sys_, scheme = gen_maxelem_system(xs, candidates)
            coind = coind_interpretation(sys_)
            gen = gen_interpretation(sys_)
            for q in candidates:
                assert (scheme.encode(0, q) in coind) == (q >= true_max)
                assert (scheme.encode(0, q) in gen) == (q == true_max)


def maxelem_spec(sys_, scheme):
    ids = [scheme.encode(s, v)
           for v in scheme.candidates
           for s in range(scheme.state_count)
           if spec_oracle(Kind.MAX_ELEM, suffix(scheme.colist, s), x=v)]
    return JudgmentSet.of(sys_.universe_size, ids)


def infoften_spec(sys_, scheme):
    ids = [scheme.encode(s) for s in range(scheme.state_count)
           if spec_oracle(Kind.INFINITELY_OFTEN, suffix(scheme.colist, s),
                          predicate=scheme.predicate)]
    return JudgmentSet.of(sys_.universe_size, ids)


class TestBoundedCoinductionOnPredicates:
    def test_maxelem_spec_passes_both_obligations(self):
        rng = random.Random(35)
        for _ in range(30):
            xs = random_lasso(rng)
            sys_, scheme = gen_maxelem_system(xs, sorted(set(elements_of(xs))))
            spec = maxelem_spec(sys_, scheme)
            assert len(spec) == scheme.automaton.state_count
            report = bounded_coinduction_check(sys_, spec)
            assert report.ok
            assert spec <= gen_interpretation(sys_)

    def test_maxelem_boundedness_fails_without_corules(self):
        rng = random.Random(36)
        for _ in range(30):
            xs = random_lasso(rng)
            sys_, scheme = gen_maxelem_system(xs, sorted(set(elements_of(xs))))
            stripped = InferenceSystem(sys_.universe_size, sys_.rules, (),
                                       sys_.labels)
            report = bounded_coinduction_check(stripped, maxelem_spec(sys_, scheme))
            assert not report.ok
            assert report.failures_tagged(BOUNDEDNESS)

    def test_infoften_spec_passes_and_fails_like_maxelem(self):
        rng = random.Random(37)
        stripped_failures = 0
        for _ in range(40):
            xs = random_lasso(rng)
            for p in (EVEN, POSITIVE, eq_to(2)):
                sys_, scheme = gen_infoften_system(p, xs)
                spec = infoften_spec(sys_, scheme)
                assert bounded_coinduction_check(sys_, spec).ok
                if spec:
                    stripped = InferenceSystem(sys_.universe_size, sys_.rules,
                                               (), sys_.labels)
                    report = bounded_coinduction_check(stripped, spec)
                    assert not report.ok
                    assert report.failures_tagged(BOUNDEDNESS)
                    stripped_failures += 1
        assert stripped_failures > 0


class TestDecideDirect:
    def test_maximum_of_stream(self):
        assert decide_direct(Kind.MAX_ELEM, Lasso((), (1, 2))) == 2
        assert decide_direct(Kind.MAX_ELEM, Lasso((3,), (1, 2)), x=1) == 3  # x is ignored

    def test_empty_list_has_no_maximum(self):
        assert decide_direct(Kind.MAX_ELEM, Finite(())) is None

    def test_finite_lists_never_infinitely_often(self):
        assert not decide_direct(Kind.INFINITELY_OFTEN, Finite((2, 4)),
                                 predicate=EVEN)

    def test_always_vacuous_on_empty(self):
        assert decide_direct(Kind.ALWAYS, Finite(()), predicate=POSITIVE)
        assert decide_direct(Kind.ALL_POS, Finite(()))


class TestDeciderArguments:
    """Each decider names the argument a kind lacks, and rejects unknown kinds."""

    XS = Lasso((1,), (2,))

    @pytest.mark.parametrize("decide", [decide_direct, spec_oracle])
    @pytest.mark.parametrize("kind", [Kind.ALWAYS, Kind.EVENTUALLY,
                                      Kind.INFINITELY_OFTEN])
    def test_missing_predicate(self, decide, kind):
        with pytest.raises(ValueError) as e:
            decide(kind, self.XS, x=1)
        assert str(e.value) == f"{kind.value} needs an element predicate"

    @pytest.mark.parametrize("decide,kind", [(decide_direct, Kind.MEMBER_OF),
                                             (spec_oracle, Kind.MEMBER_OF),
                                             (spec_oracle, Kind.MAX_ELEM)])
    def test_missing_value(self, decide, kind):
        with pytest.raises(ValueError) as e:
            decide(kind, self.XS, predicate=EVEN)
        assert str(e.value) == f"{kind.value} needs a value"

    @pytest.mark.parametrize("x", [True, 2.0, -1, "1"])
    @pytest.mark.parametrize("route", [decide_direct, spec_oracle, three_way])
    @pytest.mark.parametrize("kind", [Kind.MEMBER_OF, Kind.MAX_ELEM])
    def test_value_that_is_not_a_natural_number(self, kind, route, x):
        with pytest.raises(ValueError) as e:
            route(kind, Finite((1, 2)), x=x)
        assert str(e.value) == f"element must be a natural number, got {x!r}"

    def test_arguments_a_kind_does_not_take_are_ignored(self):
        assert decide_direct(Kind.ALL_POS, self.XS, x=0, predicate=EVEN)
        assert spec_oracle(Kind.ALL_POS, self.XS, x=0, predicate=EVEN)
        assert not spec_oracle(Kind.MEMBER_OF, self.XS, x=3, predicate=POSITIVE)
        # an x the kind does not take is not checked either
        assert decide_direct(Kind.ALL_POS, self.XS, x=-1)
        assert spec_oracle(Kind.ALWAYS, self.XS, x=True, predicate=POSITIVE)
        # nor by three_way, which encodes its root with x only for a kind that takes x
        agreed = (True, True, True)
        assert three_way(Kind.EVENTUALLY, self.XS, predicate=POSITIVE, x=1) == agreed
        assert three_way(Kind.ALL_POS, self.XS, x=0, predicate=EVEN) == agreed
        assert three_way(Kind.INFINITELY_OFTEN, self.XS, x=-1, predicate=EVEN,
                         candidates=[9]) == agreed
        assert three_way(Kind.MEMBER_OF, self.XS, x=3, predicate=POSITIVE) == (False,) * 3

    @pytest.mark.parametrize("decide", [decide_direct, spec_oracle])
    @pytest.mark.parametrize("kind", ["member", None, 3, []])
    def test_unknown_kind(self, decide, kind):
        with pytest.raises(ValueError) as e:
            decide(kind, self.XS, x=1, predicate=EVEN)
        assert str(e.value) == f"unknown kind {kind!r}"


class TestSpecOracle:
    def test_membership(self):
        assert spec_oracle(Kind.MEMBER_OF, Lasso((), (1, 2)), x=2)

    def test_one_shot_hit_is_not_infinitely_often(self):
        # window is 1 + 2*1 = 3; no index past 0 holds a 1
        xs = Lasso((1,), (2,))
        assert not spec_oracle(Kind.INFINITELY_OFTEN, xs, predicate=eq_to(1))

    def test_max_requires_membership(self):
        assert not spec_oracle(Kind.MAX_ELEM, Lasso((), (1, 2)), x=3)

    def test_empty_list_is_not_infinitely_often(self):
        assert not spec_oracle(Kind.INFINITELY_OFTEN, Finite(()), predicate=EVEN)

    def test_matches_nested_quantifiers(self):
        # sparse or no hits make the reference's inner quantifier scan far
        rng = random.Random(19)
        for _ in range(60):
            xs = sparse_colist(rng)
            elements = elements_of(xs)
            values = sorted(set(elements) | {0, max(elements, default=0) + 1})
            for kind, family in FAMILIES.items():
                for x in values if family.needs_value else [None]:
                    for p in PREDICATE_POOL if family.needs_predicate else [None]:
                        assert (spec_oracle(kind, xs, x=x, predicate=p)
                                == quantified_spec(kind, xs, x, p)), (xs, kind, x, p)

    def test_long_hit_free_prefix_in_linear_time(self):
        # the nested quantifiers take about 80 s here: window x gap between hits
        xs = Lasso((0,) * 20_000, (1,))
        start = time.monotonic()
        verdicts = three_way(Kind.INFINITELY_OFTEN, xs, predicate=POSITIVE)
        elapsed = time.monotonic() - start
        assert verdicts == (True, True, True)
        assert elapsed < 1.0, f"took {elapsed:.2f}s, budget 1s"


def sparse_colist(rng: random.Random):
    """The empty colist, a finite list, or a lasso with a prefix of up to 300,
    mostly zeros: a third have no positive element, the rest one in 50."""
    def chunk(lo: int, hi: int):
        rate = 0.0 if rng.random() < 1 / 3 else 0.02
        return tuple(rng.randint(1, 4) if rng.random() < rate else 0
                     for _ in range(rng.randint(lo, hi)))

    if rng.random() < 0.1:
        return Finite(())
    if rng.random() < 0.3:
        return Finite(chunk(1, 300))
    return Lasso(chunk(0, 300), chunk(1, 5))


INTERPRET = {"ind": ind_interpretation, "coind": coind_interpretation,
             "gen": gen_interpretation}

EMPTY, SHORT, LASSO = Finite(()), Finite((1, 0)), Lasso((0,), (1, 2))

# Every state-only builder's exact system on three colists, rule order
# included: witness choice and rational renders follow it. A row is the
# builder, the scheme's kind, candidates, predicate and label stem, and per
# colist the rules and corules (``rule(c, p)`` reads ``c <- p``).
PINNED = [
    ("member-0", lambda xs: gen_member_system(0, xs), Kind.MEMBER_OF, (0,), None,
     "member(0,", {EMPTY: ((), ()),
                   SHORT: ((rule(0, 1), rule(1), rule(1, 2)), ()),
                   LASSO: ((rule(0), rule(0, 1), rule(1, 2), rule(2, 1)), ())}),
    ("member-2", lambda xs: gen_member_system(2, xs), Kind.MEMBER_OF, (2,), None,
     "member(2,", {EMPTY: ((), ()),
                   SHORT: ((rule(0, 1), rule(1, 2)), ()),
                   LASSO: ((rule(0, 1), rule(1, 2), rule(2), rule(2, 1)), ())}),
    ("allpos", gen_allpos_system, Kind.ALL_POS, None, POSITIVE,
     "allpos(", {EMPTY: ((rule(0),), ()),
                 SHORT: ((rule(0, 1), rule(2)), ()),
                 LASSO: ((rule(1, 2), rule(2, 1)), ())}),
    ("eventually-positive", lambda xs: gen_eventually_system(POSITIVE, xs),
     Kind.EVENTUALLY, None, POSITIVE,
     "eventually(", {EMPTY: ((), ()),
                     SHORT: ((rule(0), rule(0, 1), rule(1, 2)), ()),
                     LASSO: ((rule(0, 1), rule(1), rule(1, 2), rule(2), rule(2, 1)), ())}),
    ("eventually-even", lambda xs: gen_eventually_system(EVEN, xs),
     Kind.EVENTUALLY, None, EVEN,
     "eventually(", {EMPTY: ((), ()),
                     SHORT: ((rule(0, 1), rule(1), rule(1, 2)), ()),
                     LASSO: ((rule(0), rule(0, 1), rule(1, 2), rule(2), rule(2, 1)), ())}),
    ("always-positive", lambda xs: gen_always_system(POSITIVE, xs),
     Kind.ALWAYS, None, POSITIVE,
     "always(", {EMPTY: ((rule(0),), ()),
                 SHORT: ((rule(0, 1), rule(2)), ()),
                 LASSO: ((rule(1, 2), rule(2, 1)), ())}),
    ("always-even", lambda xs: gen_always_system(EVEN, xs),
     Kind.ALWAYS, None, EVEN,
     "always(", {EMPTY: ((rule(0),), ()),
                 SHORT: ((rule(1, 2), rule(2)), ()),
                 LASSO: ((rule(0, 1), rule(2, 1)), ())}),
    ("infoften-positive", lambda xs: gen_infoften_system(POSITIVE, xs),
     Kind.INFINITELY_OFTEN, None, POSITIVE,
     "infoften(", {EMPTY: ((), ()),
                   SHORT: ((rule(0, 1), rule(1, 2)), (rule(0),)),
                   LASSO: ((rule(0, 1), rule(1, 2), rule(2, 1)), (rule(1), rule(2)))}),
    ("infoften-even", lambda xs: gen_infoften_system(EVEN, xs),
     Kind.INFINITELY_OFTEN, None, EVEN,
     "infoften(", {EMPTY: ((), ()),
                   SHORT: ((rule(0, 1), rule(1, 2)), (rule(1),)),
                   LASSO: ((rule(0, 1), rule(1, 2), rule(2, 1)), (rule(0), rule(2)))}),
]


@pytest.mark.parametrize(
    "build,kind,candidates,predicate,stem,xs,rules,corules",
    [pytest.param(build, kind, cands, pred, stem, xs, rules, corules, id=f"{name}-{i}")
     for name, build, kind, cands, pred, stem, cases in PINNED
     for i, (xs, (rules, corules)) in enumerate(cases.items())])
def test_state_only_builders_are_pinned(build, kind, candidates, predicate, stem,
                                        xs, rules, corules):
    system, scheme = build(xs)
    assert system.rules == rules
    assert system.corules == corules
    n = 1 if xs == EMPTY else 3
    assert system.universe_size == n
    assert system.labels == tuple(f"{stem}s{s})" for s in range(n))
    assert scheme == JudgmentScheme(kind, xs, suffix_automaton(xs),
                                    candidates=candidates, predicate=predicate)


def check_three_way(xs):
    """Every row of FAMILIES against both independent deciders."""
    elements = elements_of(xs)
    probe = (max(elements) + 1) if elements else 1
    candidates = sorted(set(elements) | {0, probe})
    for kind, family in FAMILIES.items():
        values = (candidates if family.computes_value
                  else range(6) if family.needs_value else [None])
        for x in values:
            for p in PREDICATE_POOL if family.needs_predicate else [None]:
                engine, direct, oracle = three_way(kind, xs, x=x, predicate=p,
                                                   candidates=candidates)
                assert engine == direct == oracle, (xs, kind, x, p)


class TestFamilies:
    def test_one_row_per_kind_in_kind_order(self):
        assert list(FAMILIES) == list(Kind)
        assert {f.interpretation for f in FAMILIES.values()} == set(INTERPRET)
        for kind, family in FAMILIES.items():
            assert family.build(Lasso((2,), (0, 1)), 1, EVEN, None)[1].kind is kind

    def test_pred_command_offers_exactly_the_table(self):
        sub = next(a for a in _build_parser()._actions if a.dest == "command")
        kind = next(a for a in sub.choices["pred"]._actions if a.dest == "kind")
        assert kind.choices == [k.value for k in FAMILIES]


class TestThreeWayAgreement:
    def test_random_sample(self):
        rng = random.Random(38)
        for _ in range(80):
            check_three_way(random_colist(rng))

    def test_small_finite_lists(self):
        for xs in all_finite_lists(2, 2):
            check_three_way(xs)

    def test_rotation_invariance_of_verdicts(self):
        rng = random.Random(39)
        for _ in range(20):
            xs = random_lasso(rng)
            ys = Lasso(xs.prefix + (xs.loop[0],), xs.loop[1:] + (xs.loop[0],))
            for p in (EVEN, POSITIVE):
                for kind in (Kind.ALWAYS, Kind.EVENTUALLY, Kind.INFINITELY_OFTEN):
                    assert (three_way(kind, xs, predicate=p)[0]
                            == three_way(kind, ys, predicate=p)[0])
