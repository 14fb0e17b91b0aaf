import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corules import inference
from corules import (
    BOUNDEDNESS,
    CLOSEDNESS,
    CONSISTENCY,
    CheckReport,
    EVEN,
    Failure,
    InferenceSystem,
    JudgmentSet,
    Lasso,
    ODD,
    POSITIVE,
    Rule,
    bounded_coinduction_check,
    coind_interpretation,
    extract_finite_proof,
    extract_rational_proof,
    gen_infoften_system,
    gen_interpretation,
    gen_maxelem_system,
    ind_interpretation,
    is_closed,
    is_consistent,
    rule,
)

from util import (
    apply_step,
    coaxioms_for,
    coind_oracle,
    gen_oracle,
    ind_oracle,
    kleene_iterations,
    random_system,
    reports_by_scan,
    restricted,
    set_from_bits,
)

A, B, C = 0, 1, 2


def abc_system(corules=()):
    return InferenceSystem(3, (rule(A), rule(B, A), rule(C, C)), corules,
                           labels=("a", "b", "c"))


def members(s: JudgmentSet) -> set[int]:
    return set(s)


class TestJudgmentSet:
    def test_exact_set_operations(self):
        s = JudgmentSet.of(5, [0, 3])
        t = JudgmentSet.of(5, [3, 4])
        assert members(s | t) == {0, 3, 4}
        assert members(s & t) == {3}
        assert members(s - t) == {0}
        assert (s & t) <= s and (s & t) <= t
        assert s != t and s == JudgmentSet.of(5, [3, 0])
        assert len(s) == 2 and 3 in s and 1 not in s

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            JudgmentSet.of(3, [0]) | JudgmentSet.of(4, [0])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            JudgmentSet.of(3, [3])

    def test_iteration_is_ascending(self):
        assert tuple(JudgmentSet.of(8, [5, 1, 7])) == (1, 5, 7)

    def test_iteration_matches_membership_on_large_sets(self):
        rng = random.Random(4)
        for size in (0, 1, 63, 64, 65, 5000, 20000):
            for density in (0.0, 0.01, 0.5, 1.0):
                s = JudgmentSet.of(size, [j for j in range(size) if rng.random() < density])
                assert list(s) == [j for j in range(size) if j in s]


@st.composite
def sized_ids(draw, max_size=70):
    """A universe size and a list of ids inside it, with repeats."""
    size = draw(st.integers(0, max_size))
    if not size:
        return size, []
    return size, draw(st.lists(st.integers(0, size - 1), max_size=2 * size))


class TestJudgmentSetModel:
    """``JudgmentSet`` against Python frozensets of the same ids."""

    @settings(max_examples=200)
    @given(sized_ids(), st.data())
    def test_matches_frozensets(self, sized, data):
        size, ids = sized
        other = data.draw(st.lists(st.integers(0, size - 1), max_size=2 * size)) if size else []
        s, t = JudgmentSet.of(size, ids), JudgmentSet(size, other)
        fs, ft = frozenset(ids), frozenset(other)
        for got, want in ((s | t, fs | ft), (s & t, fs & ft), (s - t, fs - ft)):
            assert got == JudgmentSet(size, want) and got.members == want
        assert (s <= t) == (fs <= ft)
        assert (t <= s) == (ft <= fs)
        assert list(s) == sorted(fs) and tuple(s) == tuple(sorted(fs))
        assert len(s) == len(fs) and bool(s) == bool(fs)
        assert [j in s for j in range(-2, size + 3)] == [j in fs for j in range(-2, size + 3)]
        assert (s == t) == (fs == ft)
        same = JudgmentSet.of(size, reversed(ids))
        assert same == s and hash(same) == hash(s)
        assert JudgmentSet(size + 1, ids) != s

    @settings(max_examples=100)
    @given(sized_ids(), st.integers(1, 5))
    def test_mismatched_sizes_raise(self, sized, grow):
        size, ids = sized
        s, t = JudgmentSet.of(size, ids), JudgmentSet.of(size + grow, ids)
        for op in (lambda a, b: a | b, lambda a, b: a & b, lambda a, b: a - b,
                   lambda a, b: a <= b):
            with pytest.raises(ValueError, match="different universes"):
                op(s, t)
            with pytest.raises(ValueError, match="different universes"):
                op(t, s)

    @settings(max_examples=200)
    @given(sized_ids(), st.lists(st.one_of(st.integers(-5, -1), st.integers(70, 80)),
                                 min_size=1, max_size=4), st.data())
    def test_any_id_out_of_range_raises(self, sized, bad, data):
        size, ids = sized
        bad = [b if b < 0 else b - 70 + size for b in bad]
        mixed = data.draw(st.permutations(ids + bad))
        for build in (JudgmentSet.of, JudgmentSet):
            with pytest.raises(ValueError) as e:
                build(size, mixed)
            named = [f"judgment id {b} out of range for universe of {size}" for b in bad]
            assert str(e.value) in named

    def test_size_must_be_a_non_negative_integer(self):
        with pytest.raises(ValueError, match="non-negative"):
            JudgmentSet(-1)
        with pytest.raises(TypeError):
            JudgmentSet(2.5, [0, 1, 2])

    def test_bools_come_back_as_ints(self):
        s = JudgmentSet.of(3, [True, False, 2])
        assert list(s) == [0, 1, 2] and all(type(j) is int for j in s)
        assert all(type(j) is int for j in s.members)
        assert s == JudgmentSet(3, range(3)) and hash(s) == hash(JudgmentSet(3, range(3)))
        assert True in s and tuple(JudgmentSet(2, [True])) == (1,)

    @settings(max_examples=100)
    @given(sized_ids())
    def test_what_the_benchmark_reads(self, sized):
        # perfbench builds sets with ``of`` and reads answers through
        # ``frozenset(answer)``, ``len`` and ``in``.
        size, ids = sized
        for source in (ids, frozenset(ids), (j for j in ids)):
            answer = JudgmentSet.of(size, source)
            assert frozenset(answer) == frozenset(ids)
            assert len(answer) == len(frozenset(ids))
            assert all(j in answer for j in ids)
            assert not any(j in answer for j in range(size) if j not in ids)


class TestSystemValidation:
    def test_rule_ids_must_be_in_range(self):
        with pytest.raises(ValueError):
            InferenceSystem(2, (rule(2),))
        with pytest.raises(ValueError):
            InferenceSystem(2, (rule(0, 5),))

    def test_error_lists_every_id_outside_the_range(self):
        with pytest.raises(ValueError) as e:
            InferenceSystem(3, (rule(0, 1, 2), rule(1, 4, -2, 2, -1, 9)))
        assert str(e.value) == ("rule 1 <- -2 -1 2 4 9 references judgment ids "
                                "[-2, -1, 4, 9] outside universe of 3")
        with pytest.raises(ValueError) as e:
            InferenceSystem(3, (), (rule(-1, -1, 0),))
        assert str(e.value) == ("rule -1 <- -1 0 references judgment ids [-1] "
                                "outside universe of 3")
        assert InferenceSystem(3, (rule(2, 0, 2),), (rule(0, 1),)).universe_size == 3

    def test_labels_must_cover_and_be_unique(self):
        with pytest.raises(ValueError):
            InferenceSystem(2, (), labels=("a",))
        with pytest.raises(ValueError):
            InferenceSystem(2, (), labels=("a", "a"))

    def test_label_lookup(self):
        sys_ = abc_system()
        assert sys_.label_of(B) == "b"
        assert sys_.label_of(C) == "c"
        assert InferenceSystem(2, ()).label_of(1) == "j1"
        assert sys_.label_of(True) == "b" and InferenceSystem(2, ()).label_of(True) == "j1"
        for j in (-1, 3):
            with pytest.raises(ValueError, match=f"judgment id {j} out of range"):
                sys_.label_of(j)
        for bad in (1.5, 1.0, "1", None):
            with pytest.raises(TypeError, match=f"judgment id {bad!r} is not an integer"):
                InferenceSystem(2, ()).label_of(bad)


class TestApplyStep:
    def test_no_rules_empty_image(self):
        sys_ = InferenceSystem(2, ())
        assert members(apply_step(sys_, JudgmentSet.of(2, [0]))) == set()

    def test_axioms_fire_on_empty_set(self):
        sys_ = InferenceSystem(2, (rule(0),))
        assert members(apply_step(sys_, JudgmentSet(2))) == {0}

    def test_hand_evaluated_image(self):
        sys_ = abc_system()
        s = JudgmentSet.of(3, [A, C])
        assert members(apply_step(sys_, s)) == {A, B, C}

    def test_corules_included_when_flagged(self):
        sys_ = InferenceSystem(2, (), (rule(1),))
        empty = JudgmentSet(2)
        assert members(apply_step(sys_, empty)) == set()
        assert members(apply_step(sys_, empty, use_corules=True)) == {1}

    @settings(max_examples=60)
    @given(st.integers(0, 2 ** 31), st.integers(0, 2 ** 31))
    def test_monotone(self, seed, pick):
        rng = random.Random(seed)
        sys_ = random_system(rng, max_universe=7, max_rules=12)
        n = sys_.universe_size
        t_bits = pick % (1 << n)
        s_bits = t_bits & (pick >> n)  # arbitrary subset of t
        s, t = set_from_bits(n, s_bits), set_from_bits(n, t_bits)
        assert apply_step(sys_, s) <= apply_step(sys_, t)
        assert apply_step(sys_, s, use_corules=True) <= apply_step(sys_, t, use_corules=True)


class TestIndInterpretation:
    def test_abc_matches_enumeration_oracle(self):
        sys_ = abc_system()
        assert ind_interpretation(sys_) == ind_oracle(sys_)
        assert members(ind_interpretation(sys_)) == {A, B}

    def test_no_rules(self):
        assert members(ind_interpretation(InferenceSystem(3, ()))) == set()

    def test_corule_flag_extends_reach(self):
        sys_ = abc_system(corules=(rule(C),))
        assert members(ind_interpretation(sys_)) == {A, B}
        assert members(ind_interpretation(sys_, use_corules=True)) == {A, B, C}


class TestCoindInterpretation:
    def test_abc_matches_enumeration_oracle(self):
        sys_ = abc_system()
        assert coind_interpretation(sys_) == coind_oracle(sys_)
        assert members(coind_interpretation(sys_)) == {A, B, C}

    def test_no_rules(self):
        assert members(coind_interpretation(InferenceSystem(3, ()))) == set()

    def test_corules_never_used(self):
        sys_ = InferenceSystem(1, (), (rule(0),))
        assert members(coind_interpretation(sys_)) == set()


class TestGenInterpretation:
    def test_empty_corules_collapse_to_ind(self):
        rng = random.Random(7)
        for _ in range(30):
            sys_ = random_system(rng, max_universe=6, max_rules=10)
            assert gen_interpretation(sys_) == ind_interpretation(sys_)

    def test_per_judgment_coaxioms_collapse_to_coind(self):
        rng = random.Random(8)
        for _ in range(30):
            sys_ = coaxioms_for(random_system(rng, max_universe=6, max_rules=10))
            assert gen_interpretation(sys_) == coind_interpretation(sys_)

    def test_self_loop_cut_without_corule(self):
        assert members(gen_interpretation(abc_system())) == {A, B}
        assert members(gen_interpretation(abc_system(corules=(rule(C),)))) == {A, B, C}

    def test_matches_enumeration_oracle(self):
        rng = random.Random(9)
        for _ in range(40):
            sys_ = random_system(rng, max_universe=6, max_rules=10, max_corules=4)
            assert gen_interpretation(sys_) == gen_oracle(sys_)

    def test_is_fixed_point_of_restricted_step(self):
        rng = random.Random(10)
        for _ in range(40):
            sys_ = random_system(rng, max_universe=6, max_rules=10, max_corules=4)
            bound = ind_interpretation(sys_, use_corules=True)
            gen = gen_interpretation(sys_)
            assert apply_step(restricted(sys_, bound), gen) == gen

    def test_sandwich(self):
        rng = random.Random(11)
        for _ in range(40):
            sys_ = random_system(rng, max_universe=6, max_rules=10, max_corules=4)
            gen = gen_interpretation(sys_)
            assert ind_interpretation(sys_) <= gen
            assert gen <= coind_interpretation(sys_)

    def test_gen_pass_runs_once_per_system(self, monkeypatch):
        # the interpretation, the bounded coinduction check and the rational
        # extractor all read the one greatest fixed point inside the bound
        calls = []
        greatest = inference._greatest

        def counted(system, kept, live):
            calls.append(system)
            return greatest(system, kept, live)

        monkeypatch.setattr(inference, "_greatest", counted)
        sys_ = abc_system(corules=(rule(C),))
        gen = gen_interpretation(sys_)
        assert bounded_coinduction_check(sys_, gen).ok
        assert gen_interpretation(sys_) == gen
        assert all(extract_rational_proof(sys_, j) is not None for j in gen)
        assert calls == [sys_]
        fresh = abc_system(corules=(rule(C),))  # the three in the other order
        assert extract_rational_proof(fresh, C) is not None
        assert bounded_coinduction_check(fresh, gen).ok and gen_interpretation(fresh) == gen
        assert len(calls) == 2 and calls[1] is fresh

    def test_gen_without_corules_runs_no_greatest_pass(self, monkeypatch):
        # the bound of a system without corules is its inductive interpretation,
        # which is consistent: the greatest pass could remove nothing
        calls = []
        monkeypatch.setattr(inference, "_greatest", lambda *args: calls.append(args))
        sys_ = abc_system()
        gen = gen_interpretation(sys_)
        assert bounded_coinduction_check(sys_, gen).ok
        assert all(extract_rational_proof(sys_, j) is not None for j in gen)
        assert calls == [] and gen == ind_interpretation(sys_) and members(gen) == {A, B}

    def test_greatest_pass_gets_a_bound_closed_under_the_rules(self, monkeypatch):
        # _greatest drops no rule for its conclusion, so the set it keeps to must be
        # closed under the plain rules; without corules the bound is the answer
        lives = []
        greatest = inference._greatest

        def recorded(system, kept=None, live=None):
            lives.append(live)
            return greatest(system, kept, live)

        monkeypatch.setattr(inference, "_greatest", recorded)
        rng = random.Random(25)
        seen = {True: 0, False: 0}
        for k in range(120):
            sys_ = random_system(rng, max_universe=7, max_rules=12, max_corules=4 * (k % 2))
            bound = JudgmentSet(sys_.universe_size)  # Kleene iteration, corules admitted
            while apply_step(sys_, bound, use_corules=True) != bound:
                bound = apply_step(sys_, bound, use_corules=True)
            assert apply_step(sys_, bound) <= bound
            lives.clear()
            gen = gen_interpretation(sys_)
            if sys_.corules:
                assert lives == [bound.members]
            else:
                assert lives == [] and gen == bound
            assert gen == gen_oracle(sys_)
            seen[bool(sys_.corules)] += 1
        assert min(seen.values()) >= 30


def ghost_chain(rng, n):
    """A chain ``0 <-``, ``i <- i-1``; a ghost cycle that a coaxiom admits into gen; and a
    cycle outside the bound, n judgments each, the rules shuffled: every judgment heads
    a rule."""
    rules = [rule(0)] + [rule(i, i - 1) for i in range(1, n)]
    rules += [rule(n + i, n + (i - 1) % n) for i in range(n)]
    rules += [rule(2 * n + i, 2 * n + (i - 1) % n) for i in range(n)]
    rng.shuffle(rules)
    return InferenceSystem(3 * n, rules, [rule(n)])


def fresh(system):
    """The same system with nothing computed yet."""
    return InferenceSystem(system.universe_size, system.rules, system.corules)


def random_lasso_of(rng):
    return Lasso([rng.randrange(6) for _ in range(rng.randint(0, 9))],
                 [rng.randrange(6) for _ in range(rng.randint(1, 9))])


class TestPassesFollowOnlyWhatTheyNeed:
    # the premise index is built by the first pass that follows a premise, and gen's
    # greatest pass starts from the corule pass's counts

    def test_ind_of_an_axiom_free_system_builds_no_index(self):
        rng = random.Random(26)
        for _ in range(20):
            xs = random_lasso_of(rng)
            grid, _ = gen_maxelem_system(xs, candidates=range(6))
            lasso, _ = gen_infoften_system(rng.choice((EVEN, ODD, POSITIVE)), xs)
            for system in (grid, lasso):
                assert not ind_interpretation(system)
                assert "_users" not in system.__dict__
                gen = gen_interpretation(system)  # the corule pass follows any coaxiom
                assert ("_users" in system.__dict__) == bool(system.corules)
                assert gen == gen_interpretation(fresh(system))  # as if ind was not read

    def test_coind_of_a_fully_supported_system_builds_no_index(self):
        rng = random.Random(27)
        for n in (1, 2, 5, 40):
            chain = ghost_chain(rng, n)
            lasso, _ = gen_infoften_system(POSITIVE, random_lasso_of(rng))
            for system in (chain, lasso):
                assert members(coind_interpretation(system)) == set(range(system.universe_size))
                assert "_users" not in system.__dict__

    def test_a_pass_that_follows_a_premise_builds_the_index(self):
        # one ready rule, the axiom at the end: _least follows its conclusion
        chain = InferenceSystem(3, [rule(2, 1), rule(1, 0), rule(0)])
        assert members(ind_interpretation(chain)) == {0, 1, 2}
        assert "_users" in chain.__dict__
        # judgment 2 heads no rule: _greatest follows it to the rule that uses it
        broken = InferenceSystem(3, [rule(0, 0), rule(1, 2)])
        assert members(coind_interpretation(broken)) == {0}
        assert "_users" in broken.__dict__

    def test_passes_agree_with_the_oracles_on_fresh_systems(self):
        # each system is read first by one interpretation alone, so each pass builds
        # the index itself when it needs it
        rng = random.Random(28)
        for k in range(300):
            sys_ = random_system(rng, max_universe=6, max_rules=10, max_corules=3 * (k % 2))
            assert ind_interpretation(fresh(sys_)) == ind_oracle(sys_)
            assert ind_interpretation(fresh(sys_), use_corules=True) == ind_oracle(sys_, True)
            assert coind_interpretation(fresh(sys_)) == coind_oracle(sys_)
            assert gen_interpretation(fresh(sys_)) == gen_oracle(sys_)

    def test_greatest_pass_of_gen_keeps_exactly_the_rules_inside(self, monkeypatch):
        # it starts from the plain rules whose premises all lie in the bound, and keeps
        # to the end the plain rules whose premises all lie in gen
        starts = []
        greatest = inference._greatest

        def recorded(system, kept=None, live=None):
            starts.append(bytes(kept[:system._plain]))
            return greatest(system, kept, live)

        monkeypatch.setattr(inference, "_greatest", recorded)
        rng = random.Random(29)
        checked = 0
        for _ in range(200):
            sys_ = random_system(rng, max_universe=7, max_rules=12, max_corules=4)
            if not sys_.corules:
                continue
            checked += 1
            bound = ind_oracle(sys_, True).members
            starts.clear()
            gen = gen_interpretation(sys_).members
            assert gen == gen_oracle(sys_).members
            assert starts == [bytes(r.premises <= bound for r in sys_.rules)]
            final = [r.premises <= gen for r in sys_.rules] + [False] * len(sys_.corules)
            assert sys_.__dict__["_kept"] == bytes(final)
        assert checked >= 100


class TestInterpretByName:
    def test_each_name_gives_its_interpretation(self):
        sys_ = abc_system(corules=(rule(C),))
        for name, reading in (("ind", ind_interpretation), ("coind", coind_interpretation),
                              ("gen", gen_interpretation)):
            assert inference.interpret(name, sys_) == reading(sys_)

    @pytest.mark.parametrize("name", ["foo", "IND", "", None, []])
    def test_unknown_name(self, name):
        with pytest.raises(ValueError) as e:
            inference.interpret(name, abc_system())
        assert str(e.value) == f"unknown interpretation {name!r}"


class TestKleeneBehavior:
    def test_iteration_bound_holds(self):
        rng = random.Random(12)
        for _ in range(60):
            sys_ = random_system(rng, max_universe=8, max_rules=14, max_corules=4)
            limit = sys_.universe_size + 1
            assert kleene_iterations(sys_, False, downward=False) <= limit
            assert kleene_iterations(sys_, True, downward=False) <= limit
            assert kleene_iterations(sys_, False, downward=True) <= limit

    def test_rule_order_insensitive(self):
        rng = random.Random(14)
        for _ in range(30):
            sys_ = random_system(rng, max_universe=6, max_rules=10, max_corules=4)
            shuffled_rules = list(sys_.rules)
            shuffled_corules = list(sys_.corules)
            rng.shuffle(shuffled_rules)
            rng.shuffle(shuffled_corules)
            permuted = InferenceSystem(sys_.universe_size, tuple(shuffled_rules),
                                       tuple(shuffled_corules))
            assert ind_interpretation(sys_) == ind_interpretation(permuted)
            assert ind_interpretation(sys_, True) == ind_interpretation(permuted, True)
            assert coind_interpretation(sys_) == coind_interpretation(permuted)
            assert gen_interpretation(sys_) == gen_interpretation(permuted)

    def test_duplicate_rules_are_inert(self):
        sys_ = abc_system()
        doubled = InferenceSystem(3, sys_.rules + sys_.rules)
        assert ind_interpretation(sys_) == ind_interpretation(doubled)
        assert coind_interpretation(sys_) == coind_interpretation(doubled)


def upward_stages(system, use_corules=False):
    """The sets S_0 = {} and S_r = step(S_(r-1)), via the apply_step reference."""
    stages = [JudgmentSet(system.universe_size)]
    while True:
        nxt = apply_step(system, stages[-1], use_corules=use_corules)
        if nxt == stages[-1]:
            return stages
        stages.append(nxt)


def downward_fixpoint(system):
    n = system.universe_size
    current = JudgmentSet(n, range(n))
    while (nxt := apply_step(system, current)) != current:
        current = nxt
    return current


class TestEngineAgainstStepReference:
    """Seeded systems too large for the 2^n oracles, against Kleene iteration
    of ``apply_step``."""

    SYSTEMS = [random_system(random.Random(seed), max_universe=40, max_rules=90,
                             max_corules=10, max_premises=3) for seed in range(150)]

    def test_rounds_are_kleene_stages(self):
        # an extracted proof derives each judgment by a rule firing at its first
        # stage, so its depth is the judgment's Kleene round
        for sys_ in self.SYSTEMS:
            for flag in (False, True):
                stages = upward_stages(sys_, flag)
                want = [next((r for r, s in enumerate(stages) if j in s), None)
                        for j in range(sys_.universe_size)]
                proofs = [extract_finite_proof(sys_, j, allow_corules=flag)
                          for j in range(sys_.universe_size)]
                assert [None if p is None else p.depth() for p in proofs] == want
                assert ind_interpretation(sys_, flag) == stages[-1]

    def test_coind_and_gen_are_downward_iterations(self):
        for sys_ in self.SYSTEMS:
            assert coind_interpretation(sys_) == downward_fixpoint(sys_)
            bound = upward_stages(sys_, use_corules=True)[-1]
            assert gen_interpretation(sys_) == downward_fixpoint(restricted(sys_, bound))

    def test_finite_proofs_use_first_rule_firing_at_first_stage(self):
        for sys_ in self.SYSTEMS:
            for flag in (False, True):
                stages = upward_stages(sys_, flag)
                rules = sys_.all_rules(flag)
                for j in stages[-1]:
                    for judgment, rule_index, _ in extract_finite_proof(sys_, j, flag).nodes:
                        r = next(r for r, s in enumerate(stages) if judgment in s)
                        first = next(i for i, x in enumerate(rules) if x.conclusion ==
                                     judgment and x.premises <= set(stages[r - 1]))
                        assert rule_index == first


class TestIsClosed:
    def test_lfp_is_closed(self):
        rng = random.Random(15)
        for _ in range(30):
            sys_ = random_system(rng, max_universe=6, max_rules=10)
            assert is_closed(sys_, ind_interpretation(sys_)).ok

    def test_axiom_violation_reported_with_rule(self):
        sys_ = InferenceSystem(1, (rule(0),))
        report = is_closed(sys_, JudgmentSet(1))
        assert not report.ok
        assert report.failures == (Failure(0, CLOSEDNESS, 0),)
        assert sys_.rule_at(report.failures[0].rule) == rule(0)

    def test_full_universe_is_closed(self):
        rng = random.Random(16)
        for _ in range(20):
            sys_ = random_system(rng, max_universe=6, max_rules=10)
            n = sys_.universe_size
            assert is_closed(sys_, JudgmentSet(n, range(n))).ok

    def test_failures_ordered_by_judgment_then_rule(self):
        sys_ = InferenceSystem(3, (rule(2), rule(1), rule(2, 1)))
        report = is_closed(sys_, JudgmentSet.of(3, [1]))
        assert [(f.judgment, f.rule) for f in report.failures] == [(2, 0), (2, 2)]
        assert [sys_.rule_at(f.rule) for f in report.failures] == [rule(2), rule(2, 1)]


class TestIsConsistent:
    def test_gfp_is_consistent_with_witnesses(self):
        rng = random.Random(17)
        for _ in range(30):
            sys_ = random_system(rng, max_universe=6, max_rules=10)
            gfp = coind_interpretation(sys_)
            report = is_consistent(sys_, gfp)
            assert report.ok
            assert set(report.witnesses) == members(gfp)
            for j, i in report.witnesses.items():
                assert 0 <= i < len(sys_.rules)
                witness = sys_.rule_at(i)
                assert witness.conclusion == j
                assert all(p in gfp for p in witness.premises)

    def test_empty_set_vacuously_consistent(self):
        assert is_consistent(abc_system(), JudgmentSet(3)).ok

    def test_self_loop_witness(self):
        sys_ = InferenceSystem(1, (rule(0, 0),))
        report = is_consistent(sys_, JudgmentSet.of(1, [0]))
        assert report.ok
        assert report.witnesses == {0: 0} and sys_.rule_at(0) == rule(0, 0)

    def test_witness_is_first_declared(self):
        sys_ = InferenceSystem(1, (rule(0, 0), rule(0)))
        report = is_consistent(sys_, JudgmentSet.of(1, [0]))
        assert report.witnesses == {0: 0}

    def test_partial_witnesses_on_failure(self):
        # b lacks its premise a, while c still witnesses itself
        report = is_consistent(abc_system(), JudgmentSet.of(3, [B, C]))
        assert not report.ok
        assert report.failures == (Failure(B, CONSISTENCY),)
        assert report.witnesses == {C: 2} and abc_system().rule_at(2) == rule(C, C)


class TestCheckReport:
    def test_ok_is_read_from_failures(self):
        failed = CheckReport((Failure(0, CONSISTENCY),))
        assert failed.ok is False and CheckReport().ok is True
        assert CheckReport([], {0: 0}).ok is True


class TestUniverseMismatch:
    def test_operations_reject_foreign_sets(self):
        sys_ = abc_system()
        foreign = JudgmentSet.of(4, [0])
        for op in (lambda: is_closed(sys_, foreign),
                   lambda: is_consistent(sys_, foreign),
                   lambda: bounded_coinduction_check(sys_, foreign)):
            with pytest.raises(ValueError):
                op()


class TestBoundedCoinductionCheck:
    def test_empty_spec_ok(self):
        assert bounded_coinduction_check(abc_system(), JudgmentSet(3)).ok

    def test_bounded_and_consistent_spec(self):
        sys_ = abc_system(corules=(rule(C),))
        report = bounded_coinduction_check(sys_, JudgmentSet.of(3, [C]))
        assert report.ok
        assert report.witnesses == {C: 2} and sys_.rule_at(2) == rule(C, C)

    def test_boundedness_failure_names_judgment(self):
        # without the coaxiom, c has no finite derivation
        report = bounded_coinduction_check(abc_system(), JudgmentSet.of(3, [C]))
        assert not report.ok
        assert Failure(C, BOUNDEDNESS) in report.failures

    def test_consistency_failure_detected(self):
        # b is inductively derivable but {b} alone is not consistent
        report = bounded_coinduction_check(abc_system(), JudgmentSet.of(3, [B]))
        assert not report.ok
        assert report.failures == (Failure(B, CONSISTENCY),)

    def test_failures_sorted_by_judgment_then_reason(self):
        sys_ = InferenceSystem(2, (), ())
        report = bounded_coinduction_check(sys_, JudgmentSet.of(2, [0, 1]))
        tags = [(f.judgment, f.reason) for f in report.failures]
        assert tags == sorted(tags)
        assert {t for _, t in tags} == {BOUNDEDNESS, CONSISTENCY}

    def test_ok_implies_spec_inside_gen(self):
        rng = random.Random(18)
        hits = 0
        for _ in range(300):
            sys_ = random_system(rng, max_universe=5, max_rules=8, max_corules=3)
            spec = set_from_bits(sys_.universe_size,
                                 rng.randrange(1 << sys_.universe_size))
            report = bounded_coinduction_check(sys_, spec)
            if report.ok:
                hits += 1
                assert spec <= gen_interpretation(sys_)
        assert hits > 0, "seed never produced a passing spec"


class TestRuleIndices:
    """Reports name a rule by its index, as proofs do: the rules, then the corules."""

    def test_rule_at_reads_the_rules_then_the_corules(self):
        rng = random.Random(19)
        for _ in range(100):
            sys_ = random_system(rng, max_universe=6, max_rules=10, max_corules=4)
            got = [sys_.rule_at(i) for i in range(len(sys_._heads))]
            assert "rules" not in sys_.__dict__ and "corules" not in sys_.__dict__
            assert got == list(sys_.all_rules(True))

    def test_rule_at_checks_its_index(self):
        sys_ = abc_system(corules=(rule(C),))
        assert sys_.rule_at(True) == sys_.rule_at(1) == rule(B, A)
        assert sys_.rule_at(3) == rule(C)
        with pytest.raises(TypeError, match="rule index 1.0 is not an integer"):
            sys_.rule_at(1.0)
        for i in (-1, 4):
            with pytest.raises(ValueError, match=f"rule index {i} out of range"):
                sys_.rule_at(i)
        assert "rules" not in sys_.__dict__ and "corules" not in sys_.__dict__

    def test_reports_match_the_rule_scan(self):
        rng = random.Random(20)
        seen = {"failures": 0, "witnesses": 0}
        for _ in range(300):
            sys_ = random_system(rng, max_universe=7, max_rules=12, max_corules=4)
            n = sys_.universe_size
            sets = [ind_interpretation(sys_), coind_interpretation(sys_),
                    gen_interpretation(sys_)]
            sets += [JudgmentSet(n, rng.sample(range(n), rng.randint(0, n))) for _ in range(3)]
            for s in sets:
                want = reports_by_scan(sys_, s)
                for check in (is_closed, is_consistent, bounded_coinduction_check):
                    report = check(sys_, s)
                    failures, witnesses = want[check.__name__]
                    assert [(f.judgment, f.reason, f.rule) for f in report.failures] == failures
                    assert list(report.witnesses.items()) == list(witnesses.items())
                    assert report.ok == (not failures)
                    seen["failures"] += len(failures)
                    seen["witnesses"] += len(witnesses)
        assert min(seen.values()) > 0
