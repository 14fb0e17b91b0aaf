"""Work counts: the work of each operation grows linearly with its input.

``work`` counts the Python line events of the frames whose code lies in the
``corules`` package, with ``sys.settrace``. Line events miss the work done in
C, so it also charges each call, from the package, of a list or tuple method
that scans its receiver (``remove``, ``index``, ``count``, ``insert``) the
receiver's length, with ``sys.setprofile``. A C ``map`` makes no such call
event, so each system's rule arrays are ``CountingList``s, handed to
``InferenceSystem._valid``, that count the items read from them however
they are read, and a decider's colist parts are ``CountingTuple``s, handed to
``Lasso._valid``, that count them too. Unlike a wall clock, the count is
the same on every run. Each family is built from a fixed seed, outside the
count, at sizes n and 2n, and the count at 2n must be at most 2.2 times the
count at n: a linear operation reads about 2, a quadratic one about 4. A
render is counted by its line events only: the bytes of a chain's render grow
as the square of its depth, in string building that is C work.
"""

import os
import random
import sys

import pytest

import corules
from corules import (
    EVEN,
    POSITIVE,
    InferenceSystem,
    JudgmentSet,
    Kind,
    Lasso,
    RationalProofTree,
    bounded_coinduction_check,
    check_finite,
    check_rational_in_gen,
    coind_interpretation,
    decide_direct,
    eq_to,
    extract_finite_proof,
    extract_rational_proof,
    gen_allpos_system,
    gen_always_system,
    gen_eventually_system,
    gen_infoften_system,
    gen_interpretation,
    gen_maxelem_system,
    gen_member_system,
    ind_interpretation,
    is_acyclic,
    is_closed,
    is_consistent,
    rule,
    spec_oracle,
    three_way,
)
from corules.cli import parse_colist, parse_system
from corules.prooftree import format_finite, format_rational

PACKAGE = os.path.dirname(corules.__file__) + os.sep
SCANS = frozenset({"remove", "index", "count", "insert"})
SEED = 12
GROWTH = 2.2  # the most that doubling the input may multiply the work by


class CountingList(list):
    """A rule array that counts, in ``CountingList.reads``, the items read from it: one
    per index, a slice's length, the whole length per iteration begun, and the items
    an ``index`` passes."""

    reads = 0

    def __getitem__(self, k):
        item = super().__getitem__(k)
        CountingList.reads += len(item) if isinstance(k, slice) else 1
        return item

    def __iter__(self):
        CountingList.reads += len(self)
        return super().__iter__()

    def index(self, *args):
        at = super().index(*args)
        CountingList.reads += at + 1
        return at


def counted(system: InferenceSystem) -> InferenceSystem:
    """``system`` rebuilt on ``CountingList`` copies of its rule arrays."""
    return InferenceSystem._valid(system.universe_size, CountingList(system._heads),
                                  CountingList(system._starts), CountingList(system._body),
                                  system._plain, system.labels)


def work(call) -> int:
    """The line events inside the package while ``call()`` runs, plus the length of
    every list or tuple a scanning method of it is called on from the package, plus
    the items read from ``CountingList``s. The tracer and the profiler in place before
    are put back after."""
    count = -CountingList.reads

    def lines(frame, event, arg):
        nonlocal count
        if event == "line":
            count += 1
        return lines

    def calls(frame, event, arg):
        return lines if frame.f_code.co_filename.startswith(PACKAGE) else None

    def scans(frame, event, arg):
        nonlocal count
        receiver = getattr(arg, "__self__", None)
        if (event == "c_call" and isinstance(receiver, (list, tuple))
                and arg.__name__ in SCANS and frame.f_code.co_filename.startswith(PACKAGE)):
            count += len(receiver)

    previous = sys.gettrace(), sys.getprofile()
    sys.settrace(calls)
    sys.setprofile(scans)
    try:
        call()
    finally:
        sys.settrace(previous[0])
        sys.setprofile(previous[1])
    return count + CountingList.reads


def ghost_chain(n, corules=True):
    """A chain ``0 <-``, ``i <- i-1`` of n judgments; a ghost cycle of n judgments
    that a coaxiom admits into the generated interpretation, unless ``corules`` is
    false; and a cycle of n judgments outside the bound. The rules are shuffled, and
    the system's arrays count their reads."""
    rules = [rule(0)] + [rule(i, i - 1) for i in range(1, n)]
    rules += [rule(n + i, n + (i - 1) % n) for i in range(n)]
    rules += [rule(2 * n + i, 2 * n + (i - 1) % n) for i in range(n)]
    random.Random(SEED).shuffle(rules)
    return counted(InferenceSystem(3 * n, rules, [rule(n)] if corules else []))


def gen_of(n):
    system = ghost_chain(n)
    return lambda: gen_interpretation(system)


def gen_without_corules_of(n):
    # the bound is the answer: only the chain is in it
    system = ghost_chain(n, corules=False)

    def call():
        assert len(gen_interpretation(system)) == n
    return call


def coind_ghost_chain_of(n):
    # the universe is the live set: the chain and both cycles are consistent
    system = ghost_chain(n)

    def call():
        assert len(coind_interpretation(system)) == 3 * n
    return call


def bounded_check_of(n):
    # the whole universe: the cycle outside the bound fails boundedness
    system = ghost_chain(n)
    spec = JudgmentSet(3 * n, range(3 * n))
    return lambda: bounded_coinduction_check(system, spec)


def rational_proofs_of(n):
    # the chain's last judgment has an acyclic proof, a ghost judgment a cyclic one
    system = ghost_chain(n)

    def call():
        for j in (n - 1, 2 * n - 1):
            assert check_rational_in_gen(extract_rational_proof(system, j), system)
    return call


def ind_chain_of(n):
    # the chain is the least fixed point, one Kleene round per judgment
    system = ghost_chain(n)

    def call():
        assert len(ind_interpretation(system)) == n
    return call


def rational_proofs_infoften_of(n):
    # hits at every fourth element of an n-element prefix and at the head of an
    # n-element loop: the rules alone derive nothing, so every judgment needs a witness
    prefix, loop = tuple(int(i % 4 == 0) for i in range(n)), (1,) + (0,) * (n - 1)
    system = counted(gen_infoften_system(POSITIVE, Lasso(prefix, loop))[0])

    def call():
        tree = extract_rational_proof(system, 0)
        assert len(tree.nodes) == system.universe_size == 2 * n
        assert check_rational_in_gen(tree, system)
    return call


def finite_proof_readers_of(n):
    # the chain's last judgment: an n-deep proof, extracted walked, then read
    system = ghost_chain(n)

    def call():
        tree = extract_finite_proof(system, n - 1)
        assert check_finite(tree, system) and tree.depth() == n and is_acyclic(tree)
    return call


def render_of(format_proof):
    def prepare(n):
        system = ghost_chain(n)
        table = extract_finite_proof(system, n - 1).nodes
        return lambda: format_proof(RationalProofTree(table), system)
    return prepare


def coind_of(n):
    # i <- i+1 and no axiom: the greatest fixed point removes every judgment, the last first
    rules = [rule(i, i + 1) for i in range(n - 1)]
    random.Random(SEED).shuffle(rules)
    system = counted(InferenceSystem(n, rules))

    def call():
        assert not coind_interpretation(system)
    return call


def infoften_oracle_of(n):
    # a hit-free prefix of n elements before the loop's one hit
    xs = Lasso((0,) * n, (1,))

    def call():
        assert spec_oracle(Kind.INFINITELY_OFTEN, xs, predicate=POSITIVE)
    return call


def parse_system_of(n):
    # a chain file: the header names n judgments, then c0 <- and c(i) <- c(i-1), shuffled
    lines = ["rule: c0 <-"] + [f"rule: c{i} <- c{i - 1}" for i in range(1, n)]
    random.Random(SEED).shuffle(lines)
    text = "\n".join(["judgments: " + " ".join(f"c{i}" for i in range(n)), *lines])
    return lambda: parse_system(text)


def rules_of(n):
    # the rules and the corule of a ghost chain, read once from its arrays
    system = ghost_chain(n)

    def call():
        assert len(system.rules + system.corules) == 3 * n + 1
    return call


def parse_colist_of(n):
    # a lasso literal: a prefix of n elements, then a loop of n elements
    rng = random.Random(SEED)
    text = " ".join(str(rng.randrange(100)) for _ in range(n)) + " | " + " ".join(
        str(rng.randrange(100)) for _ in range(n))
    return lambda: parse_colist(text)


def max_lasso(n, candidates=8):
    """A lasso of n elements below ``candidates``, half of them in the loop, drawn from
    the seed: its max grid has n states, so about n * candidates judgments."""
    rng = random.Random(SEED)
    return Lasso([rng.randrange(candidates) for _ in range(n // 2)],
                 [rng.randrange(candidates) for _ in range(n - n // 2)])


def check_chain_of(check):
    # the chain and half the ghost cycle: one rule leaves it, and one member of it has
    # no rule inside
    def prepare(n):
        system = ghost_chain(n)
        spec = JudgmentSet(3 * n, range(3 * n // 2))
        return lambda: check(system, spec)
    return prepare


def check_maxgrid_of(check):
    # the grid's generated interpretation, read before the count
    def prepare(n):
        system = max_grid(n)
        spec = gen_interpretation(system)
        return lambda: check(system, spec)
    return prepare


def max_grid(n):
    return counted(gen_maxelem_system(max_lasso(n), candidates=range(8))[0])


def maxelem_system_of(n):
    xs = max_lasso(n)

    def call():
        assert gen_maxelem_system(xs, candidates=range(8))[0].universe_size == 8 * n
    return call


def infoften_system_of(n):
    # hits at every third element of an n-element prefix and of an n-element loop
    hits = tuple(int(i % 3 == 0) for i in range(n))
    xs = Lasso(hits, hits)

    def call():
        assert gen_infoften_system(POSITIVE, xs)[0].universe_size == 2 * n
    return call


def temporal_system_of(build):
    # a state per element of the lasso, each with its step rule
    def prepare(n):
        xs = max_lasso(n)

        def call():
            assert build(xs)[0].universe_size == n
        return call
    return prepare


class CountingTuple(tuple):
    """A colist part that counts, in ``CountingList.reads``, the items read from it: the
    whole length per iteration begun, and both lengths per concatenation."""

    def __iter__(self):
        CountingList.reads += len(self)
        return super().__iter__()

    def __add__(self, other):
        CountingList.reads += len(self) + len(other)
        return CountingTuple(super().__add__(other))


def decider_of(decide, kind):
    # n distinct elements, 0 last: eventually(eq:0), always(positive) and max, of n - 1,
    # turn on the last; its parts count their reads, for the work done in C
    def prepare(n):
        xs = Lasso._valid(CountingTuple(range(1, n // 2 + 1)),
                          CountingTuple([*range(n // 2 + 1, n), 0]))
        x, p, holds = {Kind.EVENTUALLY: (None, eq_to(0), True),
                       Kind.ALWAYS: (None, POSITIVE, False),
                       Kind.MAX_ELEM: (n - 1, None, True)}[kind]
        # the direct decider of max returns the maximum itself
        want = x if decide is decide_direct and x is not None else holds

        def call():
            assert decide(kind, xs, x=x, predicate=p) == want
        return call
    return prepare


def three_way_of(kind):
    # infoften on hits at every third element; max on a lasso of eight values, whose
    # grid has 8n judgments
    def prepare(n):
        if kind is Kind.MAX_ELEM:
            xs = max_lasso(n)
            x, p = max(xs.prefix + xs.loop), None
        else:
            hits = tuple(int(i % 3 == 0) for i in range(n))
            xs, x, p = Lasso(hits, hits), None, POSITIVE

        def call():
            assert three_way(kind, xs, x=x, predicate=p) == (True, True, True)
        return call
    return prepare


def ind_maxgrid_of(n):
    # a lasso's max grid has no axiom: no rule is ready, so no index is built
    system = max_grid(n)

    def call():
        assert not ind_interpretation(system) and "_users" not in system.__dict__
    return call


def ind_with_corules_of(n):
    # the corule pass: the chain and the ghost cycle its coaxiom admits
    system = ghost_chain(n)

    def call():
        assert len(ind_interpretation(system, use_corules=True)) == 2 * n
    return call


def ladder(n):
    """``a(i+1) <- a(i) b(i)`` and ``b(i) <- a(i)``, with ``a(i)`` = 2i and ``b(i)`` =
    2i + 1, the rules shuffled: the proof of ``a(n)`` shares every subproof, so as a
    tree it is 2^n big."""
    rules = [rule(0)] + [r for i in range(n) for r in (rule(2 * i + 2, 2 * i, 2 * i + 1),
                                                       rule(2 * i + 1, 2 * i))]
    random.Random(SEED).shuffle(rules)
    return counted(InferenceSystem(2 * n + 2, rules))


def finite_proof_ladder_of(n):
    # the proof of the top rung, extracted as a table of 2n + 1 nodes, then read
    system = ladder(n)

    def call():
        tree = extract_finite_proof(system, 2 * n)
        assert check_finite(tree, system) and tree.depth() == 2 * n + 1
    return call


def rational_render_ladder_of(n):
    # each node is printed once, and each second use of a(i) as a reference
    system = ladder(n)

    def call():
        text = format_rational(extract_rational_proof(system, 2 * n), system)
        assert text.count("\n") + 1 == 3 * n + 1
    return call


def random_blocks(n):
    """n judgments in blocks of 5, the ids drawn at random. Each block has one axiom, 7
    rules of one or two premises and one corule of at most one premise, drawn inside the
    block; the rules are shuffled. Of 500 judgments, 183 are in ind, 227 in gen and 366
    in coind."""
    rng = random.Random(SEED)
    ids = rng.sample(range(n), n)

    def drawn(b, k):
        block = ids[5 * b:5 * b + 5]
        return rule(rng.choice(block), *rng.sample(block, k))

    rules, corules = [], []
    for b in range(n // 5):
        rules += [drawn(b, 0)] + [drawn(b, rng.randint(1, 2)) for _ in range(7)]
        corules.append(drawn(b, rng.randint(0, 1)))
    rng.shuffle(rules)
    return counted(InferenceSystem(n, rules, corules))


def random_blocks_of(interpretation):
    def prepare(n):
        system = random_blocks(n)
        return lambda: interpretation(system)
    return prepare


@pytest.mark.parametrize("prepare, n", [
    (gen_of, 1000),
    (bounded_check_of, 1000),
    (rational_proofs_of, 1000),
    (render_of(format_finite), 500),
    (render_of(format_rational), 500),
    (coind_of, 2000),
    (infoften_oracle_of, 2000),
    (parse_system_of, 1000),
    (rules_of, 1000),
    (parse_colist_of, 2000),
    (gen_without_corules_of, 1000),
    (coind_ghost_chain_of, 1000),
    (ind_chain_of, 1000),
    (rational_proofs_infoften_of, 1000),
    (finite_proof_readers_of, 1000),
    (check_chain_of(is_closed), 1000),
    (check_chain_of(is_consistent), 1000),
    (check_maxgrid_of(is_closed), 200),
    (check_maxgrid_of(is_consistent), 200),
    (maxelem_system_of, 200),
    (infoften_system_of, 1000),
    (temporal_system_of(lambda xs: gen_member_system(3, xs)), 1000),
    (temporal_system_of(gen_allpos_system), 1000),
    (temporal_system_of(lambda xs: gen_eventually_system(EVEN, xs)), 1000),
    (temporal_system_of(lambda xs: gen_always_system(EVEN, xs)), 1000),
    (decider_of(decide_direct, Kind.EVENTUALLY), 2000),
    (decider_of(decide_direct, Kind.ALWAYS), 2000),
    (decider_of(decide_direct, Kind.MAX_ELEM), 2000),
    (decider_of(spec_oracle, Kind.EVENTUALLY), 2000),
    (decider_of(spec_oracle, Kind.ALWAYS), 2000),
    (decider_of(spec_oracle, Kind.MAX_ELEM), 2000),
    (three_way_of(Kind.INFINITELY_OFTEN), 1000),
    (three_way_of(Kind.MAX_ELEM), 200),
    (ind_maxgrid_of, 200),
    (ind_with_corules_of, 1000),
    (finite_proof_ladder_of, 500),
    (rational_render_ladder_of, 500),
    (random_blocks_of(ind_interpretation), 500),
    (random_blocks_of(coind_interpretation), 500),
    (random_blocks_of(gen_interpretation), 500),
], ids=["gen_interpretation", "bounded_coinduction_check",
        "extract_rational_proof+check_rational_in_gen", "format_finite", "format_rational",
        "coind_interpretation", "spec_oracle_infoften", "parse_system", "rules+corules",
        "parse_colist", "gen_interpretation_without_corules",
        "coind_interpretation_ghost_chain", "ind_interpretation_chain",
        "extract_rational_proof+check_rational_in_gen_infoften",
        "extract_finite_proof+check_finite+depth+is_acyclic", "is_closed_chain",
        "is_consistent_chain", "is_closed_maxgrid", "is_consistent_maxgrid",
        "gen_maxelem_system", "gen_infoften_system", "gen_member_system",
        "gen_allpos_system", "gen_eventually_system", "gen_always_system",
        "decide_direct_eventually", "decide_direct_always", "decide_direct_max",
        "spec_oracle_eventually", "spec_oracle_always", "spec_oracle_max",
        "three_way_infoften", "three_way_max", "ind_interpretation_maxgrid",
        "ind_interpretation_with_corules", "extract_finite_proof+check_finite+depth_ladder",
        "extract_rational_proof+format_rational_ladder", "ind_interpretation_random",
        "coind_interpretation_random", "gen_interpretation_random"])
def test_work_grows_linearly(prepare, n):
    small, large = work(prepare(n)), work(prepare(2 * n))
    assert 0 < small and large <= GROWTH * small, (small, large)


def test_work_puts_back_the_tracer_and_the_profiler():
    def outer(frame, event, arg):
        return None

    previous = sys.gettrace(), sys.getprofile()
    sys.settrace(outer)
    sys.setprofile(outer)
    try:
        assert work(gen_of(10)) > 0
        assert sys.gettrace() is outer and sys.getprofile() is outer
    finally:
        sys.settrace(previous[0])
        sys.setprofile(previous[1])
