"""Work counts: the work of each operation grows linearly with its input.

``work`` counts the Python line events of the frames whose code lies in the
``corules`` package, with ``sys.settrace``. Line events miss the work done in
C, so it also charges each call, from the package, of a list or tuple method
that scans its receiver (``remove``, ``index``, ``count``, ``insert``) the
receiver's length, with ``sys.setprofile``. A C ``map`` makes no such call
event, so each system's rule arrays are ``CountingList``s, handed to
``InferenceSystem._compiled``, that count the items read from them however
they are read. Unlike a wall clock, the count is
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
    extract_finite_proof,
    extract_rational_proof,
    gen_infoften_system,
    gen_interpretation,
    ind_interpretation,
    is_acyclic,
    rule,
    spec_oracle,
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
    return InferenceSystem._compiled(system.universe_size, CountingList(system._heads),
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
], ids=["gen_interpretation", "bounded_coinduction_check",
        "extract_rational_proof+check_rational_in_gen", "format_finite", "format_rational",
        "coind_interpretation", "spec_oracle_infoften", "parse_system", "rules+corules",
        "parse_colist", "gen_interpretation_without_corules",
        "coind_interpretation_ghost_chain", "ind_interpretation_chain",
        "extract_rational_proof+check_rational_in_gen_infoften",
        "extract_finite_proof+check_finite+depth+is_acyclic"])
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
