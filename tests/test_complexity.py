"""Work counts: the work of each operation grows linearly with its input.

``work`` counts the Python line events of the frames whose code lies in the
``corules`` package, with ``sys.settrace``. Line events miss the work done in
C, so it also charges each call, from the package, of a list or tuple method
that scans its receiver (``remove``, ``index``, ``count``, ``insert``) the
receiver's length, with ``sys.setprofile``. Unlike a wall clock, the count is
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
    check_rational_in_gen,
    coind_interpretation,
    extract_finite_proof,
    extract_rational_proof,
    gen_interpretation,
    rule,
    spec_oracle,
)
from corules.cli import parse_colist, parse_system
from corules.prooftree import format_finite, format_rational

PACKAGE = os.path.dirname(corules.__file__) + os.sep
SCANS = frozenset({"remove", "index", "count", "insert"})
SEED = 12
GROWTH = 2.2  # the most that doubling the input may multiply the work by


def work(call) -> int:
    """The line events inside the package while ``call()`` runs, plus the length of
    every list or tuple a scanning method of it is called on from the package. The
    tracer and the profiler in place before are put back after."""
    count = 0

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
    return count


def ghost_chain(n):
    """A chain ``0 <-``, ``i <- i-1`` of n judgments; a ghost cycle of n judgments
    that a coaxiom admits into the generated interpretation; and a cycle of n
    judgments outside the bound. The rules are shuffled."""
    rules = [rule(0)] + [rule(i, i - 1) for i in range(1, n)]
    rules += [rule(n + i, n + (i - 1) % n) for i in range(n)]
    rules += [rule(2 * n + i, 2 * n + (i - 1) % n) for i in range(n)]
    random.Random(SEED).shuffle(rules)
    return InferenceSystem(3 * n, rules, [rule(n)])


def gen_of(n):
    system = ghost_chain(n)
    return lambda: gen_interpretation(system)


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
    system = InferenceSystem(n, rules)

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
], ids=["gen_interpretation", "bounded_coinduction_check",
        "extract_rational_proof+check_rational_in_gen", "format_finite", "format_rational",
        "coind_interpretation", "spec_oracle_infoften", "parse_system", "rules+corules",
        "parse_colist"])
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
