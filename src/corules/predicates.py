"""Predicates on colists, instantiated as finite inference systems.

Six predicate families are supported, each over the suffix automaton of a
colist. Five read one step rule, ``s <- next(s)`` from a suffix to its tail,
in three ways, and the reading also places the axioms (a hit is a suffix
whose head satisfies the element predicate):

* ``eventually`` (at some position), inductive: an axiom at every hit and a
  step from every non-empty suffix; ``member`` is ``eventually(eq:x)``;
* ``always`` (at every position), coinductive: an axiom at the empty suffix
  and a step from every hit; ``allpos`` is ``always(positive)``;
* ``infoften`` (at infinitely many positions), corule-generated: a step from
  every non-empty suffix and a coaxiom (a corule with no premises) at every hit.

``max`` (a value is the maximum element) is corule-generated too.

Each ``gen_*_system`` function returns the inference system together with a
JudgmentScheme mapping abstract judgments (value, suffix state) to dense
ids. ``FAMILIES`` is the one place that says how each family is built,
read and decided: its builder, its interpretation (for a step-rule kind,
also where the axioms go), its two deciders and the arguments it takes.
The deciders, ``decide_direct`` (structural, looking at prefix and loop
directly) and ``spec_oracle`` (the index-quantified specification, decided
in time linear in the periodicity window), exist purely to cross-check the
engine verdicts and share no code with the interpretations; ``three_way``
gives all three verdicts, as ``corules pred`` prints them. ``PREDICATES`` is
the one table of the element predicates' names that ``predicate_by_name`` reads.
"""

from __future__ import annotations

import enum
from itertools import accumulate
from typing import Callable, Iterable, Iterator, NamedTuple, Optional

from ._value import Value, _index, _set, _typed
from .colist import (Colist, Finite, Lasso, SuffixAutomaton, _check_naturals,
                     _naturals_or_none, suffix_automaton)
from .inference import InferenceSystem, interpret


class Kind(enum.Enum):
    """The supported predicate families."""

    MEMBER_OF = "member"
    ALL_POS = "allpos"
    EVENTUALLY = "eventually"
    ALWAYS = "always"
    INFINITELY_OFTEN = "infoften"
    MAX_ELEM = "max"


class ElementPredicate(Value):
    """A named, total, decidable predicate on naturals. A ``holds`` that
    cannot be called raises TypeError."""

    __slots__ = __match_args__ = ("name", "holds")

    def __init__(self, name: str, holds: Callable[[int], bool]):
        if not callable(holds):
            raise TypeError(f"holds must be callable, not {type(holds).__name__}")
        _set(self, "name", name)
        _set(self, "holds", holds)

    def __call__(self, n: int) -> bool:
        return bool(self.holds(n))

    def __repr__(self) -> str:
        return f"ElementPredicate({self.name!r})"


POSITIVE = ElementPredicate("positive", lambda n: n > 0)
EVEN = ElementPredicate("even", lambda n: n % 2 == 0)
ODD = ElementPredicate("odd", lambda n: n % 2 == 1)


def eq_to(k: int) -> ElementPredicate:
    return ElementPredicate(f"eq:{k}", lambda n: n == k)


def greater_than(k: int) -> ElementPredicate:
    return ElementPredicate(f"gt:{k}", lambda n: n > k)


# The names ``predicate_by_name`` reads: a predicate, or a family, named with its
# colon, whose predicate ``name:<n>`` it builds from the natural number n.
PREDICATES = {"positive": POSITIVE, "even": EVEN, "odd": ODD, "eq:": eq_to, "gt:": greater_than}
PREDICATE_NAMES = ", ".join(name + "<n>" if name.endswith(":") else name for name in PREDICATES)


def predicate_by_name(text: str) -> ElementPredicate:
    """Parse a predicate name, one of ``PREDICATE_NAMES``."""
    head, sep, arg = _typed(text, (str,), "text").partition(":")
    named = PREDICATES.get(head + sep)
    if named is None:
        raise ValueError(f"unknown predicate {text!r} (expected {PREDICATE_NAMES})")
    if not sep:
        return named
    n = _naturals_or_none((arg,))
    if n is None:
        raise ValueError(f"predicate argument must be a natural number: {text!r}")
    return named(n[0])


class JudgmentScheme(Value):
    """Bijection between a family's abstract judgments and dense ids.

    For ``member`` and ``max`` the universe is candidates x suffix states
    and ids are ``value_index * state_count + state``; for the other kinds
    the universe is the states themselves. ``state_count`` is the
    automaton's, stored at construction.
    """

    __match_args__ = ("kind", "colist", "automaton", "candidates", "predicate")
    __slots__ = __match_args__ + ("state_count",)

    def __init__(self, kind: Kind, colist: Colist, automaton: SuffixAutomaton,
                 candidates: Optional[tuple[int, ...]] = None,
                 predicate: Optional[ElementPredicate] = None):
        _set(self, "kind", _typed(kind, (Kind,), "kind"))
        _set(self, "colist", colist)
        _set(self, "automaton", _typed(automaton, (SuffixAutomaton,), "automaton"))
        _set(self, "candidates", candidates)
        _set(self, "predicate", predicate)
        _set(self, "state_count", automaton.state_count)

    @property
    def universe_size(self) -> int:
        if self.candidates is None:
            return self.state_count
        return len(self.candidates) * self.state_count

    def encode(self, state: int, value: Optional[int] = None) -> int:
        state = _index(state, "state", self.state_count)
        if self.candidates is None:
            if value is not None:
                raise ValueError(f"{self.kind.value} judgments carry no value")
            return state
        try:
            return self.candidates.index(value) * self.state_count + state
        except ValueError:
            raise ValueError(f"value {value!r} is not a candidate") from None

    def decode(self, j: int) -> tuple[Optional[int], int]:
        """The (value, state) pair of a judgment id; value is None for
        state-only kinds."""
        j = _index(j, "judgment id", self.universe_size)
        if self.candidates is None:
            return None, j
        vi, state = divmod(j, self.state_count)
        return self.candidates[vi], state

    def labels(self) -> tuple[str, ...]:
        """The label of every id, in id order: ``kind(s<state>)``, or
        ``kind(<value>,s<state>)`` when judgments carry a value."""
        name, states = self.kind.value, range(self.state_count)
        if self.candidates is None:
            return tuple(f"{name}(s{s})" for s in states)
        return tuple(f"{name}({v},s{s})" for v in self.candidates for s in states)


def _system(scheme: JudgmentScheme, heads: list[int], starts: list[int], body: list[int],
            coaxioms: list[int]) -> tuple[InferenceSystem, JudgmentScheme]:
    """The system of the rule arrays (see ``InferenceSystem._compiled``) with a coaxiom
    at each id of ``coaxioms``, labelled by ``scheme`` on the first read of its labels."""
    plain = len(heads)
    heads += coaxioms
    starts += [len(body)] * len(coaxioms)
    return InferenceSystem._compiled(scheme.universe_size, heads, starts, body, plain,
                                     scheme.labels), scheme


def _temporal_system(kind: Kind, xs: Colist, p: ElementPredicate,
                     candidates: Optional[tuple[int, ...]] = None,
                     predicate: Optional[ElementPredicate] = None
                     ) -> tuple[InferenceSystem, JudgmentScheme]:
    """The step rule ``s <- next(s)`` on the suffix states of ``xs``, with axioms
    placed by ``FAMILIES[kind].interpretation`` (see the module docstring)."""
    reading = FAMILIES[kind].interpretation
    aut = suffix_automaton(xs)
    heads, starts, body, coaxioms = [], [0], [], []  # the judgment ids are the states
    # called directly: ``hit`` is only read as a truth value
    holds = _typed(p, (ElementPredicate,), "predicate").holds
    for s, head in enumerate(aut.heads):
        hit = head is not None and holds(head)
        if (head is None and reading == "coind") or (hit and reading == "ind"):
            heads.append(s)  # an axiom
            starts.append(len(body))
        if head is not None and (hit or reading != "coind"):
            heads.append(s)
            body.append(aut.nexts[s])
            starts.append(len(body))
        if hit and reading == "gen":
            coaxioms.append(s)
    return _system(JudgmentScheme(kind, xs, aut, candidates, predicate),
                   heads, starts, body, coaxioms)


def gen_member_system(x: int, xs: Colist) -> tuple[InferenceSystem, JudgmentScheme]:
    """Inference system for membership of ``x`` in ``xs`` (inductive).

    This is ``eventually(eq:x)``: an axiom derives membership at every
    suffix whose head is ``x``; a step rule lifts membership in a tail to
    membership in the suffix. Nothing concludes at the empty suffix. The
    scheme has the single candidate ``x``, so its ids are the states. An
    ``x`` that is not a natural number (a bool is not) raises ValueError.
    """
    _check_naturals((x,), "element must be a natural number")
    return _temporal_system(Kind.MEMBER_OF, xs, eq_to(x), candidates=(x,))


def gen_always_system(p: ElementPredicate,
                      xs: Colist) -> tuple[InferenceSystem, JudgmentScheme]:
    """Inference system for ``p`` holding at every position (coinductive).

    The empty suffix is an axiom; a non-empty suffix whose head satisfies
    ``p`` is derived from its tail. Interpreted inductively this only
    reaches finite colists, which is exactly why the coinductive reading is
    the one of interest.
    """
    return _temporal_system(Kind.ALWAYS, xs, p, predicate=p)


def gen_allpos_system(xs: Colist) -> tuple[InferenceSystem, JudgmentScheme]:
    """``always(positive)``, labelled as ``allpos``."""
    return _temporal_system(Kind.ALL_POS, xs, POSITIVE, predicate=POSITIVE)


def gen_eventually_system(p: ElementPredicate,
                          xs: Colist) -> tuple[InferenceSystem, JudgmentScheme]:
    """Inference system for ``p`` holding at some position (inductive).

    An axiom fires at every suffix whose head satisfies ``p``; a step rule
    lifts a hit in the tail. Its coinductive interpretation is all states on
    any lasso (the step rule alone sustains an infinite tree), so only the
    inductive reading means anything.
    """
    return _temporal_system(Kind.EVENTUALLY, xs, p, predicate=p)


def gen_infoften_system(p: ElementPredicate,
                        xs: Colist) -> tuple[InferenceSystem, JudgmentScheme]:
    """Inference system for ``p`` holding infinitely often (corule-generated).

    The only rules step from a suffix to its tail, so nothing is derivable
    inductively and everything is derivable coinductively on a lasso. The
    coaxioms, one per suffix whose head satisfies ``p``, cut the coinductive
    reading down to suffixes from which hits never stop coming.
    """
    return _temporal_system(Kind.INFINITELY_OFTEN, xs, p, predicate=p)


def gen_maxelem_system(xs: Colist,
                       candidates: Iterable[int]) -> tuple[InferenceSystem, JudgmentScheme]:
    """Inference system for "value is the maximum element" (corule-generated).

    Judgments pair a candidate value with a suffix state. An axiom derives
    the head as maximum of a one-element remainder (finite colists only); a
    step rule combines the head with a candidate maximum of the tail; a
    coaxiom claims any head as maximum of its suffix. Candidates must cover
    every element of the colist (those are the only possible maxima) and may
    add probe values, which the corules then correctly fail to justify.
    """
    cands = tuple(sorted(set(candidates)))
    if not cands:
        raise ValueError("candidate set must be nonempty")
    _check_naturals(cands, "candidates must be natural numbers")
    aut = suffix_automaton(xs)
    occurring = set(_all_elements(xs))
    missing = occurring - set(cands)
    if missing:
        raise ValueError(f"candidates must include every element of the colist; "
                         f"missing {sorted(missing)}")
    # The id of (value, state) is the value's index times the state count, plus the state.
    n, c, index = aut.state_count, len(cands), {v: k for k, v in enumerate(cands)}
    heads, body, sizes, coaxioms = [], [], [], []  # sizes: premises per rule
    ones = [1] * c
    for s, head in enumerate(aut.heads):
        if head is None:
            continue
        k, nxt = index[head], aut.nexts[s]
        if aut.heads[nxt] is None:
            heads.append(k * n + s)  # an axiom
            sizes.append(0)
        # The rule for candidate y concludes max(head, y): the head up to it, then y.
        heads += [k * n + s] * (k + 1)
        heads += range((k + 1) * n + s, c * n, n)
        body += range(nxt, c * n, n)
        sizes += ones
        coaxioms.append(k * n + s)
    return _system(JudgmentScheme(Kind.MAX_ELEM, xs, aut, candidates=cands),
                   heads, [0, *accumulate(sizes)], body, coaxioms)


def _all_elements(xs: Colist) -> tuple[int, ...]:
    if isinstance(xs, Finite):
        return xs.elements
    return xs.prefix + xs.loop


def _unrolled(xs: Colist) -> tuple[int, list]:
    """The periodicity window ``w`` of ``xs`` and its elements at positions
    ``0 .. 2w - 1``, None past the end of a finite list: every position an
    oracle quantifies over. ``w`` is a finite list's length, or a lasso's
    prefix plus two loops: from the prefix on, every position repeats within
    one further loop unroll."""
    if isinstance(xs, Finite):
        w = len(xs.elements)
        return w, [*xs.elements, *[None] * w]
    u, v = len(xs.prefix), len(xs.loop)
    w = u + 2 * v
    return w, [*xs.prefix, *xs.loop * ((2 * w - u) // v + 1)][:2 * w]


def _hits(p: ElementPredicate, values: list) -> Iterator[bool]:
    """Whether ``p`` holds at each of ``values`` (never at None), calling it
    once per distinct value; lazy, so ``any`` and ``all`` can stop early."""
    verdict = {v: p(v) for v in set(values) - {None}}
    verdict[None] = False
    return map(verdict.__getitem__, values)


# The deciders of the rows below. A direct decider looks at the prefix and
# loop; an oracle quantifies over the positions of the unrolled window. The
# two of a kind share no code, so each checks the other and the engine.

def _eventually_direct(xs, x, p):
    return any(p(e) for e in _all_elements(xs))


def _eventually_oracle(xs, x, p):
    w, values = _unrolled(xs)
    return any(_hits(p, values[:w]))


def _always_direct(xs, x, p):
    return all(p(e) for e in _all_elements(xs))


def _always_oracle(xs, x, p):
    w, values = _unrolled(xs)
    return all(_hits(p, values[:w]))


def _infoften_direct(xs, x, p):
    return isinstance(xs, Lasso) and any(p(e) for e in xs.loop)


def _infoften_oracle(xs, x, p):
    """Whether every position ``i < w`` has a hit at some ``n`` in ``(i, i + w]``,
    by one right-to-left sweep that keeps the nearest hit past ``i``. On the
    empty colist (``w = 0``) the unbounded specification says no, where an
    empty universal quantifier would say yes."""
    w, values = _unrolled(xs)
    hits, nearest = list(_hits(p, values)), None
    for i in range(2 * w - 1, -1, -1):
        if i < w and (nearest is None or nearest > i + w):
            return False
        if hits[i]:
            nearest = i
    return w > 0


def _max_direct(xs, x, p):
    return max(_all_elements(xs), default=None)


def _max_oracle(xs, x, p):
    w, values = _unrolled(xs)
    window = values[:w]
    return x in window and all(x >= v for v in window)


class Family(NamedTuple):
    """How one kind of predicate is built, read and decided.

    ``build(xs, x, predicate, candidates)`` returns the system and scheme,
    and ``direct`` and ``oracle``, called with ``(xs, x, predicate)``, are
    the deciders; each ignores the arguments the kind does not take.
    ``interpretation`` is the reading that gives the kind its meaning:
    "ind", "coind" or "gen"; a step-rule kind's builder places its axioms by
    it. ``needs_value`` and ``needs_predicate`` say whether the kind takes
    an element ``x`` and an element predicate. A kind that
    ``computes_value`` (max) ranges over candidate values, which the caller
    may choose, and its ``direct`` returns the value itself, to be compared
    with ``x``, so it needs no ``x``.
    """

    build: Callable[[Colist, Optional[int], Optional[ElementPredicate],
                     Optional[Iterable[int]]], tuple[InferenceSystem, JudgmentScheme]]
    interpretation: str
    direct: Callable[[Colist, Optional[int], Optional[ElementPredicate]], object]
    oracle: Callable[[Colist, Optional[int], Optional[ElementPredicate]], bool]
    needs_value: bool = False
    needs_predicate: bool = False
    computes_value: bool = False


# One row per kind, in the order of Kind. Each builder name is looked up
# when the row is called, so a wrapper installed over it sees those calls.
# Member is eventually(eq:x) and allpos is always(positive), in their
# deciders as in their rules.
FAMILIES = {
    Kind.MEMBER_OF: Family(lambda xs, x, p, c: gen_member_system(x, xs), "ind",
                           lambda xs, x, p: _eventually_direct(xs, x, eq_to(x)),
                           lambda xs, x, p: _eventually_oracle(xs, x, eq_to(x)),
                           needs_value=True),
    Kind.ALL_POS: Family(lambda xs, x, p, c: gen_allpos_system(xs), "coind",
                         lambda xs, x, p: _always_direct(xs, x, POSITIVE),
                         lambda xs, x, p: _always_oracle(xs, x, POSITIVE)),
    Kind.EVENTUALLY: Family(lambda xs, x, p, c: gen_eventually_system(p, xs), "ind",
                            _eventually_direct, _eventually_oracle,
                            needs_predicate=True),
    Kind.ALWAYS: Family(lambda xs, x, p, c: gen_always_system(p, xs), "coind",
                        _always_direct, _always_oracle, needs_predicate=True),
    Kind.INFINITELY_OFTEN: Family(lambda xs, x, p, c: gen_infoften_system(p, xs), "gen",
                                  _infoften_direct, _infoften_oracle,
                                  needs_predicate=True),
    # Without chosen candidates, max probes x against the colist's elements.
    Kind.MAX_ELEM: Family(lambda xs, x, p, c: gen_maxelem_system(
                              xs, _all_elements(xs) + (x,) if c is None else c),
                          "gen", _max_direct, _max_oracle,
                          needs_value=True, computes_value=True),
}


def _family(kind: Kind, xs: Colist, x: Optional[int], predicate: Optional[ElementPredicate],
            direct: bool = False) -> Family:
    """The row of ``kind``, once ``xs`` is a colist and each argument the kind
    takes is given (but a direct decider computes max), a predicate is an
    ElementPredicate and an ``x`` a natural number (a bool is not)."""
    try:
        family = FAMILIES[kind]
    except (KeyError, TypeError):  # TypeError: an unhashable kind
        raise ValueError(f"unknown kind {kind!r}") from None
    _typed(xs, (Finite, Lasso), "xs")
    if family.needs_value and x is None and not (direct and family.computes_value):
        raise ValueError(f"{kind.value} needs a value")
    if family.needs_predicate and predicate is None:
        raise ValueError(f"{kind.value} needs an element predicate")
    if family.needs_predicate:
        _typed(predicate, (ElementPredicate,), "predicate")
    if family.needs_value and x is not None:
        _check_naturals((x,), "element must be a natural number")
    return family


def decide_direct(kind: Kind, xs: Colist, *, x: Optional[int] = None,
                  predicate: Optional[ElementPredicate] = None):
    """Direct structural decision, independent of the inference engine.

    Returns a boolean, except for ``max`` which returns the maximum element
    or None on the empty colist.
    """
    return _family(kind, xs, x, predicate, direct=True).direct(xs, x, predicate)


def spec_oracle(kind: Kind, xs: Colist, *, x: Optional[int] = None,
                predicate: Optional[ElementPredicate] = None) -> bool:
    """Index-quantified specification, decided over one periodicity window.

    This is the meaning each inference system is checked against, evaluated
    without any reference to rules or automaton states. The window of ``w``
    positions is unrolled once, to ``2w`` elements, and each quantifier is one
    pass over it, so the cost is linear in ``w`` (a prefix plus two loops).
    """
    return _family(kind, xs, x, predicate).oracle(xs, x, predicate)


def three_way(kind: Kind, xs: Colist, *, x: Optional[int] = None,
              predicate: Optional[ElementPredicate] = None,
              candidates: Optional[Iterable[int]] = None) -> tuple[bool, bool, bool]:
    """Whether ``xs`` satisfies ``kind``, by the engine (the root judgment
    under the kind's interpretation), ``decide_direct`` (for max: whether
    the maximum is ``x``) and ``spec_oracle``, in that order."""
    family = _family(kind, xs, x, predicate)
    system, scheme = family.build(xs, x, predicate, candidates)
    root = scheme.encode(0, x if family.needs_value else None)
    engine = root in interpret(family.interpretation, system)
    direct = decide_direct(kind, xs, x=x, predicate=predicate)
    if family.computes_value:
        direct = direct == x
    return engine, direct, spec_oracle(kind, xs, x=x, predicate=predicate)
