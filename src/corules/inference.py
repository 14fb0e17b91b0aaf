"""Finite inference systems and their three interpretations.

An inference system is a finite universe of judgments (dense ids
``0..universe_size-1``) plus rules, each a set of premise ids and one
conclusion id. Corules are extra rules that participate only in the
auxiliary inductive phase of the generated interpretation. A system stores
the conclusions of its rules, then corules, in one array and their premises
(ascending, without repeats) in another, cut by offsets. The public
constructor turns its ``Rule`` objects into these arrays; the parser and the
predicate builders write them directly and hand them to the unchecked
``_compiled``. The premise index, the firing rules of the inductive passes
and the generated interpretation are computed once, when first needed, and
kept; the corule pass's firing rules are also the corule-extended bound (the
judgments it fires a rule for). ``rules`` and ``corules`` are built on first
read, and so are the labels of a system whose builder gave a function that
makes them.

The three interpretations:

* ``ind_interpretation``: the least closed set (judgments with a finite
  proof tree).
* ``coind_interpretation``: the largest consistent set (judgments with a
  finite or infinite proof tree).
* ``gen_interpretation``: the coinductive interpretation of the system
  restricted to conclusions that are inductively derivable once corules
  are allowed. With no corules this collapses to the inductive
  interpretation; with one coaxiom per judgment it collapses to the
  coinductive one.

One counting engine computes all three in time linear in the size of the
system: ``_least`` fires each rule, layer by layer, once its count of
unsatisfied premises reaches zero (Dowling & Gallier), so a judgment's layer
is still its Kleene round; ``_greatest`` drops each judgment whose count of
kept rules reaches zero (Liu & Smolka). The plain rules whose counts reach zero
in the corule pass are those inside the bound, where ``gen``'s greatest pass
starts, and the rules it keeps to the end give ``gen``'s witnesses. A pass
reads the premise index only to follow a premise: not if no rule is ready or no
judgment loses its rules. ``gen`` without corules runs no ``_greatest``: its
bound is ``ind``, which is consistent. Membership and proofs read the rule
``_least`` records as firing first for each judgment; a consistency witness
is the index of the first declared rule supported inside the checked set.

An interpretation is a ``JudgmentSet``: the frozenset of ids the engine
computes plus the universe size, so membership is O(1) and iteration is
ascending.

``is_closed``, ``is_consistent``, and ``bounded_coinduction_check``
mechanize the induction, coinduction, and bounded coinduction proof
obligations, reporting per-judgment counterexamples and witnesses. Each
is a question about membership in the checked set. Reports and proofs name
a rule by its index: the rules in declaration order, then the corules;
``InferenceSystem.rule_at`` gives the ``Rule`` of an index.

All values are immutable and every operation is a pure function, so
everything here can be freely shared across threads.
"""

from __future__ import annotations

import operator
from collections import deque
from collections.abc import Iterable, Iterator
from functools import cached_property
from itertools import accumulate, compress, islice, repeat
from typing import Callable, Mapping, Optional

from ._value import Value, _index, _set, _tuple, _typed

# Reason tags carried by CheckReport failures.
CLOSEDNESS = "closedness"
CONSISTENCY = "consistency"
BOUNDEDNESS = "boundedness"


class InternalError(Exception):
    """A violated engine invariant. Not a user error."""


class StructuralError(Exception):
    """A proof does not even have the right shape to be checked.

    ``prooftree`` raises it and re-exports it; it is defined here, beside
    InternalError, so that every command can catch it without loading
    ``prooftree``."""


class Rule(Value):
    """An inference rule: if all premises hold, the conclusion holds.

    Premises form a set (order and multiplicity never matter). A rule with
    no premises is an axiom.
    """

    __slots__ = __match_args__ = ("premises", "conclusion")

    def __init__(self, premises: Iterable[int], conclusion: int):
        try:
            _set(self, "premises", frozenset(premises))
        except TypeError:  # checked only once the conversion has failed, as in _tuple
            _typed(premises, (Iterable,), "premises")
            raise
        _set(self, "conclusion", conclusion)

    def __repr__(self) -> str:
        return f"Rule(premises={_ids_repr(self.premises)}, conclusion={self.conclusion!r})"

    def __str__(self) -> str:
        return f"{self.conclusion} <- {' '.join(map(str, sorted(self.premises)))}".rstrip()


def _ids_repr(ids: frozenset[int]) -> str:
    """``frozenset({...})`` with the ids in ascending order, so equal sets print alike."""
    return f"frozenset({{{', '.join(map(repr, sorted(ids)))}}})" if ids else "frozenset()"


def rule(conclusion: int, *premises: int) -> Rule:
    """Shorthand constructor, reading like ``conclusion <- premises``."""
    return Rule(frozenset(premises), conclusion)


class JudgmentSet(Value):
    """A subset of the universe: a frozenset of judgment ids plus the
    universe size.

    ``members`` may be given as any iterable of ids. Each is coerced with
    ``operator.index`` (so ``True`` is stored as ``1``) and must lie in
    ``0..size-1``; a TypeError names ``members`` (unless an iterator
    yielded the id that is not an integer). Membership is O(1), and
    iteration and the repr are ascending. Two sets are equal iff they have
    the same universe size and the same members. ``|``, ``&``, ``-`` and
    ``<=`` take a set over the same universe.
    """

    __slots__ = __match_args__ = ("size", "members")

    def __init__(self, size: int, members: Iterable[int] = frozenset()):
        if operator.index(size) < 0:
            raise ValueError("universe size must be non-negative")
        try:
            members = frozenset(map(operator.index, members))
        except TypeError:
            if not isinstance(members, Iterator):  # an iterator's fault is already read
                for j in _typed(members, (Iterable,), "members"):
                    if not hasattr(type(j), "__index__"):
                        raise TypeError("a judgment id in members must be an integer, "
                                        f"not {type(j).__name__}") from None
            raise
        if members and not (0 <= min(members) and max(members) < size):
            j = min(members) if min(members) < 0 else max(members)
            raise ValueError(f"judgment id {j} out of range for universe of {size}")
        _set(self, "size", size)
        _set(self, "members", members)

    @classmethod
    def _valid(cls, size: int, ids: Iterable[int]) -> "JudgmentSet":
        """The set of ``ids``, ints known to lie in ``range(size)``, unchecked."""
        s = object.__new__(cls)
        _set(s, "size", size)
        _set(s, "members", frozenset(ids))
        return s

    @classmethod
    def of(cls, size: int, ids: Iterable[int]) -> "JudgmentSet":
        return cls(size, ids)

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}(size={self.size!r}, members={_ids_repr(self.members)})"

    def __contains__(self, j: int) -> bool:
        return j in self.members

    def __iter__(self) -> Iterator[int]:
        return iter(sorted(self.members))

    def __len__(self) -> int:
        return len(self.members)

    def _peer(self, other: "JudgmentSet") -> frozenset[int]:
        return _members(other, self.size, "other")

    def __or__(self, other: "JudgmentSet") -> "JudgmentSet":
        return JudgmentSet._valid(self.size, self.members | self._peer(other))

    def __and__(self, other: "JudgmentSet") -> "JudgmentSet":
        return JudgmentSet._valid(self.size, self.members & self._peer(other))

    def __sub__(self, other: "JudgmentSet") -> "JudgmentSet":
        return JudgmentSet._valid(self.size, self.members - self._peer(other))

    def __le__(self, other: "JudgmentSet") -> bool:
        return self.members <= self._peer(other)


class InferenceSystem(Value):
    """A finite universe together with rules and (optionally) corules.

    Rule and corule order is irrelevant to every interpretation; it only
    breaks ties when reporting witnesses. Duplicate rules are permitted and
    semantically inert. ``labels``, when given, are strings, one per judgment. The
    universe size and every id are coerced with ``operator.index``, so a
    float raises TypeError and ``True`` is stored as ``1``.
    """

    __match_args__ = ("universe_size", "rules", "corules", "labels")
    # __dict__: labels, rules, corules, _users, _gen, the passes of _layers, the corule
    # pass's _waiting and the greatest pass's _kept, each made when needed
    __slots__ = ("universe_size", "_heads", "_starts", "_body", "_plain", "_labels", "__dict__")

    def __init__(self, universe_size: int, rules: Iterable[Rule], corules: Iterable[Rule] = (),
                 labels: Optional[Iterable[str]] = None):
        n, rules = operator.index(universe_size), _tuple(rules, "rules")
        every = rules + _tuple(corules, "corules")
        if n < 0:
            raise ValueError("universe size must be non-negative")
        heads, starts, body = [], [0], []
        for r in every:
            conclusion, premises = _ids(r)
            heads.append(conclusion)
            body += premises
            starts.append(len(body))
        if any(ids and not (0 <= min(ids) and max(ids) < n) for ids in (heads, body)):
            for r in every:
                bad = sorted({j for j in (*r.premises, r.conclusion) if not 0 <= j < n})
                if bad:
                    raise ValueError(f"rule {r} references judgment ids {bad} "
                                     f"outside universe of {n}")
        if labels is not None:
            labels = _tuple(labels, "labels")
            if len(labels) != n:
                raise ValueError("label table must name every judgment")
            for label in labels:
                _typed(label, (str,), "a label in labels")
            if len(set(labels)) != len(labels):
                raise ValueError("judgment labels must be unique")
        self._store(n, heads, starts, body, len(rules), labels)

    def _store(self, n: int, heads: list[int], starts: list[int], body: list[int], plain: int,
               labels: object) -> None:
        for name, value in zip(self.__slots__, (n, heads, starts, body, plain, labels)):
            _set(self, name, value)

    @classmethod
    def _compiled(cls, n: int, heads: list[int], starts: list[int], body: list[int], plain: int,
                  labels: Optional[tuple[str, ...] | Callable[[], tuple[str, ...]]] = None
                  ) -> "InferenceSystem":
        """The system whose ``i``-th rule (a corule from index ``plain`` on) concludes
        ``heads[i]`` from ``body[starts[i]:starts[i + 1]]``, unchecked: ids must be ints
        in ``range(n)``, each premise run ascending without repeats, ``starts`` one
        longer than ``heads`` from 0 to ``len(body)``, and labels ``n`` distinct strings
        or a function of no arguments that returns them on the first read."""
        system = object.__new__(cls)
        system._store(n, heads, starts, body, plain, labels)
        return system

    @cached_property
    def labels(self) -> Optional[tuple[str, ...]]:
        return self._labels() if callable(self._labels) else self._labels

    def _premises(self, i: int) -> list[int]:
        return self._body[self._starts[i]:self._starts[i + 1]]

    def _rule(self, i: int) -> Rule:
        return Rule(self._premises(i), self._heads[i])

    def _rules(self, first: int, last: int) -> tuple[Rule, ...]:
        """The rules of indices ``first`` to ``last - 1``, made in one pass: each premise
        run is sliced, and the two slots of each new ``Rule`` are set, in bulk."""
        starts = self._starts  # read through islice: no copy of an array is made
        rules = tuple(map(object.__new__, repeat(Rule, last - first)))
        cuts = map(slice, islice(starts, first, last), islice(starts, first + 1, last + 1))
        runs = map(self._body.__getitem__, cuts)
        deque(map(Rule.premises.__set__, rules, map(frozenset, runs)), 0)
        deque(map(Rule.conclusion.__set__, rules, islice(self._heads, first, last)), 0)
        return rules

    @cached_property
    def rules(self) -> tuple[Rule, ...]:
        return self._rules(0, self._plain)

    @cached_property
    def corules(self) -> tuple[Rule, ...]:
        return self._rules(self._plain, len(self._heads))

    @cached_property
    def _users(self) -> tuple[list[int], list[int]]:
        """``(users, at)``: the rules, then corules, with premise ``j`` are
        ``users[at[j]:at[j + 1]]``, ascending."""
        body, marks = self._body, [0] * (len(self._body) + 1)
        for start in self._starts[1:-1]:
            marks[start] += 1
        owners = list(accumulate(marks))  # per premise, the rule starts up to it: its rule
        # a stable sort keeps the rules of one premise in ascending order
        users = list(map(owners.__getitem__, sorted(range(len(body)), key=body.__getitem__)))
        tally = [0] * (self.universe_size + 1)
        for p in body:
            tally[p + 1] += 1
        return users, list(accumulate(tally))

    def _layers(self, use_corules: bool) -> list[Optional[int]]:
        """``_least`` of the rules, with the corules if used, computed once: read only."""
        name = "_ind_corules" if use_corules and self._plain < len(self._heads) else "_ind"
        if name not in self.__dict__:  # no corules: both names read the rules' pass
            self.__dict__[name] = _least(self, name == "_ind_corules")
        return self.__dict__[name]

    @cached_property
    def _gen(self) -> frozenset[int]:
        """The generated interpretation: the greatest fixed point of the rules inside the
        bound, the judgments for which the corule pass ``_layers(True)`` fires a rule.
        Without corules the bound is the inductive interpretation, which is consistent,
        so it is the answer as it is. Else the greatest pass starts from the plain rules
        whose count in the corule pass's ``_waiting`` is 0, those inside the bound."""
        firing = self._layers(True)
        fired = map(operator.is_not, firing, repeat(None))
        bound = frozenset(compress(range(len(firing)), fired))
        if self._plain == len(self._heads):
            return bound
        kept = bytearray(map(operator.not_, self.__dict__["_waiting"]))
        kept[self._plain:] = bytes(len(self._heads) - self._plain)  # no corule is kept
        gen = frozenset(_greatest(self, kept, bound))
        self.__dict__["_kept"] = kept  # the witnesses of gen: see _greatest
        return gen

    def _id(self, j: int) -> int:
        """``j`` coerced with ``operator.index``, after checking that it names a judgment."""
        return _index(j, "judgment id", self.universe_size)

    def label_of(self, j: int) -> str:
        j = self._id(j)
        return self.labels[j] if self.labels else f"j{j}"

    def rule_at(self, i: int) -> Rule:
        """The rule of index ``i``, counting the rules and then the corules, as reports
        and proofs do. ``i`` is coerced with ``operator.index`` and must be in range."""
        return self._rule(_index(i, "rule index", len(self._heads)))

    def all_rules(self, use_corules: bool = False) -> tuple[Rule, ...]:
        """The rules of the system, with corules appended when requested."""
        return self.rules + self.corules if use_corules else self.rules


def _ids(r: Rule) -> tuple[int, list[int]]:  # the conclusion and the ascending premises
    if not isinstance(r, Rule):
        raise TypeError(f"rules and corules must be Rule objects, not {type(r).__name__}")
    try:
        return operator.index(r.conclusion), sorted(map(operator.index, r.premises))
    except TypeError:
        raise TypeError(f"rule {r} references a judgment id that is not an integer") from None


def _members(s: JudgmentSet, size: int, what: str) -> frozenset[int]:
    """The members of ``s``, the argument named ``what``, which must be a JudgmentSet
    over a universe of ``size``."""
    if _typed(s, (JudgmentSet,), what).size != size:
        raise ValueError(f"{what} is over a universe of {s.size}, not {size}: "
                         "different universes")
    return s.members


def _least(system: InferenceSystem, use_corules: bool) -> list[Optional[int]]:
    """Per judgment of the least fixed point of the rules (and corules, if used), the
    first declared rule that fires at the judgment's Kleene round; None outside it.
    The premise index is read only if some rule is ready. With corules, the final counts
    of premises not derived are kept as ``_waiting``. Read it through ``_layers``."""
    heads, starts = system._heads, system._starts
    firing: list[Optional[int]] = [None] * system.universe_size
    waiting = list(map(operator.sub, starts[1:], starts))  # premises not yet derived
    if not use_corules:  # a count below zero never reaches zero: corules never fire
        waiting[system._plain:] = [-1] * (len(heads) - system._plain)
    ready = [i for i, left in enumerate(waiting) if not left]
    users, at = system._users if ready else ((), ())  # nothing fires: no index is built
    while ready:  # one Kleene round per pass
        later = []  # rules whose last premise is derived in this round
        for i in ready:
            c = heads[i]
            if firing[c] is None:
                firing[c] = i
                for k in users[at[c]:at[c + 1]]:
                    left = waiting[k] - 1
                    waiting[k] = left
                    if not left:
                        later.append(k)
        later.sort()
        ready = later
    if use_corules:
        system.__dict__["_waiting"] = waiting
    return firing


def _greatest(system: InferenceSystem, kept: Optional[bytearray] = None,
              live: Optional[frozenset[int]] = None) -> set[int]:
    """The greatest fixed point of the rules inside ``live``, the whole universe if None,
    which must be closed under the rules, as the universe and the corule pass's bound are.
    ``kept`` marks, per rule and corule, the plain rules with premises in ``live`` (all if
    None), and ends marking those with premises in the answer. Each judgment left
    without a kept rule goes, with the rules that use it: only then is the index read."""
    heads, plain = system._heads, system._plain
    kept = bytearray(b"\x01") * plain + bytearray(len(heads) - plain) if kept is None else kept
    support = [0] * system.universe_size  # per judgment, its kept rules not yet taken
    for c in compress(heads, kept):
        support[c] += 1
    if live is None:
        alive = set(compress(range(system.universe_size), support))
        doomed = list(compress(range(system.universe_size), map(operator.not_, support)))
    else:
        alive = set(compress(live, map(support.__getitem__, live)))
        doomed = list(live.difference(alive))
    users, at = system._users if doomed else ((), ())  # no judgment goes: no index is built
    while doomed:
        j = doomed.pop()
        for i in users[at[j]:at[j + 1]]:
            if kept[i]:
                kept[i] = 0
                c = heads[i]
                support[c] -= 1
                if not support[c]:
                    alive.remove(c)
                    doomed.append(c)
    return alive


def ind_interpretation(system: InferenceSystem, use_corules: bool = False) -> JudgmentSet:
    """The least fixed point: judgments with a finite proof tree."""
    firing = _typed(system, (InferenceSystem,), "system")._layers(use_corules)
    return JudgmentSet._valid(len(firing), [j for j, i in enumerate(firing) if i is not None])


def coind_interpretation(system: InferenceSystem) -> JudgmentSet:
    """The greatest fixed point: judgments with an arbitrary proof tree.

    Corules never participate here; they only matter to
    ``gen_interpretation``.
    """
    n = _typed(system, (InferenceSystem,), "system").universe_size
    return JudgmentSet._valid(n, _greatest(system))


def gen_interpretation(system: InferenceSystem) -> JudgmentSet:
    """The corule-generated interpretation.

    First the inductive interpretation with corules admitted is computed;
    then the greatest fixed point of the rules below it, which is the
    coinductive interpretation of the system restricted to those
    conclusions. The result is a fixed point of the restricted step,
    in general neither its least nor its greatest.
    """
    n = _typed(system, (InferenceSystem,), "system").universe_size
    return JudgmentSet._valid(n, system._gen)


def interpret(name: str, system: InferenceSystem) -> JudgmentSet:
    """The interpretation named ``name`` ("ind", "coind" or "gen"); any other
    name raises ValueError.

    The functions are looked up at each call, so a wrapper installed over
    one of them sees the call.
    """
    try:
        reading = {"ind": ind_interpretation, "coind": coind_interpretation,
                   "gen": gen_interpretation}[name]
    except (KeyError, TypeError):  # TypeError: an unhashable name
        raise ValueError(f"unknown interpretation {name!r}") from None
    return reading(system)


class Failure(Value):
    """One violated proof obligation: which judgment, why, and through which rule.

    For a closedness failure ``rule`` is the index of the plain rule whose
    premises hold but whose conclusion is missing (``InferenceSystem.rule_at``
    gives the rule); for the other reasons it is None.
    """

    __slots__ = __match_args__ = ("judgment", "reason", "rule")

    def __init__(self, judgment: int, reason: str, rule: Optional[int] = None):
        _set(self, "judgment", judgment)
        _set(self, "reason", reason)
        _set(self, "rule", rule)


_NEW_DICT = object()  # CheckReport's default witnesses: a new empty dict


class CheckReport(Value):
    """Outcome of a principle check.

    ``witnesses`` maps each consistent judgment, ascending, to the index of
    the first declared rule that concludes it from premises inside the
    checked set.
    """

    __slots__ = __match_args__ = ("failures", "witnesses")

    def __init__(self, failures: Iterable[Failure] = (),
                 witnesses: Mapping[int, int] = _NEW_DICT):
        _set(self, "failures", tuple(failures))
        _set(self, "witnesses", {} if witnesses is _NEW_DICT else witnesses)

    @property
    def ok(self) -> bool:
        """Whether the check passed: there are no failures."""
        return not self.failures

    def failures_tagged(self, reason: str) -> tuple[Failure, ...]:
        return tuple(f for f in self.failures if f.reason == reason)


def is_closed(system: InferenceSystem, s: JudgmentSet) -> CheckReport:
    """Check the induction obligation: every applicable rule concludes in ``s``.

    Each failure names the conclusion that is missing and the index of the
    rule that derives it, in ascending judgment order then rule order.
    """
    inside = _members(s, _typed(system, (InferenceSystem,), "system").universe_size, "s")
    heads = system._heads
    hits = [i for i in range(system._plain)
            if heads[i] not in inside and inside.issuperset(system._premises(i))]
    hits.sort(key=heads.__getitem__)  # stable: rules of one judgment stay in order
    return CheckReport(Failure(heads[i], CLOSEDNESS, i) for i in hits)


def is_consistent(system: InferenceSystem, s: JudgmentSet) -> CheckReport:
    """Check the coinduction obligation: every member of ``s`` is concluded
    by some rule whose premises lie in ``s``.

    Witnesses record, for each member, the index of the first such rule in
    declaration order. Corules never count.
    """
    inside = _members(s, _typed(system, (InferenceSystem,), "system").universe_size, "s")
    heads, premises = system._heads, system._premises
    first: dict[int, int] = {}  # per member, the first rule that concludes it from inside
    for i in range(system._plain):
        c = heads[i]
        if c in inside and c not in first and inside.issuperset(premises(i)):
            first[c] = i
    failures = [Failure(j, CONSISTENCY, None) for j in sorted(inside.difference(first))]
    return CheckReport(failures, {j: first[j] for j in sorted(first)})


def bounded_coinduction_check(system: InferenceSystem, spec: JudgmentSet) -> CheckReport:
    """Check the bounded coinduction obligations for ``spec``.

    Two sub-checks, distinguishable by failure reason tag:

    * boundedness: every judgment of ``spec`` is inductively derivable once
      corules are admitted (failures are tagged ``BOUNDEDNESS``);
    * consistency: ``spec`` is consistent with respect to the rules alone
      (failures are tagged ``CONSISTENCY``, witnesses as in
      ``is_consistent``).

    When both pass, ``spec`` is contained in the generated interpretation;
    this inclusion is verified before returning.
    """
    inside = _members(spec, _typed(system, (InferenceSystem,), "system").universe_size, "spec")
    firing = system._layers(True)
    failures = [Failure(j, BOUNDEDNESS, None) for j in inside if firing[j] is None]
    consistency = is_consistent(system, spec)
    failures.extend(consistency.failures)
    failures.sort(key=lambda f: (f.judgment, f.reason))
    if not failures and not system._gen.issuperset(inside):
        raise InternalError("bounded and consistent spec escaped the generated interpretation")
    return CheckReport(failures, consistency.witnesses)
