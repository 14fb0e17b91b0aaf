"""Finite inference systems and their three interpretations.

An inference system is a finite universe of judgments (dense ids
``0..universe_size-1``) plus rules, each a set of premise ids and one
conclusion id. Corules are extra rules that participate only in the
auxiliary inductive phase of the generated interpretation. A system stores
the conclusions of its rules, then corules, in one array and their premises
(ascending, without repeats) in another, cut by offsets. The public
constructor turns its ``Rule`` objects into these arrays; the parser and the
predicate builders write them directly and hand them to the unchecked ``_valid``
(see ``InferenceSystem``). A system keeps the premise index and each pass's record,
computed once, when first needed: the rules' inductive pass ``_ind``, the corule pass
``_bound``, whose firing rules are the corule-extended bound (the judgments it fires a
rule for), and ``_gen``. ``rules`` and ``corules`` are built on first read, and so are
the labels of a system whose builder gave a function that makes them.

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
kept rules reaches zero (Liu & Smolka). Each pass returns its evidence with its
answer: the corule pass its final counts, whose plain rules at zero are those inside
the bound, where ``gen``'s greatest pass starts, and that pass the rules it keeps to
the end, ``gen``'s witnesses. A pass
reads the premise index only to follow a premise: not if no rule is ready or no
judgment loses its rules. ``gen`` without corules runs no ``_greatest``: its
bound is ``ind``, which is consistent. Membership and proofs read the rule
``_least`` records as firing first for each judgment; a consistency witness
is the index of the first declared rule supported inside the checked set.

An interpretation is a ``JudgmentSet``: the frozenset of ids the engine
computes plus the universe size, so membership is O(1) and iteration is
ascending.

Every command loads this module, so it also holds the package's value base, ``Value``, the
checks its subclasses share (``_index``, ``_typed``, ``_tuple``), and the errors a command
may meet: ``ParseError``, ``_UsageError``, ``InternalError`` and ``StructuralError``.

All values are immutable and every operation is a pure function, so everything here can be
shared across threads: two that read a system's pass first may both compute it (its cache
takes no lock), with equal results. The names of ``principles``, once here, are still read
here, by old callers and by reports pickled before they moved.
"""

import operator
from collections import deque
from collections.abc import Iterable, Iterator
from functools import cached_property
from itertools import accumulate, compress, islice, repeat
from typing import Optional

from . import _EXPORTS, _forward


class InternalError(Exception):
    """A violated engine invariant. Not a user error."""


class StructuralError(Exception):
    """A proof does not even have the right shape to be checked.

    ``prooftree`` raises it and re-exports it; it is defined here, beside
    InternalError, so that every command can catch it without loading
    ``prooftree``."""


# Sets a field from ``__init__``, past the ``__setattr__`` that refuses it.
_set = object.__setattr__


def _index(value, what: str, size: Optional[int] = None) -> int:
    """``value`` coerced with ``operator.index``, so ``True`` is ``1``: a
    natural number, below ``size`` if given. Else TypeError (not an integer)
    or ValueError, naming it as ``what``."""
    try:
        value = operator.index(value)
    except TypeError:
        raise TypeError(f"{what} {value!r} is not an integer") from None
    if size is None and value < 0:
        raise ValueError(f"{what} must be a natural number")
    if size is not None and not 0 <= value < size:
        raise ValueError(f"{what} {value} out of range")
    return value


def _typed(value, types: tuple[type, ...], what: str):
    """``value``, an instance of one of ``types``; else TypeError naming it as ``what``."""
    if not isinstance(value, types):
        wanted = " or ".join(t.__name__ for t in types)
        raise TypeError(f"{what} must be {'an' if wanted[0] in 'AEIOU' else 'a'} {wanted}, "
                        f"not {type(value).__name__}")
    return value


def _tuple(values, what: str, into=tuple):
    """``into(values)``, by default a tuple; a ``values`` that is not iterable raises
    TypeError naming it as ``what``, checked only once ``into`` has failed."""
    try:
        return into(values)
    except TypeError:
        _typed(values, (Iterable,), what)
        raise


class ParseError(Exception):
    """A diagnosable problem in an input text."""

    def __init__(self, message: str, line: Optional[int] = None,
                 column: Optional[int] = None, code: str = "parse-error"):
        super().__init__(message)
        self.message = message
        self.line = line
        self.column = column
        self.code = code

    def __str__(self) -> str:
        if self.line is None:
            return self.message
        return f"line {self.line}, column {self.column}: {self.message}"


class _UsageError(Exception):
    pass


class Value:
    """An immutable record whose fields are ``__match_args__``, in order.

    A subclass declares its fields in ``__slots__`` (after them, any slot for
    a cached value) and sets them in ``__init__`` with ``_set``. ``_valid`` fills
    the slots, not the fields, with values its caller has checked. As for a
    frozen dataclass: ``==`` holds between two values of the same class with
    equal fields and is ``NotImplemented`` otherwise, so no value equals a
    tuple; ``hash`` is the hash of the field tuple; ``repr`` is
    ``Name(field=value, ...)``; assigning or deleting an attribute raises
    AttributeError; and a copy or a pickle is rebuilt from the fields.
    """

    __slots__ = ()
    __match_args__: tuple[str, ...] = ()

    def __init_subclass__(cls):  # the setters of its slots but __dict__, bound for _valid
        cls._setters = tuple(getattr(cls, s).__set__ for s in cls.__slots__ if s != "__dict__")

    @classmethod
    def _valid(cls, *slots):
        """The value of ``cls`` with ``slots`` in its ``__slots__`` but ``__dict__``, unchecked."""
        value = object.__new__(cls)
        for setter, slot in zip(cls._setters, slots):
            setter(value, slot)
        return value

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__match_args__])

    def __eq__(self, other: object):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value: object):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._fields()


class _cached(cached_property):
    """A ``cached_property`` without the lock Python 3.11's takes; on the class, itself."""

    def __get__(self, system, owner=None):
        if system is None:
            return self
        system.__dict__[self.attrname] = value = self.func(system)
        return value


class Rule(Value):
    """An inference rule: if all premises hold, the conclusion holds.

    Premises form a set (order and multiplicity never matter). A rule with
    no premises is an axiom.
    """

    __slots__ = __match_args__ = ("premises", "conclusion")

    def __init__(self, premises: Iterable[int], conclusion: int):
        _set(self, "premises", _tuple(premises, "premises", frozenset))
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

    ``members`` may be given as any iterable of ids. The size and each id are coerced
    with ``operator.index`` (so ``True`` is stored as ``1``); a size that is not a
    natural number raises TypeError or ValueError naming the ``universe size``; an id
    must lie in ``0..size-1``; a TypeError names ``members`` (unless an iterator yielded
    the id that is not an integer). Membership is O(1), and iteration and the repr are
    ascending. Two sets are equal iff they have the same universe size and the same
    members. ``|``, ``&``, ``-`` and ``<=`` take a set over the same universe.
    """

    __slots__ = __match_args__ = ("size", "members")

    def __init__(self, size: int, members: Iterable[int] = frozenset()):
        size = _index(size, "universe size")
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

    Rule and corule order is irrelevant to every interpretation; it only breaks ties when
    reporting witnesses. Duplicate rules are permitted and semantically inert. ``labels``,
    when given, are strings, one per judgment. The universe size and every id are coerced
    with ``operator.index``, so ``True`` is stored as ``1``; a size that is not a natural
    number, read after the rules, raises TypeError or ValueError naming it.

    ``_valid(n, heads, starts, body, plain, labels)`` is the system, unchecked, whose
    ``i``-th rule (a corule from ``plain`` on) concludes ``heads[i]`` from
    ``body[starts[i]:starts[i + 1]]``: ids must be ints in ``range(n)``, each premise run
    ascending without repeats, ``starts`` one longer than ``heads`` from 0 to ``len(body)``,
    and labels ``n`` distinct strings, None or a function that returns them on first read.
    """

    __match_args__ = ("universe_size", "rules", "corules", "labels")
    # __dict__: labels, rules, corules, _users and the passes _ind, _bound and _gen, each
    # made when first needed
    __slots__ = ("universe_size", "_heads", "_starts", "_body", "_plain", "_labels", "__dict__")

    def __init__(self, universe_size: int, rules: Iterable[Rule], corules: Iterable[Rule] = (),
                 labels: Optional[Iterable[str]] = None):
        rules = _tuple(rules, "rules")
        every, n = rules + _tuple(corules, "corules"), _index(universe_size, "universe size")
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
        for name, value in zip(self.__slots__, (n, heads, starts, body, len(rules), labels)):
            _set(self, name, value)

    @_cached
    def labels(self) -> Optional[tuple[str, ...]]:
        return self._labels() if callable(self._labels) else self._labels

    def _premises(self, i: int) -> list[int]:
        return self._body[self._starts[i]:self._starts[i + 1]]

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

    @_cached
    def rules(self) -> tuple[Rule, ...]:
        return self._rules(0, self._plain)

    @_cached
    def corules(self) -> tuple[Rule, ...]:
        return self._rules(self._plain, len(self._heads))

    @_cached
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

    @_cached
    def _ind(self) -> list[Optional[int]]:
        """The firing rules of the rules' inductive pass (see ``_least``): read only."""
        return _least(self, False)[0]

    @_cached
    def _bound(self) -> tuple[list[Optional[int]], Optional[list[int]]]:
        """``(firing, waiting)`` of the corule pass, whose firing list is the bound; without
        corules that pass is the rules' pass: ``(_ind, None)``. Read only."""
        return _least(self, True) if self._plain < len(self._heads) else (self._ind, None)

    @_cached
    def _gen(self) -> tuple[frozenset[int], Optional[bytearray]]:
        """``(gen, kept)``: the greatest fixed point of the rules inside the bound, and the
        rules its greatest pass keeps to the end, the witnesses of gen (see ``_greatest``).
        Without corules the bound is ind, which is consistent, so it is gen, and ``kept`` is
        None. Else the pass starts from the plain rules the corule pass left at count 0."""
        firing, waiting = self._bound
        bound = frozenset(compress(range(len(firing)), map(operator.is_not, firing, repeat(None))))
        if waiting is None:
            return bound, None
        kept = bytearray(map(operator.not_, waiting))
        kept[self._plain:] = bytes(len(self._heads) - self._plain)  # no corule is kept
        return frozenset(_greatest(self, kept, bound)), kept

    def _id(self, j: int) -> int:
        """``j`` coerced with ``operator.index``, after checking that it names a judgment."""
        return _index(j, "judgment id", self.universe_size)

    def label_of(self, j: int) -> str:
        j = self._id(j)
        return self.labels[j] if self.labels else f"j{j}"

    def rule_at(self, i: int) -> Rule:
        """The rule of index ``i``, counting the rules and then the corules, as reports
        and proofs do. ``i`` is coerced with ``operator.index`` and must be in range."""
        return self._rules(i := _index(i, "rule index", len(self._heads)), i + 1)[0]

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


def _least(system: InferenceSystem, use_corules: bool) -> tuple[list[Optional[int]], list[int]]:
    """``(firing, waiting)``: per judgment of the least fixed point of the rules (and
    corules, if used), the first declared rule that fires at its Kleene round, else None;
    per rule and corule, its final count of premises not derived (below 0 for an unused
    corule). The index is read only if some rule is ready. Read through ``_ind``, ``_bound``."""
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
    return firing, waiting


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
    _typed(system, (InferenceSystem,), "system")
    firing = system._bound[0] if use_corules else system._ind
    return JudgmentSet._valid(len(firing),
                              frozenset([j for j, i in enumerate(firing) if i is not None]))


def coind_interpretation(system: InferenceSystem) -> JudgmentSet:
    """The greatest fixed point: judgments with an arbitrary proof tree.

    Corules never participate here; they only matter to
    ``gen_interpretation``.
    """
    n = _typed(system, (InferenceSystem,), "system").universe_size
    return JudgmentSet._valid(n, frozenset(_greatest(system)))


def gen_interpretation(system: InferenceSystem) -> JudgmentSet:
    """The corule-generated interpretation.

    First the inductive interpretation with corules admitted is computed;
    then the greatest fixed point of the rules below it, which is the
    coinductive interpretation of the system restricted to those
    conclusions. The result is a fixed point of the restricted step,
    in general neither its least nor its greatest.
    """
    n = _typed(system, (InferenceSystem,), "system").universe_size
    return JudgmentSet._valid(n, system._gen[0])


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


__getattr__ = _forward(globals(), dict.fromkeys(_EXPORTS["principles"], "principles"))
