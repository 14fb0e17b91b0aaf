"""Possibly-infinite lists of naturals, represented exactly.

A colist is either a finite sequence or a lasso (a finite prefix followed
by a nonempty loop repeated forever). Lassos make every eventually periodic
stream finitely representable, so indexing, equality, and pointwise
relations are all decidable. Each colist induces a finite suffix automaton
whose states are its distinct suffix positions; the predicate engines in
:mod:`corules.predicates` build their judgment universes from these states.
"""

from __future__ import annotations

import operator
from typing import Callable, Iterable, Optional, Sequence, Union

from ._value import Value, _index, _set


def _check_naturals(values, requirement: str) -> tuple[int, ...]:
    """``values`` as a tuple; a value that is not a natural number (a bool is
    not) raises ValueError, which states ``requirement`` and names the value."""
    out = tuple(values)
    for v in out:
        if not isinstance(v, int) or isinstance(v, bool) or v < 0:
            raise ValueError(f"{requirement}, got {v!r}")
    return out


def _naturals_or_none(tokens: Sequence[str]) -> Optional[tuple[int, ...]]:
    """The natural numbers ``tokens`` write in decimal digits, else None."""
    # isdigit() rules out the signs, spaces and underscores int() takes; int()
    # still rejects some digits, such as '²', and numerals past its digit limit.
    if all(map(str.isdigit, tokens)):
        try:
            return tuple(map(int, tokens))
        except ValueError:
            pass
    return None


def _natural_or_none(token: str) -> Optional[int]:
    """The natural number ``token`` writes in decimal digits, else None."""
    n = _naturals_or_none((token,))
    return None if n is None else n[0]


class Finite(Value):
    """A finite list of naturals."""

    __slots__ = __match_args__ = ("elements",)

    def __init__(self, elements: Iterable[int]):
        _set(self, "elements", _check_naturals(elements, "elements must be natural numbers"))


class Lasso(Value):
    """The infinite list prefix + loop + loop + ... (loop is nonempty)."""

    __slots__ = __match_args__ = ("prefix", "loop")

    def __init__(self, prefix: Iterable[int], loop: Iterable[int]):
        _set(self, "prefix", _check_naturals(prefix, "prefix must be natural numbers"))
        _set(self, "loop", _check_naturals(loop, "loop must be natural numbers"))
        if not self.loop:
            raise ValueError("lasso loop must be nonempty")


Colist = Union[Finite, Lasso]


class SuffixAutomaton(Value):
    """The suffix states of a colist, as a deterministic successor chain.

    State ``s`` denotes the suffix starting at position ``s`` (positions in
    a lasso loop wrap back). ``heads[s]`` is the first element of that
    suffix, or None at the unique empty state of a finite colist.
    ``nexts[s]`` is the state of the tail, or None at the empty state.
    The initial state is 0 and every state is reachable from it.
    """

    __slots__ = __match_args__ = ("heads", "nexts")

    def __init__(self, heads: tuple[Optional[int], ...], nexts: tuple[Optional[int], ...]):
        _set(self, "heads", heads)
        _set(self, "nexts", nexts)

    @property
    def state_count(self) -> int:
        return len(self.heads)

    def states(self) -> range:
        return range(len(self.heads))


def get(xs: Colist, i: int) -> Optional[int]:
    """Element of ``xs`` at position ``i``, or None past the end."""
    i = _index(i, "index")
    if isinstance(xs, Finite):
        return xs.elements[i] if i < len(xs.elements) else None
    if i < len(xs.prefix):
        return xs.prefix[i]
    return xs.loop[(i - len(xs.prefix)) % len(xs.loop)]


def suffix(xs: Colist, i: int) -> Colist:
    """The colist starting at position ``i`` (the suffix denoted by state ``i``)."""
    i = _index(i, "index")
    if isinstance(xs, Finite):
        return Finite(xs.elements[i:])
    if i <= len(xs.prefix):
        return Lasso(xs.prefix[i:], xs.loop)
    k = (i - len(xs.prefix)) % len(xs.loop)
    return Lasso((), xs.loop[k:] + xs.loop[:k])


def suffix_automaton(xs: Colist) -> SuffixAutomaton:
    """Build the suffix automaton of ``xs``.

    A finite list of n elements yields n+1 states, the last one empty; a
    lasso with prefix u and loop v yields |u|+|v| states whose last state
    jumps back to state |u|.
    """
    if isinstance(xs, Finite):
        n = len(xs.elements)
        heads = tuple(xs.elements) + (None,)
        nexts = tuple(range(1, n + 1)) + (None,)
        return SuffixAutomaton(heads, nexts)
    u, v = len(xs.prefix), len(xs.loop)
    heads = xs.prefix + xs.loop
    nexts = tuple(i + 1 for i in range(u + v - 1)) + (u,)
    return SuffixAutomaton(heads, nexts)


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
