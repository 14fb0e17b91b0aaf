"""Possibly-infinite lists of naturals, represented exactly.

A colist is either a finite sequence or a lasso (a finite prefix followed
by a nonempty loop repeated forever). Lassos make every eventually periodic
stream finitely representable, so indexing and taking suffixes are exact.
Each colist induces a finite suffix automaton whose states are its distinct
suffix positions; the predicate engines in :mod:`corules.predicates` build
their judgment universes from these states.

A colist literal, as ``corules pred`` reads and prints it, is whitespace-separated naturals,
``|`` introducing a lasso's loop: ``1 2``, ``1 2 | 3 4`` (``3 4`` forever after ``1 2``),
``| 1`` (the constant stream) or the empty string (the empty list). ``parse_colist`` converts
each part's tokens to ints in one pass and builds its colist unchecked.
"""

from typing import Iterable, Optional, Sequence, Union

from .inference import ParseError, Value, _index, _set, _tuple, _typed


def _check_naturals(values, requirement: str) -> tuple[int, ...]:
    """``values`` as a tuple; a value that is not a natural number (a bool is
    not) raises ValueError, which states ``requirement`` and names the value."""
    out = tuple(values)
    for v in out:
        if not isinstance(v, int) or isinstance(v, bool) or v < 0:
            raise ValueError(f"{requirement}, got {v!r}")
    return out


def _naturals_of(values, what: str) -> tuple[int, ...]:
    """The argument ``what``, an iterable of natural numbers, as a tuple; else
    TypeError (not an iterable) or ValueError (a value that is not a natural)."""
    return _check_naturals(_tuple(values, what), f"{what} must be natural numbers")


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


def _naturals(tokens: Sequence[str]) -> tuple[int, ...]:
    """The natural numbers ``tokens`` write, converted in one pass; else the error
    naming the first token that writes none."""
    ns = _naturals_or_none(tokens)
    if ns is None:
        bad = next(t for t in tokens if _naturals_or_none((t,)) is None)
        raise ParseError(f"not a natural number: {bad!r}", code="bad-token")
    return ns


class Finite(Value):
    """A finite list of naturals."""

    __slots__ = __match_args__ = ("elements",)

    def __init__(self, elements: Iterable[int]):
        _set(self, "elements", _naturals_of(elements, "elements"))


class Lasso(Value):
    """The infinite list prefix + loop + loop + ... (loop is nonempty)."""

    __slots__ = __match_args__ = ("prefix", "loop")

    def __init__(self, prefix: Iterable[int], loop: Iterable[int]):
        _set(self, "prefix", _naturals_of(prefix, "prefix"))
        _set(self, "loop", _naturals_of(loop, "loop"))
        if not self.loop:
            raise ValueError("lasso loop must be nonempty")


Colist = Union[Finite, Lasso]


def parse_colist(text: str) -> Colist:
    pieces = _typed(text, (str,), "text").replace("|", " | ").split()
    separators = pieces.count("|")
    if separators > 1:
        raise ParseError("more than one loop separator '|'", code="extra-separator")

    if separators == 1:
        k = pieces.index("|")
        loop = _naturals(pieces[k + 1:])
        if not loop:
            raise ParseError("loop declared empty", code="empty-loop")
        return Lasso._valid(_naturals(pieces[:k]), loop)
    return Finite._valid(_naturals(pieces))


def format_colist(xs: Colist) -> str:
    if isinstance(_typed(xs, (Finite, Lasso), "xs"), Finite):
        return " ".join(map(str, xs.elements))
    return " ".join(map(str, (*xs.prefix, "|", *xs.loop)))


def parse_candidates(text: str) -> list[int]:
    return list(_naturals([piece.strip() for piece in _typed(text, (str,), "text").split(",")]))


class SuffixAutomaton(Value):
    """The suffix states of a colist, as a deterministic successor chain.

    State ``s`` denotes the suffix starting at position ``s`` (positions in
    a lasso loop wrap back). ``heads[s]`` is the first element of that
    suffix, or None at the unique empty state of a finite colist.
    ``nexts[s]`` is the state of the tail, or None at the empty state.
    The initial state is 0 and every state is reachable from it. The arguments are kept as
    given, once checked: of one length, naturals and state indices, None at the same states.
    """

    __slots__ = __match_args__ = ("heads", "nexts")

    def __init__(self, heads: Sequence[Optional[int]], nexts: Sequence[Optional[int]]):
        n = len(_typed(heads, (Sequence,), "heads"))
        if len(_typed(nexts, (Sequence,), "nexts")) != n:
            raise ValueError(f"nexts must be as long as heads ({n}), not {len(nexts)}")
        for head, state in zip(heads, nexts):
            if (head is None) != (state is None):
                raise ValueError("heads and nexts must be None at the same states")
            if head is not None:
                _check_naturals((head,), "heads must be natural numbers or None")
                if _check_naturals((state,), "nexts must be state indices or None")[0] >= n:
                    raise ValueError(f"nexts must be state indices below {n}, got {state!r}")
        _set(self, "heads", heads)
        _set(self, "nexts", nexts)

    @property
    def state_count(self) -> int:
        return len(self.heads)


def get(xs: Colist, i: int) -> Optional[int]:
    """Element of ``xs`` at position ``i``, or None past the end."""
    i = _index(i, "index")
    if isinstance(_typed(xs, (Finite, Lasso), "xs"), Finite):
        return xs.elements[i] if i < len(xs.elements) else None
    if i < len(xs.prefix):
        return xs.prefix[i]
    return xs.loop[(i - len(xs.prefix)) % len(xs.loop)]


def suffix(xs: Colist, i: int) -> Colist:
    """The colist starting at position ``i`` (the suffix denoted by state ``i``)."""
    i = _index(i, "index")
    if isinstance(_typed(xs, (Finite, Lasso), "xs"), Finite):
        return Finite(xs.elements[i:])
    if i <= len(xs.prefix):
        return Lasso(xs.prefix[i:], xs.loop)
    k = (i - len(xs.prefix)) % len(xs.loop)
    return Lasso((), xs.loop[k:] + xs.loop[:k])


def suffix_automaton(xs: Colist) -> SuffixAutomaton:
    """Build the suffix automaton of ``xs``.

    A finite list of n elements yields n+1 states, the last one empty; a
    lasso with prefix u and loop v yields |u|+|v| states whose last state
    jumps back to state |u|. An ``xs`` that is neither raises TypeError.
    """
    if isinstance(_typed(xs, (Finite, Lasso), "xs"), Finite):
        n = len(xs.elements)
        heads = tuple(xs.elements) + (None,)
        nexts = tuple(range(1, n + 1)) + (None,)
        return SuffixAutomaton._valid(heads, nexts)
    u, v = len(xs.prefix), len(xs.loop)
    heads = xs.prefix + xs.loop
    nexts = (*range(1, u + v), u)
    return SuffixAutomaton._valid(heads, nexts)
