"""The ``pred`` command and the colist literals it reads and prints, which only ``pred``
loads; ``cli`` answers for ``parse_colist``, ``format_colist`` and ``parse_candidates``.

Colist literals are whitespace-separated naturals, with ``|`` introducing the loop of a
lasso: ``1 2`` is a finite list, ``1 2 | 3 4`` repeats ``3 4`` forever after ``1 2``,
``| 1`` is the constant stream, and the empty string is the empty list. ``parse_colist``
converts each part's tokens in one pass to exact non-negative ints and builds its
``Finite`` or ``Lasso`` unchecked, as ``parse_system`` builds its spec.
"""

from typing import Sequence

from ._value import ParseError, _UsageError, _typed
from .colist import Colist, Finite, Lasso, _naturals_or_none


def _naturals(tokens: Sequence[str]) -> tuple[int, ...]:
    """The natural numbers ``tokens`` write, converted in one pass; else the error
    naming the first token that writes none."""
    ns = _naturals_or_none(tokens)
    if ns is None:
        bad = next(t for t in tokens if _naturals_or_none((t,)) is None)
        raise ParseError(f"not a natural number: {bad!r}", code="bad-token")
    return ns


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


def _flag(ns, attr: str, flag: str, kind: str, needed: bool):
    value = getattr(ns, attr)
    if (value is None) == needed:
        raise _UsageError(f"pred {kind} {'requires' if needed else 'does not take'} {flag}")
    return value


def command(ns) -> tuple[int, list[str]]:
    """``corules pred``: its exit code and the lines it prints."""
    from .predicates import FAMILIES, Kind, predicate_by_name, three_way

    kind = Kind(ns.kind)
    family = FAMILIES[kind]
    xs = parse_colist(ns.colist)
    name = _flag(ns, "pred", "--p", kind.value, family.needs_predicate)
    predicate = None if name is None else predicate_by_name(name)
    x = _flag(ns, "x", "--x", kind.value, family.needs_value)
    x = None if x is None else _naturals((x,))[0]
    if ns.candidates is not None and not family.computes_value:
        raise _UsageError(f"pred {kind.value} does not take --candidates")
    candidates = None if ns.candidates is None else parse_candidates(ns.candidates)

    engine, direct, oracle = three_way(kind, xs, x=x, predicate=predicate,
                                       candidates=candidates)
    agree = engine == direct == oracle
    lines = [f"kind: {kind.value}", f"colist: {format_colist(xs)}"]
    lines.extend(f"{route}: {'true' if verdict else 'false'}" for route, verdict
                 in (("engine", engine), ("direct", direct), ("oracle", oracle)))
    lines.append(f"verdict: {'AGREE' if agree else 'DISAGREE'}")
    return (0 if engine else 1) if agree else 2, lines
