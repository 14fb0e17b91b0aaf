"""Text formats and command-line entry points.

System files (``.inf``) are line oriented; ``#`` starts a comment:

    judgments: a b c        # exactly once, first directive
    rule: c <- a b          # conclusion <- premises; an axiom has none
    corule: a <-
    spec: a c               # optional, at most once

Judgment names are arbitrary non-whitespace tokens (except the reserved
``<-``), mapped to dense ids in declaration order. A line is split on
whitespace; only a ParseError works out the column of the token it blames.

Each command loads only the modules it runs. Importing this module loads
``colist`` and ``inference``, all that ``ind``, ``coind``, ``gen`` and
``check`` use; ``prove`` imports ``prooftree`` and ``pred`` imports
``predicates``, each inside its command. Only ``run`` imports ``argparse``.

Colist literals are whitespace-separated naturals, with ``|`` introducing
the loop of a lasso: ``1 2`` is a finite list, ``1 2 | 3 4`` repeats
``3 4`` forever after ``1 2``, ``| 1`` is the constant stream, and the
empty string is the empty list.

Exit codes: 0 success (for ``pred``: all routes agree on true), 1 a
well-formed negative outcome (failed check, underivable judgment, agreed
false verdict), 2 route disagreement in ``pred`` (an engine bug signal),
64 unparsable input, 70 violated internal invariant. A closed stdout
(``| head -1``) is no error: the command's own exit code stands.
"""

from __future__ import annotations

import os
import re
import sys
from pathlib import Path
from typing import Optional, Sequence

from ._value import Value, _set, _typed
from .colist import Colist, Finite, Lasso, _naturals_or_none
from .inference import (BOUNDEDNESS, CONSISTENCY, InferenceSystem, InternalError, JudgmentSet,
                        StructuralError, _members, bounded_coinduction_check, interpret)

ARROW = "<-"
# The values of ``predicates.Kind``, in its order, so that building the
# argument parser does not load ``predicates``.
KINDS = ["member", "allpos", "eventually", "always", "infoften", "max"]


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


class SystemFile(Value):
    """A parsed system file: the system, whose labels are the judgment names in
    declaration order, and the optional specification set over its universe."""

    __slots__ = __match_args__ = ("system", "spec")

    def __init__(self, system: InferenceSystem, spec: Optional[JudgmentSet]):
        if _typed(system, (InferenceSystem,), "system")._labels is None:  # without reading them
            raise ValueError("a system file's system must label its judgments")
        if spec is not None:
            _members(spec, system.universe_size, "spec")
        _set(self, "system", system)
        _set(self, "spec", spec)

    @property
    def names(self) -> tuple[str, ...]:
        return self.system.labels

    def id_of(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise ParseError(f"unknown judgment name {name!r}", code="unknown-name") from None


def _error(message: str, code: str, line: int, body: str, k: int, shift: int = 0) -> ParseError:
    """The error at the ``k``-th token of ``body``, or ``shift`` columns past its start."""
    column = list(re.finditer(r"\S+", body))[k].start() + 1 + shift
    return ParseError(message, line, column, code)


def _unknown(ids: dict[str, int], words: list[str], first: int, line: int,
             body: str) -> ParseError:
    """The error at the first of ``words[first:]`` that names no judgment."""
    k = next(k for k in range(first, len(words)) if words[k] not in ids)
    if words[k] == ARROW:
        return _error(f"unexpected {ARROW}", "malformed-arrow", line, body, k)
    return _error(f"unknown judgment name {words[k]!r}", "unknown-name", line, body, k)


def _rule_error(ids: dict[str, int], words: list[str], line: int, body: str) -> ParseError:
    """The first fault, left to right, of the faulty rule or corule line ``words``."""
    if len(words) == 1:
        return _error(f"{words[0]} needs a conclusion and {ARROW}", "malformed-arrow",
                      line, body, 0)
    if words[1] not in ids:
        return _unknown(ids, words, 1, line, body)
    if len(words) == 2 or words[2] != ARROW:  # point at what stands there, or past
        at = (2, 0) if len(words) > 2 else (1, len(words[1]))
        return _error(f"expected {ARROW} after the conclusion", "malformed-arrow", line,
                      body, *at)
    return _unknown(ids, words, 3, line, body)


def parse_system(text: str) -> SystemFile:
    names: list[str] = []
    ids: dict[str, int] = {}
    # per directive, the rule arrays of its lines: conclusions, premise offsets, premises
    arrays: dict[str, tuple[list[int], list[int], list[int]]] = {
        "rule:": ([], [0], []), "corule:": ([], [0], [])}
    spec_ids: Optional[list[int]] = None
    for line, raw in enumerate(_typed(text, (str,), "text").splitlines(), 1):
        body = raw.partition("#")[0]
        words = body.split()
        if not words:
            continue
        directive = words[0]
        target = arrays.get(directive)
        if target is not None and names:
            heads, starts, premises = target
            try:
                conclusion = ids[words[1]]
                arrow = words[2] == ARROW
                premises += sorted(set(map(ids.__getitem__, words[3:])))  # once, ascending
            except (IndexError, KeyError):
                arrow = False
            if not arrow:
                raise _rule_error(ids, words, line, body)
            heads.append(conclusion)
            starts.append(len(premises))
        elif directive == "judgments:":
            if names:
                raise _error("duplicate judgments: header", "duplicate-header", line, body, 0)
            if len(words) == 1:
                raise _error("judgments: needs at least one name", "empty-judgments",
                             line, body, 0)
            for k, name in enumerate(words[1:], 1):
                if name == ARROW:
                    raise _error(f"{ARROW} is not a valid judgment name", "reserved-name",
                                 line, body, k)
                if name in ids:
                    raise _error(f"duplicate judgment name {name!r}", "duplicate-name",
                                 line, body, k)
                ids[name] = len(names)
                names.append(name)
        elif not names:
            raise _error("judgments: header must be the first directive", "missing-header",
                         line, body, 0)
        elif directive == "spec:":
            if spec_ids is not None:
                raise _error("duplicate spec: line", "duplicate-spec", line, body, 0)
            try:
                spec_ids = [ids[name] for name in words[1:]]
            except KeyError:
                raise _unknown(ids, words, 1, line, body) from None
        else:
            raise _error(f"unknown directive {directive!r}", "unknown-directive", line, body, 0)
    if not names:
        raise ParseError("missing judgments: header", 1, 1, "missing-header")
    (heads, starts, premises), (coheads, costarts, copremises) = arrays.values()
    starts += map(len(premises).__add__, costarts[1:])
    system = InferenceSystem._compiled(len(names), heads + coheads, starts,
                                       premises + copremises, len(heads), tuple(names))
    spec = JudgmentSet.of(len(names), spec_ids) if spec_ids is not None else None
    return SystemFile(system, spec)


def render_system(sf: SystemFile) -> str:
    """Canonical text for a parsed system; reparsing yields an equal SystemFile."""
    system, names = sf.system, sf.names
    lines = ["judgments: " + " ".join(names)]
    for i, c in enumerate(system._heads):  # the rules, then the corules
        premises = map(names.__getitem__, system._premises(i))
        lines.append(" ".join(["rule:" if i < system._plain else "corule:", names[c], ARROW,
                               *premises]))
    if sf.spec is not None:
        lines.append(" ".join(["spec:"] + [names[j] for j in sf.spec]).rstrip())
    return "\n".join(lines) + "\n"


def _natural(token: str) -> int:
    return _naturals((token,))[0]


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
        return Lasso(_naturals(pieces[:k]), loop)
    return Finite(_naturals(pieces))


def format_colist(xs: Colist) -> str:
    if isinstance(xs, Finite):
        return " ".join(map(str, xs.elements))
    prefix = " ".join(map(str, xs.prefix))
    loop = " ".join(map(str, xs.loop))
    return f"{prefix} | {loop}" if prefix else f"| {loop}"


class _UsageError(Exception):
    pass


def _build_parser():
    import argparse  # here, not at the top: only ``run`` parses arguments

    class _Parser(argparse.ArgumentParser):
        def error(self, message):
            raise _UsageError(message)

    parser = _Parser(prog="corules",
                     description="Interpret finite inference systems with corules "
                                 "and check proof-principle obligations.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, blurb in (("ind", "inductive"), ("coind", "coinductive"),
                        ("gen", "corule-generated")):
        p = sub.add_parser(name, help=f"print the {blurb} interpretation")
        p.add_argument("file", help="system file (.inf)")
        p.set_defaults(handler=_cmd_interpret)
    p = sub.add_parser("check", help="run the bounded coinduction check "
                                     "against the file's spec: line")
    p.add_argument("file", help="system file (.inf)")
    p.set_defaults(handler=_cmd_check)
    p = sub.add_parser("prove", help="extract a derivation of a judgment")
    p.add_argument("file", help="system file (.inf)")
    p.add_argument("judgment", help="judgment name")
    p.add_argument("--rational", action="store_true",
                   help="extract a rational (possibly cyclic) proof instead of "
                        "a finite one")
    p.set_defaults(handler=_cmd_prove)
    p = sub.add_parser("pred", help="evaluate a colist predicate three ways "
                                    "(engine, direct, oracle)")
    p.add_argument("kind", choices=KINDS)
    p.add_argument("--list", required=True, dest="colist", metavar="LITERAL",
                   help="colist literal, e.g. '1 2 | 3'")
    p.add_argument("--p", dest="pred", metavar="NAME",
                   help="element predicate: positive, even, odd, eq:<n>, gt:<n>")
    p.add_argument("--x", metavar="N",
                   help="element (member) or candidate maximum (max)")
    p.add_argument("--candidates", metavar="N,...",
                   help="candidate values for max (default: elements of the "
                        "colist plus --x)")
    p.set_defaults(handler=_cmd_pred)
    return parser


def _load(path: str) -> SystemFile:
    return parse_system(Path(path).read_text(encoding="utf-8"))


# Each command returns its exit code and the lines it prints; ``run`` prints them.

def _cmd_interpret(ns) -> tuple[int, list[str]]:
    sf = _load(ns.file)
    names = sf.names
    return 0, [names[j] for j in interpret(ns.command, sf.system)]


def _cmd_check(ns) -> tuple[int, list[str]]:
    sf = _load(ns.file)
    if sf.spec is None:
        raise ParseError("file has no spec: line to check", code="missing-spec")
    report = bounded_coinduction_check(sf.system, sf.spec)
    lines = []
    for tag, title in ((BOUNDEDNESS, "boundedness"), (CONSISTENCY, "consistency")):
        failures = report.failures_tagged(tag)
        lines.append(f"{title}: {'FAIL' if failures else 'PASS'}")
        lines.extend(f"  counterexample: {sf.names[f.judgment]}" for f in failures)
    lines.append(f"spec-in-gen: {'PASS' if report.ok else 'SKIPPED'}")
    return (0 if report.ok else 1), lines


def _cmd_prove(ns) -> tuple[int, list[str]]:
    from .prooftree import (extract_finite_proof, extract_rational_proof, format_finite,
                            format_rational)

    sf = _load(ns.file)
    j = sf.id_of(ns.judgment)
    if ns.rational:
        proof, render = extract_rational_proof(sf.system, j), format_rational
    else:
        proof, render = extract_finite_proof(sf.system, j, allow_corules=True), format_finite
    if proof is None:
        return 1, [f"{ns.judgment}: underivable"]
    return 0, [render(proof, sf.system)]


def _flag(ns, attr: str, flag: str, kind: str, needed: bool):
    value = getattr(ns, attr)
    if needed and value is None:
        raise _UsageError(f"pred {kind} requires {flag}")
    if not needed and value is not None:
        raise _UsageError(f"pred {kind} does not take {flag}")
    return value


def _cmd_pred(ns) -> tuple[int, list[str]]:
    from .predicates import FAMILIES, Kind, predicate_by_name, three_way

    kind = Kind(ns.kind)
    family = FAMILIES[kind]
    xs = parse_colist(ns.colist)
    name = _flag(ns, "pred", "--p", kind.value, family.needs_predicate)
    predicate = None if name is None else predicate_by_name(name)
    x = _flag(ns, "x", "--x", kind.value, family.needs_value)
    x = None if x is None else _natural(x)
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


def parse_candidates(text: str) -> list[int]:
    return [_natural(piece.strip()) for piece in _typed(text, (str,), "text").split(",")]


def _print(lines: list[str]) -> None:
    try:
        sys.stdout.write("".join(line + "\n" for line in lines))
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader is gone, which is no error of the command's. Send what is
        # still buffered to the null device, so the flush at exit has nothing
        # to report either.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def run(argv: Optional[Sequence[str]] = None) -> int:
    args = list(argv) if argv is not None else sys.argv[1:]
    try:
        ns = _build_parser().parse_args(args)
        code, lines = ns.handler(ns)
        _print(lines)
        return code
    except SystemExit as e:  # --help
        return e.code if isinstance(e.code, int) else 0
    except (_UsageError, ParseError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 64
    except (InternalError, StructuralError) as e:
        print(f"internal error: {e}", file=sys.stderr)
        return 70


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
