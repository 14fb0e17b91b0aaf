"""Text formats and command-line entry points.

System files (``.inf``) are line oriented; ``#`` starts a comment:

    judgments: a b c        # exactly once, first directive
    rule: c <- a b          # conclusion <- premises; an axiom has none
    corule: a <-
    spec: a c               # optional, at most once

Judgment names are arbitrary non-whitespace tokens (except the reserved
``<-``), mapped to dense ids in declaration order. Comments are cut only
from a text that has a ``#``; then each line is split on whitespace. The
header's names are mapped in one pass. A rule or corule line goes by its
token count: three tokens are an axiom, four store their one premise as it
is, and only five or more are sorted and rid of repeats. The lookups of a
line may meet its faults in any order, so a faulty line (or header) is read
again, left to right, for its first fault; only a ParseError works out the
column of the token it blames.

Each command loads only the modules it runs: importing this module loads
``inference`` only, all that ``ind``, ``coind`` and ``gen`` use, and ``check``
adds ``principles``, ``prove`` ``prooftree`` and ``pred`` ``colist`` (its literals) and
``predicates`` (the command). ``run`` reads a plain, well-formed command line itself (see
``_direct``); only ``--help`` and the lines that reader declines load argparse. The colist
readers and writer, once here, are still read here.

Exit codes: 0 success (for ``pred``: all routes agree on true), 1 a
well-formed negative outcome (failed check, underivable judgment, agreed
false verdict), 2 route disagreement in ``pred`` (an engine bug signal),
64 unparsable input, 70 violated internal invariant. A closed stdout
(``| head -1``) is no error: the command's own exit code stands.
"""

import os
import re
import sys
from pathlib import Path
from types import SimpleNamespace
from typing import Optional, Sequence

from . import _forward
from .inference import (InferenceSystem, InternalError, JudgmentSet, ParseError,
                        StructuralError, Value, _UsageError, _members, _set, _typed, interpret)

ARROW = "<-"
# The values of ``predicates.Kind``, in its order, so that building the
# argument parser does not load ``predicates``.
KINDS = ["member", "allpos", "eventually", "always", "infoften", "max"]


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


def _header_error(names: list[str], line: int, body: str) -> ParseError:
    """The first fault, left to right, of the faulty header declaring ``names``: a
    reserved or a repeated name."""
    seen: set[str] = set()
    for k, name in enumerate(names, 1):
        if name == ARROW:
            return _error(f"{ARROW} is not a valid judgment name", "reserved-name", line,
                          body, k)
        if name in seen:
            return _error(f"duplicate judgment name {name!r}", "duplicate-name", line, body, k)
        seen.add(name)


def parse_system(text: str) -> SystemFile:
    names: list[str] = []
    ids: dict[str, int] = {}
    # per directive, the rule arrays of its lines: conclusions, premise offsets, premises
    arrays: dict[str, tuple[list[int], list[int], list[int]]] = {
        "rule:": ([], [0], []), "corule:": ([], [0], [])}
    spec_ids: Optional[frozenset[int]] = None
    bodies = _typed(text, (str,), "text").splitlines()
    if "#" in text:
        bodies = [raw.partition("#")[0] for raw in bodies]
    for line, words in enumerate(map(str.split, bodies), 1):
        if not words:
            continue
        directive = words[0]
        target = arrays.get(directive)
        if target is not None and names:
            heads, starts, premises = target
            size = len(words)
            try:  # whichever lookup meets a fault first, _rule_error finds the first one
                conclusion = ids[words[1]]
                if size == 4:
                    premises.append(ids[words[3]])
                elif size > 4:  # each premise once, ascending
                    premises += sorted(set(map(ids.__getitem__, words[3:])))
                arrow = words[2] == ARROW
            except (IndexError, KeyError):
                arrow = False
            if not arrow:
                raise _rule_error(ids, words, line, bodies[line - 1])
            heads.append(conclusion)
            starts.append(len(premises))
            continue
        body = bodies[line - 1]  # a header, a spec or a fault: the column of an error
        if directive == "judgments:":
            if names:
                raise _error("duplicate judgments: header", "duplicate-header", line, body, 0)
            if len(words) == 1:
                raise _error("judgments: needs at least one name", "empty-judgments",
                             line, body, 0)
            names = words[1:]
            ids = dict(zip(names, range(len(names))))
            if len(ids) < len(names) or ARROW in ids:
                raise _header_error(names, line, body)
        elif not names:
            raise _error("judgments: header must be the first directive", "missing-header",
                         line, body, 0)
        elif directive == "spec:":
            if spec_ids is not None:
                raise _error("duplicate spec: line", "duplicate-spec", line, body, 0)
            try:
                spec_ids = frozenset([ids[name] for name in words[1:]])
            except KeyError:
                raise _unknown(ids, words, 1, line, body) from None
        else:
            raise _error(f"unknown directive {directive!r}", "unknown-directive", line, body, 0)
    if not names:
        raise ParseError("missing judgments: header", 1, 1, "missing-header")
    (heads, starts, premises), (coheads, costarts, copremises) = arrays.values()
    starts += map(len(premises).__add__, costarts[1:])
    system = InferenceSystem._valid(len(names), heads + coheads, starts,
                                    premises + copremises, len(heads), tuple(names))
    spec = JudgmentSet._valid(len(names), spec_ids) if spec_ids is not None else None
    return SystemFile._valid(system, spec)


def render_system(sf: SystemFile) -> str:
    """Canonical text for a parsed system; reparsing yields an equal SystemFile."""
    system, names = _typed(sf, (SystemFile,), "sf").system, sf.names
    lines = ["judgments: " + " ".join(names)]
    for i, c in enumerate(system._heads):  # the rules, then the corules
        premises = map(names.__getitem__, system._premises(i))
        lines.append(" ".join(["rule:" if i < system._plain else "corule:", names[c], ARROW,
                               *premises]))
    if sf.spec is not None:
        lines.append(" ".join(["spec:"] + [names[j] for j in sf.spec]).rstrip())
    return "\n".join(lines) + "\n"


def _build_parser():
    import argparse  # here, not at the top: only what ``_direct`` declines needs it

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
    if not path:  # Path("") is the working directory, which the user never named
        raise _UsageError("the system file path is empty")
    # utf-8-sig: a leading byte-order mark is read as no part of the header
    return parse_system(Path(path).read_text(encoding="utf-8-sig"))


# Each command returns its exit code and the lines it prints; ``run`` prints them.

def _cmd_interpret(ns) -> tuple[int, list[str]]:
    sf = _load(ns.file)
    names = sf.names
    return 0, [names[j] for j in interpret(ns.command, sf.system)]


def _cmd_check(ns) -> tuple[int, list[str]]:
    from .principles import BOUNDEDNESS, CONSISTENCY, bounded_coinduction_check

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


def _cmd_pred(ns) -> tuple[int, list[str]]:
    from .predicates import _command

    return _command(ns)


__getattr__ = _forward(globals(), dict.fromkeys(("parse_colist", "format_colist",
                                                 "parse_candidates"), "colist"))


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


# The attribute of each ``pred`` option, as ``_build_parser`` declares it.
_PRED_OPTIONS = {"--list": "colist", "--p": "pred", "--x": "x", "--candidates": "candidates"}


def _direct(args: list[str]) -> Optional[SimpleNamespace]:
    """The namespace ``_build_parser().parse_args(args)`` returns, for a plain,
    well-formed ``args``: ``ind``, ``coind``, ``gen`` or ``check FILE``; ``prove FILE J``,
    ``--rational`` last if given; ``pred KIND`` followed by ``--list`` and any of ``--p``,
    ``--x`` and ``--candidates``, each once and as its own token followed by its value.
    No other token may start with ``-``. None for any other ``args``: argparse reads them."""
    command, *rest = args or [""]
    if command in ("ind", "coind", "gen", "check") and len(rest) == 1:
        values = rest
        ns = {"file": rest[0], "handler": _cmd_check if command == "check" else _cmd_interpret}
    elif command == "prove" and len(rest) == 2 + (rest[-1:] == ["--rational"]):
        values = rest[:2]
        ns = {"file": rest[0], "judgment": rest[1], "rational": len(rest) == 3,
              "handler": _cmd_prove}
    elif command == "pred" and rest[:1] and rest[0] in KINDS and len(rest) % 2:
        options, values = rest[1::2], rest[2::2]
        if "--list" not in options or len(_PRED_OPTIONS.keys() & set(options)) < len(options):
            return None  # an option repeated or not declared
        ns = dict.fromkeys(_PRED_OPTIONS.values())
        ns.update(zip(map(_PRED_OPTIONS.get, options), values), kind=rest[0],
                  handler=_cmd_pred)
    else:
        return None
    if any(value.startswith("-") for value in values):
        return None
    return SimpleNamespace(command=command, **ns)


def run(argv: Optional[Sequence[str]] = None) -> int:
    args = list(argv) if argv is not None else sys.argv[1:]
    for arg in args:
        _typed(arg, (str,), "an argument in argv")
    try:
        ns = _direct(args) or _build_parser().parse_args(args)
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
