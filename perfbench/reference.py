"""Engine-independent references for the benchmark's answers.

Nothing here calls the interpretations, principle checks or proof code
under test. Small systems are judged by the 2^n enumeration oracles of
``tests/util.py``; predicate systems by ``decide_direct`` applied to every
suffix of the colist; chains and ladders by closed forms. Rendered proofs
are read back line by line and validated rule by rule against the rules
the benchmark itself declared.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional, Sequence

import util  # tests/util.py, imported unedited
from corules.colist import Finite, suffix
from corules.inference import InferenceSystem, Rule
from corules.predicates import Kind, decide_direct

ARROW = "<-"


def system_size(rules: Iterable[Rule]) -> int:
    """Rules plus premise occurrences."""
    return sum(1 + len(r.premises) for r in rules)


def inf_text(names: Sequence[str], rules: Sequence[Rule], corules: Sequence[Rule] = (),
             spec: Optional[Iterable[int]] = None) -> str:
    """The ``.inf`` text declaring exactly these judgments, rules and spec."""
    lines = ["judgments: " + " ".join(names)]
    for keyword, group in (("rule:", rules), ("corule:", corules)):
        for r in group:
            lines.append(" ".join([keyword, names[r.conclusion], ARROW,
                                   *(names[p] for p in sorted(r.premises))]))
    if spec is not None:
        lines.append(" ".join(["spec:", *(names[j] for j in sorted(spec))]))
    return "\n".join(lines) + "\n"


def read_inf(text: str):
    """(names, rules, corules, spec) of a well-formed ``.inf`` text."""
    names: list[str] = []
    groups: dict[str, list[Rule]] = {"rule:": [], "corule:": []}
    spec = None
    for raw in text.splitlines():
        tokens = raw.split("#", 1)[0].split()
        if not tokens:
            continue
        head, rest = tokens[0], tokens[1:]
        if head == "judgments:":
            names = rest
        elif head == "spec:":
            spec = frozenset(names.index(n) for n in rest)
        else:
            groups[head].append(Rule(frozenset(names.index(n) for n in rest[2:]),
                                     names.index(rest[0])))
    return names, tuple(groups["rule:"]), tuple(groups["corule:"]), spec


def colist_literal(xs) -> str:
    """The canonical literal of a colist, as ``corules pred`` echoes it."""
    if isinstance(xs, Finite):
        return " ".join(map(str, xs.elements))
    loop = "| " + " ".join(map(str, xs.loop))
    return " ".join(map(str, xs.prefix)) + " " + loop if xs.prefix else loop


def state_count(xs) -> int:
    if isinstance(xs, Finite):
        return len(xs.elements) + 1
    return len(xs.prefix) + len(xs.loop)


def elements(xs) -> tuple[int, ...]:
    return xs.elements if isinstance(xs, Finite) else xs.prefix + xs.loop


def head_and_next(xs, s: int) -> tuple[Optional[int], Optional[int]]:
    """Head element and successor state of suffix state ``s``."""
    n = state_count(xs)
    if isinstance(xs, Finite):
        return (None, None) if s == n - 1 else (xs.elements[s], s + 1)
    return elements(xs)[s], (s + 1 if s + 1 < n else len(xs.prefix))


class SmallSystem:
    """Oracle answers for a system small enough to enumerate every subset."""

    def __init__(self, system: InferenceSystem):
        self.ind = frozenset(util.ind_oracle(system))
        self.bound = frozenset(util.ind_oracle(system, use_corules=True))
        self.coind = frozenset(util.coind_oracle(system))
        self.gen = frozenset(util.gen_oracle(system))


def unclosed(rules: Sequence[Rule], s: frozenset) -> list[int]:
    """Conclusions missing from ``s`` of rules applicable in ``s``, sorted."""
    return sorted(r.conclusion for r in rules if r.premises <= s and r.conclusion not in s)


def unsupported(rules: Sequence[Rule], s: frozenset) -> list[int]:
    """Members of ``s`` that no rule concludes from premises inside ``s``."""
    return sorted(j for j in s
                  if not any(r.conclusion == j and r.premises <= s for r in rules))


def check_outcome(rules: Sequence[Rule], bound: frozenset, spec: frozenset):
    """(boundedness failures, consistency failures) of bounded coinduction."""
    return sorted(spec - bound), unsupported(rules, spec)


def check_stdout(names: Sequence[str], rules: Sequence[Rule], bound: frozenset,
                 spec: frozenset) -> tuple[str, int]:
    """Expected stdout and exit code of ``corules check``."""
    unbounded, inconsistent = check_outcome(rules, bound, spec)
    lines = []
    for title, failures in (("boundedness", unbounded), ("consistency", inconsistent)):
        lines.append(f"{title}: {'FAIL' if failures else 'PASS'}")
        lines.extend(f"  counterexample: {names[j]}" for j in failures)
    ok = not unbounded and not inconsistent
    lines.append(f"spec-in-gen: {'PASS' if ok else 'SKIPPED'}")
    return "\n".join(lines) + "\n", 0 if ok else 1


def listing(names: Sequence[str], members: Iterable[int]) -> str:
    """Expected stdout of ``corules ind|coind|gen``."""
    return "".join(names[j] + "\n" for j in sorted(members))


# -- predicate systems: decide_direct on every suffix ----------------------

INTERPRETATION = {Kind.MEMBER_OF: "ind", Kind.EVENTUALLY: "ind", Kind.ALL_POS: "coind",
                  Kind.ALWAYS: "coind", Kind.INFINITELY_OFTEN: "gen", Kind.MAX_ELEM: "gen"}


def max_candidates(xs, x: int) -> list[int]:
    """The candidates ``corules pred max`` uses by default."""
    return sorted(set(elements(xs)) | {x})


def suffix_maxima(xs) -> list[Optional[int]]:
    return [decide_direct(Kind.MAX_ELEM, suffix(xs, s)) for s in range(state_count(xs))]


def predicate_members(kind: Kind, xs, *, x=None, predicate=None,
                      candidates: Sequence[int] = ()) -> frozenset:
    """Ids of the judgments that hold, under the documented encoding."""
    n = state_count(xs)
    if kind is Kind.MAX_ELEM:
        return frozenset(candidates.index(m) * n + s
                         for s, m in enumerate(suffix_maxima(xs)) if m is not None)
    return frozenset(s for s in range(n)
                     if decide_direct(kind, suffix(xs, s), x=x, predicate=predicate))


def max_labels(xs, candidates: Sequence[int]) -> list[str]:
    n = state_count(xs)
    return [f"max({v},s{s})" for v in candidates for s in range(n)]


def max_rule_sound(xs, candidates: Sequence[int]) -> Callable[[Rule], bool]:
    """Whether a rule is one the max-element system may declare."""
    n = state_count(xs)

    def sound(r: Rule) -> bool:
        z, s = candidates[r.conclusion // n], r.conclusion % n
        head, nxt = head_and_next(xs, s)
        if not r.premises:
            return z == head and nxt is not None and head_and_next(xs, nxt)[0] is None
        (p,) = r.premises
        y = candidates[p // n]
        return p % n == nxt and z == max(head, y)

    return sound


def step_rule_sound(xs) -> Callable[[Rule], bool]:
    """Whether a rule of a state-only system steps from a suffix to its tail."""
    def sound(r: Rule) -> bool:
        return r.premises == {head_and_next(xs, r.conclusion)[1]}
    return sound


# -- chains and ladders: closed forms --------------------------------------

def chain_finite_text(names: Sequence[str], rule_of: Sequence[int], ids: Sequence[int]) -> str:
    """Finite proof of ``ids[0]`` down a chain whose premise of ``ids[i]`` is ``ids[i+1]``."""
    return "\n".join(f"{'  ' * depth}{names[j]}  [rule {rule_of[j]}]"
                     for depth, j in enumerate(ids))


def chain_rational_text(names: Sequence[str], rule_of: Sequence[int], ids: Sequence[int]) -> str:
    return "\n".join(f"{'  ' * depth}{depth}: {names[j]}  [rule {rule_of[j]}]"
                     for depth, j in enumerate(ids))


def ladder_texts(names: Sequence[str], rules: Sequence[Rule], root: int) -> tuple[str, str]:
    """Finite and rational renderings of the ladder proof of ``root``.

    Every judgment of a ladder has exactly one rule, so the proof is
    unique; children appear in ascending judgment id.
    """
    rule_of = {r.conclusion: i for i, r in enumerate(rules)}
    finite: list[str] = []

    def tree(j: int, depth: int) -> None:
        finite.append(f"{'  ' * depth}{names[j]}  [rule {rule_of[j]}]")
        for p in sorted(rules[rule_of[j]].premises):
            tree(p, depth + 1)

    rational: list[str] = []
    number: dict[int, int] = {}

    def graph(j: int, depth: int) -> None:
        pad = "  " * depth
        if j in number:
            rational.append(f"{pad}^{number[j]}")
            return
        number[j] = len(number)
        rational.append(f"{pad}{number[j]}: {names[j]}  [rule {rule_of[j]}]")
        for p in sorted(rules[rule_of[j]].premises):
            graph(p, depth + 1)

    tree(root, 0)
    graph(root, 0)
    return "\n".join(finite), "\n".join(rational)


# -- rendered proofs, read back and validated ------------------------------

def _indent(line: str) -> tuple[int, str]:
    body = line.lstrip(" ")
    return (len(line) - len(body)) // 2, body


def _label_and_tag(body: str) -> tuple[str, str, int]:
    label, sep, tag = body.rpartition("  [")
    kind, _, index = tag.rstrip("]").partition(" ")
    if not sep or kind not in ("rule", "corule"):
        raise ValueError(body)
    return label, kind, int(index)


def finite_proof_error(text: str, names: Sequence[str], rules: Sequence[Rule],
                       corules: Sequence[Rule], target: int) -> tuple[Optional[str], int]:
    """(why ``text`` is no rendered finite derivation of ``target`` or None, depth)."""
    ids = {n: i for i, n in enumerate(names)}
    path: list[list] = []
    depth_seen = 0
    errors: list[str] = []

    def close(node) -> None:
        j, r, kids = node
        if r.conclusion != j or sorted(kids) != sorted(r.premises):
            errors.append(f"{names[j]} is not concluded by its rule from its children")

    try:
        for n, line in enumerate(text.split("\n")):
            depth, body = _indent(line)
            label, kind, index = _label_and_tag(body)
            if depth > len(path) or (depth == 0 and n > 0):
                return f"bad nesting at line {n + 1}", 0
            while len(path) > depth:
                close(path.pop())
            j = ids[label]
            if depth:
                path[-1][2].append(j)
            elif j != target:
                return f"proof of {label}, not {names[target]}", 0
            path.append([j, (rules if kind == "rule" else corules)[index], []])
            depth_seen = max(depth_seen, depth + 1)
    except (ValueError, KeyError, IndexError) as e:
        return f"unreadable proof line {e}", 0
    while path:
        close(path.pop())
    return (errors[0] if errors else None), depth_seen


def rational_proof_error(text: str, names: Sequence[str], rules: Sequence[Rule],
                         members: frozenset, target: int,
                         sound: Optional[Callable[[Rule], bool]] = None
                         ) -> tuple[Optional[str], bool, int]:
    """(why ``text`` is no rendered rational proof of ``target`` or None,
    whether it is acyclic, node count).

    Every node must be concluded by its plain rule from its children and
    lie in ``members`` (the generated interpretation); a ``^n`` reference to
    a node on the current path is a back-edge.
    """
    ids = {n: i for i, n in enumerate(names)}
    nodes: dict[int, tuple[int, Rule, list[int]]] = {}
    path: list[int] = []
    acyclic = True
    try:
        for n, line in enumerate(text.split("\n")):
            depth, body = _indent(line)
            if depth > len(path) or (depth == 0 and n > 0):
                return f"bad nesting at line {n + 1}", False, 0
            del path[depth:]
            if body.startswith("^"):
                ref = int(body[1:])
                acyclic &= ref not in path
                nodes[path[-1]][2].append(ref)
                continue
            number, _, rest = body.partition(": ")
            label, kind, index = _label_and_tag(rest)
            ni = int(number)
            if ni in nodes or kind != "rule":
                return f"bad node line {n + 1}", False, 0
            if depth:
                nodes[path[-1]][2].append(ni)
            nodes[ni] = (ids[label], rules[index], [])
            path.append(ni)
        if nodes[0][0] != target:
            return f"proof of {names[nodes[0][0]]}, not {names[target]}", False, 0
        for j, r, kids in nodes.values():
            if (r.conclusion != j or j not in members
                    or sorted(nodes[k][0] for k in kids) != sorted(r.premises)
                    or (sound is not None and not sound(r))):
                return f"{names[j]} is not justified", False, 0
    except (ValueError, KeyError, IndexError) as e:
        return f"unreadable proof line {e}", False, 0
    return None, acyclic, len(nodes)
