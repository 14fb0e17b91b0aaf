"""Derivation witnesses: finite proof trees and rational (cyclic) proof graphs.

A finite proof tree witnesses inductive membership. A rational proof tree is
a finite graph whose back-edges encode an infinite regular tree; it
witnesses membership in the generated interpretation when every node
matches a rule of the system and every node's judgment is inductively
derivable with corules admitted.

Rule indices in finite trees address the combined rule list (rules first,
then corules); rational trees may only reference plain rules. Malformed
trees (out-of-range indices, unreachable nodes) raise StructuralError from
the checkers and the renderers alike, which is distinct from a well-formed
but invalid derivation (checkers return False).

A finite proof shares equal subproofs, so it is a DAG. Both extractors share
one derivation walk and both checkers one rule-match test; extraction,
checking, equality and hashing take time linear in the sizes of the system
and of the proof, up to sorting each rule's premises. Rendering a finite
proof prints every occurrence of a shared subproof, so its text can be
exponentially long; it formats each distinct (node, depth) pair once and
copies the lines of later occurrences, so its cost beyond that is copying
the output.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence

from .inference import (InferenceSystem, InternalError, Rule, _bound, _first_support, _greatest,
                        _least)


class StructuralError(Exception):
    """The tree does not even have the right shape to be checked."""


@dataclass(frozen=True, eq=False)
class FiniteProofTree:
    """A finite derivation: a judgment, the rule deriving it, one subtree per premise.

    Equality and hashing are structural. Both walk iteratively and visit a
    subproof shared by several nodes once, so they finish on proofs of any
    depth and on DAGs whose unfolding is exponential.
    """

    judgment: int
    rule_index: int
    children: tuple["FiniteProofTree", ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "children", tuple(self.children))

    def _fold(self, combine: Callable[["FiniteProofTree", list], Any]) -> Any:
        """``combine(node, results of its children)`` for each distinct node,
        children first; the result at the root."""
        done: dict[int, Any] = {}
        stack = [self]
        while stack:
            node = stack[-1]
            if id(node) in done:
                stack.pop()
                continue
            pending = [c for c in node.children if id(c) not in done]
            if pending:
                stack.extend(pending)
            else:
                stack.pop()
                done[id(node)] = combine(node, [done[id(c)] for c in node.children])
        return done[id(self)]

    def depth(self) -> int:
        """Nodes on a longest root-to-leaf path; a shared subproof is measured once."""
        return self._fold(lambda node, below: 1 + max(below, default=0))

    def __hash__(self) -> int:
        return self._fold(lambda node, below: hash((node.judgment, node.rule_index, tuple(below))))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        compared: set[tuple[int, int]] = set()
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a is b or (id(a), id(b)) in compared:
                continue
            compared.add((id(a), id(b)))
            if (a.judgment != b.judgment or a.rule_index != b.rule_index
                    or len(a.children) != len(b.children)):
                return False
            stack.extend(zip(a.children, b.children))
        return True


@dataclass(frozen=True)
class RationalNode:
    """One node of a rational proof graph; children are node indices."""

    judgment: int
    rule_index: int
    children: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "children", tuple(self.children))


@dataclass(frozen=True)
class RationalProofTree:
    """A finite graph presentation of a possibly-infinite regular proof tree."""

    nodes: tuple[RationalNode, ...]
    root: int = 0

    def __post_init__(self):
        object.__setattr__(self, "nodes", tuple(self.nodes))


def _derives(rule: Rule, judgment: int, child_judgments: Sequence[int]) -> bool:
    """Whether ``rule`` concludes ``judgment`` from exactly one child per premise."""
    return (rule.conclusion == judgment and len(child_judgments) == len(rule.premises)
            and set(child_judgments) == rule.premises)


def _derivation(rules: Sequence[Rule], j: int,
                rule_for: Callable[[int], Optional[int]]) -> dict[int, int]:
    """Judgment -> index of the rule ``rule_for`` picks, for every judgment the
    derivation of ``j`` reaches, in pre-order with premises in ascending order."""
    chosen: dict[int, int] = {}
    stack = [j]
    while stack:
        k = stack.pop()
        if k not in chosen:
            index = chosen[k] = rule_for(k)
            if index is None:
                raise InternalError(f"judgment {k} is derivable but no rule derives it")
            stack.extend(sorted(rules[index].premises, reverse=True))
    return chosen


def check_finite(tree: FiniteProofTree, system: InferenceSystem,
                 allow_corules: bool = False) -> bool:
    """Validate a finite derivation against the system.

    True iff at every node the referenced rule concludes the node's judgment
    and the children are exactly one subtree per premise. A node that uses a
    corule is rejected unless ``allow_corules`` is set. A subproof shared by
    several nodes is checked once.
    """
    rules = system.all_rules(use_corules=True)
    seen: set[int] = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if not 0 <= node.rule_index < len(rules):
            raise StructuralError(f"rule index {node.rule_index} out of range "
                                  f"(system has {len(rules)} rules and corules)")
        if node.rule_index >= len(system.rules) and not allow_corules:
            return False
        if not _derives(rules[node.rule_index], node.judgment,
                        [c.judgment for c in node.children]):
            return False
        stack.extend(node.children)
    return True


def extract_finite_proof(system: InferenceSystem, j: int,
                         allow_corules: bool = False) -> Optional[FiniteProofTree]:
    """A finite derivation of ``j``, or None when ``j`` is not inductively derivable.

    Each judgment is derived by the first declared rule that fires at the
    Kleene round where the judgment first appeared, so premise rounds
    strictly decrease toward the leaves and the tree depth never exceeds the
    universe size.
    """
    if not 0 <= j < system.universe_size:
        raise ValueError(f"judgment id {j} out of range")
    rules = system.all_rules(allow_corules)
    rounds, firing = _least(system.universe_size, rules)
    if rounds[j] is None:
        return None
    chosen = _derivation(rules, j, firing.__getitem__)
    memo: dict[int, FiniteProofTree] = {}
    for k in sorted(chosen, key=rounds.__getitem__):
        premises = sorted(rules[chosen[k]].premises)
        memo[k] = FiniteProofTree(k, chosen[k], tuple(memo[p] for p in premises))
    return memo[j]


def _validate_rational(tree: RationalProofTree, system: InferenceSystem) -> None:
    n = len(tree.nodes)
    if n == 0:
        raise StructuralError("rational proof tree has no nodes")
    if not 0 <= tree.root < n:
        raise StructuralError(f"root index {tree.root} out of range")
    for node in tree.nodes:
        if not 0 <= node.rule_index < len(system.rules):
            raise StructuralError(f"rule index {node.rule_index} out of range "
                                  "(corules are not allowed in rational proofs)")
        if not 0 <= node.judgment < system.universe_size:
            raise StructuralError(f"judgment id {node.judgment} out of range")
        for c in node.children:
            if not 0 <= c < n:
                raise StructuralError(f"child index {c} out of range")
    seen = {tree.root}
    stack = [tree.root]
    while stack:
        for c in tree.nodes[stack.pop()].children:
            if c not in seen:
                seen.add(c)
                stack.append(c)
    if len(seen) != n:
        raise StructuralError("every node must be reachable from the root")


def check_rational_in_gen(tree: RationalProofTree, system: InferenceSystem) -> bool:
    """Validate a rational proof as a witness for the generated interpretation.

    True iff every node is derived by a rule of the system (corules
    forbidden) from exactly its premises, and every node's judgment is
    inductively derivable once corules are admitted. Acceptance implies the
    root lies in the generated interpretation.
    """
    _validate_rational(tree, system)
    bound = _bound(system)
    for node in tree.nodes:
        children = [tree.nodes[c].judgment for c in node.children]
        if (not _derives(system.rules[node.rule_index], node.judgment, children)
                or node.judgment not in bound):
            return False
    return True


def extract_rational_proof(system: InferenceSystem, j: int) -> Optional[RationalProofTree]:
    """A rational proof of ``j``, or None when ``j`` is outside the generated
    interpretation.

    Judgments are shared as graph nodes, so cycles arise exactly where the
    derivation is genuinely infinite. A judgment that is inductively
    derivable in the restricted system is derived by the rule firing at its
    first Kleene round (keeping that part of the graph acyclic); the rest
    use their consistency witness, the first declared applicable rule.
    """
    if not 0 <= j < system.universe_size:
        raise ValueError(f"judgment id {j} out of range")
    n = system.universe_size
    gen = _greatest(n, system.rules, _bound(system))
    if j not in gen:
        return None
    _, firing = _least(n, system.rules)
    sustaining = _first_support(system.rules, gen)
    chosen = _derivation(system.rules, j,
                         lambda k: sustaining.get(k) if firing[k] is None else firing[k])
    index = {k: ni for ni, k in enumerate(chosen)}
    nodes = (RationalNode(k, idx, tuple(index[p] for p in sorted(system.rules[idx].premises)))
             for k, idx in chosen.items())
    return RationalProofTree(tuple(nodes), root=0)


def is_acyclic(tree: RationalProofTree) -> bool:
    """Whether the proof graph has no cycle (i.e. denotes a finite tree)."""
    parents = [0] * len(tree.nodes)
    for node in tree.nodes:
        for c in node.children:
            parents[c] += 1
    ready = [i for i, count in enumerate(parents) if not count]
    removed = 0
    while ready:
        removed += 1
        for c in tree.nodes[ready.pop()].children:
            parents[c] -= 1
            if not parents[c]:
                ready.append(c)
    return removed == len(tree.nodes)


def _rule_name(system: InferenceSystem, index: int) -> str:
    if 0 <= index < len(system.rules):
        return f"rule {index}"
    if 0 <= index - len(system.rules) < len(system.corules):
        return f"corule {index - len(system.rules)}"
    raise StructuralError(f"rule index {index} out of range (system has "
                          f"{len(system.rules) + len(system.corules)} rules and corules)")


def format_finite(tree: FiniteProofTree, system: InferenceSystem) -> str:
    """Indented text rendering of a finite proof tree.

    A subproof shared by several nodes is printed at every occurrence, so the
    text can be exponentially longer than the proof. The same node at the
    same depth always prints the same lines, so each distinct (node, depth)
    pair is formatted once and later occurrences copy its lines: the cost is
    one format per distinct pair plus copying the output.
    """
    lines: list[str] = []
    printed: dict[tuple[int, int], tuple[int, int]] = {}  # (node id, depth) -> its lines
    unfinished: list[tuple[tuple[int, int], int]] = []  # (key, first line) of open subtrees
    stack: list[Optional[tuple[FiniteProofTree, int]]] = [(tree, 0)]
    while stack:
        item = stack.pop()
        if item is None:  # every line of the innermost unfinished subtree is out
            key, start = unfinished.pop()
            printed[key] = (start, len(lines))
            continue
        node, depth = item
        key = (id(node), depth)
        span = printed.get(key)
        if span is not None:
            lines.extend(lines[span[0]:span[1]])
            continue
        label = system.label_of(node.judgment)
        lines.append(f"{'  ' * depth}{label}  [{_rule_name(system, node.rule_index)}]")
        if node.children:
            unfinished.append((key, len(lines) - 1))
            stack.append(None)
            for c in reversed(node.children):
                stack.append((c, depth + 1))
    return "\n".join(lines)


def format_rational(tree: RationalProofTree, system: InferenceSystem) -> str:
    """Indented text rendering of a rational proof graph.

    Nodes are numbered at first occurrence; later occurrences print as a
    ``^n`` reference, which is how back-edges stay finite on the page.
    """
    lines: list[str] = []
    seen: set[int] = set()
    stack = [(tree.root, 0)]
    while stack:
        ni, depth = stack.pop()
        pad = "  " * depth
        if ni in seen:
            lines.append(f"{pad}^{ni}")
            continue
        seen.add(ni)
        node = tree.nodes[ni]
        if not 0 <= node.rule_index < len(system.rules):
            raise StructuralError(f"rule index {node.rule_index} out of range "
                                  "(corules are not allowed in rational proofs)")
        label = system.label_of(node.judgment)
        lines.append(f"{pad}{ni}: {label}  [rule {node.rule_index}]")
        stack.extend((c, depth + 1) for c in reversed(node.children))
    return "\n".join(lines)
