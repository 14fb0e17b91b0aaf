"""Derivation witnesses: finite proof trees and rational (cyclic) proof graphs.

A finite proof tree witnesses inductive membership; its rule indices address
the rules, then the corules. A rational proof tree is a finite graph whose
back-edges encode an infinite regular tree; it witnesses membership in the
generated interpretation when every node matches a plain rule and every
node's judgment is inductively derivable with corules admitted.

Every operation but extraction reads one node table: entries ``(judgment,
rule index, child indices)``, the child indices a tuple, and a root index.
A rational proof is its table. A finite proof's table is built once per
root object, children before parents, with one entry per structurally
distinct subproof, so equal proofs have equal tables and depth, ``==``,
``hash`` and ``repr`` are linear.

One validator walks the table before every check, every render and
``is_acyclic``, which answers whether the walk met a back edge. It raises
StructuralError when a node is not such a triple, the root or a child index
is not the index of a node, a node is unreachable from the root or, given
the system, a judgment id is not in the universe or a rule index not among
the rules the proof may use. Building a finite proof's table raises it for
a child that is not a FiniteProofTree and for a node whose judgment or rule
index is not hashable. A well-formed but invalid derivation is different:
the checkers return False.

Extraction and checking take time linear in the sizes of the system and of
the proof, up to sorting each rule's premises. Both renderers share one
walk. A rational render prints a repeated node as ``^n``. A finite render
prints a shared subproof at every occurrence, so its text can be
exponentially long, but it formats each (node, depth) pair once and copies
those lines after that.
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property
from itertools import count
from typing import AbstractSet, Iterable, Optional

from ._value import Value, _set
from .inference import InferenceSystem, InternalError, StructuralError, _first_support, _greatest

Entry = tuple[int, int, tuple[int, ...]]  # judgment, rule index, child indices
Table = tuple[Entry, ...]


_BELOW = object()  # FiniteProofTree._graph's stack marker: unlike None, no child can be it


class FiniteProofTree(Value):
    """A finite derivation: a judgment, the rule deriving it, one subtree per premise.

    Equality and hashing are structural. ``repr`` reads
    ``FiniteProofTree(judgment=j, rule_index=r, children=(...))`` at every
    node, but a subproof printed before is written ``#k#``, after the ``#k=``
    that labels its first occurrence.
    """

    __match_args__ = ("judgment", "rule_index", "children")
    __slots__ = __match_args__ + ("__dict__",)  # __dict__: _graph

    def __init__(self, judgment: int, rule_index: int,
                 children: Iterable["FiniteProofTree"] = ()):
        _set(self, "judgment", judgment)
        _set(self, "rule_index", rule_index)
        _set(self, "children", tuple(children))

    @cached_property
    def _graph(self) -> tuple[Table, int]:
        """The node table, children before parents, and the root's index (the last)."""
        index_of: dict[Entry, int] = {}  # entry -> its index, in insertion order
        at: dict[int, int] = {}  # id(node) -> index of its entry
        stack: list = [self]
        while stack:
            node = stack.pop()
            if node is _BELOW:  # every child of the node below the marker has its entry
                node = stack.pop()
                entry = (node.judgment, node.rule_index, tuple([at[id(c)] for c in node.children]))
                try:
                    at[id(node)] = index_of.setdefault(entry, len(index_of))
                except TypeError:  # not the node's repr: that builds this table again
                    raise StructuralError(f"node with judgment {node.judgment!r} and rule index "
                                          f"{node.rule_index!r} is not hashable") from None
            elif id(node) not in at:
                if not isinstance(node, FiniteProofTree):
                    raise StructuralError(f"child {node!r} is not a FiniteProofTree")
                stack += (node, _BELOW)
                stack.extend(reversed(node.children))
        return tuple(index_of), len(index_of) - 1

    def depth(self) -> int:
        """Nodes on a longest root-to-leaf path."""
        below: list[int] = []
        for _, _, children in self._graph[0]:
            below.append(1 + max([below[c] for c in children], default=0))
        return below[-1]

    def __hash__(self) -> int:
        hashes: list[int] = []
        for judgment, rule_index, children in self._graph[0]:
            hashes.append(hash((judgment, rule_index, tuple([hashes[c] for c in children]))))
        return hashes[-1]

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or self._graph == other._graph

    def __repr__(self) -> str:
        table, root = self._graph
        shared = Counter(c for _, _, children in table for c in children)
        labels: dict[int, int] = {}
        out: list[str] = []
        stack: list[int | str] = [root]
        while stack:
            item = stack.pop()
            if isinstance(item, str):
                out.append(item)
            elif item in labels:
                out.append(f"#{labels[item]}#")
            else:
                if shared[item] > 1:
                    labels[item] = len(labels)
                    out.append(f"#{labels[item]}=")
                judgment, rule_index, children = table[item]
                out.append(f"{type(self).__qualname__}(judgment={judgment}, "
                           f"rule_index={rule_index}, children=(")
                closing = ",))" if len(children) == 1 else "))"
                stack += [closing, *[x for c in reversed(children) for x in (c, ", ")][:-1]]
        return "".join(out)


class RationalProofTree(Value):
    """A finite graph presentation of a possibly-infinite regular proof tree:
    ``nodes`` is its node table and ``root`` the index of its root node."""

    __slots__ = __match_args__ = ("nodes", "root")

    def __init__(self, nodes: Iterable[Entry], root: int = 0):
        _set(self, "nodes", tuple(nodes))
        _set(self, "root", root)


def _validated(tree: FiniteProofTree | RationalProofTree, system: Optional[InferenceSystem] = None,
               rational: bool = False) -> tuple[Table, int, bool]:
    """The node table and root of ``tree`` and whether the table has a cycle,
    after the structural checks the module docstring lists; ``rational``
    proofs may only use plain rules."""
    table, root = tree._graph if isinstance(tree, FiniteProofTree) else (tree.nodes, tree.root)
    n = len(table)
    if not (isinstance(root, int) and 0 <= root < n):
        raise StructuralError(f"root index {root!r} out of range" if n else "proof has no nodes")
    rules = (system._plain if rational else len(system._heads)) if system else 0
    marks = [0] * n  # 1 while a node is on the walk's path, 2 once all below it is walked
    cyclic = False
    stack = [root]
    while stack:
        i = stack.pop()
        if i < 0:  # the marker pushed below the children of ~i: all below ~i is walked
            marks[~i] = 2
        elif not marks[i]:
            node = table[i]
            if not (isinstance(node, tuple) and len(node) == 3 and isinstance(node[2], tuple)):
                raise StructuralError(f"node {i} is not a (judgment, rule index, children) triple"
                                      " with a tuple of children")
            judgment, rule_index, children = node
            if system is not None and not (isinstance(rule_index, int) and 0 <= rule_index < rules):
                raise StructuralError(f"rule index {rule_index!r} out of range " + (
                    "(corules are not allowed in rational proofs)" if rational
                    else f"(system has {rules} rules and corules)"))
            if system is not None and not (isinstance(judgment, int)
                                           and 0 <= judgment < system.universe_size):
                raise StructuralError(f"judgment id {judgment!r} out of range")
            marks[i] = 1
            stack.append(~i)
            for c in children:
                if not (isinstance(c, int) and 0 <= c < n):
                    raise StructuralError(f"child index {c!r} out of range")
                if marks[c] == 1:  # c is on the walk's path to i: a back edge
                    cyclic = True
                elif not marks[c]:
                    stack.append(c)
    if not all(marks):
        raise StructuralError("every node must be reachable from the root")
    return table, root, cyclic


def _matches(table: Table, system: InferenceSystem, use_corules: bool,
             admitted: Optional[AbstractSet[int]] = None) -> bool:
    """Whether at every entry the rule (or, if used, corule) of its index exists
    and concludes the entry's judgment from exactly one child per premise and,
    given ``admitted``, every judgment lies in it."""
    heads = system._heads
    rules = len(heads) if use_corules else system._plain
    for judgment, i, children in table:
        if (i >= rules or heads[i] != judgment
                or sorted([table[c][0] for c in children]) != system._premises(i)
                or admitted is not None and judgment not in admitted):
            return False
    return True


def _derivation(system: InferenceSystem, j: int, rule_for: list[Optional[int]]) -> dict[int, int]:
    """Judgment -> index of the rule ``rule_for`` picks, for every judgment the
    derivation of ``j`` reaches, in pre-order with premises in ascending order."""
    starts, body = system._starts, system._body
    chosen: dict[int, int] = {}
    stack = [j]
    while stack:
        k = stack.pop()
        if k not in chosen:
            i = chosen[k] = rule_for[k]
            if i is None:
                raise InternalError(f"judgment {k} is derivable but no rule derives it")
            stack += body[starts[i]:starts[i + 1]][::-1]
    return chosen


def check_finite(tree: FiniteProofTree, system: InferenceSystem,
                 allow_corules: bool = False) -> bool:
    """Validate a finite derivation against the system.

    True iff at every node the referenced rule concludes the node's judgment
    and the children are exactly one subtree per premise. A node that uses a
    corule is rejected unless ``allow_corules`` is set. A malformed tree
    raises StructuralError.
    """
    return _matches(_validated(tree, system)[0], system, allow_corules)


def extract_finite_proof(system: InferenceSystem, j: int,
                         allow_corules: bool = False) -> Optional[FiniteProofTree]:
    """A finite derivation of ``j``, or None when ``j`` is not inductively derivable.

    Each judgment is derived by the first declared rule that fires at the
    Kleene round where the judgment first appeared, so premise rounds
    strictly decrease toward the leaves and the tree depth never exceeds the
    universe size.
    """
    j = system._id(j)
    rounds, firing = system._layers(allow_corules)
    if rounds[j] is None:
        return None
    chosen = _derivation(system, j, firing)
    memo: dict[int, FiniteProofTree] = {}
    for k in sorted(chosen, key=rounds.__getitem__):
        memo[k] = FiniteProofTree(k, chosen[k], [memo[p] for p in system._premises(chosen[k])])
    return memo[j]


def check_rational_in_gen(tree: RationalProofTree, system: InferenceSystem) -> bool:
    """Validate a rational proof as a witness for the generated interpretation.

    True iff every node is derived by a rule of the system (corules
    forbidden) from exactly its premises, and every node's judgment is
    inductively derivable once corules are admitted. Acceptance implies the
    root lies in the generated interpretation.
    """
    return _matches(_validated(tree, system, rational=True)[0], system, False, system._bound)


def extract_rational_proof(system: InferenceSystem, j: int) -> Optional[RationalProofTree]:
    """A rational proof of ``j``, or None when ``j`` is outside the generated
    interpretation.

    Judgments are shared as graph nodes, so cycles arise exactly where the
    derivation is genuinely infinite. A judgment that is inductively
    derivable in the restricted system is derived by the rule firing at its
    first Kleene round (keeping that part of the graph acyclic); the rest
    use their consistency witness, the first declared applicable rule.
    """
    j = system._id(j)
    gen = _greatest(system, system._bound)
    if j not in gen:
        return None
    rule_for = list(system._layers(use_corules=False)[1])
    for k, i in _first_support(system, gen, {k for k in gen if rule_for[k] is None}).items():
        rule_for[k] = i
    chosen = _derivation(system, j, rule_for)
    node_of = dict(zip(chosen, count())).__getitem__  # judgment -> its node
    starts, body = system._starts, system._body
    children = [tuple(map(node_of, body[starts[i]:starts[i + 1]])) for i in chosen.values()]
    return RationalProofTree(zip(chosen, chosen.values(), children))


def is_acyclic(tree: RationalProofTree) -> bool:
    """Whether the proof graph has no cycle (i.e. denotes a finite tree)."""
    return not _validated(tree)[2]


def _render(tree: FiniteProofTree | RationalProofTree, system: InferenceSystem,
            rational: bool) -> str:
    """One indented line per node, children below their parent; a repeated
    node is printed as ``^n`` (rational) or copied (finite)."""
    table, root, _ = _validated(tree, system, rational)
    plain = system._plain
    lines: list[str] = []
    done: dict = {}  # rational: node -> None; finite: (node, depth) -> [first line, end]
    stack: list = [(root, 0)]
    while stack:
        item = stack.pop()
        if type(item) is list:  # every line of the subtree this span starts is out
            item[1] = len(lines)
            continue
        ni, depth = item
        key = ni if rational else item
        if key in done:
            span = done[key]
            lines.extend(lines[span[0]:span[1]] if span else [f"{'  ' * depth}^{ni}"])
            continue
        judgment, rule_index, children = table[ni]
        name = f"rule {rule_index}" if rule_index < plain else f"corule {rule_index - plain}"
        number = f"{ni}: " if rational else ""
        lines.append(f"{'  ' * depth}{number}{system.label_of(judgment)}  [{name}]")
        done[key] = None if rational else [len(lines) - 1, len(lines)]
        if children and not rational:
            stack.append(done[key])
        for c in reversed(children):
            stack.append((c, depth + 1))
    return "\n".join(lines)


def format_finite(tree: FiniteProofTree, system: InferenceSystem) -> str:
    """Indented text rendering of a finite proof tree.

    A subproof shared by several nodes is printed at every occurrence, so the
    text can be exponentially longer than the proof; later occurrences at
    the same depth copy the lines of the first.
    """
    return _render(tree, system, rational=False)


def format_rational(tree: RationalProofTree, system: InferenceSystem) -> str:
    """Indented text rendering of a rational proof graph.

    Nodes are numbered at first occurrence; later occurrences print as a
    ``^n`` reference, which is how back-edges stay finite on the page.
    """
    return _render(tree, system, rational=True)
