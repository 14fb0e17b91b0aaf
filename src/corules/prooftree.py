"""Derivation witnesses: proof trees, finite or rational (cyclic), as node tables.

A proof is its node table: entries ``(judgment, rule index, child indices)``,
the child indices a tuple, and a root index. Its rule indices address the
rules, then the corules. A finite proof tree, the witness of inductive
membership, is a proof whose table has no cycle. A rational proof tree is a
table whose back edges encode an infinite regular tree; it witnesses
membership in the generated interpretation when every node matches a plain
rule and every node's judgment is inductively derivable with corules
admitted. Both extractors emit one node per judgment the derivation
reaches, the root first.

An extracted proof comes walked; any other proof walks its table once, from its
own root, when a reader first needs it. Each keeps the walk for every check and
render, ``is_acyclic`` (did it meet a back edge?) and ``depth``. ``children``
only moves around the table: its handles are proofs rooted at other nodes, one
per node, and a handle is read as any proof is. The walk raises StructuralError
when a node is not such a triple, the root or a child index is not the index of
a node or a node is unreachable from the root. Each check and render then raises
it when a rule index names no rule or corule of the system or a judgment id lies
outside its universe. A well-formed but invalid derivation is different: the
checkers return False, for instance when a rational proof uses a corule, and
``check_finite`` returns False for a table with a cycle, which ``format_finite``
and ``depth`` refuse with StructuralError. A proof or system argument of another
type raises TypeError naming it.

Extraction and checking take time linear in the sizes of the system and of the
proof: a check sorts a node's child judgments only when they are out of premise
order. Both renderers are one loop. A rational render prints a repeated node as
``^n``. A finite render prints a shared subproof at every occurrence, so its
text can be exponentially long, but it formats each (node, depth) pair once and
copies those lines after that.
"""

from itertools import compress
from typing import Iterable, Optional

from .inference import InferenceSystem, InternalError, StructuralError, Value, _set, _tuple, _typed

Entry = tuple[int, int, tuple[int, ...]]  # judgment, rule index, child indices
Table = tuple[Entry, ...]


class RationalProofTree(Value):
    """A finite graph presentation of a possibly-infinite regular proof tree:
    ``nodes`` is its node table and ``root`` the index of its root node.

    ``children`` are handles on the root's subproofs, rooted at its child
    indices: one proof per node of the table, in a list every handle shares,
    so reading them walks nothing. A handle's readers walk from its own root."""

    __match_args__ = ("nodes", "root")
    __slots__ = __match_args__ + ("_walk", "_handles")  # see _walked and children

    def __init__(self, nodes: Iterable[Entry], root: int = 0):
        _set(self, "nodes", _tuple(nodes, "nodes"))
        _set(self, "root", root)
        _set(self, "_walk", None)
        _set(self, "_handles", None)

    def _walked(self) -> Optional[list[int]]:
        """The post-order of the walk from ``root``, or None on a cycle: walked once,
        with the checks that need no system, and kept (False for a cycle)."""
        if self._walk is not None:
            return self._walk or None
        table, root, n = self.nodes, self.root, len(self.nodes)
        if not (isinstance(root, int) and 0 <= root < n):
            raise StructuralError(f"root index {root!r} out of range" if n
                                  else "proof has no nodes")
        marks = [0] * n  # 1 while a node is on the walk's path, 2 once all below it is walked
        order, cyclic, stack = [], False, [root]
        while stack:
            i = stack.pop()
            if i < 0:  # the marker pushed below the children of ~i: all below ~i is walked
                marks[~i] = 2
                order.append(~i)
            elif not marks[i]:
                node = table[i]
                if not (isinstance(node, tuple) and len(node) == 3 and isinstance(node[2], tuple)):
                    raise StructuralError(f"node {i} is not a (judgment, rule index, children) "
                                          "triple with a tuple of children")
                marks[i] = 1
                stack.append(~i)
                for c in node[2]:
                    if not (isinstance(c, int) and 0 <= c < n):
                        raise StructuralError(f"child index {c!r} out of range")
                    if marks[c] == 1:  # c is on the walk's path to i: a back edge
                        cyclic = True
                    elif not marks[c]:
                        stack.append(c)
        if not all(marks):
            raise StructuralError("every node must be reachable from the root")
        _set(self, "_walk", False if cyclic else order)
        return None if cyclic else order

    @property
    def children(self) -> tuple["RationalProofTree", ...]:
        handles = self._handles
        if handles is None:  # one per node, made once the walk has checked the table
            self._walked()
            handles = [RationalProofTree(self.nodes, i) for i in range(len(self.nodes))]
            handles[self.root] = self
            for handle in handles:
                _set(handle, "_handles", handles)
        return tuple(map(handles.__getitem__, self.nodes[self.root][2]))

    def depth(self) -> int:
        """Nodes on a longest root-to-leaf path, read off the walk; StructuralError on a cycle."""
        # below: per node, the nodes on a longest path down from it
        order, table, below = _finite(self._walked()), self.nodes, [1] * len(self.nodes)
        get = below.__getitem__
        for i in order:
            if table[i][2]:
                below[i] = 1 + max(map(get, table[i][2]))
        return below[self.root]


def _checked_walk(tree: RationalProofTree,
                  system: Optional[InferenceSystem] = None) -> Optional[list[int]]:
    """The post-order of the walk of ``tree`` from its root, or None on a cycle;
    given the system, after one pass that checks each rule index and judgment id."""
    order = _typed(tree, (RationalProofTree,), "tree")._walked()
    if system is not None:
        rules = len(system._heads)
        for judgment, rule_index, _ in tree.nodes:
            if not (isinstance(rule_index, int) and 0 <= rule_index < rules):
                raise StructuralError(f"rule index {rule_index!r} out of range "
                                      f"(system has {rules} rules and corules)")
            if not (isinstance(judgment, int) and 0 <= judgment < system.universe_size):
                raise StructuralError(f"judgment id {judgment!r} out of range")
    return order


def _finite(order: Optional[list[int]]) -> list[int]:
    """The post-order of a walk, which a finite proof has: it has no cycle."""
    if order is None:
        raise StructuralError("proof has a cycle, so it is not finite")
    return order


def _matches(table: Table, system: InferenceSystem, use_corules: bool,
             firing: Optional[list[Optional[int]]] = None) -> bool:
    """Whether at every entry the rule (or, if used, corule) of its index exists and concludes
    the entry's judgment from exactly one child per premise (sorted only if not in premise
    order) and, given an inductive pass's firing rules, the pass fires one at every judgment."""
    heads, starts, body = system._heads, system._starts, system._body
    rules = len(heads) if use_corules else system._plain
    judgment_of = [entry[0] for entry in table].__getitem__
    for judgment, i, children in table:
        # an extracted table lists each node's children in premise order
        found, premises = [*map(judgment_of, children)], body[starts[i]:starts[i + 1]]
        if (i >= rules or heads[i] != judgment or found != premises and sorted(found) != premises
                or firing is not None and firing[judgment] is None):
            return False
    return True


def _proof(system: InferenceSystem, j: int, rule_for: list[Optional[int]]) -> RationalProofTree:
    """The proof of ``j`` in which each judgment is derived by the rule ``rule_for``
    picks, one node per judgment it reaches, numbered in pre-order with premises in
    ascending order (the root is node 0), with the walk ``_walked`` would keep."""
    starts, body = system._starts, system._body
    # judgment -> its node, in pre-order; the post-order; per node, 1 once all below it
    # is walked; whether a back edge was met
    node_of, order, out, cyclic, stack = {}, [], bytearray(len(rule_for)), False, [j]
    while stack:
        k = stack.pop()
        while k >= 0:  # a judgment; from one with a lone premise, on to it without the stack
            if k in node_of:  # a back edge if k is on the path to the node that reached it
                cyclic = cyclic or not out[node_of[k]]
                break
            i = rule_for[k]
            if i is None:
                raise InternalError(f"judgment {k} is derivable but no rule derives it")
            node_of[k] = n = len(node_of)
            stack.append(~n)
            if starts[i + 1] - starts[i] != 1:
                stack += body[starts[i]:starts[i + 1]][::-1]
                break
            k = body[starts[i]]
        else:  # the marker pushed below the premises of node ~k
            order.append(~k)
            out[~k] = 1
    node, rules = node_of.__getitem__, list(map(rule_for.__getitem__, node_of))
    children = [tuple(map(node, body[starts[i]:starts[i + 1]])) for i in rules]
    return RationalProofTree._valid(tuple(zip(node_of, rules, children)), 0,
                                    False if cyclic else order, None)


def check_finite(tree: RationalProofTree, system: InferenceSystem,
                 allow_corules: bool = False) -> bool:
    """Validate a finite derivation against the system.

    True iff the table has no cycle and at every node the referenced rule
    concludes the node's judgment and the children are exactly one subtree
    per premise. A node that uses a corule is rejected unless
    ``allow_corules`` is set. A malformed tree raises StructuralError.
    """
    order = _checked_walk(tree, _typed(system, (InferenceSystem,), "system"))
    return order is not None and _matches(tree.nodes, system, allow_corules)


def extract_finite_proof(system: InferenceSystem, j: int,
                         allow_corules: bool = False) -> Optional[RationalProofTree]:
    """A finite derivation of ``j``, or None when ``j`` is not inductively derivable.

    Each judgment is derived by the first declared rule that fires at the
    Kleene round where the judgment first appeared, so premise rounds
    strictly decrease toward the leaves, the table has no cycle and the tree
    depth never exceeds the universe size.
    """
    j = _typed(system, (InferenceSystem,), "system")._id(j)
    firing = system._bound[0] if allow_corules else system._ind
    return None if firing[j] is None else _proof(system, j, firing)


def check_rational_in_gen(tree: RationalProofTree, system: InferenceSystem) -> bool:
    """Validate a rational proof as a witness for the generated interpretation.

    True iff every node is derived by a rule of the system (not a corule)
    from exactly its premises, and every node's judgment is inductively
    derivable once corules are admitted. Acceptance implies the root lies in
    the generated interpretation.
    """
    _checked_walk(tree, _typed(system, (InferenceSystem,), "system"))
    return _matches(tree.nodes, system, False, system._bound[0])


def extract_rational_proof(system: InferenceSystem, j: int) -> Optional[RationalProofTree]:
    """A rational proof of ``j``, or None when ``j`` is outside the generated
    interpretation.

    Judgments are shared as graph nodes, so cycles arise exactly where the
    derivation is genuinely infinite. A judgment that is inductively
    derivable in the restricted system is derived by the rule firing at its
    first Kleene round (keeping that part of the graph acyclic, and the proof
    of such a ``j`` its finite proof); the rest use their consistency witness,
    the first declared rule with premises in the generated interpretation,
    read from the rules that the greatest pass of ``gen`` keeps to the end
    (``kept``, which is None only without corules, when ``gen`` is ``ind``).
    """
    j = _typed(system, (InferenceSystem,), "system")._id(j)
    gen, kept = system._gen
    if j not in gen:
        return None
    rule_for = list(system._ind)
    if len(gen) > len(rule_for) - rule_for.count(None):  # else, as in every chain, gen is ind
        heads = system._heads
        for i in compress(range(system._plain), kept):
            if rule_for[heads[i]] is None:
                rule_for[heads[i]] = i
    return _proof(system, j, rule_for)


def is_acyclic(tree: RationalProofTree) -> bool:
    """Whether the proof graph has no cycle (i.e. denotes a finite tree)."""
    return _checked_walk(tree) is not None


def _render(tree: RationalProofTree, system: InferenceSystem, rational: bool) -> str:
    """One indented line per node, children below their parent; a repeated
    node is printed as ``^n`` (rational) or copied (finite, which must have no
    cycle). The labels are read once. An id without a label, a node number and a
    rule index print as integers: unary ``+`` makes a bool the int it stands for."""
    order = _checked_walk(tree, _typed(system, (InferenceSystem,), "system"))
    if not rational:
        _finite(order)
    table, plain, labels = tree.nodes, system._plain, system.labels
    lines: list[str] = []
    done: dict = {}  # rational: node -> None; finite: (node, depth) -> [first line, end]
    stack: list = [(tree.root, 0)]
    while stack:
        item = stack.pop()
        if type(item) is list:  # every line of the subtree this span starts is out
            item[1] = len(lines)
            continue
        ni, depth = item
        key = ni if rational else item
        if key in done:
            span = done[key]
            lines.extend(lines[span[0]:span[1]] if span else [f"{'  ' * depth}^{+ni}"])
            continue
        judgment, rule_index, children = table[ni]
        co = rule_index >= plain  # a corule, numbered among the corules
        lines.append(f"{'  ' * depth}{f'{+ni}: ' if rational else ''}"
                     f"{labels[+judgment] if labels else f'j{+judgment}'}  "
                     f"[{'co' if co else ''}rule {rule_index - plain if co else +rule_index}]")
        done[key] = None if rational else [len(lines) - 1, len(lines)]
        if children and not rational:
            stack.append(done[key])
        for c in reversed(children):
            stack.append((c, depth + 1))
    return "\n".join(lines)


def format_finite(tree: RationalProofTree, system: InferenceSystem) -> str:
    """Indented text rendering of a finite proof tree.

    A subproof shared by several nodes is printed at every occurrence, so the
    text can be exponentially longer than the proof; later occurrences at
    the same depth copy the lines of the first. A table with a cycle raises
    StructuralError.
    """
    return _render(tree, system, rational=False)


def format_rational(tree: RationalProofTree, system: InferenceSystem) -> str:
    """Indented text rendering of a rational proof graph.

    Nodes are numbered at first occurrence; later occurrences print as a
    ``^n`` reference, which is how back-edges stay finite on the page.
    """
    return _render(tree, system, rational=True)
