import copy
import pickle
import random
import re

import pytest

from corules import (
    POSITIVE,
    InferenceSystem,
    Lasso,
    RationalProofTree,
    StructuralError,
    check_finite,
    check_rational_in_gen,
    coind_interpretation,
    extract_finite_proof,
    extract_rational_proof,
    gen_infoften_system,
    gen_interpretation,
    gen_maxelem_system,
    ind_interpretation,
    is_acyclic,
    rule,
)
from corules import inference, prooftree
from corules.cli import parse_system, run
from corules.prooftree import format_finite, format_rational

from util import ind_oracle, random_system, reports_by_scan

A, B, C = 0, 1, 2


def ab_system():
    # axiom a, then b from a, plus an unrelated axiom c
    return InferenceSystem(3, (rule(A), rule(B, A), rule(C)))


class TestCheckFinite:
    # a finite proof is a node table without a cycle, written as a rational proof is
    def test_axiom_leaf(self):
        assert check_finite(RationalProofTree([(A, 0, ())]), ab_system())

    def test_step_with_matching_child(self):
        tree = RationalProofTree([(B, 1, (1,)), (A, 0, ())])
        assert check_finite(tree, ab_system())

    def test_premise_mismatch_rejected(self):
        tree = RationalProofTree([(B, 1, (1,)), (C, 2, ())])
        assert not check_finite(tree, ab_system())

    def test_wrong_conclusion_rejected(self):
        assert not check_finite(RationalProofTree([(B, 0, ())]), ab_system())

    def test_duplicate_children_rejected(self):
        tree = RationalProofTree([(B, 1, (1, 1)), (A, 0, ())])
        assert not check_finite(tree, ab_system())

    def test_out_of_range_index_is_structural(self):
        with pytest.raises(StructuralError):
            check_finite(RationalProofTree([(A, 9, ())]), ab_system())

    def test_corule_needs_flag(self):
        sys_ = InferenceSystem(1, (), (rule(0),))
        tree = RationalProofTree([(0, 0, ())])  # index 0 addresses the corule
        assert not check_finite(tree, sys_)
        assert check_finite(tree, sys_, allow_corules=True)

    def test_table_with_a_cycle_is_not_finite(self):
        # every step matches a rule, so each table is a valid rational proof
        sys_ = InferenceSystem(2, (rule(0, 1), rule(1, 0), rule(0, 0)), (rule(0),))
        for tree in (RationalProofTree([(0, 0, (1,)), (1, 1, (0,))]),
                     RationalProofTree([(0, 2, (0,))]),
                     RationalProofTree([(1, 1, (1,)), (0, 0, (2,)), (1, 1, (1,))])):
            assert check_rational_in_gen(tree, sys_) and not is_acyclic(tree)
            assert not check_finite(tree, sys_) and not check_finite(tree, sys_, True)
            for call in (lambda: format_finite(tree, sys_), tree.depth):
                with pytest.raises(StructuralError, match="proof has a cycle, so it is not finite"):
                    call()


class TestExtractFinite:
    @pytest.mark.parametrize("extract", [extract_finite_proof, extract_rational_proof])
    @pytest.mark.parametrize("j", [-1, 3])
    def test_judgment_outside_the_universe(self, extract, j):
        with pytest.raises(ValueError, match=f"judgment id {j} out of range"):
            extract(ab_system(), j)

    @pytest.mark.parametrize("extract", [extract_finite_proof, extract_rational_proof])
    def test_judgment_id_is_coerced(self, extract):
        sys_ = ab_system()
        for bad in (1.0, 0.5, "1", None):
            with pytest.raises(TypeError, match=f"judgment id {bad!r} is not an integer"):
                extract(sys_, bad)
        proof = extract(sys_, True)
        assert repr(proof) == repr(extract(sys_, 1))  # the root reads judgment=1, not True

    def test_axiom(self):
        tree = extract_finite_proof(InferenceSystem(1, (rule(0),)), 0)
        assert tree == RationalProofTree([(0, 0, ())])

    def test_self_loop_not_derivable(self):
        sys_ = InferenceSystem(1, (rule(0, 0),))
        assert 0 not in ind_oracle(sys_)
        assert extract_finite_proof(sys_, 0) is None

    def test_maxelem_uses_coaxiom_leaf(self):
        sys_, scheme = gen_maxelem_system(Lasso((), (1, 2)), [1, 2, 3])
        target = scheme.encode(0, 2)
        tree = extract_finite_proof(sys_, target, allow_corules=True)
        assert tree is not None
        assert check_finite(tree, sys_, allow_corules=True)
        assert any(rule_index >= len(sys_.rules) and not children
                   for _, rule_index, children in tree.nodes)

    def test_depth_bounded_by_universe(self):
        rng = random.Random(21)
        for _ in range(40):
            sys_ = random_system(rng, max_universe=7, max_rules=12, max_corules=4)
            for flag in (False, True):
                for j in ind_interpretation(sys_, use_corules=flag):
                    tree = extract_finite_proof(sys_, j, allow_corules=flag)
                    assert tree.depth() <= sys_.universe_size

    def test_round_trip_over_random_systems(self):
        rng = random.Random(22)
        for _ in range(60):
            sys_ = random_system(rng, max_universe=7, max_rules=12, max_corules=4)
            for flag in (False, True):
                ind = ind_interpretation(sys_, use_corules=flag)
                for j in range(sys_.universe_size):
                    tree = extract_finite_proof(sys_, j, allow_corules=flag)
                    assert (tree is not None) == (j in ind)
                    if tree is not None:
                        assert check_finite(tree, sys_, allow_corules=flag)


def chain_text(n):
    """c0 <- ; c(i) <- c(i-1): the proof of the last judgment is n deep."""
    lines = ["judgments: " + " ".join(f"c{i}" for i in range(n)), "rule: c0 <-"]
    lines += [f"rule: c{i} <- c{i - 1}" for i in range(1, n)]
    return "\n".join(lines) + "\n"


class CountingLabels(tuple):
    """A label table that counts the labels read from it."""

    reads = 0

    def __getitem__(self, j):
        self.reads += 1
        return super().__getitem__(j)


def ladder_system(rungs):
    """a(i+1) <- a(i) b(i) and b(i) <- a(i), with a(i) = 2i and b(i) = 2i + 1.
    The proof of a(rungs) shares every subproof, so as a tree it is 2^rungs big."""
    rules = [rule(0)]
    for i in range(rungs):
        rules += [rule(2 * i + 2, 2 * i, 2 * i + 1), rule(2 * i + 1, 2 * i)]
    return InferenceSystem(2 * rungs + 2, tuple(rules))


class TestDeepAndSharedProofs:
    DEPTH = 2000

    def test_deep_chain_proofs(self, tmp_path, capsys):
        for n in (10_000, self.DEPTH):
            system = parse_system(chain_text(n)).system
            finite = extract_finite_proof(system, n - 1)
            assert check_finite(finite, system)
            assert finite.depth() == n
            rational = extract_rational_proof(system, n - 1)
            assert check_rational_in_gen(rational, system) and is_acyclic(rational)
            assert [judgment for judgment, _, _ in rational.nodes] == list(range(n - 1, -1, -1))
        # Renders stay at DEPTH: the indented render of an n-deep chain is about n² bytes.
        text = format_finite(finite, system)
        assert text.count("\n") == n - 1 and text.endswith("\n" + "  " * (n - 1) + "c0  [rule 0]")
        assert format_rational(rational, system).count("\n") == n - 1
        path = tmp_path / "chain.inf"
        path.write_text(chain_text(n), encoding="utf-8")
        for extra in ([], ["--rational"]):
            assert run(["prove", str(path), f"c{n - 1}"] + extra) == 0
            out, err = capsys.readouterr()
            assert err == "" and out.count("\n") == n

    def test_deep_cycle_rational_proof(self):
        # c(i) <- c(i+1) around a cycle of DEPTH judgments, admitted by one coaxiom
        n = self.DEPTH
        system = InferenceSystem(n, tuple(rule(i, (i + 1) % n) for i in range(n)), (rule(0),))
        rational = extract_rational_proof(system, 0)
        assert check_rational_in_gen(rational, system) and not is_acyclic(rational)
        assert len(rational.nodes) == n
        assert format_rational(rational, system).endswith("  " * n + "^0")
        finite = extract_finite_proof(system, 0, allow_corules=True)
        assert check_finite(finite, system, allow_corules=True)
        assert finite.depth() == 1 and extract_finite_proof(system, 1) is None

    def test_ladder_checks_each_shared_subproof_once(self):
        rungs = 40
        system = ladder_system(rungs)
        tree = extract_finite_proof(system, 2 * rungs)
        assert check_finite(tree, system)
        assert tree.depth() == 2 * rungs + 1


def naive_format(tree, system):
    """Reference render: unfold the table recursively from the root, formatting every line."""
    rules = len(system.rules)

    def visit(i, depth):
        judgment, rule_index, children = tree.nodes[i]
        name = f"rule {rule_index}" if rule_index < rules else f"corule {rule_index - rules}"
        lines = [f"{'  ' * depth}{system.label_of(judgment)}  [{name}]"]
        return "\n".join(lines + [visit(c, depth + 1) for c in children])

    return visit(tree.root, 0)


def chain_system(n):
    return InferenceSystem(n, (rule(0),) + tuple(rule(i, i - 1) for i in range(1, n)))


def rebuilt(tree, leaf_rule_index):
    """A fresh copy of an extracted chain proof whose deepest leaf, its last node,
    uses ``leaf_rule_index``."""
    nodes = [tuple(node) for node in tree.nodes]
    nodes[-1] = (nodes[-1][0], leaf_rule_index, ())
    return RationalProofTree(nodes, tree.root)


class TestRender:
    def test_finite_matches_naive_unfolding_over_random_systems(self):
        rng = random.Random(27)
        for _ in range(60):
            sys_ = random_system(rng, max_universe=8, max_rules=14, max_corules=4)
            for j in ind_interpretation(sys_, use_corules=True):
                tree = extract_finite_proof(sys_, j, allow_corules=True)
                assert format_finite(tree, sys_) == naive_format(tree, sys_)

    def test_node_shared_at_two_depths(self):
        # 3 <- 1 2 and 2 <- 1: the subproof of 1 sits at depths 1 and 2
        sys_ = InferenceSystem(4, (rule(0), rule(1, 0), rule(2, 1), rule(3, 1, 2)))
        tree = RationalProofTree([(3, 3, (1, 3)), (1, 1, (2,)), (0, 0, ()), (2, 2, (1,))])
        assert check_finite(tree, sys_)
        text = format_finite(tree, sys_)
        assert text == naive_format(tree, sys_)
        assert text.splitlines() == ["j3  [rule 3]", "  j1  [rule 1]", "    j0  [rule 0]",
                                     "  j2  [rule 2]", "    j1  [rule 1]", "      j0  [rule 0]"]

    def test_ladder_formats_each_node_and_depth_once(self, monkeypatch):
        # a label read is a line formatted: the table counts its reads
        rungs = 16
        bare = ladder_system(rungs)
        labels = CountingLabels(f"n{j}" for j in range(bare.universe_size))
        system = InferenceSystem._valid(bare.universe_size, bare._heads, bare._starts,
                                        bare._body, bare._plain, labels)
        tree = extract_finite_proof(system, 2 * rungs)

        def refused(self, j):
            raise AssertionError("a render reads the label table, not label_of")

        monkeypatch.setattr(InferenceSystem, "label_of", refused)
        text = format_finite(tree, system)
        assert 0 < labels.reads <= (2 * rungs + 2) ** 2
        assert text.count("\n") + 1 == 3 * 2 ** rungs - 2

    @pytest.mark.parametrize("labels, finite, rational", [
        (None, "j1  [rule 1]\n  j0  [rule 0]", "0: j1  [rule 1]\n  1: j0  [rule 0]"),
        (("a", "b"), "b  [rule 1]\n  a  [rule 0]", "0: b  [rule 1]\n  1: a  [rule 0]"),
    ], ids=["bare", "labelled"])
    def test_bool_judgment_ids_print_as_integers(self, labels, finite, rational):
        # True is judgment 1 in both renders, with a label table and without
        sys_ = InferenceSystem(2, (rule(0), rule(1, 0)), labels=labels)
        tree = RationalProofTree([(True, 1, (1,)), (False, 0, ())])
        assert check_finite(tree, sys_) and check_rational_in_gen(tree, sys_)
        assert format_finite(tree, sys_) == finite
        assert format_rational(tree, sys_) == rational

    def test_finite_rule_index_out_of_range_is_structural(self):
        sys_ = InferenceSystem(2, (rule(0), rule(1, 0)))
        for index in (2, 7, -1, 0.0, 0.5, "0"):
            tree = RationalProofTree([(1, 1, (1,)), (0, index, ())])
            for call in (check_finite, format_finite):
                with pytest.raises(StructuralError, match=re.escape(f"rule index {index!r} out")):
                    call(tree, sys_)
        with_corule = InferenceSystem(2, (rule(0), rule(1, 0)), (rule(1),))
        assert format_finite(RationalProofTree([(1, 2, ())]), with_corule) == "j1  [corule 0]"
        with pytest.raises(StructuralError):
            format_finite(RationalProofTree([(1, 3, ())]), with_corule)

    def test_finite_bool_rule_index_prints_as_an_integer(self):
        # True is 1 here as everywhere: the rule index prints as the integer it stands for
        sys_ = InferenceSystem(2, (rule(0), rule(1, 0)))
        tree = RationalProofTree([(1, True, (1,)), (0, False, ())])
        assert check_finite(tree, sys_)
        assert format_finite(tree, sys_) == "j1  [rule 1]\n  j0  [rule 0]"

    def test_rational_rule_index_out_of_range_is_structural(self):
        sys_ = InferenceSystem(1, (rule(0, 0),), (rule(0),))
        for index in (9, -1, 0.0, 0.5, "0"):
            tree = RationalProofTree(((0, 0, (1,)), (0, index, (0,))))
            for call in (check_rational_in_gen, format_rational):
                with pytest.raises(StructuralError, match=re.escape(f"rule index {index!r} out")):
                    call(tree, sys_)

    def test_rational_corule_node_prints_as_a_corule(self):
        # a corule's index is in range: the node is invalid, not malformed
        sys_ = InferenceSystem(1, (rule(0, 0),), (rule(0),))
        tree = RationalProofTree(((0, 0, (1,)), (0, 1, (0,))))
        assert not check_rational_in_gen(tree, sys_)
        assert format_rational(tree, sys_) == "0: j0  [rule 0]\n  1: j0  [corule 0]\n    ^0"


class TestFiniteTreeEquality:
    def test_deep_chains_compare_and_hash_structurally(self):
        n = 10_000
        system = chain_system(n)
        first = extract_finite_proof(system, n - 1)
        second = extract_finite_proof(system, n - 1)
        assert first is not second
        assert first == second and hash(first) == hash(second)
        assert first == rebuilt(first, 0)
        changed = rebuilt(first, 1)
        assert first != changed and changed != first

    def test_ladder_equality_and_hash_visit_shared_subproofs_once(self):
        rungs = 40
        system = ladder_system(rungs)
        first = extract_finite_proof(system, 2 * rungs)
        second = extract_finite_proof(system, 2 * rungs)
        assert first == second and hash(first) == hash(second)
        assert first != extract_finite_proof(system, 2 * rungs - 2)

    def test_other_types_are_unequal(self):
        leaf = RationalProofTree([(0, 0, ())])
        assert leaf != (0, 0, ()) and leaf != ((0, 0, ()),)
        assert leaf != RationalProofTree([(0, 0, (1,)), (0, 0, ())])
        assert len({leaf, RationalProofTree([(0, 0, ())])}) == 1


def naive_format_rational(tree, system):
    """Reference render: recursive pre-order, a node printed before becomes ``^n``."""
    printed, lines = set(), []

    def visit(ni, depth):
        if ni in printed:
            lines.append(f"{'  ' * depth}^{ni}")
            return
        printed.add(ni)
        judgment, rule_index, children = tree.nodes[ni]
        lines.append(f"{'  ' * depth}{ni}: {system.label_of(judgment)}  [rule {rule_index}]")
        for c in children:
            visit(c, depth + 1)

    visit(tree.root, 0)
    return "\n".join(lines)


class TestRationalRender:
    def test_matches_naive_render_over_random_systems(self):
        rng = random.Random(28)
        for _ in range(60):
            sys_ = random_system(rng, max_universe=8, max_rules=14, max_corules=4)
            for j in gen_interpretation(sys_):
                tree = extract_rational_proof(sys_, j)
                assert format_rational(tree, sys_) == naive_format_rational(tree, sys_)

    def test_node_shared_without_a_cycle(self):
        sys_ = InferenceSystem(4, (rule(0), rule(1, 0), rule(2, 1), rule(3, 1, 2)))
        tree = RationalProofTree(((3, 3, (1, 2)), (1, 1, (3,)), (2, 2, (1,)), (0, 0, ())))
        assert check_rational_in_gen(tree, sys_) and is_acyclic(tree)
        text = format_rational(tree, sys_)
        assert text == naive_format_rational(tree, sys_)
        assert text.splitlines() == ["0: j3  [rule 3]", "  1: j1  [rule 1]", "    3: j0  [rule 0]",
                                     "  2: j2  [rule 2]", "    ^1"]

    def test_back_edge_and_root_not_first(self):
        sys_ = InferenceSystem(2, (rule(0, 1), rule(1, 0)), (rule(0),))
        tree = RationalProofTree(((0, 0, (1,)), (1, 1, (0,))), root=1)
        assert check_rational_in_gen(tree, sys_) and not is_acyclic(tree)
        text = format_rational(tree, sys_)
        assert text == naive_format_rational(tree, sys_)
        assert text.splitlines() == ["1: j1  [rule 1]", "  0: j0  [rule 0]", "    ^1"]

    def test_bool_node_numbers_print_as_integers(self):
        # a child, a root and a repeated node given as a bool print as their integers
        sys_ = InferenceSystem(2, (rule(0), rule(1, 0)))
        tree = RationalProofTree([(1, 1, (True,)), (0, 0, ())])
        assert format_rational(tree, sys_) == "0: j1  [rule 1]\n  1: j0  [rule 0]"
        two_cycle = InferenceSystem(2, (rule(0, 1), rule(1, 0)))
        tree = RationalProofTree([(0, 0, (True,)), (1, 1, (False,))], root=True)
        assert format_rational(tree, two_cycle) == "1: j1  [rule 1]\n  0: j0  [rule 0]\n    ^1"


class TestMalformedProofs:
    """Every check and render, is_acyclic, depth and children raise StructuralError
    on a malformed proof."""

    def rational_raises(self, tree, sys_, text=None):
        for call in (lambda: check_rational_in_gen(tree, sys_),
                     lambda: format_rational(tree, sys_), lambda: is_acyclic(tree),
                     lambda: check_finite(tree, sys_), lambda: format_finite(tree, sys_),
                     tree.depth, lambda: tree.children):
            with pytest.raises(StructuralError) as excinfo:
                call()
            assert text is None or str(excinfo.value) == text

    def test_child_index_out_of_range(self):
        # a float, even an integral one, is no index: it names no node
        sys_ = InferenceSystem(1, (rule(0, 0),))
        for child in (5, 1, -1, 0.0, 0.5, "0", None):
            self.rational_raises(RationalProofTree(((0, 0, (child,)),)), sys_,
                                 f"child index {child!r} out of range")

    def test_root_out_of_range_or_no_nodes(self):
        sys_ = InferenceSystem(1, (rule(0),))
        for root in (1, -1, 0.0, 0.5, "0", None):
            self.rational_raises(RationalProofTree(((0, 0, ()),), root=root), sys_,
                                 f"root index {root!r} out of range")
        self.rational_raises(RationalProofTree((), root=0), sys_, "proof has no nodes")

    def test_node_that_is_not_a_triple(self):
        sys_ = ab_system()
        for node in (1, None, "abc", (A, 0), (A, 0, (), 0), [A, 0, ()], (A, 0, [0]), (A, 0, 0)):
            for tree, position in ((RationalProofTree([node]), 0),
                                   (RationalProofTree([(B, 1, (1,)), node]), 1)):
                self.rational_raises(tree, sys_, f"node {position} is not a (judgment, rule index, "
                                                 "children) triple with a tuple of children")

    def test_unreachable_node(self):
        tree = RationalProofTree(((A, 0, ()), (C, 2, ())), root=0)
        self.rational_raises(tree, ab_system())

    def test_judgment_out_of_range(self):
        sys_ = InferenceSystem(1, (rule(0),))
        for judgment in (3, -1, 0.0, 0.5, "0"):
            text = f"judgment id {judgment!r} out of range"
            tree = RationalProofTree(((judgment, 0, ()),))
            for call in (check_rational_in_gen, format_rational):
                with pytest.raises(StructuralError, match=re.escape(text)):
                    call(tree, sys_)
            for tree in (RationalProofTree([(judgment, 0, ())]),
                         RationalProofTree([(0, 0, (1,)), (judgment, 0, ())])):
                for call in (check_finite, format_finite):
                    with pytest.raises(StructuralError, match=re.escape(text)):
                        call(tree, sys_)

    def test_child_that_is_not_a_proof(self):
        # a child is a node index; a subproof or a node in its place names no node
        sys_ = ab_system()
        for child in (7, None, (A, 0, ()), "a"):
            for nodes in ([(B, 1, (child,))], [(B, 1, (1, child)), (A, 0, ())]):
                self.rational_raises(RationalProofTree(nodes), sys_,
                                     f"child index {child!r} out of range")

    @pytest.mark.parametrize("judgment,rule_index", [([0], 0), (0, [0]), ({}, 0), (0, {0: 1}),
                                                     ([0], [0])])
    def test_unhashable_judgment_or_rule_index(self, judgment, rule_index):
        # checks and renders name the bad field; hash fails as on any unhashable table
        sys_ = ab_system()
        bad = rule_index if not isinstance(rule_index, int) else judgment
        text = f"{'judgment id' if bad is judgment else 'rule index'} {bad!r} out of range"
        for nodes in ([(judgment, rule_index, ())], [(B, 1, (1,)), (judgment, rule_index, ())],
                      [(B, 1, (1, 2)), (A, 0, ()), (judgment, rule_index, ())]):
            tree = RationalProofTree(nodes)
            for call in (lambda t: check_finite(t, sys_),
                         lambda t: check_finite(t, sys_, allow_corules=True),
                         lambda t: format_finite(t, sys_)):
                with pytest.raises(StructuralError) as excinfo:
                    call(tree)
                assert str(excinfo.value).startswith(text)
            with pytest.raises(TypeError, match="unhashable type"):
                hash(tree)
            assert tree == RationalProofTree(nodes) and repr(tree).startswith("RationalProofTree(")

    def test_structural_fault_wins_over_a_mismatch(self):
        # the root does not match its rule, and a leaf has an out-of-range rule index
        sys_ = ab_system()
        tree = RationalProofTree([(B, 0, (1,)), (A, 9, ())])
        with pytest.raises(StructuralError):
            check_finite(tree, sys_)


class TestOneWalk:
    """A proof walks its table once, from its own root, when a reader first needs
    it, and keeps the walk; a check or render then checks ids and indices only
    against a system the proof has not last passed (see TestOneIdPassPerSystem).
    A handle from ``children`` is read as any proof is."""

    def test_each_proof_walks_its_table_once(self):
        # the walk checks each node's shape, asking its length; nothing else does
        shape_checks = 0

        class Entry(tuple):
            def __len__(self):
                nonlocal shape_checks
                shape_checks += 1
                return super().__len__()

        for system, target in ((ab_system(), B), (ladder_system(4), 8), (chain_system(50), 49)):
            proof = extract_finite_proof(system, target)
            tree = RationalProofTree(map(Entry, proof.nodes), proof.root)
            shape_checks = 0
            for _ in range(2):
                assert check_finite(tree, system) and tree.depth() == proof.depth()
                assert format_finite(tree, system) == format_finite(proof, system)
                assert is_acyclic(tree) and check_rational_in_gen(tree, system)
                assert format_rational(tree, system) == format_rational(proof, system)
                assert len(tree.children) == len(proof.children)
            assert shape_checks == len(tree.nodes)

    def test_a_subproof_is_walked_from_its_own_root(self):
        tree = RationalProofTree([(B, 1, (1,)), (A, 0, ())])
        child = tree.children[0]
        assert child.root == 1 and child.children == ()
        assert RationalProofTree([tree.nodes[1]]).depth() == 1  # a leaf on its own table
        for call in (child.depth, lambda: check_finite(child, ab_system()),
                     lambda: format_finite(child, ab_system()), lambda: is_acyclic(child)):
            with pytest.raises(StructuralError) as excinfo:
                call()
            assert str(excinfo.value) == "every node must be reachable from the root"
        two_cycle = InferenceSystem(2, (rule(0, 1), rule(1, 0)))
        tree = RationalProofTree([(0, 0, (1,)), (1, 1, (0,))])
        for child in (tree.children[0], RationalProofTree(tree.nodes, 1)):
            assert not check_rational_in_gen(child, two_cycle) and not is_acyclic(child)
            assert format_rational(child, two_cycle) == "1: j1  [rule 1]\n  0: j0  [rule 0]\n    ^1"
            with pytest.raises(StructuralError, match="proof has a cycle, so it is not finite"):
                child.depth()
        assert tree.children[0].children == (tree,)

    def test_a_handle_answers_as_the_proof_built_on_its_root(self):
        # a handle from children equals the proof built on its table and root, and
        # every reader gives both the same value or raises both the same fault
        def outcome(call, tree):
            try:
                return "returns", call(tree)
            except StructuralError as error:
                return "raises", str(error)

        system = InferenceSystem(2, (rule(0, 0, 1), rule(1)))
        readers = (RationalProofTree.depth, is_acyclic, lambda t: check_finite(t, system),
                   lambda t: format_finite(t, system))
        unreachable = ("raises", "every node must be reachable from the root")
        for nodes in ([(0, 0, (0, 1)), (1, 1, ())], [(1, 1, (1,)), (0, 0, ())]):
            tree = RationalProofTree(nodes)
            for handle in tree.children:
                built = RationalProofTree(nodes, handle.root)
                assert handle == built
                answers = [outcome(call, handle) for call in readers]
                assert answers == [outcome(call, built) for call in readers]
                if handle.root == 1:  # the leaf, from which node 0 is unreachable
                    assert answers == [unreachable] * len(readers)

    def test_a_structural_fault_is_reported_before_an_id_or_index_fault(self):
        # the walk's faults come first; then the first node, in table order, whose
        # rule index or judgment id the system does not have
        sys_ = ab_system()
        for nodes, text in (
                ([(99, 0, ()), (A, 0, ())], "every node must be reachable from the root"),
                ([(A, 9, (1,)), (A, 0, (7,))], "child index 7 out of range"),
                ([(A, 9, (1,)), None], "node 1 is not a (judgment, rule index, children) "
                                       "triple with a tuple of children"),
                ([(B, 1, (1, 2)), (A, 7, ()), (99, 0, ())],
                 "rule index 7 out of range (system has 3 rules and corules)"),
                ([(B, 1, (1, 2)), (99, 0, ()), (A, 7, ())], "judgment id 99 out of range")):
            tree = RationalProofTree(nodes)
            for call in (check_finite, check_rational_in_gen, format_finite, format_rational):
                with pytest.raises(StructuralError) as excinfo:
                    call(tree, sys_)
                assert str(excinfo.value) == text


def outcome(call, tree):
    """What ``call(tree)`` gives: its value, or the message of its StructuralError."""
    try:
        return "returns", call(tree)
    except StructuralError as error:
        return "raises", str(error)


def extracted_proofs():
    """Every proof both extractors give on 300 seeded random systems, every other one
    with up to four corules, and on chains, ladders and infinitely-often lassos, each
    with its system."""
    rng = random.Random(27)
    systems = [random_system(rng, max_universe=7, max_rules=14, max_corules=4 * (k % 2))
               for k in range(300)]
    systems += [chain_system(n) for n in (1, 2, 40)] + [ladder_system(n) for n in (1, 5)]
    systems += [gen_infoften_system(POSITIVE, Lasso(prefix, loop))[0]
                for prefix, loop in (((), (1,)), ((0, 1, 0), (0, 0, 1)), ((1,) * 4, (0, 2)))]
    for system in systems:
        for j in range(system.universe_size):
            for proof in (extract_finite_proof(system, j, allow_corules=True),
                          extract_rational_proof(system, j)):
                if proof is not None:
                    yield system, proof


class CountedIndex(int):
    """A rule index that counts the ``index < rules`` tests made on it: only the pass
    over ids and indices against a system makes one."""

    checks = 0

    def __lt__(self, other):
        CountedIndex.checks += 1
        return super().__lt__(other)


def counted(system):
    """``system``, its inductive pass's firing rules made counted indices, so that
    both extractors hand on proofs whose rule indices count their checks."""
    system.__dict__["_ind"] = [i if i is None else CountedIndex(i) for i in system._ind]
    return system


def smaller(system):
    """A system of half the judgments of ``system`` and only its first rule."""
    return InferenceSystem(system.universe_size // 2, system.rules[:1])


def rebuilt_system(system):
    return InferenceSystem(system.universe_size, system.rules, system.corules, system.labels)


READERS = (check_finite, check_rational_in_gen, format_finite, format_rational)


class TestOneIdPassPerSystem:
    """A proof runs its pass over ids and rule indices once per system it is read
    against: it remembers the system it last passed, by identity, and an extracted
    proof has passed the system it came from. Any other system, even an equal one,
    gets the pass, with every StructuralError it raises."""

    def test_a_proof_passes_a_system_once(self):
        for system, target in ((ab_system(), B), (ladder_system(4), 8), (chain_system(50), 49)):
            proof = extract_finite_proof(system, target)
            tree = RationalProofTree([(j, CountedIndex(i), c) for j, i, c in proof.nodes])
            CountedIndex.checks = 0
            for _ in range(2):
                assert check_finite(tree, system) and check_rational_in_gen(tree, system)
                assert format_finite(tree, system) == format_finite(proof, system)
                assert format_rational(tree, system) == format_rational(proof, system)
            assert CountedIndex.checks == len(tree.nodes)

    def test_an_extracted_proof_has_passed_its_own_system(self):
        for system, target in ((ab_system(), B), (ladder_system(4), 8), (chain_system(50), 49)):
            system = counted(system)
            for proof in (extract_finite_proof(system, target),
                          extract_rational_proof(system, target)):
                assert type(proof.nodes[0][1]) is CountedIndex
                CountedIndex.checks = 0
                for call in READERS:
                    call(proof, system)
                assert CountedIndex.checks == 0
                again = rebuilt_system(system)  # equal, but not the same system
                answers = [call(proof, again) for call in READERS * 2]
                assert CountedIndex.checks == len(proof.nodes)
                assert answers == [call(proof, system) for call in READERS * 2]

    def test_a_smaller_system_still_raises(self):
        system = chain_system(50)
        text = "rule index 49 out of range (system has 1 rules and corules)"
        for proof in (extract_finite_proof(system, 49), extract_rational_proof(system, 49)):
            for call in READERS:
                call(proof, system)  # passed against its own system, read again
                with pytest.raises(StructuralError) as excinfo:
                    call(proof, smaller(system))
                assert str(excinfo.value) == text
            for twin in (copy.copy(proof), pickle.loads(pickle.dumps(proof))):
                assert twin == proof and hash(twin) == hash(proof) and repr(twin) == repr(proof)
                for call in READERS:
                    with pytest.raises(StructuralError) as excinfo:
                        call(twin, smaller(system))
                    assert str(excinfo.value) == text

    def test_readers_answer_alike_on_an_equal_rebuilt_system(self):
        readers = (lambda t, s: check_finite(t, s, True), check_rational_in_gen,
                   format_finite, format_rational)
        for system, proof in extracted_proofs():
            own = [outcome(lambda t: call(t, system), proof) for call in readers]
            again = rebuilt_system(system)
            assert own == [outcome(lambda t: call(t, again), proof) for call in readers]
            if is_acyclic(proof):
                assert own[2] == ("returns", naive_format(proof, system))


class TestExtractedProofsComeWalked:
    """An extractor walks the table it builds and hands the walk on: its readers
    answer as on the same table given to ``RationalProofTree``, which walks it itself."""

    def test_an_extracted_proof_carries_its_walk(self):
        kinds = set()
        for system, proof in extracted_proofs():
            assert proof._walk is not None
            kinds.add(proof._walk is False)
        assert kinds == {True, False}  # cyclic and acyclic proofs both occur

    def test_readers_answer_as_on_the_rebuilt_proof(self):
        # is_acyclic first: a finite render of a table with an unflagged cycle never ends
        proofs = 0
        for system, proof in extracted_proofs():
            rebuilt = RationalProofTree(proof.nodes, proof.root)
            for call in (is_acyclic, RationalProofTree.depth,
                         lambda t: check_finite(t, system), lambda t: check_finite(t, system, True),
                         lambda t: check_rational_in_gen(t, system),
                         lambda t: format_finite(t, system), lambda t: format_rational(t, system)):
                assert outcome(call, proof) == outcome(call, rebuilt)
            proofs += 1
        assert proofs > 1000

    def test_a_handed_on_walk_is_a_post_order(self):
        # an acyclic walk lists each node once, each child before its parent
        for system, proof in extracted_proofs():
            if proof._walk:
                at = {node: k for k, node in enumerate(proof._walk)}
                assert sorted(proof._walk) == list(range(len(proof.nodes)))
                assert all(at[c] < at[i] for i, node in enumerate(proof.nodes) for c in node[2])
                assert proof._walk[-1] == proof.root
            else:
                assert not is_acyclic(RationalProofTree(proof.nodes, proof.root))

    def test_children_out_of_premise_order_match(self):
        # a hand-made table may list a node's children in any order
        system = InferenceSystem(3, (rule(2, 0, 1), rule(0), rule(1)))
        swapped = RationalProofTree([(2, 0, (2, 1)), (0, 1, ()), (1, 2, ())])
        assert check_finite(swapped, system) and check_rational_in_gen(swapped, system)
        assert format_finite(swapped, system) == "j2  [rule 0]\n  j1  [rule 2]\n  j0  [rule 1]"
        twice = RationalProofTree([(2, 0, (1, 1)), (0, 1, ())])
        assert not check_finite(twice, system) and not check_rational_in_gen(twice, system)


def unshared(tree):
    """A copy of a small acyclic proof in which every node has one parent: the
    unfolded tree, written as a table in pre-order."""
    nodes = []

    def copy(i):
        judgment, rule_index, children = tree.nodes[i]
        at = len(nodes)
        nodes.append(None)
        nodes[at] = (judgment, rule_index, tuple(copy(c) for c in children))
        return at

    copy(tree.root)
    return RationalProofTree(nodes)


class TestFiniteRepr:
    def test_repr_is_the_table(self):
        leaf = RationalProofTree([(0, 0, ())])
        assert repr(leaf) == "RationalProofTree(nodes=((0, 0, ()),), root=0)"
        tree = RationalProofTree([(2, 3, (1, 2)), (0, 0, ()), (1, 1, (3,)), (0, 2, ())])
        assert repr(tree) == ("RationalProofTree(nodes=((2, 3, (1, 2)), (0, 0, ()), "
                              "(1, 1, (3,)), (0, 2, ())), root=0)")
        rng = random.Random(29)
        for _ in range(60):
            sys_ = random_system(rng, max_universe=7, max_rules=12, max_corules=4)
            for j in ind_interpretation(sys_, use_corules=True):
                tree = extract_finite_proof(sys_, j, allow_corules=True)
                assert repr(tree) == f"RationalProofTree(nodes={tree.nodes!r}, root=0)"

    def test_deep_chain_and_wide_ladder(self):
        n = 10_000
        chain = extract_finite_proof(chain_system(n), n - 1)
        text = repr(chain)
        assert text.startswith(f"RationalProofTree(nodes=(({n - 1}, {n - 1}, (1,)), ")
        assert text.endswith("(0, 0, ())), root=0)") and text.count("(") == 2 * n + 2
        rungs = 40
        ladder = extract_finite_proof(ladder_system(rungs), 2 * rungs)
        text = repr(ladder)
        assert text.count("), (") == 2 * rungs  # one entry per distinct subproof
        assert len(text) < 100 * (2 * rungs + 1)

    def test_renders_and_depth_ignore_sharing(self):
        # equality is the table's, so an unshared copy differs, but it reads the same
        ladder = extract_finite_proof(ladder_system(6), 12)
        copy = unshared(ladder)
        assert len(copy.nodes) == 3 * 2 ** 6 - 2 and ladder != copy
        assert ladder.depth() == copy.depth() == 13
        assert format_finite(ladder, ladder_system(6)) == format_finite(copy, ladder_system(6))


class TestWhatTheBenchmarkReads:
    """The fields and methods the benchmark's workloads and tracer read off proofs."""

    @staticmethod
    def distinct_nodes(tree):
        """Distinct node objects reached through ``children``, as the tracer counts
        them; each is kept, so that no id is reused while the walk runs."""
        seen, stack = {}, [tree]
        while stack:
            node = stack.pop()
            if id(node) not in seen:
                seen[id(node)] = node
                stack.extend(node.children)
        return len(seen)

    def test_finite_proof_fields(self):
        tree = extract_finite_proof(ladder_system(3), 6)
        assert tree.nodes[tree.root][:2] == (6, 5) and tree.depth() == 7
        assert [c.nodes[c.root][0] for c in tree.children] == [4, 5]
        grandchildren = [g for c in tree.children for g in c.children]
        assert all(type(g) is RationalProofTree and g.nodes is tree.nodes for g in grandchildren)
        assert tree.children[0].children[0] is grandchildren[0]  # one object per node
        assert self.distinct_nodes(tree) == len(tree.nodes) == 7

    def test_children_walk_counts_the_table(self):
        for system, target in ((ladder_system(12), 24), (chain_system(5_000), 4_999)):
            for tree in (extract_finite_proof(system, target),
                         extract_rational_proof(system, target)):
                assert self.distinct_nodes(tree) == len(tree.nodes)
        cycle = extract_rational_proof(InferenceSystem(3, (rule(0, 1), rule(1, 2), rule(2, 0)),
                                                       (rule(0),)), 0)
        assert self.distinct_nodes(cycle) == len(cycle.nodes) == 3

    def test_rational_proof_fields(self):
        tree = extract_rational_proof(ladder_system(3), 6)
        assert tree.root == 0 and len(tree.nodes) == 7
        assert tree.nodes[0] == (6, 5, (1, 6))
        assert all(type(node) is tuple and type(node[2]) is tuple for node in tree.nodes)


def self_loop_tree():
    return RationalProofTree(((0, 0, (0,)),), root=0)


def kahn_acyclic(nodes):
    """Reference: whether repeatedly removing nodes that no remaining node
    points to removes them all."""
    parents = [0] * len(nodes)
    for _, _, children in nodes:
        for c in children:
            parents[c] += 1
    ready = [i for i, count in enumerate(parents) if not count]
    for i in ready:  # grows while it is read
        for c in nodes[i][2]:
            parents[c] -= 1
            if not parents[c]:
                ready.append(c)
    return len(ready) == len(nodes)


def random_table(rng, size):
    """A node table in which every node is reachable from node 0: each node
    but the root hangs under an earlier one, plus random extra edges."""
    children = [[] for _ in range(size)]
    for i in range(1, size):
        children[rng.randrange(i)].append(i)
    for _ in range(rng.randrange(size + 1)):
        children[rng.randrange(size)].append(rng.randrange(size))
    for kids in children:
        rng.shuffle(kids)
    return [(0, 0, tuple(kids)) for kids in children]


class TestCheckRational:
    def test_self_loop_justified_by_coaxiom(self):
        sys_ = InferenceSystem(1, (rule(0, 0),), (rule(0),))
        assert check_rational_in_gen(self_loop_tree(), sys_)

    def test_self_loop_rejected_without_coaxiom(self):
        sys_ = InferenceSystem(1, (rule(0, 0),))
        assert not check_rational_in_gen(self_loop_tree(), sys_)

    def test_acyclic_tree_mirrors_finite_check(self):
        sys_ = ab_system()
        tree = RationalProofTree(((B, 1, (1,)), (A, 0, ())), root=0)
        assert check_rational_in_gen(tree, sys_)
        bad = RationalProofTree(((B, 1, (1,)), (C, 2, ())), root=0)
        assert not check_rational_in_gen(bad, sys_)

    def test_corule_node_is_rejected(self):
        # as check_finite rejects it without allow_corules, which accepts it
        sys_ = InferenceSystem(1, (rule(0, 0),), (rule(0),))
        tree = RationalProofTree(((0, 1, ()),), root=0)
        assert not check_rational_in_gen(tree, sys_) and not check_finite(tree, sys_)
        assert check_finite(tree, sys_, allow_corules=True)

    def test_unreachable_node_is_structural(self):
        sys_ = ab_system()
        tree = RationalProofTree(((A, 0, ()), (C, 2, ())), root=0)
        with pytest.raises(StructuralError):
            check_rational_in_gen(tree, sys_)

    def test_bad_child_index_is_structural(self):
        sys_ = ab_system()
        tree = RationalProofTree(((B, 1, (7,)),), root=0)
        with pytest.raises(StructuralError):
            check_rational_in_gen(tree, sys_)

    def test_is_acyclic_agrees_with_a_topological_sort(self):
        rng = random.Random(31)
        seen = set()
        for _ in range(600):
            size = rng.randint(1, 12)
            nodes = random_table(rng, size)
            at = rng.sample(range(size), size)  # renumber, so that the root is anywhere
            table = [None] * size
            for i, (judgment, rule_index, children) in enumerate(nodes):
                table[at[i]] = (judgment, rule_index, tuple(at[c] for c in children))
            acyclic = is_acyclic(RationalProofTree(table, root=at[0]))
            assert acyclic == kahn_acyclic(nodes)
            seen.add(acyclic)
        assert seen == {True, False}


class TestExtractRational:
    def test_maxelem_stream_judgments(self):
        sys_, scheme = gen_maxelem_system(Lasso((), (1, 2)), [1, 2, 3])
        good = extract_rational_proof(sys_, scheme.encode(0, 2))
        assert good is not None
        assert check_rational_in_gen(good, sys_)
        assert not is_acyclic(good)  # the derivation is genuinely infinite
        assert extract_rational_proof(sys_, scheme.encode(0, 3)) is None

    def test_inductive_judgments_get_acyclic_graphs(self):
        rng = random.Random(23)
        for _ in range(60):
            sys_ = random_system(rng, max_universe=7, max_rules=12, max_corules=4)
            for j in ind_interpretation(sys_):
                tree = extract_rational_proof(sys_, j)
                assert tree is not None
                assert is_acyclic(tree)
                assert check_rational_in_gen(tree, sys_)
                assert extract_finite_proof(sys_, j) == tree  # the one finite derivation

    def test_round_trip_over_random_systems(self):
        rng = random.Random(24)
        for _ in range(60):
            sys_ = random_system(rng, max_universe=7, max_rules=12, max_corules=4)
            gen = gen_interpretation(sys_)
            for j in range(sys_.universe_size):
                tree = extract_rational_proof(sys_, j)
                assert (tree is not None) == (j in gen)
                if tree is not None:
                    assert check_rational_in_gen(tree, sys_)


def scanned_rules(system):
    """Per judgment, the rule that derives it in the rational proofs whose witnesses
    are searched for: the rule the rules-only pass fires, else for a judgment of gen
    the first declared rule with premises in gen, found by a scan over every rule."""
    witnesses = reports_by_scan(system, gen_interpretation(system))["is_consistent"][1]
    return [witnesses.get(k) if i is None else i
            for k, i in enumerate(system._ind)]


class TestWitnessesFromTheGreatestPass:
    def test_no_rule_scan_is_left(self):
        assert not hasattr(inference, "_first_support")
        assert "_first_support" not in vars(prooftree)

    def test_tables_equal_those_of_a_scan(self):
        # the rules the greatest pass keeps to the end are the consistency witnesses
        rng = random.Random(26)
        chosen = 0  # judgments with a witness chosen among several kept rules
        for _ in range(300):
            sys_ = random_system(rng, max_universe=6, max_rules=20, max_corules=4)
            gen = gen_interpretation(sys_).members
            ind = ind_interpretation(sys_).members
            scanned = scanned_rules(sys_)
            for j in gen:
                tree = extract_rational_proof(sys_, j)
                assert tree == prooftree._proof(sys_, j, scanned)
                assert check_rational_in_gen(tree, sys_)
            chosen += sum(sum(r.conclusion == j and r.premises <= gen for r in sys_.rules) > 1
                          for j in gen - ind)
        assert chosen >= 15
        for n in (1, 3, 10):  # max grids on lassos: no judgment is fired without corules
            sys_, _ = gen_maxelem_system(Lasso((2,) * n, (1, 3, 2)), [1, 2, 3])
            scanned = scanned_rules(sys_)
            for j in gen_interpretation(sys_):
                assert extract_rational_proof(sys_, j) == prooftree._proof(sys_, j, scanned)


def mutate_finite(rng, tree, universe_size, rule_count):
    """Perturb one aspect of one node: its judgment, its rule index, or its first
    child, which is dropped (leaving a node unreachable, if it had no other parent)."""
    nodes = list(tree.nodes)
    i = rng.randrange(len(nodes))
    judgment, rule_index, children = nodes[i]
    choice = rng.randrange(3)
    if choice == 0:
        nodes[i] = ((judgment + 1) % universe_size, rule_index, children)
    elif choice == 1:
        nodes[i] = (judgment, rng.randrange(rule_count), children)
    else:
        nodes[i] = (judgment, rule_index, children[1:])
    return RationalProofTree(nodes, tree.root)


class TestCheckerSoundness:
    def test_accepted_finite_trees_have_derivable_roots(self):
        rng = random.Random(25)
        for _ in range(40):
            sys_ = random_system(rng, max_universe=6, max_rules=10, max_corules=3)
            for flag in (False, True):
                ind = ind_interpretation(sys_, use_corules=flag)
                rule_count = len(sys_.all_rules(flag))
                if rule_count == 0:
                    continue
                for j in ind:
                    tree = extract_finite_proof(sys_, j, allow_corules=flag)
                    for _ in range(4):
                        mutant = mutate_finite(rng, tree, sys_.universe_size,
                                               rule_count)
                        try:
                            accepted = check_finite(mutant, sys_, allow_corules=flag)
                        except StructuralError:
                            continue
                        if accepted:
                            assert mutant.nodes[mutant.root][0] in ind

    def test_accepted_rational_graphs_have_roots_in_gen(self):
        rng = random.Random(26)
        for _ in range(60):
            sys_ = random_system(rng, max_universe=6, max_rules=10, max_corules=3)
            gen = gen_interpretation(sys_)
            for j in gen:
                tree = extract_rational_proof(sys_, j)
                for _ in range(4):
                    mutant = mutate_rational(rng, tree, sys_)
                    try:
                        accepted = check_rational_in_gen(mutant, sys_)
                    except StructuralError:
                        continue
                    if accepted:
                        assert mutant.nodes[mutant.root][0] in gen


def mutate_rational(rng, tree, system):
    nodes = list(tree.nodes)
    i = rng.randrange(len(nodes))
    judgment, rule_index, children = nodes[i]
    choice = rng.randrange(3)
    if choice == 0:
        nodes[i] = ((judgment + 1) % system.universe_size, rule_index, children)
    elif choice == 1 and system.rules:
        nodes[i] = (judgment, rng.randrange(len(system.rules)), children)
    else:
        nodes[i] = (judgment, rule_index, tuple(rng.randrange(len(nodes)) for _ in children))
    return RationalProofTree(tuple(nodes), root=tree.root)
