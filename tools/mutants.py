"""Mutation checks: each mutant is one edit of ``src``, with the tests that must catch it.

Run from the root of a git checkout:

    python tools/mutants.py [NAME ...]

A mutant is ``(name, file, old text, new text, test ids)``. For each mutant (every
one, or those named), the ``src`` of ``HEAD`` is extracted with ``git archive`` into
a temporary directory, the old text of the mutant's file (under ``src/corules``),
which must occur there exactly once, is replaced by the new text, and only the
mutant's tests run: ``python -m pytest -q -x -p no:cacheprovider TEST...`` from the
root of the checkout, with the copy's ``src`` first on ``PYTHONPATH``. A mutant is
killed when pytest reports a failed test (exit status 1). The script prints one line
per mutant and exits 1 if a mutant's old text is not found exactly once or a mutant
lives (its tests pass, or pytest ends any other way, say on an unknown test id),
else 0; 64 on an unknown name or if ``git archive`` fails. Only the standard library
is used.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Optional

from _pairs import ROOT, rev_src

MODEL = "tests/test_model.py"

MUTANTS = [
    ("corule pass without its corules", "inference.py",
     "return _least(self, True) if self._plain",
     "return _least(self, False) if self._plain",
     [MODEL]),
    ("_ind answers from a cached _bound", "inference.py",
     "        return _least(self, False)[0]\n",
     "        return self.__dict__['_bound'][0] if '_bound' in self.__dict__ "
     "else _least(self, False)[0]\n",
     [MODEL]),
    ("_greatest consumes the cached _users", "inference.py",
     "        for i in users[at[j]:at[j + 1]]:\n",
     "        span, users[at[j]:at[j + 1]] = users[at[j]:at[j + 1]], [0] * (at[j + 1] - at[j])\n"
     "        for i in span:\n",
     [MODEL]),
    ("gen's greatest pass starts from every plain rule", "inference.py",
     "kept = bytearray(map(operator.not_, waiting))",
     "kept = bytearray(b'\\x01') * len(waiting)",
     ["tests/test_inference.py::TestPassesFollowOnlyWhatTheyNeed::"
      "test_greatest_pass_of_gen_keeps_exactly_the_rules_inside", MODEL]),
    ("_least always builds the index", "inference.py",
     "users, at = system._users if ready else ((), ())",
     "users, at = system._users",
     ["tests/test_inference.py::TestPassesFollowOnlyWhatTheyNeed::"
      "test_ind_of_an_axiom_free_system_builds_no_index"]),
    ("_proof never flags a back edge", "prooftree.py",
     "cyclic = cyclic or not out[node_of[k]]",
     "cyclic = cyclic",
     ["tests/test_prooftree.py::TestExtractedProofsComeWalked", MODEL]),
    ("Value._valid fills the slots in reverse", "inference.py",
     "zip(cls._setters, slots)",
     "zip(cls._setters, reversed(slots))",
     ["tests/test_values.py::TestOneUncheckedConstructor::"
      "test_every_value_type_rebuilds_from_its_slots"]),
    ("Value binds its slot setters in reverse", "inference.py",
     "for s in cls.__slots__ if",
     "for s in reversed(cls.__slots__) if",
     ["tests/test_values.py::TestOneUncheckedConstructor"]),
    ("the pass cache never stores its value", "inference.py",
     "system.__dict__[self.attrname] = value = self.func(system)",
     "value = self.func(system)",
     ["tests/test_inference.py::TestPassesFollowOnlyWhatTheyNeed::"
      "test_ind_of_an_axiom_free_system_builds_no_index",
      "tests/test_inference.py::TestPassesFollowOnlyWhatTheyNeed::"
      "test_a_pass_that_follows_a_premise_builds_the_index",
      "tests/test_inference.py::TestEachPassIsCachedOnce::test_each_pass_runs_once_per_system",
      MODEL]),
    ("_gen returns its bound with corules", "inference.py",
     "        if waiting is None:\n            return bound, None\n",
     "        return bound, None\n",
     ["tests/test_inference.py::TestGenInterpretation::test_matches_enumeration_oracle",
      MODEL]),
    ("_rules finds each start with starts.index in a map", "inference.py",
     "cuts = map(slice, islice(starts, first, last),",
     "cuts = map(slice, map(starts.__getitem__, map(starts.index, islice(starts, first, last))),",
     ["tests/test_complexity.py::test_work_grows_linearly[rules+corules]"]),
    ("_direct without its leading-- check", "cli.py",
     "    if any(value.startswith(\"-\") for value in values):\n        return None\n",
     "",
     ["tests/test_cli.py::TestDirectReader"]),
    ("5-token rule lines keep their repeats", "cli.py",
     "premises += sorted(set(map(ids.__getitem__, words[3:])))",
     "premises += sorted(map(ids.__getitem__, words[3:]))",
     ["tests/test_compiled.py::test_parser_matches_the_pair_reference"]),
    ("cli imports principles at module level", "cli.py",
     "StructuralError, Value, _UsageError, _members, _set, _typed, interpret)\n",
     "StructuralError, Value, _UsageError, _members, _set, _typed, interpret)\n"
     "from .principles import CheckReport\n",
     ["tests/test_values.py::test_import_loads_neither_dataclasses_nor_inspect"]),
    ("_least keeps the last rule that fires at a judgment's round", "inference.py",
     "        for i in ready:\n",
     "        for i in reversed(ready):\n",
     ["tests/test_inference.py::TestEngineAgainstStepReference::test_rounds_are_kleene_stages",
      "tests/test_inference.py::TestEngineAgainstStepReference::"
      "test_finite_proofs_use_first_rule_firing_at_first_stage"]),
    ("is_consistent reads system.rules", "principles.py",
     "    for i in range(system._plain):\n",
     "    for i in range(len(system.rules)):\n",
     ["tests/test_compiled.py::test_queries_leave_a_builders_labels_unbuilt"]),
    ("children makes new handles on every read", "prooftree.py",
     "        if handles is None:  # one per node",
     "        if True:  # one per node",
     ["tests/test_prooftree.py::TestWhatTheBenchmarkReads::test_children_walk_counts_the_table"]),
    ("_direct lets an option repeat", "cli.py",
     "len(_PRED_OPTIONS.keys() & set(options)) < len(options)",
     "len(_PRED_OPTIONS.keys() & set(options)) < len(set(options))",
     ["tests/test_cli.py::TestDirectReader"]),
    ("_rules pairs the conclusions in reverse", "inference.py",
     "islice(self._heads, first, last)), 0)",
     "reversed(self._heads[first:last])), 0)",
     ["tests/test_compiled.py::test_rules_and_corules_are_the_rules_of_their_indices"]),
    ("parse_system loses its arrow check", "cli.py",
     "arrow = words[2] == ARROW",
     "arrow = len(words) > 2",
     ["tests/test_parse_columns.py"]),
    ("the max axiom follows its state's candidate rules", "predicates.py",
     "        if aut.heads[nxt] is None:\n"
     "            heads.append(k * n + s)  # an axiom\n"
     "            sizes.append(0)\n"
     "        # The rule for candidate y concludes max(head, y): the head up to it, then y.\n"
     "        heads += [k * n + s] * (k + 1)\n"
     "        heads += range((k + 1) * n + s, c * n, n)\n"
     "        body += range(nxt, c * n, n)\n"
     "        sizes += ones\n",
     "        heads += [k * n + s] * (k + 1)\n"
     "        heads += range((k + 1) * n + s, c * n, n)\n"
     "        body += range(nxt, c * n, n)\n"
     "        sizes += ones\n"
     "        if aut.heads[nxt] is None:\n"
     "            heads.append(k * n + s)\n"
     "            sizes.append(0)\n",
     ["tests/test_compiled.py::test_builders_match_the_pair_references"]),
    ("a max rule range starts one candidate late", "predicates.py",
     "heads += range((k + 1) * n + s, c * n, n)",
     "heads += range((k + 2) * n + s, c * n, n)",
     ["tests/test_predicates.py::TestMaxElemSystem::test_stream_golden_judgments"]),
    ("temporal coaxioms are counted as rules", "predicates.py",
     "    plain = len(heads)\n    heads += coaxioms\n",
     "    heads += coaxioms\n    plain = len(heads)\n",
     ["tests/test_predicates.py::TestInfinitelyOftenSystem"]),
    ("a builder formats its labels eagerly", "predicates.py",
     "                                  scheme.labels), scheme",
     "                                  scheme.labels()), scheme",
     ["tests/test_compiled.py::test_queries_leave_a_builders_labels_unbuilt"]),
    ("coaxiom offsets are not shifted", "predicates.py",
     "    starts += [len(body)] * len(coaxioms)\n",
     "    starts += [0] * len(coaxioms)\n",
     ["tests/test_predicates.py::TestInfinitelyOftenSystem"]),
    ("the colist reader blames the last bad token", "colist.py",
     "bad = next(t for t in tokens if _naturals_or_none((t,)) is None)",
     "bad = [t for t in tokens if _naturals_or_none((t,)) is None][-1]",
     ["tests/test_colist.py::test_a_literal_names_its_first_bad_token"]),
    ("the colist reader blames the first token", "colist.py",
     "bad = next(t for t in tokens if _naturals_or_none((t,)) is None)",
     "bad = tokens[0]",
     ["tests/test_cli.py::TestParseColist::test_digits_int_rejects_are_bad_tokens"]),
    ("_naturals_or_none lets int's ValueError through", "colist.py",
     "        try:\n            return tuple(map(int, tokens))\n"
     "        except ValueError:\n            pass\n",
     "        return tuple(map(int, tokens))\n",
     ["tests/test_cli.py::TestParseColist::test_digits_int_rejects_are_bad_tokens"]),
    ("member takes any element", "predicates.py",
     "    _check_naturals((x,), \"element must be a natural number\")\n"
     "    return _temporal_system(Kind.MEMBER_OF",
     "    return _temporal_system(Kind.MEMBER_OF",
     ["tests/test_predicates.py::TestMemberSystem"]),
    ("the deciders check x for every kind", "predicates.py",
     "    if family.needs_value and x is not None:\n",
     "    if x is not None:\n",
     ["tests/test_predicates.py::TestDeciderArguments::"
      "test_arguments_a_kind_does_not_take_are_ignored"]),
    ("a system never calls its label function", "inference.py",
     "return self._labels() if callable(self._labels) else self._labels",
     "return self._labels",
     ["tests/test_predicates.py::TestJudgmentScheme::test_labels_are_unique"]),
    ("a back edge is counted for any visited child", "prooftree.py",
     "                    if marks[c] == 1:",
     "                    if marks[c]:",
     ["tests/test_prooftree.py::TestCheckRational::"
      "test_is_acyclic_agrees_with_a_topological_sort"]),
    ("the walk drops its triple check", "prooftree.py",
     "if not (isinstance(node, tuple) and len(node) == 3 and isinstance(node[2], tuple))",
     "if False",
     ["tests/test_prooftree.py::TestOneWalk::"
      "test_a_structural_fault_is_reported_before_an_id_or_index_fault"]),
    ("the walk drops the integer check on a child", "prooftree.py",
     "if not (isinstance(c, int) and 0 <= c < n):",
     "if not 0 <= c < n:",
     ["tests/test_prooftree.py::TestMalformedProofs"]),
    ("the walk drops the integer check on the root", "prooftree.py",
     "if not (isinstance(root, int) and 0 <= root < n):",
     "if not 0 <= root < n:",
     ["tests/test_prooftree.py::TestMalformedProofs"]),
    ("the check drops the integer check on a rule index", "prooftree.py",
     "if not (isinstance(rule_index, int) and 0 <= rule_index < rules):",
     "if not 0 <= rule_index < rules:",
     ["tests/test_prooftree.py::TestMalformedProofs"]),
    ("get reads its index without _index", "colist.py",
     "    i = _index(i, \"index\")\n"
     "    if isinstance(_typed(xs, (Finite, Lasso), \"xs\"), Finite):\n"
     "        return xs.elements[i] if",
     "    if isinstance(_typed(xs, (Finite, Lasso), \"xs\"), Finite):\n"
     "        return xs.elements[i] if",
     ["tests/test_colist.py::TestGet"]),
    ("member checks its element with x < 0", "predicates.py",
     "    _check_naturals((x,), \"element must be a natural number\")\n"
     "    return _temporal_system(Kind.MEMBER_OF",
     "    if x < 0:\n"
     "        raise ValueError(f\"element must be a natural number, got {x!r}\")\n"
     "    return _temporal_system(Kind.MEMBER_OF",
     ["tests/test_predicates.py::TestMemberSystem"]),
    ("_print keeps the closed stdout", "cli.py",
     "        os.dup2(devnull, sys.stdout.fileno())\n",
     "",
     ["tests/test_cli.py::TestClosedStdout"]),
    ("is_closed reads system.rules", "principles.py",
     "inside.issuperset(system._premises(i))",
     "inside.issuperset(system.rules[i].premises)",
     ["tests/test_compiled.py::test_queries_leave_a_builders_labels_unbuilt"]),
    ("the infinitely-often oracle nests its quantifiers", "predicates.py",
     "    hits, nearest = list(_hits(p, values)), None\n"
     "    for i in range(2 * w - 1, -1, -1):\n"
     "        if i < w and (nearest is None or nearest > i + w):\n"
     "            return False\n"
     "        if hits[i]:\n"
     "            nearest = i\n"
     "    return w > 0\n",
     "    hits = list(_hits(p, values))\n"
     "    return w > 0 and all(any(hits[n] for n in range(i + 1, i + w + 1))\n"
     "                         for i in range(w))\n",
     ["tests/test_complexity.py::test_work_grows_linearly[spec_oracle_infoften]"]),
    ("_greatest keeps its live judgments in a list", "inference.py",
     "alive = set(compress(range(system.universe_size), support))",
     "alive = list(compress(range(system.universe_size), support))",
     ["tests/test_complexity.py::test_work_grows_linearly[coind_interpretation]"]),
    ("a finite render copies no repeated subtree", "prooftree.py",
     "        if key in done:\n",
     "        if rational and key in done:\n",
     ["tests/test_prooftree.py::TestRender::test_ladder_formats_each_node_and_depth_once"]),
    ("_greatest takes each doomed judgment with list.remove", "inference.py",
     "        j = doomed.pop()\n",
     "        j = doomed[0]\n        doomed.remove(j)\n",
     ["tests/test_complexity.py::test_work_grows_linearly[three_way_max]"]),
    ("cli imports predicates at module level", "cli.py",
     "StructuralError, Value, _UsageError, _members, _set, _typed, interpret)\n",
     "StructuralError, Value, _UsageError, _members, _set, _typed, interpret)\n"
     "from .predicates import Kind\n",
     ["tests/test_values.py::test_import_loads_neither_dataclasses_nor_inspect"]),
    ("cli imports prooftree at module level", "cli.py",
     "StructuralError, Value, _UsageError, _members, _set, _typed, interpret)\n",
     "StructuralError, Value, _UsageError, _members, _set, _typed, interpret)\n"
     "from .prooftree import format_finite\n",
     ["tests/test_values.py::test_import_loads_neither_dataclasses_nor_inspect"]),
    ("the package imports predicates eagerly", "__init__.py",
     "\n\ndef __dir__()",
     "\nfrom . import predicates  # noqa: E402\n\n\ndef __dir__()",
     ["tests/test_package.py::test_a_bare_import_loads_no_submodule_and_resolves_each_home"]),
    ("_forward reads a home module's name from the module", "__init__.py",
     "module if name == home else getattr(module, name)",
     "getattr(module, name)",
     ["tests/test_package.py::test_lazy_lookup_reads_an_export_a_home_module_or_nothing"]),
    ("KINDS reordered", "cli.py",
     'KINDS = ["member", "allpos",',
     'KINDS = ["allpos", "member",',
     ["tests/test_cli.py::TestRunPred::test_kind_names_are_those_of_kind"]),
    ("prooftree defines its own StructuralError", "prooftree.py",
     "from .inference import InferenceSystem, InternalError, StructuralError, Value, _set, "
     "_tuple, _typed\n",
     "from .inference import InferenceSystem, InternalError, Value, _set, _tuple, _typed\n\n\n"
     "class StructuralError(Exception):\n    pass\n",
     ["tests/test_package.py::test_each_export_is_the_object_of_its_home_module"]),
    ("__dir__ leaves out the exports", "__init__.py",
     "set(globals()) | set(__all__) | set(_EXPORTS)",
     "set(globals()) | set(_EXPORTS)",
     ["tests/test_package.py::test_a_bare_import_loads_no_submodule_and_resolves_each_home"]),
    ("parse_colist hands back a list", "colist.py",
     "    return Finite._valid(_naturals(pieces))\n",
     "    return Finite._valid(list(_naturals(pieces)))\n",
     ["tests/test_cli.py::TestParseColist::test_parse_is_the_checked_constructor"]),
    ("_forward does not keep what it read", "__init__.py",
     "namespace[name] = value = module if",
     "value = module if",
     ["tests/test_package.py::test_inference_answers_for_each_name_of_principles"]),
    ("_walked ignores its kept walk", "prooftree.py",
     "        if self._walk is not None:\n            return self._walk or None\n",
     "",
     ["tests/test_prooftree.py::TestOneWalk::test_each_proof_walks_its_table_once"]),
    ("SuffixAutomaton without its length check", "colist.py",
     "        if len(_typed(nexts, (Sequence,), \"nexts\")) != n:\n"
     "            raise ValueError(f\"nexts must be as long as heads ({n}), not {len(nexts)}\")\n",
     "        _typed(nexts, (Sequence,), \"nexts\")\n",
     ["tests/test_values.py::TestValidationErrors::test_construction"]),
]


def run(mutant: tuple, tmp: Path) -> Optional[str]:
    """``killed``, ``LIVES`` or ``NOT FOUND``, and pytest's last line, for one mutant; None
    if ``git archive`` fails."""
    name, file, old, new, tests = mutant
    src = rev_src("HEAD", tmp)
    if src is None:
        return None
    path = src / "corules" / file
    text = path.read_text(encoding="utf-8")
    if text.count(old) != 1:
        return f"NOT FOUND  {name}: the old text occurs {text.count(old)} times in {file}"
    path.write_text(text.replace(old, new), encoding="utf-8")
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                           *tests], cwd=ROOT, env=env, capture_output=True, text=True, check=False)
    last = (done.stdout.strip().splitlines() or [f"exit status {done.returncode}"])[-1]
    return f"{'killed' if done.returncode == 1 else 'LIVES'}  {name}: {last}"


def main(names: list[str]) -> int:
    unknown = set(names) - {m[0] for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}", file=sys.stderr)
        return 64
    status = 0
    for mutant in MUTANTS:
        if names and mutant[0] not in names:
            continue
        with tempfile.TemporaryDirectory(prefix="corules-mutant-") as tmp:
            line = run(mutant, Path(tmp))
        if line is None:
            return 64
        print(line, flush=True)
        status |= not line.startswith("killed")
    return status


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
