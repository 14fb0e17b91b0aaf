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
    ("Value._valid fills the slots in reverse", "_value.py",
     "zip(cls.__slots__, slots)",
     "zip(cls.__slots__, reversed(slots))",
     ["tests/test_values.py::TestOneUncheckedConstructor::"
      "test_every_value_type_rebuilds_from_its_slots"]),
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
     "from ._value import ParseError, Value, _UsageError, _set, _typed\n",
     "from ._value import ParseError, Value, _UsageError, _set, _typed\n"
     "from .principles import CheckReport\n",
     ["tests/test_values.py::test_import_loads_neither_dataclasses_nor_inspect"]),
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
