"""Byte-for-byte differential of the ``corules`` command against another revision.

Run from the root of a git checkout:

    python tools/differential.py REV

It extracts ``REV`` with ``git archive`` into a temporary directory and runs one
seeded corpus of commands on that tree and on this checkout's ``src``, each as
``python -m corules.cli ...`` with ``PYTHONHASHSEED=0`` and the tree's ``src`` first
on ``PYTHONPATH``. The corpus:

* the ``.inf`` files of ``demos/``, seeded random systems (corules, specs and
  self-loops included), chains and ladders ``a(i+1) <- a(i) b(i)``,
  ``b(i) <- a(i)`` of up to 18 rungs, whose finite proofs print every shared
  subproof (the largest about 50 MB);
* on each file ``ind``, ``coind``, ``gen`` and ``check``, and ``prove`` and
  ``prove --rational`` of every judgment, plus an unknown judgment;
* ``pred`` of every kind on seeded colists, with the flags each kind takes:
  short random ones, and long ones (lassos with mostly-zero prefixes of 200
  to 2,000 elements, a 2,000-element prefix with no positive element, and a
  2,000-element finite list), where the index-quantified oracle has the most
  positions to scan;
* a few malformed commands.

A record is a command's exit code, stdout and stderr. The script prints the
number of records and the first differing ones, and exits 1 if any differs,
else 0. Only the standard library is used.
"""

from __future__ import annotations

import hashlib
import io
import os
import random
import subprocess
import sys
import tarfile
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 2026
SHOWN = 5  # differing records printed in full
HEAD = 400  # bytes of stdout shown per differing record

KINDS = {  # kind -> the flags of each run beside --list
    "member": [["--x", "1"], ["--x", "4"]],
    "allpos": [[]],
    "eventually": [["--p", "even"], ["--p", "gt:3"]],
    "always": [["--p", "positive"], ["--p", "odd"]],
    "infoften": [["--p", "even"], ["--p", "eq:2"]],
    "max": [["--x", "3"], ["--x", "2", "--candidates", "1,2,3,5"]],
}


def random_inf(rng: random.Random) -> str:
    n = rng.randint(1, 9)
    names = [f"j{i}" for i in range(n)]
    lines = ["judgments: " + " ".join(names)]
    for directive, count in (("rule", rng.randint(0, 2 * n)), ("corule", rng.randint(0, 2))):
        for _ in range(count):
            premises = rng.sample(names, rng.randint(0, min(n, 3)))
            lines.append(f"{directive}: {rng.choice(names)} <- {' '.join(premises)}".rstrip())
    if rng.random() < 0.7:
        lines.append("spec: " + " ".join(rng.sample(names, rng.randint(0, n))))
    return "\n".join(lines) + "\n"


def chain_inf(n: int) -> str:
    lines = ["judgments: " + " ".join(f"c{i}" for i in range(n)), "rule: c0 <-"]
    lines += [f"rule: c{i} <- c{i - 1}" for i in range(1, n)]
    return "\n".join(lines) + "\n"


def ladder_inf(rungs: int) -> str:
    names = [f"{x}{i}" for i in range(rungs + 1) for x in "ab"]
    lines = ["judgments: " + " ".join(names), "rule: a0 <-"]
    for i in range(rungs):
        lines += [f"rule: a{i + 1} <- a{i} b{i}", f"rule: b{i} <- a{i}"]
    return "\n".join(lines) + "\n"


def sparse(rng: random.Random, length: int) -> list[int]:
    """``length`` elements, each 0 but for about one in 100, drawn from 1 to 5."""
    return [rng.randint(1, 5) if rng.random() < 0.01 else 0 for _ in range(length)]


def literal(prefix: list[int], loop: list[int]) -> str:
    """The ``--list`` text of a finite list (no loop) or of a lasso."""
    return " ".join(map(str, prefix)) + (" | " + " ".join(map(str, loop)) if loop else "")


def judgments(text: str) -> list[str]:
    line = next(line for line in text.splitlines() if line.startswith("judgments:"))
    return line.split("#")[0].split()[1:]


def corpus(files: Path) -> list[list[str]]:
    """The seeded commands, with their ``.inf`` files written under ``files``."""
    rng = random.Random(SEED)
    texts = {demo.name: demo.read_text(encoding="utf-8")
             for demo in sorted((ROOT / "demos").glob("*.inf"))}
    texts.update((f"random{k}.inf", random_inf(rng)) for k in range(16))
    texts.update((f"chain{n}.inf", chain_inf(n)) for n in (1, 40, 300))
    texts.update((f"ladder{r}.inf", ladder_inf(r)) for r in (1, 3, 8, 14, 18))
    texts["broken.inf"] = "judgments: a b\nrule: a <- c\n"
    commands = []
    for name, text in texts.items():
        path = str(files / name)
        Path(path).write_text(text, encoding="utf-8")
        commands += [[command, path] for command in ("ind", "coind", "gen", "check")]
        if name != "broken.inf":
            for j in judgments(text) + ["nosuch"]:
                commands += [["prove", path, j], ["prove", path, j, "--rational"]]
    for kind, runs in KINDS.items():
        for _ in range(5):
            prefix = [rng.randint(0, 5) for _ in range(rng.randint(0, 3))]
            loop = [rng.randint(0, 5) for _ in range(rng.randint(0, 3))]
            commands += [["pred", kind, "--list", literal(prefix, loop), *flags]
                         for flags in runs]
    longs = [literal(sparse(rng, rng.randint(200, 2000)),
                     [rng.randint(0, 5) for _ in range(rng.randint(1, 4))]) for _ in range(3)]
    longs += [literal([0] * 2000, [2]), literal(sparse(rng, 2000), [])]
    commands += [["pred", kind, "--list", text, *flags]
                 for text in longs for kind, runs in KINDS.items() for flags in runs]
    commands += [["pred", "max", "--list", "1 2"], ["pred", "allpos", "--list", "| x"],
                 ["pred", "member", "--list", "1", "--p", "even"], ["nosuch"], []]
    return commands


def record(src: Path, argv: list[str]) -> tuple:
    """Exit code, stdout digest, size and head, and stderr of one command on ``src``."""
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONHASHSEED": "0", "PYTHONPATH": path}
    done = subprocess.run([sys.executable, "-m", "corules.cli", *argv], env=env,
                          capture_output=True, check=False)
    out = done.stdout
    return (done.returncode, hashlib.sha256(out).hexdigest(), len(out), out[:HEAD],
            done.stderr)


def main() -> int:
    if len(sys.argv) != 2:
        print("usage: python tools/differential.py REV", file=sys.stderr)
        return 64
    rev = sys.argv[1]
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev, "src"],
                             capture_output=True, check=False)
    if archive.returncode:
        print(archive.stderr.decode(errors="replace"), end="", file=sys.stderr)
        return 64
    with tempfile.TemporaryDirectory(prefix="corules-differential-") as tmp:
        base = Path(tmp) / "base"
        with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
            tar.extractall(base)
        files = Path(tmp) / "files"
        files.mkdir()
        commands = corpus(files)
        differing = []
        with ThreadPoolExecutor(2) as pool:  # the two trees' runs of a command side by side
            for argv in commands:
                old, new = pool.map(record, (base / "src", ROOT / "src"), (argv, argv))
                if old != new:
                    differing.append((argv, old, new))
    print(f"{len(commands)} records, {len(differing)} differing ({rev} against the checkout)")
    fields = ("exit code", "stdout sha256", "stdout bytes", "stdout head", "stderr")
    for argv, old, new in differing[:SHOWN]:
        print(f"\n$ corules {' '.join(argv)}")
        for field, a, b in zip(fields, old, new):
            if a != b:
                print(f"  {field}:\n    {rev}: {a!r}\n    checkout: {b!r}")
    return 1 if differing else 0


if __name__ == "__main__":
    raise SystemExit(main())
