"""Paired end-to-end times of ``corules`` commands: this checkout against another revision.

Run from the root of a git checkout:

    python tools/cmd_times.py REV [PAIRS]

It extracts the ``src`` of ``REV`` with ``git archive`` into a temporary directory.
Each command of a fixed list, which covers every command shape that ``perfbench``
issues and the README's ``--candidates``, runs as ``perfbench`` runs a command:
``python -c "from corules.cli import main; main()" ARGS``, with only the tree's
``src`` on ``PYTHONPATH``. The inputs are the demos of this checkout and a
600-judgment chain. Each command first runs once on each tree, untimed, so that
both trees' bytecode is cached alike; the two runs must print the same bytes and
exit alike. Then it runs in PAIRS pairs (default 20), one run on each tree, the
first run of a pair taking turns between the trees, and the rounds of pairs going
over the whole list in turn, so that a slow stretch of the host falls on every
command. A bare interpreter (``python -c pass``) runs before every run, and each
run's wall time is scaled to a bare interpreter's 40 ms by the bare runs just
before and just after it, as ``perfbench`` scales ``cmd_ms``. A start-up row goes
first, paired and scaled in the same way: it times a fresh interpreter from its start
until it prints a ready line after ``import corules, corules.cli``, as ``perfbench``'s
``probe`` times ``setup_s``.

Per command the script prints the median scaled time on each tree in ms, the
interquartile range of REV's, the median of the pairs' ratios of the checkout's
time to REV's, and the pairs the checkout won. Only the standard library is used.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from _pairs import ROOT, rev_src, summary

PAIRS = 20
REF_START_S = 0.04  # a bare interpreter's start at the reference speed, as in perfbench
CHAIN = 600
CORULES = ["-c", "from corules.cli import main; main()"]
STARTUP = "import corules, corules.cli\nprint('ready', flush=True)"


def commands(files: Path) -> list[list[str]]:
    """The timed command lines, with the chain file written under ``files``."""
    chain = files / f"chain{CHAIN}.inf"
    lines = ["judgments: " + " ".join(f"c{i}" for i in range(CHAIN)), "rule: c0 <-"]
    chain.write_text("\n".join(lines + [f"rule: c{i} <- c{i - 1}" for i in range(1, CHAIN)])
                     + "\n", encoding="utf-8")
    basics, stream = str(ROOT / "demos" / "basics.inf"), str(ROOT / "demos" / "max_stream12.inf")
    return [["ind", basics], ["coind", basics], ["gen", str(chain)], ["check", stream],
            ["prove", basics, "b"], ["prove", stream, "max(2,xs)", "--rational"],
            ["pred", "allpos", "--list", "1 2 | 3"],
            ["pred", "member", "--list", "1 2 | 3", "--x", "3"],
            ["pred", "infoften", "--list", "1 | 2", "--p", "even"],
            ["pred", "max", "--list", "| 1 2", "--x", "2", "--candidates", "1,2,3"]]


def timed(argv: list[str], src: Path) -> tuple[float, subprocess.CompletedProcess]:
    """Wall seconds of one interpreter run of ``argv`` on ``src``, and its outcome."""
    start = time.perf_counter()
    done = subprocess.run([sys.executable, *argv], cwd=ROOT, capture_output=True,
                          env=dict(os.environ, PYTHONPATH=str(src)), check=False)
    return time.perf_counter() - start, done


def ready(src: Path) -> float:
    """Wall seconds from starting an interpreter on ``src`` until it prints its ready line
    after ``import corules, corules.cli``."""
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", STARTUP], cwd=ROOT, stdout=subprocess.PIPE,
                          env=dict(os.environ, PYTHONPATH=str(src))) as child:
        line = child.stdout.readline()
        took = time.perf_counter() - start
        child.communicate()
    if line.strip() != b"ready" or child.returncode:
        raise RuntimeError(f"the start-up probe on {src} exited {child.returncode}")
    return took


def main() -> int:
    args = sys.argv[1:]
    if len(args) not in (1, 2) or not all(a.isdigit() and int(a) >= 2 for a in args[1:]):
        print("usage: python tools/cmd_times.py REV [PAIRS], PAIRS at least 2",
              file=sys.stderr)
        return 64
    rev, pairs = args[0], int(args[1]) if len(args) == 2 else PAIRS
    with tempfile.TemporaryDirectory(prefix="corules-cmd-times-") as tmp:
        base = rev_src(rev, Path(tmp) / "base")
        if base is None:
            return 64
        trees = (base, ROOT / "src")  # REV's, the checkout's
        argvs = commands(Path(tmp))
        for argv in argvs:
            (_, old), (_, new) = (timed(CORULES + argv, src) for src in trees)
            if (old.returncode, old.stdout) != (new.returncode, new.stdout):
                print(f"corules {' '.join(argv)}: the trees differ", file=sys.stderr)
                return 1
        rows = [None, *argvs]  # None: the start-up row
        times: list[tuple[list[float], list[float]]] = [([], []) for _ in rows]
        before = timed(["-c", "pass"], ROOT / "src")[0]
        for k in range(pairs):
            for argv, record in zip(rows, times):
                for side in ((0, 1) if k % 2 == 0 else (1, 0)):
                    if argv is None:
                        took = ready(trees[side])
                    else:
                        took = timed(CORULES + argv, trees[side])[0]
                    after = timed(["-c", "pass"], ROOT / "src")[0]
                    record[side].append(took * 2 * REF_START_S / (before + after))
                    before = after
    print(f"{pairs} pairs per command, ms scaled to a {1000 * REF_START_S:.0f} ms bare "
          f"interpreter ({rev} against the checkout)")
    print(f"{'command':<56} {rev[:10]:>10} {'checkout':>9} {'IQR':>6} {'ratio':>6} {'wins':>6}")
    for argv, (old, new) in zip(rows, times):
        q1, _, q3 = statistics.quantiles(old, n=4)
        ratio, _, _, wins = summary(zip(old, new))
        shown = "start-up: import corules, corules.cli" if argv is None else " ".join(
            Path(w).name if "/" in w else repr(w) if " " in w else w for w in argv)
        print(f"{shown:<56} {1000 * statistics.median(old):10.1f} "
              f"{1000 * statistics.median(new):9.1f} {1000 * (q3 - q1):6.1f} {ratio:6.3f} "
              f"{wins:>3}/{pairs}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
