"""Paired whole op cycles of a ``perfbench`` workload: this checkout against another revision.

Run from the root of a git checkout:

    python tools/op_cycles.py REV WORKLOAD [CYCLES [SEED]]

It extracts the ``src`` of ``REV`` with ``git archive`` into a temporary directory
and builds ``WORKLOAD`` (``fixpoint_large``, ``proof_shapes`` or ``small_batch``)
from SEED (default 7, the benchmark's usual seed; give 11 to pair a held-out seed)
with this checkout's ``perfbench/`` twice in one process: once on REV's
``src`` and once on this checkout's. Each build imports its own ``corules``, its own
``perfbench`` modules and its own ``tests/util.py``, and each side's modules are put
back in ``sys.modules`` before any of its ops runs, so an import inside a call finds
its own tree. Every op then runs once on each side, and its answer is checked as
``perfbench`` checks it; a wrong answer or an error on either side stops the script.

Then CYCLES pairs (default 20) of whole op cycles follow. A cycle runs every op of
the workload once, in an order drawn per pair, and both cycles of a pair run in the
same order. The side that goes first takes turns, and a full collection runs before
each cycle. Each op is timed on its own, and a cycle's time is the sum of its ops'.
The script prints the median cycle time of each side in ms, the median of the pairs'
ratios of the checkout's time to REV's, the interquartile range of those ratios, and
the pairs the checkout won. Then, per op kind, it prints the median of the pairs'
ratios of that kind's time, so a change shows where its gain or loss sits. Only the
standard library is used.

The cycles time whole ops, so they see every cost an op pays, lazily built caches
included. ``tools/layer_times.py`` times single calls on systems whose premise index
it builds outside the timed calls, so it cannot show work saved by not building the
index.
"""

from __future__ import annotations

import gc
import importlib
import io
import random
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 7
CYCLES = 20
WORKLOADS = ("fixpoint_large", "proof_shapes", "small_batch")
# the top-level modules that a build imports from a tree, perfbench or tests
OWN = ("corules", "workloads", "reference", "util")


def own(name: str) -> bool:
    return name.split(".")[0] in OWN


def build(src: Path, workload: str, seed: int, tmp: Path) -> tuple[list, dict]:
    """The ops of ``workload`` from ``seed``, built on the ``corules`` of ``src``, and
    the modules the build imported."""
    for name in list(filter(own, sys.modules)):
        del sys.modules[name]
    paths = [str(src), str(ROOT / "tests"), str(ROOT / "perfbench")]
    sys.path[:0] = paths
    try:
        ops = importlib.import_module("workloads").build(workload, seed, tmp, ROOT).ops
    finally:
        del sys.path[:len(paths)]
    return ops, {name: module for name, module in sys.modules.items() if own(name)}


def checked(side: str, ops: list) -> list:
    """``ops``, once each op's answer on ``side`` is checked; the first wrong answer or
    error stops the script."""
    for op in ops:
        try:
            error = op.verify(op.run())
        except Exception as e:  # an error is as wrong as a wrong answer
            error = f"{type(e).__name__}: {e}"
        if error:
            raise SystemExit(f"{side}: {op.kind}: {error}"[:300])
    return ops


def cycle(ops: list, modules: dict, order: list[int]) -> list[float]:
    """The wall time of each op of ``ops``, by index, in one run of them all in ``order``."""
    sys.modules.update(modules)
    gc.collect()
    times = [0.0] * len(ops)
    clock = time.perf_counter
    for i in order:
        start = clock()
        ops[i].run()
        times[i] = clock() - start
    return times


def by_kind(kinds: list[str], pairs: list[list[list[float]]]) -> list[tuple[str, int, float]]:
    """Per op kind, in order of first appearance: its op count and the median of the
    pairs' ratios of the checkout's time on its ops to REV's."""
    ops: dict[str, list[int]] = {}
    for i, kind in enumerate(kinds):
        ops.setdefault(kind, []).append(i)
    return [(kind, len(index), statistics.median(
        sum(map(new.__getitem__, index)) / sum(map(old.__getitem__, index))
        for old, new in pairs)) for kind, index in ops.items()]


def main() -> int:
    args = sys.argv[1:]
    cycles = args[2] if len(args) > 2 else str(CYCLES)
    seed = args[3] if len(args) > 3 else str(SEED)
    if len(args) not in (2, 3, 4) or args[1] not in WORKLOADS or not cycles.isdigit() \
            or int(cycles) < 2 or not seed.isdigit():
        print("usage: python tools/op_cycles.py REV WORKLOAD [CYCLES [SEED]], CYCLES at "
              "least 2", file=sys.stderr)
        return 64
    rev, workload, cycles, seed = args[0], args[1], int(cycles), int(seed)
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev, "src"],
                             capture_output=True, check=False)
    if archive.returncode:
        print(archive.stderr.decode(errors="replace"), end="", file=sys.stderr)
        return 64
    with tempfile.TemporaryDirectory(prefix="corules-op-cycles-") as tmp:
        with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
            tar.extractall(Path(tmp) / "rev")
        sides = []
        for name, src in ((rev, Path(tmp) / "rev" / "src"), ("checkout", ROOT / "src")):
            ops, modules = build(src, workload, seed, Path(tmp))
            sys.modules.update(modules)
            sides.append((checked(name, ops), modules))
        if [op.kind for op in sides[0][0]] != [op.kind for op in sides[1][0]]:
            print("the two builds made different ops", file=sys.stderr)
            return 1
        rng = random.Random(f"{workload}/{seed}/cycles")
        pairs: list[list[list[float]]] = []  # per pair, per side, per op
        for k in range(cycles):
            order = rng.sample(range(len(sides[0][0])), len(sides[0][0]))
            pair: list[list[float]] = [[], []]
            for side in ((0, 1) if k % 2 == 0 else (1, 0)):
                pair[side] = cycle(*sides[side], order)
            pairs.append(pair)
    totals = [(sum(old), sum(new)) for old, new in pairs]
    old, new = (statistics.median(times) * 1000 for times in zip(*totals))
    ratios = [b / a for a, b in totals]
    q1, _, q3 = statistics.quantiles(ratios, n=4)
    wins = sum(b < a for a, b in totals)
    print(f"{workload} seed {seed}: {len(sides[0][0])} ops per cycle, {len(pairs)} pairs")
    print(f"{rev} {old:.1f} ms, checkout {new:.1f} ms, ratio {statistics.median(ratios):.3f} "
          f"(IQR {q1:.3f}-{q3:.3f}), checkout won {wins}/{len(pairs)}")
    for kind, count, ratio in by_kind([op.kind for op in sides[0][0]], pairs):
        print(f"  {kind}: {count} ops, ratio {ratio:.3f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
