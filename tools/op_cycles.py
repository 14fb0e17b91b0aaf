"""Paired whole op cycles of a ``perfbench`` workload: this checkout against another revision.

Run from the root of a git checkout:

    python tools/op_cycles.py REV WORKLOAD [CYCLES [SEED]]

It extracts the ``src`` of ``REV`` with ``git archive`` into a temporary directory
and builds ``WORKLOAD`` (``fixpoint_large``, ``proof_shapes`` or ``small_batch``)
from SEED (default 7, the benchmark's usual seed; give 11 to pair a held-out seed)
with this checkout's ``perfbench/`` three times in one process: once on REV's ``src``
and twice on this checkout's, the second build being the A/A control. Each build
imports its own ``corules``, its own ``perfbench`` modules and its own
``tests/util.py``, and each side's modules are put back in ``sys.modules`` before any
of its ops runs, so an import inside a call finds its own tree. Every op then runs
once on each side, and its answer is checked as ``perfbench`` checks it; a wrong
answer or an error on any side stops the script.

Then CYCLES pairs (default 20) of whole op cycles follow. A cycle runs every op of
the workload once, in an order drawn per pair, and the three cycles of a pair run in
the same order. The three builds take their six orders in turn, and a full collection
runs before each cycle. Each op is timed on its own, and a cycle's time is the sum of
its ops'. The script prints the median cycle time of each side in ms, the median of
the pairs' ratios of the checkout's time to REV's, the interquartile range of those
ratios, and the pairs the checkout won. The A/A row reads the second build of the
checkout against the first in the same way. Their code is the same, so how far that
row strays from 1 is the lean a run's position and process give, which a change must
exceed to show; the A/A build adds half to the time of the cycles. Two rows follow for
the statistics behind ``perfbench``'s ``op_ms_p50`` and ``op_ms_p90``: per side, the
0.5 and the 0.9 quantile over ops of each op's median time over the cycles,
interpolated as ``perfbench`` interpolates them, the ratio of the checkout's to REV's,
and beside it the A/A ratio of the checkout's second build to its first. Then, per
op kind, it prints the median and the interquartile range of the pairs'
ratios of that kind's time, the pairs the checkout won, and the kind's A/A ratio and
IQR, so a change shows where its gain or loss sits, and a kind that moved can be told
from a noisy one. A closed stdout (``| head``) ends the script quietly. Only the
standard library is used.

The cycles time whole ops, so they see every cost an op pays, lazily built caches
included. ``tools/layer_times.py`` times single calls on systems whose premise index
it builds outside the timed calls, so it cannot show work saved by not building the
index.
"""

from __future__ import annotations

import gc
import importlib
import itertools
import os
import random
import statistics
import sys
import tempfile
import time
from pathlib import Path

from _pairs import ROOT, rev_src, summary

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


def by_kind(kinds: list[str], pairs: list[list[list[float]]]) -> list[tuple[str, int, tuple]]:
    """Per op kind, in order of first appearance: its op count and the ``summary`` of the
    pairs' times on its ops."""
    ops: dict[str, list[int]] = {}
    for i, kind in enumerate(kinds):
        ops.setdefault(kind, []).append(i)
    return [(kind, len(index), summary((sum(map(old.__getitem__, index)),
                                        sum(map(new.__getitem__, index))) for old, new in pairs))
            for kind, index in ops.items()]


def deciles_of_medians(pairs: list[list[list[float]]], side: int) -> list[float]:
    """The deciles over ops of each op's median time on ``side``, interpolated between the
    two nearest ranks as ``perfbench``'s ``percentile`` is: the fifth is ``op_ms_p50``'s
    statistic, the ninth ``op_ms_p90``'s."""
    return statistics.quantiles(map(statistics.median, zip(*(pair[side] for pair in pairs))),
                                n=10, method="inclusive")


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
    with tempfile.TemporaryDirectory(prefix="corules-op-cycles-") as tmp:
        rev_tree = rev_src(rev, Path(tmp) / "rev")
        if rev_tree is None:
            return 64
        sides = []  # REV, the checkout, and the checkout's A/A build
        for name, src in ((rev, rev_tree), ("checkout", ROOT / "src"), ("A/A", ROOT / "src")):
            ops, modules = build(src, workload, seed, Path(tmp))
            sys.modules.update(modules)
            sides.append((checked(name, ops), modules))
        kinds = [op.kind for op in sides[0][0]]
        if any([op.kind for op in ops] != kinds for ops, _ in sides[1:]):
            print("the builds made different ops", file=sys.stderr)
            return 1
        rng = random.Random(f"{workload}/{seed}/cycles")
        orders = list(itertools.permutations(range(len(sides))))
        pairs: list[list[list[float]]] = []  # per pair, per side, per op
        for k in range(cycles):
            order = rng.sample(range(len(kinds)), len(kinds))
            pair: list[list[float]] = [[] for _ in sides]
            for side in orders[k % len(orders)]:
                pair[side] = cycle(*sides[side], order)
            pairs.append(pair)
    change, control = [pair[:2] for pair in pairs], [pair[1:] for pair in pairs]
    totals = [(sum(old), sum(new)) for old, new in change]
    old, new = (statistics.median(times) * 1000 for times in zip(*totals))
    ratio, q1, q3, wins = summary(totals)
    print(f"{workload} seed {seed}: {len(kinds)} ops per cycle, {len(pairs)} pairs")
    print(f"{rev} {old:.1f} ms, checkout {new:.1f} ms, ratio {ratio:.3f} "
          f"(IQR {q1:.3f}-{q3:.3f}), checkout won {wins}/{len(pairs)}")
    ratio, q1, q3, wins = summary((sum(old), sum(new)) for old, new in control)
    print(f"A/A, the checkout against itself: ratio {ratio:.3f} (IQR {q1:.3f}-{q3:.3f}), "
          f"won {wins}/{len(pairs)}")
    deciles = [deciles_of_medians(pairs, side) for side in (0, 1, 2)]
    for name, k in (("p50", 4), ("p90", 8)):
        old, new, twin = (side[k] * 1000 for side in deciles)
        print(f"op {name} of each op's median: {rev} {old:.4f} ms, checkout {new:.4f} ms, "
              f"ratio {new / old:.3f}; A/A {twin / new:.3f}")
    for (kind, count, (ratio, q1, q3, wins)), (_, _, (aa, aa1, aa3, _)) in zip(
            by_kind(kinds, change), by_kind(kinds, control)):
        print(f"  {kind}: {count} ops, ratio {ratio:.3f} (IQR {q1:.3f}-{q3:.3f}), "
              f"checkout won {wins}/{len(pairs)}; A/A {aa:.3f} ({aa1:.3f}-{aa3:.3f})")
    return 0


if __name__ == "__main__":
    try:
        status = main()
        sys.stdout.flush()
    except BrokenPipeError:  # the reader of stdout is gone, which is no error here
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        status = 0
    raise SystemExit(status)
