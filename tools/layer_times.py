"""Paired wall times of the engine's layers: this checkout against another revision.

Run from the root of a git checkout:

    python tools/layer_times.py REV

It extracts the ``src`` of ``REV`` with ``git archive`` into a temporary directory
and imports it as a second package, ``corules_rev``, beside this checkout's
``corules``, in one process. The checkout builds two systems from a fixed seed:

* a chain of 100,000 judgments, ``c0 <-`` and ``c(i) <- c(i-1)`` with the rules
  shuffled, plus a ghost cycle of 50 judgments that a coaxiom admits into the
  generated interpretation;
* the max-element system of a 600-state lasso over 302 candidates (181,800 rules).

The layers are ``parse_system`` of the system's file (judgment ``j`` named ``j<j>``),
the build of ``rules`` from the rule arrays, ``ind``, ``coind``, ``gen``, ``is_closed``,
``is_consistent`` and ``bounded_coinduction_check`` (the three checks of the generated
interpretation), the two proof extractors (the finite proof, corules allowed, and the
rational proof of the chain's last judgment, or of the grid's maximum at state 0), the finite
extraction followed by ``check_finite`` of its proof, the readers of one proof:
``check_finite``, ``depth()`` and ``is_acyclic`` on a new ``RationalProofTree`` over
the finite proof's table, and ``check_rational_in_gen`` of a new proof over the
rational proof's table; each tree extracts both tables once. On the max grid only,
``format_finite`` and ``format_rational`` render a new proof over the finite and the
rational table: an indented render grows with the square of a chain's depth, to
about 10 GB at 100,000. ``check_rational_in_gen alone`` is the same check on a system
whose corule pass ``ind_interpretation(s, True)`` ran before the timed call, so it
times the check without that pass. On the chain only, ``parse_colist`` reads the
literal of a lasso of 100,000 elements drawn from the seed, and ``gen (no corules)``
is ``gen`` on a new system of the chain's rules without its coaxiom, so that its
bound is the answer. Each call gets a fresh system of its tree on the same rule
arrays and labels, and on the premise index that the tree's own code built once,
outside the timed calls, so the two trees read the same input in the same memory and
no call reads what an earlier one cached beyond that index. So a change in when the
index is built does not show here; ``tools/op_cycles.py`` times whole ops and does.
A fresh system is made by setting its storage slots, whose names every revision
since the rule arrays shares, so REV may be any such revision.
For each layer the two trees are called in pairs, the first call of a pair taking
turns between them, with the garbage collector off during a call, as ``timeit``
does. The inputs are built twice, on two views of the system (objects over the same
arrays): on one REV's tree builds its index, proofs and file text first, on the other
the checkout's does, and each pair runs on the view built by the tree that goes first
in it. So neither tree always reads the data built first, which would make a lean
by position: an A/A run with one order for all pairs read chain ``gen`` 1.04. The
systems and proofs built before the timing are frozen out of the collector's reach
(``gc.freeze``), so the collection before each call is short.
There are an even number of pairs, at least 16 and until the layer's calls add up to 5 s
or there are 1,000 pairs, which a call of a tenth of a millisecond reaches first.
The script prints each side's median wall time, in ms, their ratio, which is the
median of the pairs' ratios of the checkout's time to REV's, the interquartile range
of those ratios, and the number of pairs. A pair's two calls run back to back, so the
ratio cancels the slow drift in speed that a shared host shows over seconds; the
range shows the noise left, so a layer reads as slower only when its range lies above
1. Only the standard library is used.
"""

from __future__ import annotations

import gc
import importlib.util
import random
import statistics
import sys
import tempfile
import time
from pathlib import Path
from types import ModuleType

from _pairs import ROOT, rev_src, summary

SEED = 2026
CHAIN, GHOST = 100_000, 50
COLIST = 100_000
STATES, CANDIDATES = 600, 302
PAIRS = 16  # at least, per layer: each tree goes first in half of the pairs
BUDGET = 5.0  # seconds of timed calls per layer, at least
MAX_PAIRS = 1000  # per layer: enough for a stable median of the shortest calls
INDEXES: dict = {}  # (package name, id of a system) -> (that system, its premise index)
SLOTS = ("universe_size", "_heads", "_starts", "_body", "_plain", "_labels")
ORDERS = ((0, 1), (1, 0))  # which tree (REV's 0, the checkout's 1) builds and goes first


def load(name: str, src: Path) -> ModuleType:
    """The package ``src/corules``, imported under ``name``."""
    init = src / "corules" / "__init__.py"
    spec = importlib.util.spec_from_file_location(name, init,
                                                  submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


def chain(pkg: ModuleType, rng: random.Random) -> tuple:
    Rule = pkg.Rule
    rules = [Rule((), 0)] + [Rule((i - 1,), i) for i in range(1, CHAIN)]
    rules += [Rule((CHAIN + (i - 1) % GHOST,), CHAIN + i) for i in range(GHOST)]
    rng.shuffle(rules)
    return pkg.InferenceSystem(CHAIN + GHOST, rules, [Rule((), CHAIN)]), CHAIN - 1


def max_grid(pkg: ModuleType, rng: random.Random) -> tuple:
    half = STATES // 2
    xs = pkg.Lasso([rng.randrange(CANDIDATES) for _ in range(half)],
                   [rng.randrange(CANDIDATES) for _ in range(STATES - half)])
    system, scheme = pkg.gen_maxelem_system(xs, candidates=range(CANDIDATES))
    return system, scheme.encode(0, max(xs.prefix + xs.loop))


def compiled(pkg: ModuleType, *slots):
    """The system of ``pkg`` whose storage slots, from ``universe_size`` to ``_labels``,
    hold ``slots``, with nothing cached."""
    system = object.__new__(pkg.InferenceSystem)
    for name, value in zip(SLOTS, slots):
        object.__setattr__(system, name, value)
    return system


def fresh(pkg: ModuleType, system):
    """A new system of ``pkg`` on the rule arrays and the labels of ``system``, with
    nothing cached but the premise index that ``pkg``'s own code built for those arrays
    on the first call: the index's form may differ between the two trees."""
    copy = compiled(pkg, system.universe_size, system._heads, system._starts, system._body,
                    system._plain, system.labels)
    key = (pkg.__name__, id(system))
    if key not in INDEXES:
        INDEXES[key] = (system, copy._users)  # the system, so that its id stays its own
    copy.__dict__["_users"] = INDEXES[key][1]  # read-only: the engine never writes it
    return copy


def colist_text(rng: random.Random) -> str:
    """The literal of a lasso of COLIST elements below 1,000, half of them in the loop."""
    values = [str(rng.randrange(1000)) for _ in range(COLIST)]
    return " ".join(values[:COLIST // 2]) + " | " + " ".join(values[COLIST // 2:])


def rules_only(pkg: ModuleType, system):
    """A system of ``pkg`` on the rules of ``system``, without its corules. Each corule
    must be a coaxiom, so the premise arrays stay."""
    plain = system._plain
    return compiled(pkg, system.universe_size, system._heads[:plain],
                    system._starts[:plain + 1], system._body, plain, system.labels)


def readers(pkg: ModuleType, table: tuple, system) -> None:
    """Check, measure and test for cycles one new proof over ``table``."""
    tree = pkg.RationalProofTree(table)
    pkg.check_finite(tree, system, allow_corules=True)
    tree.depth()
    pkg.is_acyclic(tree)


def inf_text(cli: ModuleType, system) -> str:
    """The system file of ``system``, judgment ``j`` named ``j<j>``, as ``cli`` renders it."""
    names = tuple(f"j{j}" for j in range(system.universe_size))
    named = compiled(cli, system.universe_size, system._heads, system._starts, system._body,
                     system._plain, names)
    return cli.render_system(cli.SystemFile(named, None))


def layers(pkg: ModuleType, system, target: int, maxgrid: bool) -> dict:
    """Per layer, the call on a system of ``pkg``; ``parse_system`` reads the file of
    ``system`` instead, and the checks check ``system``'s gen. The max grid adds the
    two renders, the chain ``parse_colist`` and ``gen (no corules)``. A layer given as
    ``(setup, call)`` runs ``setup``, untimed, on the system before ``call``."""
    gen = pkg.gen_interpretation(fresh(pkg, system))
    table = pkg.extract_finite_proof(fresh(pkg, system), target, allow_corules=True).nodes
    rational = pkg.extract_rational_proof(fresh(pkg, system), target).nodes
    proof = pkg.RationalProofTree
    cli = importlib.import_module(f"{pkg.__name__}.cli")
    text = inf_text(cli, system)
    calls = {
        "parse_system": lambda s: cli.parse_system(text),
        "rules": lambda s: s.rules,
        "ind": pkg.ind_interpretation,
        "coind": pkg.coind_interpretation,
        "gen": pkg.gen_interpretation,
        "is_closed": lambda s: pkg.is_closed(s, gen),
        "is_consistent": lambda s: pkg.is_consistent(s, gen),
        "bounded_coinduction_check": lambda s: pkg.bounded_coinduction_check(s, gen),
        "extract_finite_proof": lambda s: pkg.extract_finite_proof(s, target,
                                                                   allow_corules=True),
        "extract_rational_proof": lambda s: pkg.extract_rational_proof(s, target),
        "extract_finite+check_finite": lambda s: pkg.check_finite(
            pkg.extract_finite_proof(s, target, allow_corules=True), s, allow_corules=True),
        "check_finite+depth+is_acyclic": lambda s: readers(pkg, table, s),
        "check_rational_in_gen": lambda s: pkg.check_rational_in_gen(proof(rational), s),
        "check_rational_in_gen alone": (lambda s: pkg.ind_interpretation(s, True),
                                        lambda s: pkg.check_rational_in_gen(proof(rational), s)),
    }
    if maxgrid:
        calls["format_finite"] = lambda s: pkg.prooftree.format_finite(proof(table), s)
        calls["format_rational"] = lambda s: pkg.prooftree.format_rational(proof(rational), s)
    else:
        literal, bare = colist_text(random.Random(SEED)), rules_only(pkg, system)
        fresh(pkg, bare)  # its index, built here, outside the timed calls
        calls["parse_colist"] = lambda s: cli.parse_colist(literal)
        calls["gen (no corules)"] = lambda s: pkg.gen_interpretation(fresh(pkg, bare))
    return calls


def seconds(pkg: ModuleType, call, system) -> float:
    """The wall time of ``call`` on a fresh system of ``pkg`` on the arrays of
    ``system``, with the garbage collector off; a ``(setup, call)`` runs ``setup`` on
    that system first, untimed."""
    copy = fresh(pkg, system)
    if isinstance(call, tuple):
        setup, call = call
        setup(copy)
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        call(copy)
        return time.perf_counter() - start
    finally:
        gc.enable()


def main() -> int:
    if len(sys.argv) != 2:
        print("usage: python tools/layer_times.py REV", file=sys.stderr)
        return 64
    rev = sys.argv[1]
    with tempfile.TemporaryDirectory(prefix="corules-layer-times-") as tmp:
        src = rev_src(rev, Path(tmp))
        if src is None:
            return 64
        trees = (load("corules_rev", src), load("corules", ROOT / "src"))
        print(f"{'system':8} {'layer':29} {rev + ' ms':>12} {'checkout ms':>12} {'ratio':>6} "
              f"{'IQR':>11} {'pairs':>5}")
        for name, build in (("chain", chain), ("maxgrid", max_grid)):
            built, target = build(trees[1], random.Random(SEED))
            # Two views of the system, one per order: on each, the tree that goes first
            # in a pair builds its inputs (index, proofs, text) first, so that neither
            # tree's inputs are always the ones built first.
            views = [compiled(trees[1], built.universe_size, built._heads, built._starts,
                              built._body, built._plain, built.labels) for _ in ORDERS]
            calls: list[list] = [[None, None] for _ in ORDERS]
            for view, order, row in zip(views, ORDERS, calls):
                for side in order:
                    row[side] = layers(trees[side], view, target, name == "maxgrid")
            gc.freeze()  # the systems and proofs built so far: no collection walks them
            for layer in calls[0][0]:
                pairs: list[list[float]] = []
                while (len(pairs) < PAIRS or len(pairs) % 2
                       or sum(map(sum, pairs)) < BUDGET and len(pairs) < MAX_PAIRS):
                    k, pair = len(pairs) % 2, [0.0, 0.0]
                    for side in ORDERS[k]:
                        pair[side] = seconds(trees[side], calls[k][side][layer], views[k])
                    pairs.append(pair)
                old, new = (statistics.median(times) * 1000 for times in zip(*pairs))
                ratio, q1, q3, _ = summary(pairs)
                print(f"{name:8} {layer:29} {old:12.1f} {new:12.1f} {ratio:6.2f} "
                      f"{q1:5.2f}-{q3:5.2f} {len(pairs):5}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
