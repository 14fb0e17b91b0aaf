"""Wall times of the engine's layers on two large seeded systems, best of 5.

Run from the root of the checkout:

    python tools/layer_times.py

It builds two systems from a fixed seed:

* a chain of 100,000 judgments, ``c0 <-`` and ``c(i) <- c(i-1)`` with the rules
  shuffled, plus a ghost cycle of 50 judgments that a coaxiom admits into the
  generated interpretation;
* the max-element system of a 600-state lasso over 302 candidates (181,800 rules).

For each it prints the best of 5 wall times, in ms, of ``ind``, ``coind``, ``gen``,
``is_closed``, ``is_consistent`` and ``bounded_coinduction_check`` (the three checks
of the generated interpretation), of the two proof extractors (the finite proof,
corules allowed, and the rational proof of the chain's last judgment, or of the
grid's maximum at state 0) and of the finite extraction followed by
``check_finite`` of its proof. Each call gets a fresh copy of the system whose
premise index is built, so no call reads what an earlier one cached.

As in ``tests/conftest.py``, the checkout's ``src`` is appended to ``sys.path``, so
a copy named on ``PYTHONPATH`` is the one measured. Run it alternately on two trees
to compare them in pairs.
"""

from __future__ import annotations

import gc
import random
import sys
import time
from pathlib import Path

sys.path.append(str(Path(__file__).resolve().parent.parent / "src"))

from corules import (InferenceSystem, Lasso, Rule, bounded_coinduction_check,  # noqa: E402
                     check_finite, coind_interpretation, extract_finite_proof,
                     extract_rational_proof, gen_interpretation, gen_maxelem_system,
                     ind_interpretation, is_closed, is_consistent)

SEED = 2026
CHAIN, GHOST = 100_000, 50
STATES, CANDIDATES = 600, 302
REPEATS = 5


def chain(rng: random.Random) -> tuple[InferenceSystem, int]:
    rules = [Rule((), 0)] + [Rule((i - 1,), i) for i in range(1, CHAIN)]
    rules += [Rule((CHAIN + (i - 1) % GHOST,), CHAIN + i) for i in range(GHOST)]
    rng.shuffle(rules)
    return InferenceSystem(CHAIN + GHOST, rules, [Rule((), CHAIN)]), CHAIN - 1


def max_grid(rng: random.Random) -> tuple[InferenceSystem, int]:
    half = STATES // 2
    xs = Lasso([rng.randrange(CANDIDATES) for _ in range(half)],
               [rng.randrange(CANDIDATES) for _ in range(STATES - half)])
    system, scheme = gen_maxelem_system(xs, candidates=range(CANDIDATES))
    return system, scheme.encode(0, max(xs.prefix + xs.loop))


def fresh(system: InferenceSystem) -> InferenceSystem:
    """A new system on the same rule arrays, with only its premise index built."""
    copy = InferenceSystem._compiled(system.universe_size, system._heads, system._starts,
                                     system._body, system._plain, system._labels)
    copy._users
    return copy


def layers(system: InferenceSystem, target: int) -> dict:
    gen = gen_interpretation(system)
    return {
        "ind": ind_interpretation,
        "coind": coind_interpretation,
        "gen": gen_interpretation,
        "is_closed": lambda s: is_closed(s, gen),
        "is_consistent": lambda s: is_consistent(s, gen),
        "bounded_coinduction_check": lambda s: bounded_coinduction_check(s, gen),
        "extract_finite_proof": lambda s: extract_finite_proof(s, target, allow_corules=True),
        "extract_rational_proof": lambda s: extract_rational_proof(s, target),
        "extract_finite+check_finite": lambda s: check_finite(
            extract_finite_proof(s, target, allow_corules=True), s, allow_corules=True),
    }


def best_ms(call, system: InferenceSystem) -> float:
    best = float("inf")
    for _ in range(REPEATS):
        copy = fresh(system)
        gc.collect()
        start = time.perf_counter()
        call(copy)
        best = min(best, time.perf_counter() - start)
    return best * 1000


def main() -> None:
    rng = random.Random(SEED)
    for name, (system, target) in (("chain", chain(rng)), ("maxgrid", max_grid(rng))):
        for layer, call in layers(system, target).items():
            print(f"{name:8} {layer:27} {best_ms(call, system):9.1f} ms", flush=True)


if __name__ == "__main__":
    main()
