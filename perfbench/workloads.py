"""The benchmark's three workloads, generated from a seed.

A workload is a fixed mix of ops and of ``corules`` commands. An op is one
user query: the public calls it makes (``run``, which is timed) and a check
of its answer against ``reference`` (``verify``, which is not). The seed
chooses the contents of every input; the sizes are fixed per workload, so
runs with different seeds measure the same amount of work. Every op starts
from text (an ``.inf`` file or a colist literal), so no op reuses a system
another op built.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Optional, Sequence

import reference as ref
import util
from corules import cli, inference, predicates, prooftree
from corules.colist import Lasso
from corules.inference import InferenceSystem, Rule
from corules.predicates import Kind

# fixpoint_large: Kleene iteration is quadratic, so these sizes make the
# fixpoints most of every op. Each family spans a size range for its fit.
# The largest instance of each family runs only the query its fit reads,
# which keeps one pass over the mix near five seconds.
CHAIN_LENGTHS = (500, 1000, 2000)
MAXGRID_SHAPES = ((60, 35), (90, 45), (120, 100))  # (states, candidates)
INFOFTEN_PREFIXES = (500, 1000, 2000)
INFOFTEN_HIT_EVERY = 4
ALL_QUERIES = ("ind", "coind", "gen", "check", "prove")
CLI_CHAIN, CLI_MAXGRID, CLI_INFOFTEN = 600, (60, 35), 600

# proof_shapes: ladders render exponentially. Chains stay below the depth
# at which proofs hit the recursion limit (about 330 for
# FiniteProofTree.depth, about 490 for extraction); the traced run measures
# that limit itself (``proof_works``), so no timed op fails.
LADDER_RUNGS = tuple(range(8, 15))
CHAIN_DEPTHS, CLI_CHAINS = tuple(range(60, 301, 30)), 4
LASSO_STATES = (8, 16, 32, 64)

# small_batch: per-call costs of many small inputs. The oracles enumerate
# 2^n subsets, so universes of 11 and 12 (85 ms each to judge) are drawn
# less often than smaller ones.
SMALL_SYSTEMS, SMALL_CHAINS, SMALL_LADDERS, SMALL_PREDS = 600, 30, 30, 600
SMALL_UNIVERSES = (8, 10, 12)  # the bound handed to util.random_system


def proof_depth(tree) -> int:
    """``tree.depth()``; a function of its own so the tracer can span it."""
    return tree.depth()


@dataclass
class Op:
    kind: str                                  # "<family>.<query>"
    x: float                                   # system size, or rungs for ladders
    run: Callable[[], Any]
    verify: Callable[[Any], Optional[str]]     # None when the answer is right


@dataclass
class Cmd:
    args: list
    verify: Callable[[int, str], Optional[str]]  # (exit code, stdout) -> None when right


@dataclass
class Workload:
    ops: list = field(default_factory=list)
    cmds: list = field(default_factory=list)
    # scaling fits: metric -> (op kind, span name timed, or None for the op)
    fits: dict = field(default_factory=dict)


def _same(answer, expected: frozenset, what: str) -> Optional[str]:
    got = frozenset(answer)
    if got == expected:
        return None
    return f"{what}: {len(got)} judgments, {len(expected)} expected, " \
           f"{len(got ^ expected)} differ"


def _expect(got, want, what: str) -> Optional[str]:
    return None if got == want else f"{what}: got {got!r}, expected {want!r}"


def _first(*errors: Optional[str]) -> Optional[str]:
    return next((e for e in errors if e), None)


class TextSystem:
    """An ``.inf`` text with the benchmark's own account of its contents."""

    def __init__(self, names: Sequence[str], rules: Sequence[Rule],
                 corules: Sequence[Rule] = (), spec=None, oracle=None):
        self.names = list(names)
        self.oracle = oracle  # a reference.SmallSystem, for systems small enough
        self.rules, self.corules = tuple(rules), tuple(corules)
        self.spec = None if spec is None else frozenset(spec)
        self.text = ref.inf_text(self.names, self.rules, self.corules, spec)
        self.size = ref.system_size(self.rules + self.corules)

    def parse(self):
        return cli.parse_system(self.text)

    def write(self, path: Path) -> str:
        path.write_text(self.text, encoding="utf-8")
        return str(path)


def _listing_cmd(command: str, path: str, names, members) -> Cmd:
    want = ref.listing(names, members)
    return Cmd([command, path],
               lambda code, out: _first(_expect(code, 0, "exit"),
                                        _expect(out, want, f"{command} output")))


def _check_cmd(path: str, names, rules, bound, spec) -> Cmd:
    """``corules check``; a true spec (``spec`` = gen) needs no bound to pass."""
    want, want_code = ref.check_stdout(names, rules, spec if bound is None else bound, spec)
    return Cmd(["check", path],
               lambda code, out: _first(_expect(code, want_code, "exit"),
                                        _expect(out, want, "check output")))


# -- fixpoint_large ---------------------------------------------------------

def _interpretation_ops(family: str, x: float, build: Callable, refs: dict,
                        names: Sequence[str] = ("ind", "coind", "gen")) -> list:
    return [Op(f"{family}.{name}", x, (lambda name=name: INTERPRET[name](build())),
               (lambda answer, name=name: _same(answer, refs[name], name)))
            for name in names]


def _check_ok(report) -> Optional[str]:
    return None if report.ok and not report.failures else \
        f"true spec failed bounded coinduction at {len(report.failures)} judgments"


def _chain_with_ghost(rng: random.Random, n: int):
    """c0 <- ; c(i) <- c(i-1), plus a ghost cycle that only coinduction
    reaches and, when a corule admits it, gen keeps too."""
    k = rng.randint(5, 50)
    names = [f"c{i}" for i in range(n)] + [f"g{i}" for i in range(k)]
    rules = [Rule(frozenset(), 0)] + [Rule(frozenset({i - 1}), i) for i in range(1, n)]
    rules += [Rule(frozenset({n + (i - 1) % k}), n + i) for i in range(k)]
    rng.shuffle(rules)
    admitted = rng.random() < 0.5
    corules = [Rule(frozenset(), n)] if admitted else []
    chain, every = frozenset(range(n)), frozenset(range(n + k))
    gen = every if admitted else chain
    return TextSystem(names, rules, corules, spec=gen), chain, every, gen


def _fixpoint_chain(rng: random.Random, n: int, queries: Sequence[str]) -> list:
    system, ind, coind, gen = _chain_with_ghost(rng, n)
    d = 300  # below the depth at which proof extraction overflows the stack
    rule_of = {r.conclusion: i for i, r in enumerate(system.rules)}
    want = ref.chain_rational_text(system.names, rule_of, range(d, -1, -1))

    def check():
        sf = system.parse()
        return inference.bounded_coinduction_check(sf.system, sf.spec)

    def prove():
        s = system.parse().system
        proof = prooftree.extract_rational_proof(s, d)
        return prooftree.check_rational_in_gen(proof, s), prooftree.format_rational(proof, s)

    refs = {"ind": ind, "coind": coind, "gen": gen}
    ops = _interpretation_ops("chain", system.size, lambda: system.parse().system, refs) + [
        Op("chain.check", system.size, check, _check_ok),
        Op("chain.prove", system.size, prove,
           lambda a: _first(_expect(a[0], True, "proof check"),
                            _expect(a[1], want, "rendered proof"))),
    ]
    return [op for op in ops if op.kind.split(".")[1] in queries]


def _maxgrid_lasso(rng: random.Random, states: int, count: int):
    """A lasso of ``states`` states: a non-increasing prefix above a
    non-decreasing loop that ends at its maximum. The seed picks the values;
    the shape fixes the Kleene rounds and, up to ties, the size of every
    phase. The top tenth of the candidates are probes above every element."""
    values = sorted(rng.sample(range(3 * count), count))
    occurring = values[:-max(1, count // 10)]
    low, high = occurring[:len(occurring) // 2], occurring[len(occurring) // 2:]
    half = states // 2
    prefix = sorted((rng.choice(high) for _ in range(half)), reverse=True)
    loop = sorted(rng.choice(low[:-1]) for _ in range(states - half - 1)) + [low[-1]]
    return Lasso(tuple(prefix), tuple(loop)), values


def _maxgrid_refs(xs, cands):
    """(coind, gen) of the max-element system: v holds at s in gen iff v is
    the maximum of suffix s, and in coind iff v is at least that maximum."""
    n = ref.state_count(xs)
    maxima = ref.suffix_maxima(xs)
    gen = frozenset(cands.index(m) * n + s for s, m in enumerate(maxima))
    coind = frozenset(i * n + s for i, v in enumerate(cands)
                      for s, m in enumerate(maxima) if v >= m)
    return coind, gen, maxima


def _maxgrid_text(xs, cands, gen) -> TextSystem:
    n = ref.state_count(xs)
    rules, corules = [], []
    for s in range(n):
        head, nxt = ref.head_and_next(xs, s)
        rules += [Rule(frozenset({cands.index(y) * n + nxt}), cands.index(max(head, y)) * n + s)
                  for y in cands]
        corules.append(Rule(frozenset(), cands.index(head) * n + s))
    return TextSystem(ref.max_labels(xs, cands), rules, corules, spec=gen)


PRED_BUILD = {
    Kind.MEMBER_OF: lambda xs, p, x, c: predicates.gen_member_system(x, xs),
    Kind.ALL_POS: lambda xs, p, x, c: predicates.gen_allpos_system(xs),
    Kind.ALWAYS: lambda xs, p, x, c: predicates.gen_always_system(p, xs),
    Kind.EVENTUALLY: lambda xs, p, x, c: predicates.gen_eventually_system(p, xs),
    Kind.INFINITELY_OFTEN: lambda xs, p, x, c: predicates.gen_infoften_system(p, xs),
    Kind.MAX_ELEM: lambda xs, p, x, c: predicates.gen_maxelem_system(xs, c),
}
INTERPRET = {"ind": lambda s: inference.ind_interpretation(s),
             "coind": lambda s: inference.coind_interpretation(s),
             "gen": lambda s: inference.gen_interpretation(s)}
NEEDS_PREDICATE = (Kind.ALWAYS, Kind.EVENTUALLY, Kind.INFINITELY_OFTEN)


def _predicate_system(kind: Kind, literal: str, pname, x, cands):
    xs = cli.parse_colist(literal)
    p = predicates.predicate_by_name(pname) if pname else None
    return xs, p, PRED_BUILD[kind](xs, p, x, cands)


def _three_way(kind: Kind, literal: str, pname, x, cands):
    """What ``corules pred`` computes: the interpretation of interest, and the
    verdicts of the engine, ``decide_direct`` and ``spec_oracle`` at the root."""
    xs, p, (s, scheme) = _predicate_system(kind, literal, pname, x, cands)
    members = INTERPRET[ref.INTERPRETATION[kind]](s)
    engine = (scheme.encode(0) if x is None else scheme.encode(0, x)) in members
    direct = predicates.decide_direct(kind, xs, x=x, predicate=p)
    if kind is Kind.MAX_ELEM:
        direct = direct == x
    return members, engine, direct, predicates.spec_oracle(kind, xs, x=x, predicate=p)


def _predicate_ops(family: str, kind: Kind, literal: str, size: int, refs: dict, root: int,
                   queries: Sequence[str], x=None, pname=None, cands=(), prove_target=None,
                   proof_want=None, names=None, sound=None) -> list:
    """The ``queries`` on one predicate system given by its colist literal:
    ind, coind, gen as a three-way verdict (the ``pred`` command), bounded
    coinduction of the true spec, and a rational proof of ``prove_target``."""
    gen = refs["gen"]
    truth = root in gen

    def system():
        return _predicate_system(kind, literal, pname, x, cands)[2][0]

    def check():
        s = system()
        return inference.bounded_coinduction_check(
            s, inference.JudgmentSet.of(s.universe_size, gen))

    def prove():
        s = system()
        proof = prooftree.extract_rational_proof(s, prove_target)
        if proof is None:
            return None
        return (prooftree.check_rational_in_gen(proof, s), prooftree.is_acyclic(proof),
                prooftree.format_rational(proof, s), s.rules)

    def verify_proof(answer) -> Optional[str]:
        if proof_want is None or answer is None:
            return _expect(answer is None, proof_want is None, "underivable")
        checked, acyclic, text, rules = answer
        error, text_acyclic, nodes = ref.rational_proof_error(
            text, names, rules, gen, prove_target, sound)
        return _first(_expect(checked, True, "proof check"), error,
                      _expect((acyclic, text_acyclic, nodes), proof_want, "proof shape"))

    ops = _interpretation_ops(family, size, system, refs, ("ind", "coind")) + [
        Op(f"{family}.pred", size, lambda: _three_way(kind, literal, pname, x, cands),
           lambda a: _first(_same(a[0], gen, "gen"),
                            _expect(a[1:], (truth, truth, truth), "three-way verdict"))),
        Op(f"{family}.check", size, check, _check_ok),
        Op(f"{family}.prove", size, prove, verify_proof),
    ]
    wanted = {"gen": "pred"}
    return [op for op in ops if op.kind.split(".")[1] in {wanted.get(q, q) for q in queries}]


def _max_ops(rng: random.Random, states: int, count: int, queries: Sequence[str]) -> list:
    xs, cands = _maxgrid_lasso(rng, states, count)
    coind, gen, maxima = _maxgrid_refs(xs, cands)
    n = ref.state_count(xs)
    x = maxima[0] if rng.random() < 0.5 else rng.choice(cands)
    root = cands.index(x) * n
    refs = {"gen": gen, "ind": frozenset(), "coind": coind}
    size = n * (2 * len(cands) + 1)  # one single-premise rule per candidate, one corule
    return _predicate_ops("maxgrid", Kind.MAX_ELEM, ref.colist_literal(xs), size, refs, root,
                          queries, x=x, cands=cands, prove_target=cands.index(maxima[0]) * n,
                          proof_want=(False, False, n), names=ref.max_labels(xs, cands),
                          sound=ref.max_rule_sound(xs, cands))


def _infoften_lasso(rng: random.Random, prefix: int, loop: int, hit: bool):
    """A lasso whose prefix satisfies the seeded predicate at every
    INFOFTEN_HIT_EVERY-th element and nowhere else. The predicates of the
    pool hold for 10% to 90% of the values, so drawing the prefix values
    freely would make the system's size and Kleene rounds, and the op times,
    depend on the seed."""
    p = rng.choice(util.PREDICATE_POOL)
    hits = [v for v in range(10) if p(v)]
    misses = [v for v in range(10) if not p(v)]
    head = [rng.choice(misses if i % INFOFTEN_HIT_EVERY else hits) for i in range(prefix)]
    body = [rng.choice(hits if hit and i == 0 else misses) for i in range(loop)]
    rng.shuffle(body)
    return Lasso(tuple(head), tuple(body)), p


def _infoften_ops(rng: random.Random, prefix: int, hit: bool, queries: Sequence[str]) -> list:
    loop = rng.randint(3, 8)
    xs, p = _infoften_lasso(rng, prefix, loop, hit)
    n = ref.state_count(xs)
    gen = ref.predicate_members(Kind.INFINITELY_OFTEN, xs, predicate=p)
    refs = {"gen": gen, "ind": frozenset(), "coind": frozenset(range(n))}
    return _predicate_ops("infoften", Kind.INFINITELY_OFTEN, ref.colist_literal(xs),
                          2 * n + sum(map(p, ref.elements(xs))), refs, 0, queries, pname=p.name,
                          prove_target=prefix, proof_want=(False, False, loop) if hit else None,
                          names=[f"infoften(s{s})" for s in range(n)],
                          sound=ref.step_rule_sound(xs))


def _infoften_text(xs, p, gen) -> TextSystem:
    n = ref.state_count(xs)
    rules = [Rule(frozenset({ref.head_and_next(xs, s)[1]}), s) for s in range(n)]
    corules = [Rule(frozenset(), s) for s in range(n) if p(ref.elements(xs)[s])]
    return TextSystem([f"io(s{s})" for s in range(n)], rules, corules, spec=gen)


def fixpoint_large(rng: random.Random, tmp: Path) -> Workload:
    w = Workload(fits={"inference.exp.chain": ("chain.gen", None),
                       "inference.exp.maxgrid": ("maxgrid.pred", None),
                       "inference.exp.infoften": ("infoften.pred", None)})
    def queries(i: int, sizes: tuple) -> tuple:
        return ALL_QUERIES if i < len(sizes) - 1 else ("gen",)

    for i, n in enumerate(CHAIN_LENGTHS):
        w.ops += _fixpoint_chain(rng, n, queries(i, CHAIN_LENGTHS))
    for i, (states, count) in enumerate(MAXGRID_SHAPES):
        w.ops += _max_ops(rng, states, count, queries(i, MAXGRID_SHAPES))
    for i, prefix in enumerate(INFOFTEN_PREFIXES):
        for hit in (True, False):
            w.ops += _infoften_ops(rng, prefix, hit, queries(i, INFOFTEN_PREFIXES))

    xs, cands = _maxgrid_lasso(rng, *CLI_MAXGRID)
    files = [_chain_with_ghost(rng, CLI_CHAIN)[0],
             _maxgrid_text(xs, cands, _maxgrid_refs(xs, cands)[1])]
    for hit in (True, False):
        xs, p = _infoften_lasso(rng, CLI_INFOFTEN, rng.randint(3, 8), hit)
        files.append(_infoften_text(xs, p, ref.predicate_members(
            Kind.INFINITELY_OFTEN, xs, predicate=p)))
    for i, system in enumerate(files):  # each file's spec is its gen
        path = system.write(tmp / f"fixpoint{i}.inf")
        w.cmds.append(_listing_cmd("gen", path, system.names, system.spec))
        w.cmds.append(_check_cmd(path, system.names, system.rules, None, system.spec))
    return w


# -- proof_shapes -----------------------------------------------------------

def _proof_ops(family: str, x: float, system: TextSystem, target: int, finite_want: str,
               depth_want: int, rational_want: str) -> list:
    def finite():
        s = system.parse().system
        proof = prooftree.extract_finite_proof(s, target, allow_corules=True)
        return (prooftree.check_finite(proof, s, allow_corules=True), proof_depth(proof),
                prooftree.format_finite(proof, s))

    def rational():
        s = system.parse().system
        proof = prooftree.extract_rational_proof(s, target)
        return prooftree.is_acyclic(proof), prooftree.format_rational(proof, s)

    return [
        Op(f"{family}.finite", x, finite,
           lambda a: _first(_expect(a[:2], (True, depth_want), "check and depth"),
                            _expect(a[2], finite_want, "rendered proof"))),
        Op(f"{family}.rational", x, rational,
           lambda a: _first(_expect(a[0], True, "acyclic"),
                            _expect(a[1], rational_want, "rendered proof"))),
    ]


def _ladder(rng: random.Random, rungs: int):
    """a0 <- ; a(i+1) <- a(i) b(i); b(i) <- a(i), declared in a seeded order.
    The proof of a(rungs) is a DAG whose tree unfolding has 3*2^rungs - 2 nodes."""
    labels = [f"a{i}" for i in range(rungs + 1)] + [f"b{i}" for i in range(rungs)]
    rng.shuffle(labels)
    at = {label: i for i, label in enumerate(labels)}
    rules = [Rule(frozenset(), at["a0"])]
    for i in range(rungs):
        rules.append(Rule(frozenset({at[f"a{i}"], at[f"b{i}"]}), at[f"a{i + 1}"]))
        rules.append(Rule(frozenset({at[f"a{i}"]}), at[f"b{i}"]))
    rng.shuffle(rules)
    root = at[f"a{rungs}"]
    finite, rational = ref.ladder_texts(labels, rules, root)
    if finite.count("\n") + 1 != 3 * 2 ** rungs - 2 or rational.count("\n") != 3 * rungs:
        raise RuntimeError("ladder rendering disagrees with its closed form")
    return TextSystem(labels, rules), root, finite, rational


def _chain(rng: random.Random, depth: int):
    """A chain longer than ``depth``, whose judgment at ``depth`` is proven."""
    n = depth + 21
    rules = [Rule(frozenset(), 0)] + [Rule(frozenset({i - 1}), i) for i in range(1, n)]
    rng.shuffle(rules)
    system = TextSystem([f"c{i}" for i in range(n)], rules)
    rule_of = {r.conclusion: i for i, r in enumerate(rules)}
    path = range(depth, -1, -1)
    return (system, ref.chain_finite_text(system.names, rule_of, path),
            ref.chain_rational_text(system.names, rule_of, path))


def proof_works(rng: random.Random, depth: int) -> bool:
    """Whether a chain judgment at ``depth`` gets its finite proof (with
    check, depth and render) and its rational proof (with render), right."""
    system, finite, rational = _chain(rng, depth)
    try:
        return all(op.verify(op.run()) is None for op in _proof_ops(
            "chain", system.size, system, depth, finite, depth + 1, rational))
    except Exception:  # today a RecursionError, past the limit
        return False


def prove_cmd_works(rng: random.Random, depth: int, path: Path, run) -> bool:
    """Whether ``corules prove`` gets the finite proof of a chain judgment at
    ``depth`` right; ``run`` takes the command's arguments and returns
    (exit code, stdout, stderr)."""
    system, finite, _ = _chain(rng, depth)
    cmd = _prove_cmd(system.write(path), system, depth, False, finite)
    code, out, err = run(cmd.args)
    return "Traceback" not in err and cmd.verify(code, out) is None


def _prove_cmd(path: str, system: TextSystem, target: int, rational: bool, want: str) -> Cmd:
    args = ["prove", path, system.names[target]] + (["--rational"] if rational else [])
    return Cmd(args, lambda code, out: _first(_expect(code, 0, "exit"),
                                              _expect(out, want + "\n", "rendered proof")))


def proof_shapes(rng: random.Random, tmp: Path) -> Workload:
    w = Workload(fits={"inference.exp.chain": ("chain.finite", None),
                       "inference.exp.maxgrid": ("maxgrid.pred", None),
                       "inference.exp.infoften": ("infoften.pred", None),
                       "prooftree.render.growth_ladder": ("ladder.finite", "prooftree.render")})
    for rungs in LADDER_RUNGS:
        system, root, finite, rational = _ladder(rng, rungs)
        w.ops += _proof_ops("ladder", rungs, system, root, finite, 2 * rungs + 1, rational)
        path = system.write(tmp / f"ladder{rungs}.inf")
        w.cmds.append(_prove_cmd(path, system, root, False, finite))
        if rungs % 3 == 0:
            w.cmds.append(_prove_cmd(path, system, root, True, rational))
    for i, depth in enumerate(CHAIN_DEPTHS):
        system, finite, rational = _chain(rng, depth)
        w.ops += _proof_ops("chain", system.size, system, depth, finite, depth + 1, rational)
        if i % 2 and i < 2 * CLI_CHAINS:
            path = system.write(tmp / f"chain{i}.inf")
            w.cmds.append(_prove_cmd(path, system, depth, False, finite))
            w.cmds.append(_prove_cmd(path, system, depth, True, rational))
    for states in LASSO_STATES:
        w.ops += _max_ops(rng, states, 8, ("gen", "check", "prove"))
        w.ops += _infoften_ops(rng, states, True, ("gen", "check", "prove"))
    return w


# -- small_batch ------------------------------------------------------------

def _small_text(rng: random.Random, system: InferenceSystem, names=None) -> TextSystem:
    oracle = ref.SmallSystem(system)
    n = system.universe_size
    spec = oracle.gen if rng.random() < 0.5 else {j for j in range(n) if rng.random() < 0.5}
    return TextSystem(names or [f"j{i}" for i in range(n)], system.rules, system.corules,
                      spec, oracle)


def _interp_op(family: str, system: TextSystem) -> Op:
    o = system.oracle
    rules = system.rules

    unbounded, inconsistent = ref.check_outcome(rules, o.bound, system.spec)
    spec_failures = sorted([(j, "boundedness") for j in unbounded]
                           + [(j, "consistency") for j in inconsistent])

    def run():
        sf = system.parse()
        s = sf.system
        sets = (inference.ind_interpretation(s), inference.coind_interpretation(s),
                inference.gen_interpretation(s))
        reports = [check(s, x) for x in sets
                   for check in (inference.is_closed, inference.is_consistent)]
        spec = inference.bounded_coinduction_check(s, sf.spec)
        return (sets, [(r.ok, [f.judgment for f in r.failures]) for r in reports],
                [(f.judgment, f.reason) for f in spec.failures])

    want = [(not failures, failures) for members in (o.ind, o.coind, o.gen)
            for failures in (ref.unclosed(rules, members), ref.unsupported(rules, members))]

    def verify(answer) -> Optional[str]:
        sets, reports, spec = answer
        return _first(_same(sets[0], o.ind, "ind"), _same(sets[1], o.coind, "coind"),
                      _same(sets[2], o.gen, "gen"),
                      _expect(reports, want, "closedness and consistency"),
                      _expect(spec, spec_failures, "bounded coinduction of the spec"))

    return Op(f"{family}.interp", system.size, run, verify)


def _small_prove_op(family: str, x: float, rng: random.Random, system: TextSystem) -> Op:
    o = system.oracle
    n = len(system.names)
    finite_target = rng.choice(sorted(o.bound)) if o.bound and rng.random() < 0.8 else rng.randrange(n)
    rational_target = rng.choice(sorted(o.gen)) if o.gen and rng.random() < 0.8 else rng.randrange(n)

    def run():
        s = system.parse().system
        finite = prooftree.extract_finite_proof(s, finite_target, allow_corules=True)
        if finite is not None:
            finite = (prooftree.check_finite(finite, s, allow_corules=True), proof_depth(finite),
                      prooftree.format_finite(finite, s))
        rational = prooftree.extract_rational_proof(s, rational_target)
        if rational is not None:
            rational = (prooftree.check_rational_in_gen(rational, s), prooftree.is_acyclic(rational),
                        prooftree.format_rational(rational, s))
        return finite, rational

    def verify(answer) -> Optional[str]:
        finite, rational = answer
        errors = [_expect(finite is None, finite_target not in o.bound, "finite underivable"),
                  _expect(rational is None, rational_target not in o.gen, "rational underivable")]
        if finite is not None:
            error, depth = ref.finite_proof_error(finite[2], system.names, system.rules,
                                                  system.corules, finite_target)
            errors += [error, _expect(finite[:2], (True, depth), "finite check and depth")]
        if rational is not None:
            error, acyclic, _ = ref.rational_proof_error(rational[2], system.names,
                                                         system.rules, o.gen, rational_target)
            errors += [error, _expect(rational[:2], (True, acyclic), "rational check and acyclic")]
        return _first(*errors)

    return Op(f"{family}.prove", x, run, verify)


class PredCase:
    """One ``pred K`` query on a short colist, with its reference answers."""

    def __init__(self, rng: random.Random, kind: Kind):
        self.kind = kind
        self.xs = util.random_colist(rng, max_element=6, max_prefix=4, max_loop=4)
        self.literal = ref.colist_literal(self.xs)
        self.p = rng.choice(util.PREDICATE_POOL) if kind in NEEDS_PREDICATE else None
        elements = ref.elements(self.xs)
        self.x = None
        if kind is Kind.MEMBER_OF:
            self.x = rng.randint(0, 6)
        elif kind is Kind.MAX_ELEM:
            self.x = max(elements) if elements and rng.random() < 0.5 else rng.randint(0, 6)
        self.cands = ref.max_candidates(self.xs, self.x) if kind is Kind.MAX_ELEM else ()
        self.members = ref.predicate_members(kind, self.xs, x=self.x, predicate=self.p,
                                             candidates=self.cands)
        if kind is Kind.MAX_ELEM:
            self.truth = predicates.decide_direct(kind, self.xs) == self.x
        else:
            self.truth = predicates.decide_direct(kind, self.xs, x=self.x, predicate=self.p)
        self.oracle = predicates.spec_oracle(kind, self.xs, x=self.x, predicate=self.p)
        system, _ = PRED_BUILD[kind](self.xs, self.p, self.x, self.cands)
        self.size = ref.system_size(system.rules + system.corules)

    def op(self) -> Op:
        args = (self.kind, self.literal, self.p and self.p.name, self.x, self.cands)
        want = (self.truth,) * 3
        return Op(f"{self.kind.value}.pred", self.size, lambda: _three_way(*args),
                  lambda a: _first(_same(a[0], self.members, "interpretation"),
                                   _expect(a[1:], want, "three-way verdict"),
                                   _expect(self.oracle, self.truth, "deciders agree")))

    def cmd(self) -> Cmd:
        args = ["pred", self.kind.value, "--list", self.literal]
        if self.p is not None:
            args += ["--p", self.p.name]
        if self.x is not None:
            args += ["--x", str(self.x)]
        verdict = "true" if self.truth else "false"
        want = (f"kind: {self.kind.value}\ncolist: {self.literal}\nengine: {verdict}\n"
                f"direct: {verdict}\noracle: {verdict}\nverdict: AGREE\n")
        return Cmd(args, lambda code, out: _first(_expect(code, 0 if self.truth else 1, "exit"),
                                                  _expect(out, want, "pred output")))


def _demo_cmds(root: Path) -> list:
    """Every command of the README's tour, judged by the oracles."""
    cmds = []
    proofs = {"basics.inf": [("b", False), ("c", False)],
              "max_stream12.inf": [("max(2,xs)", True)],
              "infinitely_often_even.inf": [("io(xs)", True)]}
    for name, targets in proofs.items():
        path = root / "demos" / name
        names, rules, corules, spec = ref.read_inf(path.read_text(encoding="utf-8"))
        o = ref.SmallSystem(InferenceSystem(len(names), rules, corules))
        for command, members in (("ind", o.ind), ("coind", o.coind), ("gen", o.gen)):
            cmds.append(_listing_cmd(command, str(path), names, members))
        cmds.append(_check_cmd(str(path), names, rules, o.bound, spec))
        for label, rational in targets:
            cmds.append(_demo_prove_cmd(str(path), names, rules, corules, o, label, rational))
    return cmds


def _demo_prove_cmd(path, names, rules, corules, o, label, rational) -> Cmd:
    j = names.index(label)
    derivable = j in (o.gen if rational else o.bound)

    def verify(code, out) -> Optional[str]:
        if not derivable:
            return _first(_expect(code, 1, "exit"), _expect(out, f"{label}: underivable\n", "output"))
        text = out[:-1]
        error = (ref.rational_proof_error(text, names, rules, o.gen, j)[0] if rational
                 else ref.finite_proof_error(text, names, rules, corules, j)[0])
        return _first(_expect(code, 0, "exit"), error)

    return Cmd(["prove", path, label] + (["--rational"] if rational else []), verify)


def small_batch(rng: random.Random, tmp: Path, root: Path) -> Workload:
    w = Workload(fits={"inference.exp.chain": ("chain.interp", None),
                       "inference.exp.maxgrid": ("max.pred", None),
                       "inference.exp.infoften": ("infoften.pred", None),
                       "prooftree.render.growth_ladder": ("ladder.finite", "prooftree.render")})
    systems = [_small_text(rng, util.random_system(rng, max_universe=rng.choice(SMALL_UNIVERSES),
                                                   max_rules=24, max_corules=6, max_premises=3))
               for _ in range(SMALL_SYSTEMS)]
    for i, system in enumerate(systems):
        w.ops.append(_interp_op("random", system))
        if i % 3 == 0:
            w.ops.append(_small_prove_op("random", system.size, rng, system))
    for _ in range(SMALL_CHAINS):
        n = rng.randint(2, 12)
        rules = [Rule(frozenset(), 0)] + [Rule(frozenset({i - 1}), i) for i in range(1, n)]
        rng.shuffle(rules)
        w.ops.append(_interp_op("chain", _small_text(rng, InferenceSystem(n, rules),
                                                     [f"c{i}" for i in range(n)])))
    for _ in range(SMALL_LADDERS):
        rungs = rng.randint(1, 5)
        system, top, finite, rational = _ladder(rng, rungs)
        w.ops += _proof_ops("ladder", rungs, system, top, finite, 2 * rungs + 1, rational)
    kinds = list(Kind)
    cases = [PredCase(rng, kinds[i % len(kinds)]) for i in range(SMALL_PREDS)]
    w.ops += [case.op() for case in cases]

    w.cmds += _demo_cmds(root)
    for i, system in enumerate(systems[:2]):
        path = system.write(tmp / f"small{i}.inf")
        o = system.oracle
        for command, members in (("ind", o.ind), ("coind", o.coind), ("gen", o.gen)):
            w.cmds.append(_listing_cmd(command, path, system.names, members))
        w.cmds.append(_check_cmd(path, system.names, system.rules, o.bound, system.spec))
    w.cmds += [case.cmd() for case in cases[:len(kinds)]]
    return w


def build(name: str, seed: int, tmp: Path, root: Path) -> Workload:
    rng = random.Random(f"{name}/{seed}")
    if name == "fixpoint_large":
        return fixpoint_large(rng, tmp)
    if name == "proof_shapes":
        return proof_shapes(rng, tmp)
    return small_batch(rng, tmp, root)

