"""Spans around the public calls into each corules layer, for the traced run.

``Tracer.install`` rebinds every public function named in ``SPAN_OF``, in
every corules module that binds it, to a wrapper that records a span
(name, start, end, parent, op id) plus a few counts read off the call's
arguments and result. Calls that one layer makes into another (prooftree
into inference, say) thus get spans of their own, and a layer's self time
is its spans' durations minus the time their child spans cover.
``uninstall`` restores the originals, so untraced ops run the program
untouched. Spans stay in memory and are written out once, at the end.
"""

from __future__ import annotations

import gzip
import json
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Iterable

import corules
from corules import cli, inference, predicates, prooftree

SPAN_OF = {
    "parse_system": "cli.parse",
    "parse_colist": "cli.parse",
    "gen_member_system": "predicates.build",
    "gen_allpos_system": "predicates.build",
    "gen_always_system": "predicates.build",
    "gen_eventually_system": "predicates.build",
    "gen_infoften_system": "predicates.build",
    "gen_maxelem_system": "predicates.build",
    "decide_direct": "predicates.decide",
    "spec_oracle": "predicates.decide",
    "ind_interpretation": "inference.ind",
    "coind_interpretation": "inference.coind",
    "gen_interpretation": "inference.gen",
    "restrict": "inference.restrict",
    "derivation_rounds": "inference.rounds",
    "is_closed": "inference.check",
    "is_consistent": "inference.check",
    "bounded_coinduction_check": "inference.check",
    "extract_finite_proof": "prooftree.extract",
    "extract_rational_proof": "prooftree.extract",
    "check_finite": "prooftree.check",
    "check_rational_in_gen": "prooftree.check",
    "is_acyclic": "prooftree.check",
    "format_finite": "prooftree.render",
    "format_rational": "prooftree.render",
}
MODULES = (corules, cli, inference, predicates, prooftree)
LAYERS = ("cli", "predicates", "inference", "prooftree")


def _size(system, use_corules: bool) -> int:
    return sum(1 + len(r.premises) for r in system.all_rules(use_corules))


def _tree_nodes(tree) -> int:
    """Distinct node objects of a finite proof (shared subproofs count once)."""
    seen: set[int] = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(node.children)
    return len(seen)


def _counts(fn: str, args: tuple, kwargs: dict, result: Any) -> dict:
    """Work done by one call, read off its arguments and result."""
    if fn in ("ind_interpretation", "derivation_rounds"):
        use_corules = kwargs.get("use_corules", args[1] if len(args) > 1 else False)
        counts = {"size": _size(args[0], use_corules)}
        if fn == "derivation_rounds":
            counts["rounds"] = max((r for r in result if r is not None), default=0)
        elif use_corules:
            counts["bound"] = len(result)
        return counts
    if fn in ("gen_interpretation", "bounded_coinduction_check"):
        counts = {"size": _size(args[0], True)}
        if fn == "gen_interpretation":
            counts["gen"] = len(result)
        else:
            counts["failures"] = len(result.failures)
        return counts
    if fn in ("coind_interpretation", "restrict", "is_closed", "is_consistent"):
        counts = {"size": _size(args[0], False)}
        if fn == "restrict":
            counts["kept"] = len(result.rules)
        elif fn != "coind_interpretation":
            counts["failures"] = len(result.failures)
        return counts
    if fn == "parse_system":
        return {"judgments": len(result.names)}
    if fn.startswith("gen_") and fn.endswith("_system"):
        return {"judgments": result[0].universe_size}
    if fn == "extract_finite_proof":
        return {"nodes": 0 if result is None else _tree_nodes(result)}
    if fn == "extract_rational_proof":
        return {"nodes": 0 if result is None else len(result.nodes)}
    if fn in ("format_finite", "format_rational"):
        return {"lines": result.count("\n") + 1, "bytes": len(result)}
    return {}


class Tracer:
    """Records spans; ``op`` is the id stamped on spans begun from now on."""

    def __init__(self, extra: Iterable[tuple[Any, str, str]] = ()):
        self.spans: list = []
        self.op = -1
        self._stack: list[int] = []
        self._extra = tuple(extra)
        self._saved: list[tuple[Any, str, Callable]] = []

    def call(self, name: str, fn: Callable, args: tuple, kwargs: dict) -> Any:
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(index)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as e:
            self.spans[index] = (name, start, time.perf_counter(), parent, self.op,
                                 {"error": type(e).__name__})
            raise
        finally:
            self._stack.pop()
        end = time.perf_counter()
        self.spans[index] = (name, start, end, parent, self.op,
                             _counts(fn.__name__, args, kwargs, result))
        return result

    def _wrap(self, name: str, fn: Callable) -> Callable:
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs)
        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        wrappers: dict[int, Callable] = {}
        targets = [(m, fn, span) for m in MODULES for fn, span in SPAN_OF.items()]
        for module, attr, span in targets + list(self._extra):
            original = getattr(module, attr, None)
            if original is None:
                continue
            if id(original) not in wrappers:
                wrappers[id(original)] = self._wrap(span, original)
            self._saved.append((module, attr, original))
            setattr(module, attr, wrappers[id(original)])

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as out:
            for span in self.spans:  # one line per span; parents are line numbers
                out.write(json.dumps(span, separators=(",", ":")) + "\n")


def layer_metrics(spans: list, cycles: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the spans of ``cycles`` passes over the op mix.

    Busy time counts a span only when no enclosing span has the same name;
    totals are per cycle, so they compare across commits whatever the speed.
    """
    child = [0.0] * len(spans)
    for span in spans:
        if span is not None and span[3] >= 0:
            child[span[3]] += span[2] - span[1]

    def outermost(i: int) -> bool:
        name, parent = spans[i][0], spans[i][3]
        while parent >= 0:
            if spans[parent][0] == name:
                return False
            parent = spans[parent][3]
        return True

    op_time = 0.0
    self_time: dict[str, float] = defaultdict(float)
    busy: dict[str, float] = defaultdict(float)
    sums: dict[str, list] = defaultdict(list)
    calls = 0
    for i, span in enumerate(spans):
        if span is None:
            continue
        name, start, end, _, _, counts = span
        duration = end - start
        if name == "op":
            op_time += duration
            continue
        layer = name.split(".")[0]
        self_time[layer] += duration - child[i]
        calls += layer == "inference"
        top = outermost(i)
        if top:
            busy[name] += duration
        for key, value in counts.items():
            if key != "error":
                sums[f"{layer}.{key}"].append(value)
        if top and name == "inference.gen":
            sums["gen.ns"].append(duration * 1e9)
            sums["gen.size"].append(counts.get("size", 0))
        if top and name == "inference.check":
            sums["check.failures"].append(counts.get("failures", 0))
        if name == "cli.parse" and "judgments" in counts:
            sums["parse.s"].append(duration)

    def total(key: str) -> float:
        return float(sum(sums[key]))

    def mean(key: str) -> float:
        values = sums[key]
        return total(key) / len(values) if values else 0.0

    per_cycle = 1.0 / max(cycles, 1)
    out: dict[str, tuple[float, str]] = {}
    for layer in LAYERS:
        out[f"{layer}.self_share"] = (self_time[layer] / op_time if op_time else 0.0, "frac")
    for name in ("inference.ind", "inference.coind", "inference.gen", "inference.check",
                 "prooftree.extract", "prooftree.check", "prooftree.render",
                 "cli.parse", "predicates.build", "predicates.decide"):
        out[f"{name}.busy_s"] = (busy[name] * per_cycle, "s/cycle")
    out["inference.calls"] = (calls * per_cycle, "1/cycle")
    out["inference.system_size"] = (mean("inference.size"), "count")
    out["inference.gen.ns_per_size"] = (
        total("gen.ns") / total("gen.size") if total("gen.size") else 0.0, "ns")
    out["inference.rounds"] = (float(max(sums["inference.rounds"], default=0)), "count")
    out["inference.bound.size"] = (mean("inference.bound"), "count")
    out["inference.restrict.rules_kept"] = (mean("inference.kept"), "count")
    out["inference.gen.size"] = (mean("inference.gen"), "count")
    out["inference.check.failures"] = (total("check.failures") * per_cycle, "1/cycle")
    out["prooftree.extract.nodes"] = (total("prooftree.nodes") * per_cycle, "1/cycle")
    out["prooftree.render.lines"] = (total("prooftree.lines") * per_cycle, "1/cycle")
    out["prooftree.render.bytes"] = (total("prooftree.bytes") * per_cycle, "B/cycle")
    out["cli.parse.judgments_per_s"] = (
        total("cli.judgments") / total("parse.s") if total("parse.s") else 0.0, "1/s")
    out["predicates.build.judgments"] = (total("predicates.judgments") * per_cycle, "1/cycle")
    return out
