"""Seeded benchmark of corules: latency and correctness of user queries end
to end, and the time each layer takes, from a separate traced run.

    python3 perfbench/run.py --workload fixpoint_large --seed 1 --seconds 25 --trace 0

Run it from the root of a corules checkout; it imports the package from
``src`` and the enumeration oracles from ``tests/util.py``. Load is a
closed loop with one client: one op, or one ``corules`` subprocess, at a
time. With ``--trace 0`` it prints the end-to-end metrics, with times
scaled to a reference speed by calibrations timed beside them, and with
``--trace 1`` the per-layer ones (see README.md). The last line of stdout
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
WORKLOADS = ("fixpoint_large", "proof_shapes", "small_batch")
CORULES = [sys.executable, "-c", "from corules.cli import main; main()"]
READY = "print('ready', flush=True)"
PROBES = 15             # fresh interpreters per set-up measurement
# Times are scaled to a reference speed (see README.md): an op's by the
# kernel in calibrate(), a subprocess's by a bare interpreter's start.
REF_CAL_S = 0.4e-3      # what calibrate() takes at the reference speed
REF_START_S = 0.04      # what starting a bare interpreter takes at the reference speed
CAL_EVERY_S = 0.01      # of op time between two calibrations
MIN_OPS, MIN_CMDS = 100, 40
OP_SHARE = 0.6          # of --seconds spent on in-process ops; the rest on commands
CMD_TIMEOUT_S = 120
DEPTH_CAP = 2000        # deepest chain judgment the depth-limit probes try
# What the JSON reports untraced: failed/attempted carry failed_frac, which is 0; the
# wall times are printed only, because the reference-speed ones are steadier.
REPORTED = ("setup_s", "ops_per_s", "op_ms_p50", "op_ms_p90", "cmd_ms_p50", "cmd_ms_p75",
            "peak_rss_mb")
FITS = ("inference.exp.chain", "inference.exp.maxgrid", "inference.exp.infoften",
        "prooftree.render.growth_ladder")


def calibrate() -> float:
    """Seconds that a fixed pure-Python kernel (dict updates, small string
    allocations, a join) takes right now: the median of three passes, so
    that one pass stalled by an interrupt does not count, with the
    collector off so that garbage an op left behind is not collected here."""
    enabled = gc.isenabled()
    gc.disable()
    passes = []
    for _ in range(3):
        start = time.perf_counter()
        counts: dict[int, int] = {}
        parts = []
        for i in range(2000):
            counts[i % 97] = counts.get(i % 97, 0) + i
            parts.append(str(i))
        "".join(parts)
        passes.append(time.perf_counter() - start)
    if enabled:
        gc.enable()
    return statistics.median(passes)


def at_ref_speed(seconds: float, before: float, after: float, ref: float) -> float:
    """``seconds`` of wall time scaled to the reference speed, by the
    calibrations taken just before and just after it, which take ``ref``
    seconds at that speed."""
    return seconds * 2 * ref / (before + after)


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def probe(code: str) -> float:
    """Seconds from starting a fresh interpreter running ``code`` until it is ready."""
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", f"{code}\n{READY}"], cwd=ROOT,
                          env=child_env(), stdout=subprocess.PIPE) as child:
        line = child.stdout.readline()
        ready = time.perf_counter()
        child.communicate(timeout=CMD_TIMEOUT_S)
    if line.strip() != b"ready" or child.returncode:
        raise RuntimeError(f"probe {code!r} exited {child.returncode}")
    return ready - start


def setup_probes(code: str) -> list[tuple[float, float]]:
    """PROBES set-up times of ``code``, each as measured and at the
    reference speed, by bare interpreters started just before and after it."""
    out, before = [], probe("pass")
    for _ in range(PROBES):
        took, after = probe(code), probe("pass")
        out.append((took, at_ref_speed(took, before, after, REF_START_S)))
        before = after
    return out


def bare_run() -> float:
    """Seconds that running a bare interpreter to its exit takes right now."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], cwd=ROOT, env=child_env(),
                   capture_output=True, timeout=CMD_TIMEOUT_S, check=True)
    return time.perf_counter() - start


def percentile(samples: list[tuple[int, float]], q: float) -> float:
    """The ``q`` quantile, interpolated, of the items' median times, from
    (item, time) samples; failures are ``inf``. Each cycle runs every item
    once, so the pooled times cluster by item and a pooled rank such as the
    median falls on the edge between two clusters, where it jumps between
    them from run to run. The items' medians have no such edge."""
    by_item: dict[int, list[float]] = {}
    for item, value in samples:
        by_item.setdefault(item, []).append(value)
    medians = sorted(statistics.median(values) for values in by_item.values())
    position = q * (len(medians) - 1)
    low = math.floor(position)
    high = min(low + 1, len(medians) - 1)
    if medians[high] == math.inf:
        return math.inf
    return medians[low] + (position - low) * (medians[high] - medians[low])


def execute(op, tracer=None, serial: int = -1):
    """(latency in s, error or None, whether the answer was wrong)."""
    if tracer is not None:
        tracer.op = serial
        tracer.install()
    start = time.perf_counter()
    try:
        answer = op.run() if tracer is None else tracer.call("op", op.run, (), {})
    except Exception as e:
        return time.perf_counter() - start, f"{op.kind}: {type(e).__name__}: {e}"[:300], False
    finally:
        if tracer is not None:
            tracer.uninstall()
    latency = time.perf_counter() - start
    try:
        error = op.verify(answer)
    except Exception as e:  # an answer of the wrong shape is a wrong answer
        error = f"{type(e).__name__}: {e}"
    return latency, (f"{op.kind}: {error}"[:300] if error else None), error is not None


def warm_up(ops) -> float:
    """One untimed pass over every op, so that lazy set-up is done before
    timing; returns the process's peak RSS in MB after it. Largest inputs go
    first, so the peak does not depend on what earlier ops left behind in
    the allocator."""
    for op in sorted(ops, key=lambda op: -op.x):
        try:
            op.run()
        except Exception:  # the timed passes count failures
            pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_ops(ops, seconds: float, rng, tracer=None):
    """Whole cycles over every op, each cycle in a fresh seeded order, until
    ``seconds`` have passed and MIN_OPS are done. Traced runs execute each op
    twice, untraced and traced, alternating which goes first. Untraced runs
    calibrate whenever CAL_EVERY_S of op time has passed since the last
    calibration, and scale each op's latency by the calibrations on either
    side of it.

    Returns (cycles, untraced records, traced records); a record is
    (op index, serial, latency, error, wrong, latency at the reference speed)."""
    plain, traced = [], []
    pending: list[tuple] = []  # untraced records awaiting the next calibration
    cal = calibrate()

    def settle():
        nonlocal cal
        before, cal = cal, calibrate()
        plain.extend(r + (at_ref_speed(r[2], before, cal, REF_CAL_S),) for r in pending)
        pending.clear()

    cycles, start, since_cal = 0, time.perf_counter(), 0.0
    while time.perf_counter() - start < seconds or len(plain) + len(pending) < MIN_OPS:
        order = list(range(len(ops)))
        rng.shuffle(order)
        for i in order:
            if tracer:
                runs = [(plain, None), (traced, tracer)]
                for records, t in (runs if cycles % 2 == 0 else runs[::-1]):
                    serial = len(records)
                    records.append((i, serial) + execute(ops[i], t, serial) + (math.nan,))
                continue
            pending.append((i, len(plain) + len(pending)) + execute(ops[i]))
            since_cal += pending[-1][2]
            if since_cal >= CAL_EVERY_S:
                settle()
                since_cal = 0.0
        cycles += 1
    if pending:
        settle()
    return cycles, plain, traced


def run_cmds(cmds, seconds: float, rng):
    """Whole cycles over every command until ``seconds`` and MIN_CMDS are
    reached. A record is (command index, latency, error or None, wrong,
    latency at the reference speed, from bare interpreters run just before
    and after the command)."""
    records = []
    before = bare_run()
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(records) < MIN_CMDS:
        order = list(range(len(cmds)))
        rng.shuffle(order)
        for i in order:
            cmd = cmds[i]
            begin = time.perf_counter()
            try:
                done = subprocess.run(CORULES + cmd.args, cwd=ROOT, env=child_env(),
                                      capture_output=True, text=True, timeout=CMD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                latency = time.perf_counter() - begin
                records.append((i, latency, f"{cmd.args}: timed out", False, latency))
                continue
            latency = time.perf_counter() - begin
            after = bare_run()
            ref_latency = at_ref_speed(latency, before, after, REF_START_S)
            before = after
            if "Traceback" in done.stderr:
                error = f"traceback on stderr, exit {done.returncode}"
                wrong = False
            else:
                error = cmd.verify(done.returncode, done.stdout)
                wrong = error is not None
            records.append((i, latency, f"{cmd.args[:3]}: {error}"[:300] if error else None,
                            wrong, ref_latency))
    return records


def run_cmd(args: list) -> tuple[int, str, str]:
    """One ``corules`` command: (exit code, stdout, stderr)."""
    done = subprocess.run(CORULES + args, cwd=ROOT, env=child_env(), capture_output=True,
                          text=True, timeout=CMD_TIMEOUT_S)
    return done.returncode, done.stdout, done.stderr


def depth_limit(works, cap: int) -> int:
    """The largest depth in [0, cap] for which ``works`` holds, by bisection;
    ``works`` is taken to hold up to some depth and fail beyond it."""
    low, high = 0, cap + 1  # works(low) is assumed; works(high) is taken as false
    while high - low > 1:
        mid = (low + high) // 2
        low, high = (mid, high) if works(mid) else (low, mid)
    return low


def fit(points: list[tuple[float, float]], log_x: bool) -> float:
    """Least-squares slope of ln(y) against ln(x) (or x); 0 without two sizes."""
    xs = [math.log(x) if log_x else x for x, _ in points]
    ys = [math.log(y) for _, y in points]
    if len(set(xs)) < 2:
        return 0.0
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
            / sum((x - mx) ** 2 for x in xs))


def scaling_fits(w, plain, traced, spans) -> dict[str, float]:
    """Exponents of op time against system size, and the per-rung time ratio
    of spans named in ``w.fits``, over each instance's median time."""
    span_time: dict[tuple, float] = {}
    for span in spans:
        if span is not None:
            span_time.setdefault((span[0], span[4]), 0.0)
            span_time[(span[0], span[4])] += span[2] - span[1]
    out = dict.fromkeys(FITS, 0.0)  # 0 where the workload has no such family
    for metric, (kind, span_name) in w.fits.items():
        samples: dict[int, list[float]] = {}
        source = plain if span_name is None else traced
        for i, serial, latency, error, *_ in source:
            if w.ops[i].kind != kind or error:
                continue
            y = latency if span_name is None else span_time.get((span_name, serial))
            if y:
                samples.setdefault(i, []).append(y)
        points = [(w.ops[i].x, statistics.median(ys)) for i, ys in samples.items()
                  if w.ops[i].x > 0]
        slope = fit(points, log_x=span_name is None)
        out[metric] = slope if span_name is None else math.exp(slope)
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    needed = [ROOT / "src" / "corules" / "__init__.py", ROOT / "tests" / "util.py", ROOT / "demos"]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.exists()]
    if missing:
        print(f"error: run from the root of a corules checkout; missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

    import corules.cli  # noqa: F401  (the commands' module, imported as users do)
    import spans as tracing
    import workloads

    rng = random.Random(f"{args.workload}/{args.seed}/order")
    tmp = ROOT / ".perfbench_tmp" / f"{args.workload}-{args.seed}-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        probe("pass")  # fills the bytecode caches, which users have too
        if args.trace:
            pairs = [(probe("import corules.cli"), probe("pass")) for _ in range(PROBES)]
            import_ms = 1000 * (statistics.median(a for a, _ in pairs)
                                - statistics.median(b for _, b in pairs))
        else:
            setups = setup_probes("import corules, corules.cli")
        w = workloads.build(args.workload, args.seed, tmp, ROOT)
        peak_rss_mb = warm_up(w.ops)
        gc.freeze()  # the inputs and references built so far stay out of the ops' collections
        if args.trace:
            tracer = tracing.Tracer(extra=[(workloads, "proof_depth", "prooftree.depth")])
            cycles, plain, traced = run_ops(w.ops, args.seconds, rng, tracer)
            cmd_records = []
            # Known defect: proofs recurse once per level. These bisect the
            # deepest chain judgment proven right, outside the timed ops.
            depth_rng = random.Random(f"{args.workload}/{args.seed}/depth")
            proof_limit = depth_limit(lambda d: workloads.proof_works(depth_rng, d), DEPTH_CAP)
            cmd_limit = depth_limit(lambda d: workloads.prove_cmd_works(
                depth_rng, d, tmp / "deep.inf", run_cmd), DEPTH_CAP)
        else:
            cycles, plain, traced = run_ops(w.ops, OP_SHARE * args.seconds, rng)
            cmd_records = run_cmds(w.cmds, (1 - OP_SHARE) * args.seconds, rng)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    op_records = plain + traced
    errors = [r[3] for r in op_records if r[3]] + [r[2] for r in cmd_records if r[2]]
    wrong = sum(r[4] for r in op_records) + sum(r[3] for r in cmd_records)
    attempted = len(op_records) + len(cmd_records)
    for error in dict.fromkeys(errors):
        print(f"failed: {error}", file=sys.stderr)

    metrics: dict[str, tuple[float, str]] = {}
    if args.trace:
        spans = tracer.spans
        tracer.write(ROOT / ".perfbench_out" / f"trace-{args.workload}-{args.seed}.jsonl.gz")
        metrics.update(tracing.layer_metrics(spans, cycles))
        metrics["trace.overhead_frac"] = (
            1 - sum(r[2] for r in plain) / sum(r[2] for r in traced), "frac")
        metrics["cli.import_ms"] = (import_ms, "ms")
        metrics["prooftree.depth_limit"] = (proof_limit, "count")
        metrics["cli.prove.depth_limit"] = (cmd_limit, "count")
        for name, value in scaling_fits(w, plain, traced, spans).items():
            metrics[name] = (value, "ratio" if name.endswith("growth_ladder") else "exp")
    else:
        # Times at the reference speed go into the JSON; wall times are printed too.
        for suffix, at, op_at, cmd_at in (("", 1, 5, 4), ("_wall", 0, 2, 1)):
            op_ms = [(r[0], 1000 * r[op_at] if not r[3] else math.inf) for r in plain]
            cmd_ms = [(r[0], 1000 * r[cmd_at] if not r[2] else math.inf) for r in cmd_records]
            metrics["setup_s" + suffix] = (statistics.median(p[at] for p in setups), "s")
            metrics["ops_per_s" + suffix] = (len(plain) / sum(r[op_at] for r in plain), "1/s")
            metrics["op_ms_p50" + suffix] = (percentile(op_ms, 0.50), "ms")
            metrics["op_ms_p90" + suffix] = (percentile(op_ms, 0.90), "ms")
            metrics["cmd_ms_p50" + suffix] = (percentile(cmd_ms, 0.50), "ms")
            metrics["cmd_ms_p75" + suffix] = (percentile(cmd_ms, 0.75), "ms")
        metrics["failed_frac"] = (len(errors) / attempted, "frac")
        metrics["peak_rss_mb"] = (peak_rss_mb, "MB")

    print(f"# {args.workload} seed {args.seed}: {len(plain)} ops in {cycles} cycles"
          f"{' (each also traced)' if args.trace else ''}, {len(cmd_records)} commands, "
          f"{len(errors)} failed, {wrong} wrong")
    for name, (value, unit) in metrics.items():
        print(f"{name:34s} {value:14.6g} {unit}")
    reported = {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
                if args.trace or name in REPORTED}
    print(json.dumps({"correct": wrong == 0, "attempted": attempted, "failed": len(errors),
                      "metrics": reported}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
