"""relcomp benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root; relcomp is imported from ``src/``.  Every
workload (see workloads.py) is a closed loop with one caller in one
process: the next op starts only after the previous one returned.  BLAS
threading is left at the machine default and recorded.

Ops run in whole passes, as many as fit in ``--seconds`` (at least one).
With ``--trace 0`` the end-to-end metrics are reported: ``setup_s``
(median over this process and fresh interpreters of import, input
generation and builds), ``ops_per_s``
(instances per second on the verify workloads, lambdas per second on the
sweep) and ``peak_rss_mb``.  Times are in reference seconds (see
reference.py); wall-clock figures, latency percentiles with their sample
counts and ``check_fail_ratio`` are printed beside them.  ``attempted``
and ``failed`` in the result count checks; an op that raises counts as
one failed check, reported with the stage it raised in.

With ``--trace 1`` passes run for half of ``--seconds`` untraced, then
for half traced (see tracing.py), and the per-layer metrics
are reported per pass, in wall-clock seconds except ``trace.overhead_s``
(traced minus untraced pass, in reference seconds).  The traced outcomes
must equal the untraced ones bit for bit and every wrapper must be gone
afterwards, or the result is not correct.  Spans are written to
``.perfbench/``.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.
"""
from __future__ import annotations

import argparse
import collections
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
SRC = REPO / "src"
SPAN_DIR = REPO / ".perfbench"
SETUP_CHILDREN = 8          # set-up repeats in fresh interpreters, plus this one

RESIDUAL_CHECKS = ("green_identity", "decomposition_reassembly",
                   "compression_equivalence", "s_direct_matches_theta0",
                   "forbidden_route", "compression_chain", "tau_infinity",
                   "krein_formula", "exit_dimension")
# These two report only 0 or inf, so they are counted, not maximised.
FLAG_CHECKS = ("limits_analytic_vs_grid", "classification_routes")

# Names printed for ops_per_s and the per-op percentiles; default: instances.
OP_NAMES = {"resolvent-sweep": ("lambdas_per_s", "lambda")}

# The reference kernel (reference.py) whose speed tracks each workload's.
KERNEL = {"corpus-small": "python", "verify-large": "lapack",
          "resolvent-sweep": "lapack"}
REFERENCE_EVERY = 0.25      # seconds of ops per kernel reading
MAX_READINGS = 16           # kernel readings between two ops at most


def setup(workload, seed):
    """Import relcomp, generate the inputs and build what the ops need.
    Returns the ops and the seconds this took, less any search for inputs
    of a wanted shape (see workloads.BUILDERS)."""
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import reference      # noqa: F401  (first: it records BLAS threads before relcomp)
    import workloads
    ops, search = workloads.BUILDERS[workload](seed)
    return ops, time.perf_counter() - t0 - search


def setup_seconds(workload, seed, own):
    """Median set-up time, in reference seconds, over this process (``own``)
    and fresh interpreters."""
    samples = [own]
    for _ in range(SETUP_CHILDREN):
        out = subprocess.run(
            [sys.executable, str(Path(__file__)), "--setup-only",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=150, check=True)
        samples.append(float(out.stdout.split()[-1]))
    return statistics.median(samples), samples


def environment():
    import numpy as np
    import reference
    try:
        deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    except TypeError:      # numpy without mode="dicts"
        deps = {}

    def lib(kind):
        info = deps.get(kind, {})
        return f"{info.get('name', 'unknown')} {info.get('version', '')}".strip()

    env = {"python": platform.python_version(), "numpy": np.__version__,
           "blas": lib("blas"), "lapack": lib("lapack"),
           "nproc": len(os.sched_getaffinity(0)),
           # BLAS threads before relcomp was imported (None: not readable)
           "blas_threads": reference.KERNEL_THREADS}
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = os.environ.get(var)
    return env


# ---------------------------------------------------------------- running

Pass = collections.namedtuple("Pass", "outs ref wall")
Pass.__doc__ = """One pass over the ops: outcomes per op, reference seconds
per op, and wall seconds of all ops."""


def run_passes(ops, seconds, speed, tracer=None):
    """Whole passes over the ops while one more pass, as long as the last,
    ends within ``seconds`` (at least one pass).  Between ops, and after
    the last, the speedometer is read once per REFERENCE_EVERY seconds
    that passed (at most MAX_READINGS at a time); each pass is scaled by
    the median of its readings."""
    clock = time.perf_counter
    passes = []
    start = clock()

    def read_due(since, at_least=0):
        due = min(MAX_READINGS, int((clock() - since) / REFERENCE_EVERY))
        for _ in range(max(due, at_least)):
            speed.read()
        return clock() if due or at_least else since

    while True:
        pass_start = clock()
        first = len(speed.readings)
        last = read_due(pass_start, at_least=1)
        outs, walls = [], []
        for i, op in enumerate(ops):
            last = read_due(last)
            t0 = clock()
            if tracer is None:
                outs.append(op())
            else:
                with tracer.span(i):
                    outs.append(op())
            walls.append(clock() - t0)
        read_due(last, at_least=1)
        scale = speed.scale(speed.readings[first:])
        passes.append(Pass(outs, [w * scale for w in walls], sum(walls)))
        now = clock()
        if now + (now - pass_start) - start > seconds:
            return passes


class Tally:
    """Checks attempted and failed, and the failures by stage and name."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.stages = collections.Counter()

    def add(self, outcomes):
        for o in outcomes:
            self.attempted += 1
            if not o.passed:
                self.failed += 1
                self.stages[f"{o.stage or 'check'}:{o.name}"] += 1
        return self

    def print_failures(self):
        for stage, count in sorted(self.stages.items()):
            print(f"failed {stage} x{count}")


def percentile(samples, p):
    """p-th percentile, or None unless at least 10 samples lie beyond it."""
    if len(samples) * (100 - p) / 100 < 10:
        return None
    return statistics.quantiles(samples, n=100, method="inclusive")[p - 1]


def metric(value, unit):
    return {"value": value, "unit": unit}


# ---------------------------------------------------------------- modes

def end_to_end(args, ops, own_setup, speed):
    passes = run_passes(ops, args.seconds, speed)
    checks = Tally()
    for p in passes:
        for outs in p.outs:
            checks.add(outs)
    setup_s, setup_samples = setup_seconds(args.workload, args.seed, own_setup)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    durations = [d for p in passes for d in p.ref]
    wall = sum(p.wall for p in passes)
    rate_name, op_name = OP_NAMES.get(args.workload, ("instances_per_s", "instance"))
    n = len(durations)
    rate = n / sum(durations)

    print(f"reference kernel {KERNEL[args.workload]}: {len(speed.readings)} readings, "
          f"median {statistics.median(speed.readings) * 1e3:.3f} ms "
          f"(nominal {speed.nominal * 1e3:g} ms); times below in reference seconds")
    print(f"setup_s {setup_s:.4f} s (median of {len(setup_samples)})")
    print(f"{rate_name} {rate:.4f} 1/s (n={n} in {len(passes)} passes; "
          f"{n / wall:.4f} 1/s in wall-clock seconds)")
    for p in (50, 95):
        q = percentile(durations, p)
        shown = "not reported (fewer than 10 samples beyond it)" if q is None \
            else f"{q * 1e3:.4f} ms"
        print(f"{op_name}_p{p}_ms {shown} (n={n})")
    print(f"check_fail_ratio {checks.failed / checks.attempted:.6f} "
          f"({checks.failed}/{checks.attempted})")
    print(f"peak_rss_mb {rss_mb:.2f} MB")
    checks.print_failures()
    return {"correct": checks.failed == 0, "attempted": checks.attempted,
            "failed": checks.failed,
            "metrics": {"setup_s": metric(setup_s, "s"),
                        "ops_per_s": metric(rate, "1/s"),
                        "peak_rss_mb": metric(rss_mb, "MB")}}


def plain_then_traced(ops, seconds, speed):
    """Untraced passes, then traced passes, ``seconds`` each.  Returns
    (plain, traced, tracer, identical, unwrapped): whether the first traced
    pass gave bit-identical outcomes to the first untraced one, and whether
    every relcomp binding is the original object again afterwards."""
    import tracing

    plain = run_passes(ops, seconds, speed)
    tracer = tracing.Tracer()
    before = tracing.snapshot()
    tracer.install()
    try:
        traced = run_passes(ops, seconds, speed, tracer)
    finally:
        tracer.uninstall()
    unwrapped = tracing.snapshot() == before
    identical = ([[o.key() for o in outs] for outs in plain[0].outs]
                 == [[o.key() for o in outs] for outs in traced[0].outs])
    return plain, traced, tracer, identical, unwrapped


def per_layer(args, ops, speed):
    import tracing

    plain, traced, tracer, identical, unwrapped = plain_then_traced(
        ops, args.seconds / 2, speed)
    calls, incl, self_s = tracer.aggregate()
    k = len(traced)
    walls = [p.wall for p in traced]
    m = {}
    for mod, names in tracing.REPORTED.items():
        for name in names:
            full = f"{mod}.{name}"
            m[f"{full}.calls"] = metric(calls[full] / k, "count")
            m[f"{full}.incl_s"] = metric(incl[full] / k, "s")
            m[f"{full}.self_s"] = metric(self_s[full] / k, "s")
    for mod in tracing.MODULES:
        m[f"{mod}.self_s"] = metric(
            sum(v for name, v in self_s.items() if name.startswith(mod + ".")) / k, "s")
    m["bench.self_s"] = metric(
        (self_s[tracing.ROOT] + sum(walls) - incl[tracing.ROOT]) / k, "s")
    m["trace.wall_s"] = metric(sum(walls) / k, "s")
    # In reference seconds: a traced and an untraced pass run up to a
    # minute apart, long enough for the machine's speed to change.
    m["trace.overhead_s"] = metric(
        statistics.median(sum(p.ref) for p in traced)
        - statistics.median(sum(p.ref) for p in plain), "s")
    m["exitspace.minimality.false"] = metric(
        tracer.false_returns["exitspace.minimality"] / k, "count")

    # Per-check time and residual, from the untraced passes.
    secs, worst = collections.defaultdict(float), collections.defaultdict(float)
    flags = collections.Counter()
    for p in plain:
        for o in (o for op_outs in p.outs for o in op_outs):
            secs[o.name] += o.elapsed
            if math.isfinite(o.residual):
                worst[o.name] = max(worst[o.name], o.residual)
            flags[o.name, o.passed] += 1
    for name in RESIDUAL_CHECKS + FLAG_CHECKS:
        m[f"check.{name}.s"] = metric(secs[name] / len(plain), "s")
    for name in RESIDUAL_CHECKS:
        m[f"check.{name}.residual_max"] = metric(worst[name], "1")
    for name in FLAG_CHECKS:
        m[f"check.{name}.pass"] = metric(flags[name, True] / len(plain), "count")
        m[f"check.{name}.fail"] = metric(flags[name, False] / len(plain), "count")

    SPAN_DIR.mkdir(exist_ok=True)
    span_file = SPAN_DIR / f"spans-{args.workload}-{args.seed}.jsonl.gz"
    tracer.write(span_file)

    checks = Tally()
    for p in plain + traced:
        for op_outs in p.outs:
            checks.add(op_outs)
    print(f"passes untraced {len(plain)} traced {k}; spans {len(tracer.spans)} -> {span_file}")
    print(f"traced results identical to untraced: {identical}; "
          f"wrappers removed: {unwrapped}")
    accounted = sum(m[f"{mod}.self_s"]["value"] for mod in tracing.MODULES) \
        + m["bench.self_s"]["value"]
    print(f"module self times + bench self = {accounted:.4f} s of "
          f"{m['trace.wall_s']['value']:.4f} s traced wall per pass")
    checks.print_failures()
    return {"correct": checks.failed == 0 and identical and unwrapped,
            "attempted": checks.attempted, "failed": checks.failed, "metrics": m}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=tuple(KERNEL))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up once and print the seconds it took")
    args = parser.parse_args(argv)
    if not (SRC / "relcomp" / "__init__.py").is_file():
        print(f"error: relcomp sources not found under {SRC}", file=sys.stderr)
        return 2

    ops, own_setup = setup(args.workload, args.seed)
    from reference import Speedometer
    speed = Speedometer(KERNEL[args.workload])
    own_setup *= speed.scale_now()
    if args.setup_only:
        print(own_setup)
        return 0
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace} ops per pass {len(ops)}")
    print("env " + json.dumps(environment(), sort_keys=True))
    result = (per_layer(args, ops, speed) if args.trace
              else end_to_end(args, ops, own_setup, speed))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
