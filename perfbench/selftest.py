"""Self-test of the benchmark's own machinery.

    python3 perfbench/selftest.py

Checks, on a few ops of every workload at seed 0, that tracing leaves the
results unchanged bit for bit, that it records the listed layers, and that
every wrapper is gone afterwards; that an op which raises is counted as
one failed check with its stage instead of stopping the run; and that the
lapack reference kernel runs at the BLAS threads found at start even when
the process has set others.  Exits 1 if any check fails.
"""
import dataclasses
import sys

import run

run.setup("corpus-small", 0)            # puts src/ on the path
import numpy as np                      # noqa: E402
import reference                        # noqa: E402
import workloads                        # noqa: E402
from relcomp import driver, exitspace   # noqa: E402

# (workload, number of ops, span names that must have been recorded)
CASES = (
    ("corpus-small", 30, ("linrel.orth", "triplet.gamma_and_weyl",
                          "exitspace.minimality", "driver.admissible_lambdas")),
    ("verify-large", 1, ("linrel.complement", "exitspace.build_exit_space",
                         "nevanlinna.tau_limits")),
    ("resolvent-sweep", 6, ("extension.krein_resolvent",
                            "exitspace.generalized_resolvent_direct",
                            "linrel.intersect")),
)


def check(ok, what):
    print(f"[{'PASS' if ok else 'FAIL'}] {what}")
    return ok


def tracing_cases():
    ok = True
    for workload, count, expected in CASES:
        ops = workloads.BUILDERS[workload](0)[0][:count]
        _, _, tracer, identical, unwrapped = run.plain_then_traced(
            ops, 0, reference.Speedometer("python"))
        calls, _, _ = tracer.aggregate()
        ok &= check(identical, f"{workload}: traced outcomes equal untraced bit for bit")
        ok &= check(unwrapped, f"{workload}: every wrapper removed")
        missing = [name for name in expected if not calls[name]]
        ok &= check(not missing, f"{workload}: spans recorded for {', '.join(expected)}"
                    + (f" (missing {missing})" if missing else ""))
    return ok


def failure_cases():
    ok = True
    good = driver.generate_instance(np.random.default_rng(0))
    bad = dataclasses.replace(good, tau_dim=good.tau_dim + 1)
    outs = workloads._verify_op(bad, (0,))()
    t = run.Tally().add(outs)
    ok &= check((t.attempted, t.failed) == (1, 1)
                and "build_problem:exception:InputError" in t.stages,
                f"raising verify op counts as one failed check by stage: {dict(t.stages)}")

    tri, tau = driver.build_problem(good)
    model = exitspace.build_exit_space(tri, tau)
    outs = workloads._sweep_op(tri, tau, model, complex(0.5, 0.0))()
    t = run.Tally().add(outs)
    ok &= check((t.attempted, t.failed) == (1, 1)
                and "krein_resolvent:exception:ValueError" in t.stages,
                f"raising sweep op counts as one failed check by stage: {dict(t.stages)}")
    return ok


def kernel_threads_case():
    if reference.KERNEL_THREADS is None:
        return check(True, "BLAS threads cannot be set here; lapack kernel not pinned")
    get, put = reference._BLAS
    svd, seen = np.linalg.svd, []

    def spy(*args, **kwargs):
        seen.append(get())
        return svd(*args, **kwargs)

    put(1)
    np.linalg.svd = spy
    try:
        reference.lapack_kernel()
        after = get()
    finally:
        np.linalg.svd = svd
        put(reference.KERNEL_THREADS)
    return check(seen == [reference.KERNEL_THREADS] * 2 and after == 1,
                 f"lapack kernel runs at {reference.KERNEL_THREADS} BLAS threads "
                 f"with the process at 1 (saw {seen}, then {after})")


if __name__ == "__main__":
    results = [tracing_cases(), failure_cases(), kernel_threads_case()]
    sys.exit(0 if all(results) else 1)
