"""Benchmark workloads: inputs generated from a seed, and one op per unit
of work.

An op is a zero-argument callable that calls into relcomp and returns a
list of ``Outcome``.  Ops look relcomp functions up through their module
at call time, so a tracer installed later sees every call.

corpus-small
    The acceptance-test corpus: 205 instances in six categories, built
    with the test's generator settings (max_dim 6, max_boundary 3,
    max_poles 3).  One op is ``driver.verify_instance`` on one instance.
    The matrices are tiny, so per-call Python overhead dominates, and
    every classification branch runs.
verify-large
    ``driver.generate_instance`` at max_dim 96, max_boundary 48,
    max_poles 4, at base dimension n = 96 (the generator draws n first, so
    streams that draw another n are skipped cheaply).  The instance's cost
    and memory grow with its exit rank (``extension.rank_sum``: rank B plus
    the pole ranks).  Over 11000 such draws the rank ran from 0 to 202,
    with shares 0.36 in 0-14, 0.21 in 15-29, 0.15 in 30-44, 0.09 in 45-59,
    0.07 in 60-74, 0.05 in 75-89 and 0.07 from 90 up.  One pass takes
    one instance from each sixth of that distribution, at the sixth's
    median rank (within 5%), so each pass weighs the whole range by its
    share and costs the same for every seed.  The search for these
    streams is not counted as set-up.  One op is
    ``driver.verify_instance``; LAPACK SVDs dominate.
resolvent-sweep
    Three fixed problem shapes (n 48-64, boundary dimension 8-24) with
    seeded entries; triplet and exit space are built once in set-up.  One
    op is one nonreal lambda of a shared seeded grid:
    ``extension.krein_resolvent`` and
    ``exitspace.generalized_resolvent_direct``, compared at the
    ``krein_formula`` threshold.
"""
from __future__ import annotations

import math
import os
import time
import traceback
from dataclasses import dataclass

import numpy as np

from relcomp import driver, exitspace, extension
from relcomp.nevanlinna import RationalNevanlinna

# Same categories and counts as tests/test_acceptance.py.
CORPUS_CATEGORIES = (
    ("b_full", 40),
    ("b_deficient", 45),
    ("k_nontrivial", 25),
    ("transversal", 35),
    ("selfadjoint_seed", 25),
    ("random", 35),
)
LARGE_DIM, LARGE_BOUNDARY, LARGE_POLES = 96, 48, 4
# Median exit rank of each sixth of the measured rank distribution at n = 96.
LARGE_RANKS = (3, 9, 18, 31, 49, 85)

# (n, boundary dim d, dim of tau's multivalued part, rank of B, pole ranks)
SWEEP_SHAPES = (
    (48, 8, 0, 8, (4, 4)),
    (56, 16, 4, 6, (6,)),
    (64, 24, 0, 12, (12, 6)),
)
SWEEP_LAMBDAS = 36
KREIN_TOL = 1e-8       # threshold of the krein_formula check in driver.verify_instance


@dataclass(frozen=True)
class Outcome:
    """One check of one op.  ``stage`` names where an exception came from."""

    name: str
    residual: float
    passed: bool
    elapsed: float
    stage: str = ""

    def key(self):
        """What must be identical between a traced and an untraced run."""
        return (self.name, self.residual.hex(), self.passed, self.stage)


_HERE = os.path.dirname(os.path.abspath(__file__))


def _failure(exc, stage):
    return [Outcome(name=f"exception:{type(exc).__name__}", residual=math.inf,
                    passed=False, elapsed=0.0, stage=stage)]


def _stage_below(exc, caller):
    """Name of the function ``caller`` was running when ``exc`` was raised."""
    names = [f.name for f in traceback.extract_tb(exc.__traceback__)
             if os.path.dirname(os.path.abspath(f.filename)) != _HERE]
    if caller in names:
        i = names.index(caller)
        return names[i + 1] if i + 1 < len(names) else caller
    return caller


# ---------------------------------------------------------------- verify

def _verify_op(inst, rng_key):
    def op():
        try:
            checks = driver.verify_instance(inst, np.random.default_rng(rng_key))
        except Exception as exc:       # a raised check is a failed check
            return _failure(exc, _stage_below(exc, "verify_instance"))
        return [Outcome(c.name, c.residual, c.passed, c.elapsed) for c in checks]
    return op


def corpus_small(seed):
    rng = np.random.default_rng(seed)
    insts = [driver.generate_instance(rng, max_dim=6, max_boundary=3,
                                      max_poles=3, category=category)
             for category, count in CORPUS_CATEGORIES for _ in range(count)]
    order = rng.permutation(len(insts))
    return [_verify_op(insts[i], (seed, int(i))) for i in order], 0.0


def _large_instance(key):
    return driver.generate_instance(np.random.default_rng(key), LARGE_DIM,
                                    LARGE_BOUNDARY, LARGE_POLES)


def large_streams(seed):
    """For each rank of LARGE_RANKS, the first generator stream whose
    instance has n = 96 and an exit rank within 5% of it (at least 1)."""
    found = {}
    stream = 0
    while len(found) < len(LARGE_RANKS):
        key = (seed, stream)
        stream += 1
        # generate_instance draws the base dimension first.
        if np.random.default_rng(key).integers(1, LARGE_DIM + 1) != LARGE_DIM:
            continue
        inst = _large_instance(key)
        tau = RationalNevanlinna.build(
            inst.tau_dim, a=inst.tau_a, b=inst.tau_b, poles=inst.tau_poles,
            mul_span=inst.tau_mul if inst.tau_mul.shape[1] else None, tol=inst.tol)
        rank = extension.rank_sum(tau)
        for target in LARGE_RANKS:
            if abs(rank - target) <= max(1, target // 20):
                found.setdefault(target, key)
    return [found[target] for target in LARGE_RANKS]


def verify_large(seed):
    t0 = time.perf_counter()
    streams = large_streams(seed)
    search = time.perf_counter() - t0
    return [_verify_op(_large_instance(key), key + (1,)) for key in streams], search


# ---------------------------------------------------------------- sweep

def sweep_instance(rng, n, d, k, b_rank, pole_ranks):
    """Instance with a fixed shape: a symmetric seed of deficiency d, a von
    Neumann triplet and a tau with the given structure."""
    unitary, hermitian, psd = (driver._random_unitary, driver._random_hermitian,
                               driver._random_psd_of_rank)
    dom = unitary(rng, n)[:, :n - d]
    span = np.vstack([dom, hermitian(rng, n) @ dom])
    p = d - k
    alphas = np.linspace(-2.5, 2.5, len(pole_ranks))
    poles = tuple((float(a), psd(rng, p, r)) for a, r in zip(alphas, pole_ranks))
    return driver.Instance(dim=n, seed_span=span, triplet_kind="von_neumann",
                           triplet_data={"V": unitary(rng, d)}, tau_dim=d,
                           tau_mul=unitary(rng, d)[:, :k], tau_a=hermitian(rng, p),
                           tau_b=psd(rng, p, b_rank), tau_poles=poles)


def _sweep_op(tri, tau, model, lam):
    def op():
        t0 = time.perf_counter()
        stage = "krein_resolvent"
        try:
            formula = extension.krein_resolvent(tri, tau, lam)
            stage = "generalized_resolvent_direct"
            direct = exitspace.generalized_resolvent_direct(model, lam)
        except Exception as exc:
            return _failure(exc, stage)
        res = float(np.max(np.abs(formula - direct), initial=0.0))
        return [Outcome("krein_formula", res, res < KREIN_TOL, time.perf_counter() - t0)]
    return op


def resolvent_sweep(seed):
    rng = np.random.default_rng(seed)
    problems = []
    for shape in SWEEP_SHAPES:
        tri, tau = driver.build_problem(sweep_instance(rng, *shape))
        problems.append((tri, tau, exitspace.build_exit_space(tri, tau)))
    lams = [complex(rng.uniform(-2, 2), rng.choice([-1, 1]) * rng.uniform(0.5, 2.0))
            for _ in range(SWEEP_LAMBDAS)]
    return [_sweep_op(*problem, lam) for lam in lams for problem in problems], 0.0


# Each builder returns (ops, seconds spent searching generator streams for
# inputs of a wanted shape); the search is the benchmark's own work and is
# not counted as set-up.
BUILDERS = {"corpus-small": corpus_small, "verify-large": verify_large,
            "resolvent-sweep": resolvent_sweep}
