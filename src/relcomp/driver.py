"""Batch driver: generate or load instances, verify the invariant suite,
emit machine-readable reports.

An instance is a JSON document (complex entries as [re, im] pairs,
matrices row-major) holding the seed span, the triplet choice and the
rational parameter.  Reports are versioned ("v1") and their body is a
deterministic function of (instance, RNG seed); wall-clock timings live in
a separate section.  The RNG is numpy's default_rng (PCG64), seeded
explicitly, so reports reproduce across platforms.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import sys
import time
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np

from .linrel import (
    DEFAULT_TOL,
    LinearRelation,
    _gap,
    make_relation,
    negate,
    operator_relation,
    resolvent,
)
from .nevanlinna import (
    RationalNevanlinna,
    decompose_tau,
    eval_tau,
    tau_limits,
)
from .triplet import (
    BoundaryTriplet,
    SymmetricSeed,
    TripletError,
    extension_of,
    von_neumann_triplet,
)
from .extension import _krein_from, classify_compression, krein_resolvent
from .exitspace import (
    build_exit_space,
    direct_compression,
    generalized_resolvent_direct,
    minimality,
)

REPORT_SCHEMA = "relcomp-report-v1"
INSTANCE_SCHEMA = "relcomp-instance-v1"


class InputError(Exception):
    """Malformed or invalid instance input."""


# ---------------------------------------------------------------- serialization

def matrix_to_json(m: np.ndarray) -> list:
    """Row-major nested lists with complex entries as [re, im]."""
    m = np.asarray(m, dtype=complex)
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def _number(value) -> float:
    """value as a float, for a JSON int or float; TypeError for anything
    else, a bool or a numeric string included."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"not a number: {value!r}")
    return float(value)


def _dimension(value) -> int:
    """value as an int, for a JSON number that is a nonnegative integer."""
    number = _number(value)
    if not (number.is_integer() and number >= 0):
        raise ValueError(f"not a dimension: {value!r}")
    return int(number)


def matrix_from_json(data, rows=None, cols=None) -> np.ndarray:
    """Inverse of matrix_to_json.  rows and cols, where given, are the
    declared shape: an empty list reads as that shape and any other shape
    is an InputError, as are ragged rows and an entry that is not an
    [re, im] pair of numbers."""
    try:
        cells = [[complex(_number(re), _number(im)) for re, im in row] for row in data]
    except (TypeError, ValueError) as exc:
        raise InputError(f"malformed matrix: {exc}") from exc
    if len({len(row) for row in cells}) > 1:
        raise InputError("malformed matrix: ragged rows")
    m = np.array(cells, dtype=complex)
    if not data:
        m = m.reshape(rows if rows is not None else 0,
                      cols if cols is not None else 0)
    if rows not in (None, m.shape[0]) or cols not in (None, m.shape[1]):
        raise InputError(f"matrix of shape {m.shape} where {(rows, cols)} is declared")
    return m


@dataclass(frozen=True)
class Instance:
    """One verification problem: seed relation, triplet choice, parameter."""

    dim: int
    seed_span: np.ndarray
    triplet_kind: str            # "von_neumann" | "explicit"
    triplet_data: dict = field(default_factory=dict)
    tau_dim: int = 0
    tau_mul: np.ndarray = field(default_factory=lambda: np.zeros((0, 0), complex))
    tau_a: np.ndarray = field(default_factory=lambda: np.zeros((0, 0), complex))
    tau_b: np.ndarray = field(default_factory=lambda: np.zeros((0, 0), complex))
    tau_poles: tuple = ()

    @property
    def tol(self) -> float:
        """Always DEFAULT_TOL; instance files record it as "tol"."""
        return DEFAULT_TOL

    def to_json(self) -> dict:
        tri = {"kind": self.triplet_kind}
        # build_problem replays a von_neumann triplet without V with V = I
        default = {"V": np.eye(self.tau_dim)} if self.triplet_kind == "von_neumann" else {}
        for key, val in {**default, **self.triplet_data}.items():
            tri[key] = matrix_to_json(val)
        return {
            "schema": INSTANCE_SCHEMA,
            "dim": self.dim,
            "seed_span": matrix_to_json(self.seed_span),
            "triplet": tri,
            "tau": {
                "dim": self.tau_dim,
                "mul_basis": matrix_to_json(self.tau_mul),
                "A": matrix_to_json(self.tau_a),
                "B": matrix_to_json(self.tau_b),
                "poles": [{"alpha": float(alpha), "A_j": matrix_to_json(aj)}
                          for alpha, aj in self.tau_poles],
            },
            "tol": DEFAULT_TOL,
        }

    @classmethod
    def from_json(cls, doc: dict) -> "Instance":
        try:
            if not isinstance(doc, dict):
                raise TypeError(f"top level is a {type(doc).__name__}, not an object")
            if doc.get("schema") != INSTANCE_SCHEMA:
                raise InputError(f"unknown instance schema: {doc.get('schema')!r}")
            n = _dimension(doc["dim"])
            tau = doc["tau"]
            d = _dimension(tau["dim"])
            tri = doc["triplet"]
            kind = tri["kind"]
            # the column count of each matrix of the kind, all with d rows:
            # V is d x d, the boundary maps are d x 2n on ambient pairs
            shapes = {"von_neumann": {"V": d},
                      "explicit": {"gamma0": 2 * n, "gamma1": 2 * n}}.get(kind)
            if shapes is None:
                raise InputError(f"unknown triplet kind: {kind!r}")
            if sorted(tri) != sorted([*shapes, "kind"]):
                raise InputError(f"a {kind} triplet holds exactly {sorted(shapes)}, "
                                 f"not {sorted(set(tri) - {'kind'})}")
            tri_data = {k: matrix_from_json(tri[k], rows=d, cols=cols)
                        for k, cols in shapes.items()}
            mul = matrix_from_json(tau["mul_basis"], rows=d)
            poles = tuple((_number(p["alpha"]), matrix_from_json(p["A_j"]))
                          for p in tau["poles"])
            doc_tol = _number(doc.get("tol", DEFAULT_TOL))
            if doc_tol != DEFAULT_TOL:
                raise InputError(f"instance tol {doc_tol} is not the package "
                                 f"tolerance {DEFAULT_TOL}")
            return cls(dim=n,
                       seed_span=matrix_from_json(doc["seed_span"], rows=2 * n),
                       triplet_kind=kind, triplet_data=tri_data,
                       tau_dim=d, tau_mul=mul,
                       tau_a=matrix_from_json(tau["A"]),
                       tau_b=matrix_from_json(tau["B"]),
                       tau_poles=poles)
        except (KeyError, ValueError, TypeError) as exc:
            raise InputError(f"malformed instance: {exc}") from exc


def build_problem(inst: Instance):
    """Materialize (triplet, tau) from an instance.  An instance outside the
    paper's hypotheses raises InputError, converted once for the seed with
    its triplet and once for tau, whose every violation
    ``RationalNevanlinna.build`` names in one ValueError.  tau's dimension
    must be n - dim A, checked before the n^2-sized defect frames."""
    try:
        A = make_relation(inst.seed_span, inst.dim)
        if inst.tau_dim != inst.dim - A.dim:
            raise InputError(f"invalid tau: tau dimension {inst.tau_dim} != boundary "
                             f"dimension {inst.dim - A.dim}")
        seed = SymmetricSeed.from_relation(A)
        maps = inst.triplet_data
        if inst.triplet_kind == "von_neumann":
            tri = von_neumann_triplet(seed, V=maps.get("V"))
        elif inst.triplet_kind == "explicit":
            if not {"gamma0", "gamma1"} <= maps.keys():
                raise ValueError("an explicit triplet needs the maps gamma0 and gamma1")
            tri = BoundaryTriplet.from_ambient_maps(seed, maps["gamma0"], maps["gamma1"])
        else:
            raise ValueError(f"unknown triplet kind: {inst.triplet_kind!r}")
    except (ValueError, TripletError) as exc:
        raise InputError(f"invalid seed or triplet: {exc}") from exc
    try:
        tau = RationalNevanlinna.build(inst.tau_dim, a=inst.tau_a, b=inst.tau_b,
                                       poles=inst.tau_poles, mul_span=inst.tau_mul)
    except ValueError as exc:
        raise InputError(f"invalid tau: {exc}") from exc
    return tri, tau


# ---------------------------------------------------------------- generation

def _random_unitary(rng, n: int) -> np.ndarray:
    if n == 0:
        return np.zeros((0, 0), dtype=complex)
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _random_hermitian(rng, n: int) -> np.ndarray:
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (z + z.conj().T) / 2


def _random_psd_of_rank(rng, n: int, rank: int) -> np.ndarray:
    """PSD matrix with eigenvalues of the chosen rank bounded in [0.5, 2]."""
    u = _random_unitary(rng, n)
    w = np.zeros(n)
    w[:rank] = 0.5 + 1.5 * rng.random(rank)
    return (u * w) @ u.conj().T


CATEGORIES = ("b_full", "b_deficient", "k_nontrivial", "transversal",
              "selfadjoint_seed", "random")


def generate_instance(rng, max_dim: int = 6, max_boundary: int = 3,
                      max_poles: int = 3, category: str = "random") -> Instance:
    """Draw a random instance; `category` forces a region of parameter space:
    'b_full' (ker B trivial), 'b_deficient', 'k_nontrivial', 'transversal'
    (K = {0}, B = 0, poles only), 'selfadjoint_seed' (boundary dim 0), or
    none ('random').  Any other category raises ValueError before a draw."""
    if category not in CATEGORIES:
        raise ValueError(f"unknown category {category!r}; choose from {CATEGORIES}")
    n = int(rng.integers(1, max_dim + 1))
    if category == "selfadjoint_seed":
        d = 0
    else:
        d = int(rng.integers(1, min(max_boundary, n) + 1))
    rest = n - d
    n_mul = int(rng.integers(0, rest + 1)) if rng.random() < 0.3 else 0
    m = rest - n_mul

    Q = _random_unitary(rng, n)
    dom = Q[:, :m]
    mul = Q[:, m:m + n_mul]
    H = _random_hermitian(rng, n)
    span = np.vstack([
        np.hstack([dom, np.zeros((n, n_mul), dtype=complex)]),
        np.hstack([H @ dom, mul]),
    ])
    V = _random_unitary(rng, d)

    # tau structure
    if category == "k_nontrivial" and d >= 1:
        k = int(rng.integers(1, d + 1))
    elif category in ("transversal", "b_full", "b_deficient"):
        k = 0
    else:
        k = int(rng.integers(0, d + 1)) if rng.random() < 0.25 else 0
    p = d - k
    mul_basis = _random_unitary(rng, d)[:, :k]
    a = _random_hermitian(rng, p)
    if category == "b_full":
        b_rank = p
    elif category == "b_deficient":
        b_rank = int(rng.integers(0, p)) if p else 0
    elif category == "transversal":
        b_rank = 0
    else:
        b_rank = int(rng.integers(0, p + 1))
    b = _random_psd_of_rank(rng, p, b_rank)
    l_max = max_poles if p else 0
    if category == "transversal":
        l = int(rng.integers(1, l_max + 1)) if l_max else 0
    else:
        l = int(rng.integers(0, l_max + 1))
    alphas = np.sort(rng.uniform(-3, 3, size=l))
    poles = []
    for j in range(l):
        if j and alphas[j] - alphas[j - 1] < 0.2:
            alphas[j] = alphas[j - 1] + 0.2 + rng.random()
        rj = int(rng.integers(1, p + 1))
        poles.append((float(alphas[j]), _random_psd_of_rank(rng, p, rj)))
    return Instance(dim=n, seed_span=span, triplet_kind="von_neumann",
                    triplet_data={"V": V}, tau_dim=d, tau_mul=mul_basis,
                    tau_a=a, tau_b=b, tau_poles=tuple(poles))


def admissible_lambdas(rng, count: int):
    """Nonreal sample points, drawn without evaluating anything there.

    A point where a resolvent that a check reads does not exist makes that
    check raise, and the report names the check.
    """
    return [complex(rng.uniform(-2, 2), (2 * rng.integers(0, 2) - 1) * rng.uniform(0.5, 2.0))
            for _ in range(count)]


# ---------------------------------------------------------------- verification

@dataclass(frozen=True)
class CheckResult:
    name: str
    residual: float
    passed: bool
    elapsed: float


class Check(NamedTuple):
    """A verify check passes when residual(context) < threshold."""

    name: str
    threshold: float
    residual: Callable


class VerifyContext:
    """The objects the checks of one instance read.  Each is built once,
    inside the first check that needs it."""

    def __init__(self, tri, tau, rng):
        self.tri, self.tau, self.rng = tri, tau, rng

    @cached_property
    def model(self):
        return build_exit_space(self.tri, self.tau)

    @cached_property
    def chain(self):
        """Direct compressions (C, S, T) of the exit-space model."""
        return direct_compression(self.model)

    @cached_property
    def decomposition(self):
        return decompose_tau(self.tau)

    @cached_property
    def report(self):
        """C(A~) by the formula route, its flags by both routes and n_r."""
        return classify_compression(self.tri, self.tau)


def krein_residuals(tri, tau, model, lams) -> tuple[float, float]:
    """Worst residuals of the Krein formula over the points lams, against
    the canonical resolvent of A_{-tau(lam)} and against the oracle's
    generalized resolvent.  The formula route evaluates tau on the stack
    of lams once and reads both of its sides off that one stack; the
    oracle takes one point at a time."""
    points = np.array(lams)
    tau_at = eval_tau(tau, points)
    krein = _krein_from(tri, tau_at, points)
    canonical = resolvent(extension_of(tri, negate(tau_at)), points)
    direct = max(float(np.max(np.abs(generalized_resolvent_direct(model, lam) - k),
                              initial=0.0))
                 for lam, k in zip(lams, krein))
    return float(np.max(np.abs(np.subtract(krein, canonical, out=canonical)),
                        initial=0.0)), direct


def _gap_on_w(formula, oracle) -> float:
    """The gap of a set A <= X <= A* by the formula route against the
    oracle's, read second, off their coordinates on W = A* (-) A: each
    frame is [A, W Y] with W orthonormal and orthogonal to A, so the two
    projectors differ by W (P_Y1 - P_Y2) W^H, and ``relations_equal``'s
    gap of the assembled frames is the gap of the coordinates, 1 where
    the dimensions differ, read on 2d rows."""
    return float(_gap(formula.coords, oracle.coords))


def theta0(tau, dec) -> LinearRelation:
    """theta0 = {{h'', -A h'' + k}: h'' in H'', k in K}, with S = A_theta0,
    for tau's ``decompose_tau`` dec."""
    hd = dec.h_dprime
    return operator_relation(hd, -tau.a_coef @ hd, tau.mul_frame)


def theta_t(tau, dec) -> LinearRelation:
    """theta_T = {{h, -(I - P_H') A h + k}: h in K-perp, k in K + H'}, with
    T = P_H A~ = A_theta_T, since Gamma1 f-hat + A h ranges over
    K + ran G^H = K + H' (README).  A vanishes on K and maps into
    K-perp = H' (+) H'', so -(I - P_H') A h is -h'' (h''^H A h) for the
    frame h'' of H'': no difference of two near-equal images is formed."""
    hd = dec.h_dprime
    return operator_relation(tau.op_frame, -hd @ (hd.conj().T @ tau.a_coef @ tau.op_frame),
                             np.hstack([tau.mul_frame, dec.h_prime]))


def _s_direct_matches_theta0(ctx) -> float:
    """The gap of A_theta0 against the oracle's S = A~ cap (H (+) H)."""
    return _gap_on_w(extension_of(ctx.tri, theta0(ctx.tau, ctx.decomposition)), ctx.chain[1])


def _t_direct_matches_theta_t(ctx) -> float:
    """The gap of A_theta_T against the oracle's T = P_H A~."""
    return _gap_on_w(extension_of(ctx.tri, theta_t(ctx.tau, ctx.decomposition)), ctx.chain[2])


def _krein_formula(ctx) -> float:
    return max(krein_residuals(ctx.tri, ctx.tau, ctx.model, admissible_lambdas(ctx.rng, 3)))


def _exit_dimension(ctx) -> float:
    # a non-minimal model fails by its whole exit dimension
    if not minimality(ctx.model):
        return float(ctx.model.dim_r)
    return abs(ctx.model.dim_r - ctx.report.n_r)


# The verify suite, in the order it runs.  Only krein_formula draws, from
# the generator of its instance alone (run_verify), so a check added or
# deleted moves no other residual.
CHECKS = {check.name: check for check in (
    # tau(iy) tends to -tau_c at i*infinity
    Check("limit_parameter", 1e-8,
          lambda ctx: tau_limits(ctx.tau, negate(ctx.report.tau_c))),
    Check("compression_equivalence", 1e-7,
          lambda ctx: _gap_on_w(ctx.report.compression, ctx.chain[0])),
    Check("s_direct_matches_theta0", 1e-7, _s_direct_matches_theta0),
    # T against A_theta_T, under the name the benchmark reads
    Check("compression_chain", 1e-7, _t_direct_matches_theta_t),
    # the number of flags on which the geometric and coefficient routes differ
    Check("classification_routes", 0.5, lambda ctx: len(ctx.report.disputed)),
    Check("krein_formula", 1e-8, _krein_formula),
    Check("exit_dimension", 0.5, _exit_dimension),
)}


def verify_instance(inst: Instance, rng) -> list:
    """Run every check of CHECKS on one instance.

    An exception raised inside a check propagates unchanged, with the
    check's name in its ``check_name`` attribute.
    """
    ctx = VerifyContext(*build_problem(inst), rng)
    results = []
    for check in CHECKS.values():
        t0 = time.perf_counter()
        try:
            residual = float(check.residual(ctx))
        except Exception as exc:
            exc.check_name = check.name
            raise
        results.append(CheckResult(check.name, residual, residual < check.threshold,
                                   time.perf_counter() - t0))
    return results


def run_verify(count: int = 10, max_dim: int = 6, max_boundary: int = 3,
               max_poles: int = 3, rng_seed: int = 0,
               replay_instance: Instance | None = None) -> dict:
    """Generate (or replay) instances, verify, and assemble a v1 report;
    a replay verifies, and reports, one instance.  The instances come from
    one default_rng(rng_seed), and the checks of instance i draw from
    default_rng([rng_seed, i]) alone."""
    if min(count, max_dim, max_boundary) < 1 or min(max_poles, rng_seed) < 0:
        raise InputError("bounds must be positive, and the pole count and seed nonnegative")
    if replay_instance is not None:
        count = 1
    rng = np.random.default_rng(rng_seed)
    t_start = time.perf_counter()
    instances = []
    failures = []
    total_checks = passed_checks = 0
    for i in range(count):
        if replay_instance is not None:
            inst = replay_instance
        else:
            inst = generate_instance(rng, max_dim, max_boundary, max_poles)
        error = None
        try:
            checks = verify_instance(inst, np.random.default_rng([rng_seed, i]))
        except InputError:
            raise
        except Exception as exc:
            checks = [CheckResult(name=f"exception:{type(exc).__name__}",
                                  residual=float("inf"), passed=False,
                                  elapsed=0.0)]
            # check is None when building the problem raised
            error = {"check": getattr(exc, "check_name", None),
                     "type": type(exc).__name__, "message": str(exc)}
        inst_pass = all(c.passed for c in checks)
        total_checks += len(checks)
        passed_checks += sum(c.passed for c in checks)
        entry = {
            "index": i,
            "passed": inst_pass,
            "checks": [{"name": c.name,
                        "residual": (c.residual if np.isfinite(c.residual) else None),
                        "passed": c.passed} for c in checks],
        }
        instances.append(entry)
        if not inst_pass:
            failure = {"index": i, "instance": inst.to_json(),
                       "failed": [c.name for c in checks if not c.passed]}
            if error is not None:
                failure["error"] = error
            failures.append(failure)
    report = {
        "schema": REPORT_SCHEMA,
        "params": {"count": count, "max_dim": max_dim,
                   "max_boundary": max_boundary, "max_poles": max_poles,
                   "rng_seed": rng_seed, "tol": DEFAULT_TOL,
                   "rng": "numpy default_rng (PCG64)"},
        "instances": instances,
        "counts": {"total_checks": total_checks, "passed_checks": passed_checks,
                   "failed_instances": len(failures)},
        "failures": failures,
        "all_passed": not failures,
    }
    timing = {"elapsed_s": time.perf_counter() - t_start}
    return {"body": report, "timing": timing}


def report_text(wrapped: dict) -> str:
    body = wrapped["body"]
    lines = [f"relcomp verification report ({body['schema']})"]
    p = body["params"]
    lines.append(f"  instances={p['count']} max_dim={p['max_dim']} "
                 f"max_boundary={p['max_boundary']} max_poles={p['max_poles']} "
                 f"seed={p['rng_seed']}")
    c = body["counts"]
    lines.append(f"  checks passed: {c['passed_checks']}/{c['total_checks']}; "
                 f"failing instances: {c['failed_instances']}")
    for fail in body["failures"]:
        lines.append(f"  FAIL instance {fail['index']}: {', '.join(fail['failed'])}")
        if "error" in fail:
            err = fail["error"]
            where = (f"check {err['check']}" if err["check"] is not None
                     else "building the problem")
            lines.append(f"    raised in {where}: {err['type']}: {err['message']}")
    lines.append(f"  elapsed: {wrapped['timing']['elapsed_s']:.2f}s")
    lines.append("PASS" if body["all_passed"] else "FAIL")
    return "\n".join(lines)


# ---------------------------------------------------------------- demos

def _scalar_instance(tau_a, tau_b, poles) -> Instance:
    span = np.zeros((2, 0), dtype=complex)
    return Instance(dim=1, seed_span=span, triplet_kind="explicit",
                    triplet_data={"gamma0": np.array([[1.0, 0.0]], dtype=complex),
                                  "gamma1": np.array([[0.0, 1.0]], dtype=complex)},
                    tau_dim=1, tau_mul=np.zeros((1, 0), dtype=complex),
                    tau_a=np.array([[tau_a]], dtype=complex),
                    tau_b=np.array([[tau_b]], dtype=complex),
                    tau_poles=tuple(poles))


DEMOS = {
    "swap": _scalar_instance(0.0, 0.0, [(0.0, np.array([[1.0]], dtype=complex))]),
    "canonical": _scalar_instance(0.5, 0.0, []),
    "a0": _scalar_instance(0.0, 1.0, []),
}


def run_demo(name: str) -> str:
    """Walk one closed-form example and print every intermediate object."""
    if name not in DEMOS:
        raise InputError(f"unknown demo {name!r}; choose from {sorted(DEMOS)}")
    inst = DEMOS[name]
    tri, tau = build_problem(inst)
    model = build_exit_space(tri, tau)
    rep = classify_compression(tri, tau)
    lam = 2j
    r_gen = generalized_resolvent_direct(model, lam)
    r_krein = krein_resolvent(tri, tau, lam)

    def mat(m):
        return np.array_str(np.round(np.asarray(m), 6))

    lines = [f"demo: {name}",
             "seed A = {{0,0}} in C, boundary maps (f, f')",
             f"tau coefficients: A={mat(tau.a_coef)} B={mat(tau.b_coef)} "
             f"poles={[(a, aj.tolist()) for a, aj in tau.poles]}",
             f"exit space dim: {model.dim_r}",
             f"A~ frame (coords f, f_r, f', f_r'):\n{mat(model.a_tilde.frame)}",
             f"tau_c frame:\n{mat(rep.tau_c.frame)}",
             f"compression C frame:\n{mat(rep.compression.frame)}",
             f"flags: {rep.flags}",
             f"generalized resolvent at {lam}: {mat(r_gen)}",
             f"Krein formula at {lam}:      {mat(r_krein)}",
             f"residual: {np.max(np.abs(r_gen - r_krein), initial=0.0):.2e}"]
    return "\n".join(lines)


# ---------------------------------------------------------------- entry point

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="relcomp",
        description="Verify compression/extension identities on random or "
                    "replayed finite-dimensional instances.")
    sub = parser.add_subparsers(dest="command", required=True)

    pv = sub.add_parser("verify", help="run the invariant suite")
    pv.add_argument("--count", type=int, default=10)
    pv.add_argument("--max-dim", type=int, default=6)
    pv.add_argument("--max-boundary", type=int, default=3)
    pv.add_argument("--max-poles", type=int, default=3)
    pv.add_argument("--seed", type=int, default=0)
    pv.add_argument("--format", choices=("text", "json"), default="text")
    pv.add_argument("--out", type=str, default=None)
    pv.add_argument("--replay", type=str, default=None,
                    help="verify a single instance from a JSON file")

    pd = sub.add_parser("demo", help="walk a closed-form example")
    pd.add_argument("name", type=str)

    args = parser.parse_args(argv)
    try:
        if args.command == "demo":
            print(run_demo(args.name))
            return 0
        replay = None
        if args.replay:
            try:
                with open(args.replay) as fh:
                    replay = Instance.from_json(json.load(fh))
            except (OSError, json.JSONDecodeError) as exc:
                raise InputError(f"cannot read instance file: {exc}") from exc
        # opened for appending before the batch runs, so an unwritable path
        # costs no run and a run rejected as bad input leaves the file as it was
        try:
            if args.out:
                open(args.out, "a").close()
        except OSError as exc:
            raise InputError(f"cannot write report: {exc}") from exc
        wrapped = run_verify(count=args.count, max_dim=args.max_dim,
                             max_boundary=args.max_boundary,
                             max_poles=args.max_poles, rng_seed=args.seed,
                             replay_instance=replay)
        if args.format == "json":
            text = json.dumps(wrapped, indent=2, sort_keys=True)
        else:
            text = report_text(wrapped)
        with open(args.out, "w") if args.out else contextlib.nullcontext(sys.stdout) as fh:
            print(text, file=fh)
        return 0 if wrapped["body"]["all_passed"] else 1
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
