"""Acceptance suite: one test per top-level criterion, desk-scale corpus.

A module-scoped corpus of ~200 seeded instances is drawn with forced
categories so that every classification flag is exercised on both sides.
Residuals and thresholds of verify checks come from ``driver.CHECKS``.
Each test prints a single PASS/FAIL line with its headline numbers.
"""
import dataclasses
import time

import numpy as np
import pytest

from relcomp.driver import (
    CHECKS,
    VerifyContext,
    admissible_lambdas,
    build_problem,
    generate_instance,
    krein_residuals,
)
from relcomp.extension import compression_param, flags_geometric
from relcomp.exitspace import (
    build_exit_space,
    direct_compression,
    generalized_resolvent_direct,
    minimality,
)
from relcomp.linrel import (
    DEFAULT_TOL,
    LinearRelation,
    _norm2,
    adjoint,
    classify_symmetry,
    gap_limit,
    graph_of,
    make_relation,
    negate,
    null_space,
    operator_relation,
    orth,
    parts,
    relations_equal,
    zero_relation,
)
import relcomp.triplet as triplet
import relcomp.nevanlinna as nevanlinna
from relcomp.nevanlinna import RationalNevanlinna, decompose_tau, eval_tau, tau_limits
from relcomp.triplet import (
    GREEN_TOL,
    BoundaryTriplet,
    SymmetricSeed,
    check_forbidden_asymptotics,
    check_green,
    check_weyl_identities,
    extension_of,
    forbidden_relation,
    gamma_and_weyl,
)

from test_exitspace import _uncoupled_problem
from test_extension import random_problem
from test_linrel import comp_sum, inverse
from test_triplet import model_triplet

CATEGORIES = (
    ("b_full", 40),
    ("b_deficient", 45),
    ("k_nontrivial", 25),
    ("transversal", 35),
    ("selfadjoint_seed", 25),
    ("random", 35),
)


def _report(name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")


def _worst(check, corpus):
    """Largest residual of a verify check over the corpus, and its threshold."""
    return max(check.residual(item["ctx"]) for item in corpus), check.threshold


@pytest.fixture(scope="module")
def corpus():
    rng = np.random.default_rng(20240817)
    out = []
    for category, count in CATEGORIES:
        for _ in range(count):
            inst = generate_instance(rng, max_dim=6, max_boundary=3,
                                     max_poles=3, category=category)
            # no RNG: the criteria below draw their own sample points
            ctx = VerifyContext(*build_problem(inst), None)
            out.append({"category": category, "ctx": ctx})
    assert len(out) >= 200
    return out


@pytest.fixture(scope="module")
def corpus_rng():
    return np.random.default_rng(515151)


def test_criterion_1_compression_equivalence(corpus):
    """Formula compression equals brute-force exit-space compression."""
    t_start = time.perf_counter()
    worst, threshold = _worst(CHECKS["compression_equivalence"], corpus)
    for item in corpus:
        assert classify_symmetry(item["ctx"].report.compression) == "self_adjoint"
    elapsed = time.perf_counter() - t_start
    ok = worst < threshold and elapsed < 60.0
    _report("criterion 1 compression equivalence", ok,
            f"{len(corpus)} instances, worst residual {worst:.2e}, "
            f"{elapsed:.1f}s (< 60s)")
    assert worst < threshold
    assert elapsed < 60.0


def test_criterion_2_krein_formula(corpus, corpus_rng):
    """Resolvent formula vs direct generalized resolvent and canonical form."""
    threshold = CHECKS["krein_formula"].threshold
    worst_direct = worst_canonical = 0.0
    for item in corpus:
        ctx = item["ctx"]
        if ctx.tri.boundary_dim == 0:
            continue
        canonical, direct = krein_residuals(ctx.tri, ctx.tau, ctx.model,
                                            admissible_lambdas(corpus_rng, 10))
        worst_direct = max(worst_direct, direct)
        worst_canonical = max(worst_canonical, canonical)
    ok = worst_direct < threshold and worst_canonical < threshold
    _report("criterion 2 Krein formula", ok,
            f"10 points/instance, worst vs direct {worst_direct:.2e}, "
            f"worst vs canonical {worst_canonical:.2e}")
    assert worst_direct < threshold
    assert worst_canonical < threshold


def test_criterion_3_swap_anchor():
    """Hand-computed anchor: tau = -1/lam on the trivial seed in C."""
    seed = SymmetricSeed.from_relation(zero_relation(1))
    tri = BoundaryTriplet.from_ambient_maps(
        seed, np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]]))
    tau = RationalNevanlinna.build(1, poles=[(0.0, [[1.0]])])
    model = build_exit_space(tri, tau)
    swap = graph_of(np.array([[0.0, 1.0], [1.0, 0.0]]))
    _, r_tilde = relations_equal(model.a_tilde, swap)
    c_direct, _, _ = direct_compression(model)
    _, r_c = relations_equal(c_direct, graph_of(np.zeros((1, 1))))
    r_res = abs(generalized_resolvent_direct(model, 2j)[0, 0] - 0.4j)
    ok = max(r_tilde, r_c, r_res) < 1e-12
    _report("criterion 3 swap anchor", ok,
            f"A~ residual {r_tilde:.1e}, C residual {r_c:.1e}, "
            f"resolvent residual {r_res:.1e}")
    assert r_tilde < 1e-12 and r_c < 1e-12 and r_res < 1e-12


def test_criterion_4_flag_biconditionals(corpus):
    """Geometric and coefficient routes agree; both sides populated.

    The self-adjointness flag has no attainable false side for rational
    parameters, so it is verified as identically true on both routes.
    """
    worst, threshold = _worst(CHECKS["classification_routes"], corpus)
    assert worst < threshold
    sides = {flag: [0, 0] for flag in
             ("subset_A0", "equals_A0", "equals_A", "self_adjoint",
              "transversal_with_A0")}
    for item in corpus:
        ctx = item["ctx"]
        for flag, val in flags_geometric(ctx.tri, ctx.report.compression).items():
            sides[flag][int(bool(val))] += 1
    required = {
        "subset_A0": (20, 20),
        "equals_A0": (20, 20),
        "equals_A": (20, 20),
        "self_adjoint": (0, 20),
        "transversal_with_A0": (20, 20),
    }
    ok = all(sides[f][0] >= lo and sides[f][1] >= hi
             for f, (lo, hi) in required.items())
    detail = ", ".join(f"{f}={sides[f][0]}F/{sides[f][1]}T" for f in sides)
    _report("criterion 4 flag biconditionals", ok,
            f"routes agree on {len(corpus)}/{len(corpus)}; {detail}")
    for flag, (lo, hi) in required.items():
        assert sides[flag][0] >= lo, (flag, sides[flag])
        assert sides[flag][1] >= hi, (flag, sides[flag])


def _transversal_by_comp_sum(tri, C):
    """Reference: C + A0 orthonormalized by comp_sum and compared with A*."""
    return relations_equal(comp_sum(C, tri.a0), tri.seed.A_star)[0]


def _flags_by_projection(tri, C):
    """Reference: (transversal_with_A0, subset_A0) read off the 2n x dim C
    projection (I - P_A0) C of C off A0, by its rank against
    dim A* - dim A0 and its spectral norm against the cut."""
    A0 = tri.a0
    off = C.frame - A0.frame @ (A0.frame.conj().T @ C.frame)
    return orth(off).shape[1] == tri.seed.A_star.dim - A0.dim, _norm2(off) < DEFAULT_TOL


def test_transversal_rank_matches_the_comp_sum_route(corpus):
    """flags_geometric reads transversality as a rank; on the corpus it
    agrees with the comp_sum route, on both sides of the flag."""
    sides = [0, 0]
    for item in corpus:
        ctx = item["ctx"]
        flag = flags_geometric(ctx.tri, ctx.report.compression)["transversal_with_A0"]
        assert flag == _transversal_by_comp_sum(ctx.tri, ctx.report.compression)
        sides[flag] += 1
    assert min(sides) >= 20, sides


def test_flags_in_a_star_minus_a0_match_the_projection_route(corpus):
    """flags_geometric reads transversality and subset_A0 off the d-column
    frame J(A0 - A) of A* - A0; on the corpus and at n = 96 both agree
    with the 2n-row projection off A0, on both sides of each flag."""
    big = generate_instance(np.random.default_rng(292), max_dim=96,
                            max_boundary=48, max_poles=4)
    contexts = [item["ctx"] for item in corpus] \
        + [VerifyContext(*build_problem(big), None)]
    sides = {"transversal_with_A0": [0, 0], "subset_A0": [0, 0]}
    for ctx in contexts:
        C = ctx.report.compression
        flags = flags_geometric(ctx.tri, C)
        assert (flags["transversal_with_A0"], flags["subset_A0"]) == \
            _flags_by_projection(ctx.tri, C)
        for name, count in sides.items():
            count[flags[name]] += 1
    assert all(min(count) >= 20 for count in sides.values()), sides


def _near_cut_triplets():
    return [*(random_problem(np.random.default_rng(seed), n_max=8, d_max=4)[0]
              for seed in range(5)),
            model_triplet([None, 0.5, -2.0])]


@pytest.mark.parametrize("eps, transversal", [(1e-6, True), (1e-8, True), (1e-12, False)])
def test_transversality_near_the_cut(eps, transversal):
    """A_theta for theta = graph(I / eps) is transversal with A0 for every
    eps > 0 and tends to A0 as eps -> 0: the rank route and the projection
    route both read it as transversal at 1e-6 and 1e-8 and both cut it at
    1e-12.  (The comp_sum route is left out: the column its orth keeps for
    an angle eps is accurate only to about 1e-16 / eps, so it misreads
    1e-8 on most of these triplets.)"""
    for tri in _near_cut_triplets():
        C = extension_of(tri, graph_of(np.eye(tri.boundary_dim) / eps))
        flags = flags_geometric(tri, C)
        assert flags["transversal_with_A0"] == transversal
        assert (flags["transversal_with_A0"], flags["subset_A0"]) == \
            _flags_by_projection(tri, C)


def test_criterion_5_exit_dimension(corpus):
    """Every model is minimal, with dim H_r = rank B + sum rank A_j."""
    worst, threshold = _worst(CHECKS["exit_dimension"], corpus)
    minimal = sum(minimality(item["ctx"].model) for item in corpus)
    ok = worst < threshold and minimal == len(corpus)
    _report("criterion 5 exit-space dimension", ok,
            f"{minimal}/{len(corpus)} models minimal, exit dimension exact")
    assert worst < threshold
    assert minimal == len(corpus)


def _frame_gap(F):
    """max |F^H F - I| of a frame."""
    return float(np.max(np.abs(F.conj().T @ F - np.eye(F.shape[1])), initial=0.0))


def test_frames_built_without_orth_are_orthonormal(corpus):
    """A0, C(A~), A~ and the direct S are products of orthonormal frames,
    built without orthonormalizing again; on the corpus and at n = 96 they
    stay orthonormal, as do the kernel and multivalued-part frames that
    ``parts`` reads off A*, C(A~) and A~.  So do the ``operator_relation``
    frames of tau_c, theta0 (as ``s_direct_matches_theta0`` builds it) and
    tau(lam) with tau's constant coefficient scaled by 1e9."""
    big = generate_instance(np.random.default_rng(292), max_dim=96,
                            max_boundary=48, max_poles=4)
    assert big.dim == 96
    contexts = [item["ctx"] for item in corpus] \
        + [VerifyContext(*build_problem(big), None)]
    worst = worst_scaled = 0.0
    for ctx in contexts:
        C = ctx.report.compression
        for T in (ctx.tri.a0, C, ctx.model.a_tilde, ctx.chain[1]):
            worst = max(worst, _frame_gap(T.frame))
        for T in (ctx.tri.seed.A_star, C, ctx.model.a_tilde):
            p = parts(T)
            worst = max(worst, _frame_gap(p.ker), _frame_gap(p.mul))
        tau = dataclasses.replace(ctx.tau, a_coef=1e9 * ctx.tau.a_coef)
        hd = decompose_tau(tau).h_dprime
        for T in (compression_param(tau), eval_tau(tau, 0.3 + 1j),
                  operator_relation(hd, -tau.a_coef @ hd, tau.mul_frame)):
            worst_scaled = max(worst_scaled, _frame_gap(T.frame))
    _report("frames without orth", worst <= 1e-13 and worst_scaled <= 1e-14,
            f"{len(contexts)} instances, worst |F^H F - I| {worst:.1e}, "
            f"{worst_scaled:.1e} for tau_c, theta0 and tau(lam) at A x 1e9")
    assert worst <= 1e-13
    assert worst_scaled <= 1e-14


def _chain_by_null_spaces(model):
    """Reference chain (C, S, T): C and S from null spaces of A~'s exit rows
    on all of its frame, C and T orthonormalized from the full base rows."""
    n, nr = model.dim_h, model.dim_r
    frame = model.a_tilde.frame
    f_h, f_r = frame[:n], frame[n:n + nr]
    fp_h, fp_r = frame[n + nr:2 * n + nr], frame[2 * n + nr:]
    coeff_c = null_space(f_r)
    C = make_relation(np.vstack([f_h @ coeff_c, fp_h @ coeff_c]), n)
    coeff_s = null_space(np.vstack([f_r, fp_r]))
    S = LinearRelation(np.vstack([f_h @ coeff_s, fp_h @ coeff_s]))
    T = make_relation(np.vstack([f_h, fp_h]), n)
    return C, S, T


def test_nested_chain_matches_the_null_space_route(corpus):
    """direct_compression's nested frames span the reference chain's
    relations, S.frame opens C.frame and C.frame opens T.frame exactly, and
    C and T are orthonormal; on the corpus, on a model with n_r = 0 and on
    the uncoupled model, whose exit rows f_r vanish."""
    tri = corpus[0]["ctx"].tri
    d = tri.boundary_dim
    no_exit = build_exit_space(tri, RationalNevanlinna.build(d, mul_span=np.eye(d)))
    assert no_exit.dim_r == 0
    models = [item["ctx"].model for item in corpus] + [no_exit, _uncoupled_problem()[2]]
    worst_gap = worst_frame = 0.0
    for model in models:
        C, S, T = direct_compression(model)
        for nested, ref in zip((C, S, T), _chain_by_null_spaces(model)):
            assert nested.dim == ref.dim
            worst_gap = max(worst_gap, relations_equal(nested, ref)[1])
        assert np.array_equal(S.frame, C.frame[:, :S.dim])
        assert np.array_equal(C.frame, T.frame[:, :C.dim])
        worst_frame = max(worst_frame, _frame_gap(C.frame), _frame_gap(T.frame))
    assert worst_gap <= 1e-13
    assert worst_frame <= 1e-14


def test_criterion_7_triplet_layer(corpus, corpus_rng):
    """Green identity, Weyl identities, adjoint-parameter commutation."""
    worst_green = max(check_green(item["ctx"].tri) for item in corpus)
    worst_weyl = worst_adj = 0.0
    theta_checks = 0
    for item in corpus:
        tri = item["ctx"].tri
        d = tri.boundary_dim
        if d == 0:
            continue
        lam = complex(corpus_rng.uniform(-2, 2), corpus_rng.uniform(0.5, 2))
        z = complex(corpus_rng.uniform(-2, 2), corpus_rng.uniform(0.5, 2))
        r1, r2 = check_weyl_identities(tri, lam, z)
        worst_weyl = max(worst_weyl, r1, r2)
        if theta_checks < 100:
            r = int(corpus_rng.integers(0, 2 * d + 1))
            theta = make_relation(
                corpus_rng.standard_normal((2 * d, r))
                + 1j * corpus_rng.standard_normal((2 * d, r)), d)
            _, resid = relations_equal(adjoint(extension_of(tri, theta)),
                                       extension_of(tri, adjoint(theta)))
            worst_adj = max(worst_adj, resid)
            theta_checks += 1
    ok = worst_green < GREEN_TOL and worst_weyl < 1e-8 \
        and worst_adj < 1e-7 and theta_checks >= 100
    _report("criterion 7 triplet layer", ok,
            f"green {worst_green:.2e}, weyl {worst_weyl:.2e}, "
            f"adjoint-parameter {worst_adj:.2e} on {theta_checks} thetas")
    assert worst_green < GREEN_TOL
    assert worst_weyl < 1e-8
    assert theta_checks >= 100 and worst_adj < 1e-7


def test_criterion_8_forbidden_asymptotics(monkeypatch):
    """The graph of M(iy) tends to the forbidden relation F at i*infinity
    on model triplets, and not to J F = {{f', -f}: {f, f'} in F}."""
    cases = [
        model_triplet([None]),          # M = lam
        model_triplet([0.3]),           # M = 1/(0.3-lam)
        model_triplet([None, -0.7]),    # M = diag(lam, 1/(-0.7-lam))
        model_triplet([0.5, 1.5]),      # two pole blocks
    ]
    worst = 0.0
    for tri in cases:
        m = gamma_and_weyl(tri, 1j).weyl   # sanity: closed form reachable
        assert np.isfinite(m).all()
        worst = max(worst, check_forbidden_asymptotics(tri))
    forbidden = triplet.forbidden_relation
    monkeypatch.setattr(triplet, "forbidden_relation",
                        lambda tri: negate(inverse(forbidden(tri))))
    rejected = min(check_forbidden_asymptotics(tri) for tri in cases)
    ok = worst < 1e-6 and rejected > 1e-3
    _report("criterion 8 forbidden asymptotics", ok,
            f"{len(cases)} model triplets, worst residual {worst:.2e}, "
            f"J F in place of F reads at least {rejected:.2e}")
    assert worst < 1e-6
    assert rejected > 1e-3


def _gap_limit_per_point(relation_at, target, y1):
    """The rule of ``gap_limit`` with one relation and one
    ``relations_equal`` per point, relation_at taking one point."""
    y2 = 10.0 * y1
    g1, g2 = (relations_equal(relation_at(1j * y), target)[1] for y in (y1, y2))
    return abs(y2 * g2 - y1 * g1) / (y2 - y1)


def test_stacked_gap_limit_matches_its_per_point_rule(corpus, monkeypatch):
    """On the corpus, tau_limits against -tau_c and check_forbidden_asymptotics
    give bit for bit the value of the gap-limit rule taken one point at a
    time: numpy's stacked LAPACK and BLAS loops factor each matrix of the
    stack as they factor it alone."""
    first_points = []

    def recorded(relation_at, target, y1):
        first_points.append(y1)
        return gap_limit(relation_at, target, y1)
    monkeypatch.setattr(nevanlinna, "gap_limit", recorded)
    for item in corpus:
        tri, tau = item["ctx"].tri, item["ctx"].tau
        target = negate(item["ctx"].report.tau_c)
        stacked = tau_limits(tau, target)
        assert stacked == _gap_limit_per_point(
            lambda lam: eval_tau(tau, lam), target, first_points.pop())
        assert check_forbidden_asymptotics(tri) == _gap_limit_per_point(
            lambda lam: graph_of(gamma_and_weyl(tri, lam).weyl), forbidden_relation(tri), 1e4)
