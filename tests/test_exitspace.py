"""Exit-space oracle: reduction, model realization, coupling, compressions."""
import dataclasses

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
from relcomp.exitspace import (
    build_exit_space,
    direct_compression,
    generalized_resolvent_direct,
    minimality,
    realize_model,
    reduce_parameter,
)
from relcomp.linrel import (
    DEFAULT_TOL,
    adjoint,
    classify_symmetry,
    graph_of,
    make_relation,
    relations_equal,
)
from relcomp.nevanlinna import RationalNevanlinna, decompose_tau
from relcomp.triplet import gamma_and_weyl

from test_extension import random_problem
from test_nevanlinna import random_tau
from test_triplet import count_defect_frames, model_triplet


def test_reduce_strict_parameter_is_identity_like():
    # K = H'' = {0}: S = A and the reduced triplet keeps the boundary maps
    rng = np.random.default_rng(3)
    tri, tau = random_problem(rng, k=0, b_rank=None)
    while decompose_tau(tau).h_dprime.shape[1] or tau.mul_frame.shape[1]:
        tri, tau = random_problem(rng, k=0)
    red = reduce_parameter(tri, tau)
    eq, _ = relations_equal(red.s_rel, tri.seed.A)
    assert eq
    assert red.pi_prime.boundary_dim == tri.boundary_dim


def test_reduce_pure_mul_gives_a0():
    rng = np.random.default_rng(5)
    tri, _ = random_problem(rng)
    d = tri.boundary_dim
    tau = RationalNevanlinna.build(d, mul_span=np.eye(d))
    red = reduce_parameter(tri, tau)
    eq, _ = relations_equal(red.s_rel, tri.a0)
    assert eq
    assert red.pi_prime.boundary_dim == 0


def test_reduce_dimension_bookkeeping():
    # B = diag(1, 0), A = 0, no poles: H'' = span e2, dim H' = 1
    rng = np.random.default_rng(7)
    tri, _ = random_problem(rng, n_max=5, d_max=2)
    while tri.boundary_dim != 2:
        tri, _ = random_problem(rng, n_max=5, d_max=2)
    tau = RationalNevanlinna.build(2, b=np.diag([1.0, 0.0]))
    red = reduce_parameter(tri, tau)
    assert red.pi_prime.boundary_dim == 1
    assert red.s_rel.dim == tri.seed.A.dim + 1


def test_reduced_seed_reads_its_adjoint_in_the_boundary_space(monkeypatch):
    """The reduced seed's S* = A_{theta0*} equals the adjoint of S taken in
    C^n (+) C^n, and the reduction builds no defect frame."""
    rng = np.random.default_rng(7)
    problems = [build_problem(generate_instance(rng, 12, 6, 3)) for _ in range(30)]
    problems.append(build_problem(generate_instance(
        np.random.default_rng(292), max_dim=96, max_boundary=48, max_poles=4)))
    calls = count_defect_frames(monkeypatch)
    worst = 0.0
    for tri, tau in problems:
        red = reduce_parameter(tri, tau)
        worst = max(worst, relations_equal(red.pi_prime.seed.A_star, adjoint(red.s_rel))[1])
    assert calls == []
    assert worst <= 1e-13


def test_realize_linear_scalar():
    tau1 = RationalNevanlinna.build(1, b=[[1.0]])
    model = realize_model(tau1)
    assert model.dim_r == 1
    assert model.pi_r.seed.A.dim == 0
    m = gamma_and_weyl(model.pi_r, 1.3j).weyl
    assert abs(m[0, 0] - 1.3j) < 1e-10


def test_realize_pole_scalar():
    tau1 = RationalNevanlinna.build(1, poles=[(0.0, [[1.0]])])
    model = realize_model(tau1)
    assert model.dim_r == 1
    m = gamma_and_weyl(model.pi_r, 2j).weyl
    assert abs(m[0, 0] - 1.0 / (0.0 - 2j)) < 1e-10


def test_realize_counts_rank_blocks():
    tau1 = RationalNevanlinna.build(1, b=[[1.0]], poles=[(1.0, [[2.0]])])
    assert realize_model(tau1).dim_r == 2


def test_realize_rejects_mul_part():
    with pytest.raises(ValueError):
        realize_model(RationalNevanlinna.build(2, b=np.eye(2),
                                               mul_span=[[1.0], [0.0]]))


def test_realize_rejects_non_strict():
    # B singular with no pole support on its kernel: Im tau1(i) not invertible
    with pytest.raises(ValueError):
        realize_model(RationalNevanlinna.build(2, b=np.diag([1.0, 0.0])))


def test_realize_weyl_matches_random():
    rng = np.random.default_rng(11)
    for _ in range(20):
        tau = random_tau(rng, int(rng.integers(1, 4)), k=0)
        tau1 = decompose_tau(tau).tau1
        model = realize_model(tau1)
        for _ in range(3):
            lam = complex(rng.uniform(-2, 2), rng.choice([-1, 1]) * rng.uniform(0.5, 2))
            if any(abs(lam - alpha) < 1e-3 for alpha, _ in tau1.poles):
                continue
            m = gamma_and_weyl(model.pi_r, lam).weyl
            assert np.max(np.abs(m - tau1.tau0(lam)), initial=0.0) < 1e-8


def test_swap_anchor_coupling():
    tri = model_triplet([None])
    tau = RationalNevanlinna.build(1, poles=[(0.0, [[1.0]])])
    model = build_exit_space(tri, tau)
    swap = graph_of(np.array([[0.0, 1.0], [1.0, 0.0]]))
    eq, resid = relations_equal(model.a_tilde, swap)
    assert eq and resid < 1e-12
    C, S, T = direct_compression(model)
    eq, resid = relations_equal(C, graph_of(np.zeros((1, 1))))
    assert eq and resid < 1e-12
    assert S.dim == 0
    assert T.dim == 2
    r = generalized_resolvent_direct(model, 2j)
    assert abs(r[0, 0] - 0.4j) < 1e-12
    assert minimality(model)


def test_coupled_relation_selfadjoint_random():
    rng = np.random.default_rng(13)
    for _ in range(20):
        tri, tau = random_problem(rng)
        model = build_exit_space(tri, tau)
        assert classify_symmetry(model.a_tilde) == "self_adjoint"


def _uncoupled_problem():
    """(tri, tau, model) with A~ replaced by the direct sum of A0 and the
    vertical relation in H_r: the resolvent never leaves H."""
    rng = np.random.default_rng(17)
    tri, tau = random_problem(rng)
    model = build_exit_space(tri, tau)
    assert model.dim_r > 0
    n, nr = model.dim_h, model.dim_r
    a0 = tri.a0
    span = np.zeros((2 * (n + nr), a0.dim + nr), dtype=complex)
    span[:n, :a0.dim] = a0.frame[:n]
    span[n + nr:2 * n + nr, :a0.dim] = a0.frame[n:]
    span[2 * n + nr:, a0.dim:] = np.eye(nr)   # vertical block in H_r
    uncoupled = dataclasses.replace(
        model, a_tilde=make_relation(span, n + nr, n + nr))
    return tri, tau, uncoupled


def test_uncoupled_model_not_minimal():
    tri, _, uncoupled = _uncoupled_problem()
    assert not minimality(uncoupled)
    C, _, _ = direct_compression(uncoupled)
    eq, _ = relations_equal(C, tri.a0)
    assert eq


def test_exit_dimension_fails_on_a_non_minimal_model():
    tri, tau, uncoupled = _uncoupled_problem()
    ctx = VerifyContext(tri, tau, None)
    ctx.model = uncoupled
    exit_dimension = CHECKS["exit_dimension"]
    assert exit_dimension.residual(ctx) == uncoupled.dim_r
    assert exit_dimension.residual(ctx) >= exit_dimension.threshold


def _worst_on_random_problems(check, seed, count):
    """Largest residual of a verify check over seeded random problems."""
    rng = np.random.default_rng(seed)
    return max(CHECKS[check].residual(VerifyContext(*random_problem(rng), rng))
               for _ in range(count))


def test_direct_compression_chain_random():
    assert _worst_on_random_problems("compression_chain", 19, 20) < 1e-8


def test_s_direct_matches_theta0_extension():
    assert _worst_on_random_problems("s_direct_matches_theta0", 23, 20) < DEFAULT_TOL


def test_forbidden_route_matches_direct():
    assert _worst_on_random_problems("forbidden_route", 29, 20) < DEFAULT_TOL


def test_oracle_agrees_with_formula_compression():
    assert _worst_on_random_problems("compression_equivalence", 31, 30) < DEFAULT_TOL


def test_generalized_resolvent_matches_krein():
    rng = np.random.default_rng(37)
    for _ in range(15):
        tri, tau = random_problem(rng)
        model = build_exit_space(tri, tau)
        lam = admissible_lambdas(rng, 1)[0]
        _, direct = krein_residuals(tri, tau, model, lam)
        assert direct < CHECKS["krein_formula"].threshold


def test_minimal_models_have_exact_exit_dimension():
    exit_dimension = CHECKS["exit_dimension"]
    rng = np.random.default_rng(41)
    checked = 0
    for _ in range(30):
        ctx = VerifyContext(*random_problem(rng), None)
        assert exit_dimension.residual(ctx) < exit_dimension.threshold
        checked += ctx.minimal
    assert checked >= 10
