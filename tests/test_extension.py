"""Krein resolvent formula, compression parameter, classification flags."""
import numpy as np
import pytest

from relcomp import driver
from relcomp.driver import CHECKS, VerifyContext, admissible_lambdas, krein_residuals
from relcomp.exitspace import build_exit_space, generalized_resolvent_direct
from relcomp.extension import (
    classify_compression,
    compression,
    compression_param,
    flags_coefficients,
    flags_geometric,
    krein_resolvent,
    rank_sum,
)
from relcomp.linrel import (
    DEFAULT_TOL,
    classify_symmetry,
    graph_of,
    make_relation,
    negate,
    relations_equal,
    resolvent,
    vertical_relation,
)
from relcomp.nevanlinna import RationalNevanlinna, _richardson, eval_tau
from relcomp.triplet import WeylSample, check_weyl_identities, extension_of

from test_nevanlinna import random_tau
from test_triplet import (count_defect_frames, model_triplet,
                          random_symmetric_seed, random_unitary)
from relcomp.triplet import von_neumann_triplet

# (n, boundary dim d, dim of tau's multivalued part, rank of B, pole ranks)
SWEEP_SHAPES = ((48, 8, 0, 8, (4, 4)), (56, 16, 4, 6, (6,)), (64, 24, 0, 12, (12, 6)))


def shaped_problem(rng, n, d, k, b_rank, pole_ranks):
    """von Neumann triplet of a seed with deficiency d and a tau with the
    given structure, drawn with the instance generator's helpers."""
    dom = driver._random_unitary(rng, n)[:, :n - d]
    span = np.vstack([dom, driver._random_hermitian(rng, n) @ dom])
    p = d - k
    poles = tuple((float(alpha), driver._random_psd_of_rank(rng, p, r))
                  for alpha, r in zip(np.linspace(-2.5, 2.5, len(pole_ranks)),
                                      pole_ranks))
    return driver.build_problem(driver.Instance(
        dim=n, seed_span=span, triplet_kind="von_neumann",
        triplet_data={"V": driver._random_unitary(rng, d)}, tau_dim=d,
        tau_mul=driver._random_unitary(rng, d)[:, :k],
        tau_a=driver._random_hermitian(rng, p),
        tau_b=driver._random_psd_of_rank(rng, p, b_rank), tau_poles=poles))


def random_problem(rng, n_max=6, d_max=3, **tau_kwargs):
    n = int(rng.integers(2, n_max + 1))
    d = int(rng.integers(1, min(d_max, n) + 1))
    seed = random_symmetric_seed(rng, n, d=d)
    tri = von_neumann_triplet(seed, V=random_unitary(rng, d))
    tau = random_tau(rng, d, **tau_kwargs)
    return tri, tau


def test_swap_anchor_scalar_value():
    tri = model_triplet([None])
    tau = RationalNevanlinna.build(1, poles=[(0.0, [[1.0]])])
    r = krein_resolvent(tri, tau, 2j)
    assert abs(r[0, 0] - 0.4j) < 1e-12


def test_constant_parameter_gives_canonical_resolvent():
    rng = np.random.default_rng(5)
    for _ in range(10):
        tri, _ = random_problem(rng)
        d = tri.boundary_dim
        h = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        tau = RationalNevanlinna.build(d, a=(h + h.conj().T) / 2)
        lam = admissible_lambdas(rng, 1)[0]
        lhs = krein_resolvent(tri, tau, lam)
        rhs = resolvent(extension_of(tri, graph_of(-tau.a_coef)), lam)
        assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_pure_mul_parameter_reduces_to_a0():
    rng = np.random.default_rng(7)
    for _ in range(10):
        tri, _ = random_problem(rng)
        d = tri.boundary_dim
        tau = RationalNevanlinna.build(d, mul_span=np.eye(d))
        lam = admissible_lambdas(rng, 1)[0]
        lhs = krein_resolvent(tri, tau, lam)
        rhs = resolvent(tri.a0, lam)
        assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_resolvent_identity_random():
    rng = np.random.default_rng(11)
    for _ in range(25):
        tri, tau = random_problem(rng)
        lam = admissible_lambdas(rng, 1)[0]
        model = build_exit_space(tri, tau)
        assert max(krein_residuals(tri, tau, model, lam)) \
            < CHECKS["krein_formula"].threshold


def test_resolvent_conjugate_symmetry():
    rng = np.random.default_rng(13)
    for _ in range(10):
        tri, tau = random_problem(rng)
        lam = admissible_lambdas(rng, 1)[0]
        r = krein_resolvent(tri, tau, lam)
        r_bar = krein_resolvent(tri, tau, np.conj(lam))
        assert np.max(np.abs(r_bar - r.conj().T)) < 1e-9


def test_krein_resolvent_takes_no_defect_frame_per_lambda(monkeypatch):
    rng = np.random.default_rng(17)
    tri, tau = random_problem(rng)
    krein_resolvent(tri, tau, 0.3 + 1j)
    calls = count_defect_frames(monkeypatch)
    for lam in admissible_lambdas(rng, 10):
        krein_resolvent(tri, tau, lam)
    assert calls == []


def test_krein_resolvent_relative_accuracy_up_to_large_lambda():
    """gamma(lam) = (A0 - i) R0(lam) gamma(i) keeps the relative accuracy
    at |lam| = 1e5; the additive form gamma(i) + (lam - i) R0(lam) gamma(i)
    misses this bound by cancellation."""
    rng = np.random.default_rng(0)
    for shape in SWEEP_SHAPES:
        tri, tau = shaped_problem(rng, *shape)
        model = build_exit_space(tri, tau)
        for lam in (0.7 + 0.5j, 10j, 1e3j, 1e5j, 50 + 1j):
            direct = generalized_resolvent_direct(model, lam)
            err = np.linalg.norm(krein_resolvent(tri, tau, lam) - direct, 2)
            assert err <= 2e-12 * np.linalg.norm(direct, 2), (shape, lam)


def test_weyl_at_i_is_read_by_krein_and_not_by_the_reference():
    rng = np.random.default_rng(29)
    tri, tau = random_problem(rng, k=0)
    model = build_exit_space(tri, tau)
    at_i = tri.weyl_at_i
    vars(tri)["weyl_at_i"] = WeylSample(
        gamma_field=2.0 * at_i.gamma_field,
        weyl=at_i.weyl + np.eye(tri.boundary_dim))
    lam = 0.4 + 1.1j
    assert max(check_weyl_identities(tri, lam, 1j)) < 1e-12
    miss = np.max(np.abs(krein_resolvent(tri, tau, lam)
                         - generalized_resolvent_direct(model, lam)))
    assert miss > 1e-8


def test_compression_param_linear_scalar():
    tau = RationalNevanlinna.build(1, b=[[1.0]])
    eq, _ = relations_equal(compression_param(tau), vertical_relation(1))
    assert eq


def test_compression_param_pole_scalar():
    tau = RationalNevanlinna.build(1, poles=[(0.0, [[1.0]])])
    eq, _ = relations_equal(compression_param(tau), graph_of(np.zeros((1, 1))))
    assert eq


def test_compression_param_block():
    # B=diag(0,1): tau_c = {{(h,0), (-a11 h, c)}}
    a = np.array([[2.0, 0.5], [0.5, -1.0]])
    tau = RationalNevanlinna.build(2, a=a, b=np.diag([0.0, 1.0]))
    span = np.array([
        [1.0, 0.0],
        [0.0, 0.0],
        [-2.0, 0.0],
        [0.0, 1.0],
    ])
    eq, resid = relations_equal(compression_param(tau),
                                make_relation(span, 2, 2))
    assert eq, resid


def test_tau_c_selfadjoint_and_tau_infinity():
    """tau_c is self-adjoint, and the graph of tau(iy) tends to -tau_c as
    y grows: the gap is O(1/y), so its Richardson value vanishes."""
    rng = np.random.default_rng(17)
    for _ in range(30):
        tau = random_tau(rng, int(rng.integers(1, 4)))
        tc = compression_param(tau)
        assert classify_symmetry(tc) == "self_adjoint"
        gaps = [(y, relations_equal(eval_tau(tau, 1j * y), negate(tc))[1])
                for y in (1e5, 1e6)]
        assert abs(_richardson(gaps)) < 1e-7


def test_compression_flags_linear_scalar():
    tri = model_triplet([None])
    rep = classify_compression(tri, RationalNevanlinna.build(1, b=[[1.0]]))
    assert rep.flags["equals_A0"] and rep.flags["subset_A0"]
    assert not rep.flags["equals_A"]
    assert rep.n_r == 1
    eq, _ = relations_equal(rep.compression, tri.a0)
    assert eq


def test_compression_flags_pole_scalar():
    tri = model_triplet([None])
    rep = classify_compression(tri, RationalNevanlinna.build(1, poles=[(0.0, [[1.0]])]))
    assert rep.flags["transversal_with_A0"]
    assert rep.n_r == 1
    eq, _ = relations_equal(rep.compression, graph_of(np.zeros((1, 1))))
    assert eq


def test_finite_divergence_blocks_equals_a():
    # B = 0, one pole: y Im tau -> finite, so C != A
    tri = model_triplet([None])
    rep = classify_compression(tri, RationalNevanlinna.build(1, poles=[(0.0, [[1.0]])]))
    assert not rep.flags["equals_A"]


def test_flag_implications_random():
    rng = np.random.default_rng(19)
    for _ in range(40):
        tri, tau = random_problem(rng)
        rep = classify_compression(tri, tau)
        f = rep.flags
        if f["equals_A0"]:
            assert f["subset_A0"]
        if f["transversal_with_A0"]:
            assert f["self_adjoint"]
        assert f["self_adjoint"]
        assert classify_symmetry(rep.compression) == "self_adjoint"


def test_transversal_gives_operator_parameter():
    rng = np.random.default_rng(23)
    for _ in range(15):
        tri, tau = random_problem(rng, k=0, b_rank=0, n_poles=2)
        rep = classify_compression(tri, tau)
        assert rep.flags["transversal_with_A0"]
        # C = A_{-N_tau} with N_tau = the constant coefficient
        ext = extension_of(tri, graph_of(-tau.a_coef))
        eq, resid = relations_equal(rep.compression, ext)
        assert eq, resid


@pytest.mark.parametrize("s", [1e-6, 1e-8, 2e-9, 1e-10])
def test_flag_routes_agree_for_a_small_linear_coefficient(s):
    """Both routes decide whether B = s I vanishes by the cut of null_space,
    so they agree on either side of it."""
    tri = model_triplet([None])
    tau = RationalNevanlinna.build(1, b=[[s]], poles=[(0.0, [[1.0]])])
    assert flags_geometric(tri, compression(tri, tau)) == flags_coefficients(tau)
    assert CHECKS["classification_routes"].residual(VerifyContext(tri, tau, None)) == 0
    flags = classify_compression(tri, tau).flags
    assert flags["equals_A0"] == (s > DEFAULT_TOL)
    assert flags["transversal_with_A0"] == (s <= DEFAULT_TOL)


def test_rank_sum():
    tau = RationalNevanlinna.build(
        2, b=np.diag([1.0, 0.0]),
        poles=[(0.0, np.diag([1.0, 1.0])), (1.0, np.diag([0.0, 2.0]))])
    assert rank_sum(tau) == 1 + 2 + 1


def test_dimension_mismatch_rejected():
    tri = model_triplet([None])
    with pytest.raises(ValueError):
        classify_compression(tri, RationalNevanlinna.build(2, b=np.eye(2)))
