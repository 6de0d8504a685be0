"""Krein resolvent formula, compression parameter, classification flags."""
import numpy as np
import pytest

from relcomp.driver import (CHECKS, VerifyContext, admissible_lambdas, build_problem,
                            krein_residuals)
from relcomp.exitspace import build_exit_space, generalized_resolvent_direct
from relcomp.extension import (
    classify_compression,
    compression_param,
    flags_coefficients,
    krein_resolvent,
    rank_sum,
)
from relcomp.linrel import (
    DEFAULT_TOL,
    SpectrumError,
    _cut,
    classify_symmetry,
    graph_of,
    make_relation,
    negate,
    orth,
    relations_equal,
    resolvent,
    vertical_relation,
)
from relcomp.nevanlinna import RationalNevanlinna, tau_limits
from relcomp.triplet import WeylSample, extension_of

from test_nevanlinna import random_tau
from test_stacking import SWEEP_SHAPES, sweep_instance
from test_triplet import (count_defect_frames, model_triplet,
                          random_symmetric_seed, random_unitary, weyl_identity_residuals)
from relcomp.triplet import von_neumann_triplet

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
        lams = admissible_lambdas(rng, 1)
        model = build_exit_space(tri, tau)
        assert max(krein_residuals(tri, tau, model, lams)) \
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
    """The seed's from_relation builds the two frames at +-i once; the
    Krein resolvent builds none at any lam."""
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
        tri, tau = build_problem(sweep_instance(rng, *shape))
        model = build_exit_space(tri, tau)
        for lam in (0.7 + 0.5j, 10j, 1e3j, 1e5j, 50 + 1j):
            direct = generalized_resolvent_direct(model, lam)
            err = np.linalg.norm(krein_resolvent(tri, tau, lam) - direct, 2)
            assert err <= 2e-12 * np.linalg.norm(direct, 2), (shape, lam)


def test_krein_rejects_lambda_where_the_lu_of_a0_does():
    """With tau = {0} (+) C^d the Krein resolvent is R0(lam), read off
    ``a0_spectrum``; it raises SpectrumError at t_k + 1e-13 i for every
    finite eigenvalue t_k of A0, as ``resolvent(tri.a0, lam)`` does, and
    neither raises at t_k + 1e-3 i."""
    rng = np.random.default_rng(31)
    for n, d, n_mul in ((4, 2, 0), (6, 3, 2), (9, 4, 3)):
        seed = random_symmetric_seed(rng, n, d=d, n_mul=n_mul)
        tri = von_neumann_triplet(seed, V=random_unitary(rng, d))
        tau = RationalNevanlinna.build(d, mul_span=np.eye(d))
        _, c, s = tri.a0_spectrum
        finite = np.abs(c) > 1e-6
        assert np.count_nonzero(finite) >= n - n_mul - d
        for t in s[finite] / c[finite]:
            for reject in (lambda lam: krein_resolvent(tri, tau, lam),
                           lambda lam: resolvent(tri.a0, lam)):
                with pytest.raises(SpectrumError):
                    reject(t + 1e-13j)
            krein_resolvent(tri, tau, t + 1e-3j)
            resolvent(tri.a0, t + 1e-3j)


def test_weyl_at_i_is_read_by_krein_and_not_by_the_reference():
    """A wrong gamma(i) and M(i) put in place of ``weyl_at_i`` move the
    Krein resolvent off the oracle's, while the Weyl identities on the
    reference, Gamma0 inverted on a defect frame at each point, still hold."""
    rng = np.random.default_rng(29)
    tri, tau = random_problem(rng, k=0)
    model = build_exit_space(tri, tau)
    at_i = tri.weyl_at_i
    vars(tri)["weyl_at_i"] = WeylSample(
        gamma_field=2.0 * at_i.gamma_field,
        weyl=at_i.weyl + np.eye(tri.boundary_dim))
    lam = 0.4 + 1.1j
    assert max(weyl_identity_residuals(tri, lam, 1j)) < 1e-12
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
                                make_relation(span, 2))
    assert eq, resid


def test_tau_c_selfadjoint_and_tau_infinity():
    """tau_c is self-adjoint, of dimension d, and the graph of tau(iy)
    tends to -tau_c as y grows, not to tau_c: the gap is O(1/y), so its
    Richardson value vanishes.  Beside 30 random parameters, B =
    diag(1, 0, 0) with a constant coefficient of scale 1e9 and 1e12 keeps
    ran B in tau_c's multivalued part."""
    rng = np.random.default_rng(17)
    taus = [random_tau(rng, int(rng.integers(1, 4))) for _ in range(30)]
    x = np.random.default_rng(5).standard_normal((3, 3))
    taus += [RationalNevanlinna.build(3, a=s * (x + x.T) / 2, b=np.diag([1.0, 0.0, 0.0]))
             for s in (1e9, 1e12)]
    for tau in taus:
        tc = compression_param(tau)
        assert tc.dim == tau.dim
        assert classify_symmetry(tc) == "self_adjoint"
        assert tau_limits(tau, negate(tc)) < CHECKS["limit_parameter"].threshold
        if relations_equal(tc, negate(tc))[1] > 1e-3:
            assert tau_limits(tau, tc) > 1e-3


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
    """Both routes decide whether B = s I vanishes by the cut of row 0 of
    ``spectra``, which ``compression_param`` splits too, so they agree on
    either side of it."""
    tri = model_triplet([None])
    tau = RationalNevanlinna.build(1, b=[[s]], poles=[(0.0, [[1.0]])])
    flags = classify_compression(tri, tau).flags
    assert flags == flags_coefficients(tau)
    assert CHECKS["classification_routes"].residual(VerifyContext(tri, tau, None)) == 0
    assert flags["equals_A0"] == (s > DEFAULT_TOL)
    assert flags["transversal_with_A0"] == (s <= DEFAULT_TOL)


def test_every_rank_of_b_is_the_cut_of_its_spectrum():
    """B with an eigenvalue at 1.01 or 0.99 times the cut
    DEFAULT_TOL * max(||B||, 1), beside one at scale 1e-6, 1 or 1e6 or
    alone, with K = {0} and K != {0}: the codimension of tau_c's domain in
    K-perp, the coefficient flags and rank_sum all read rank B as ``_cut``
    of row 0 of ``spectra``, which keeps exactly the eigenvalues above the
    cut."""
    rng = np.random.default_rng(47)
    spectra = [(scale, edge * DEFAULT_TOL * max(scale, 1.0))
               for scale in (1e-6, 1.0, 1e6) for edge in (1.01, 0.99)]
    spectra += [(edge * DEFAULT_TOL,) * 2 for edge in (1.01, 0.99)]
    for d, k in ((2, 0), (4, 2)):
        mul = rng.standard_normal((d, k)) + 1j * rng.standard_normal((d, k)) if k else None
        for w in map(np.array, spectra):
            u = random_unitary(rng, 2)
            tau = RationalNevanlinna.build(d, b=(u * w) @ u.conj().T, mul_span=mul)
            rank_b = _cut(tau.spectra[0][0])
            assert rank_b == np.count_nonzero(w > DEFAULT_TOL * max(w[0], 1.0))
            assert 2 - orth(compression_param(tau).left).shape[1] == rank_b
            flags = flags_coefficients(tau)
            assert flags["equals_A0"] == (rank_b == 2)
            assert flags["transversal_with_A0"] == (k == 0 and rank_b == 0)
            assert rank_sum(tau) == rank_b


def test_rank_sum():
    tau = RationalNevanlinna.build(
        2, b=np.diag([1.0, 0.0]),
        poles=[(0.0, np.diag([1.0, 1.0])), (1.0, np.diag([0.0, 2.0]))])
    assert rank_sum(tau) == 1 + 2 + 1


def test_dimension_mismatch_rejected():
    tri = model_triplet([None])
    with pytest.raises(ValueError):
        classify_compression(tri, RationalNevanlinna.build(2, b=np.eye(2)))
