"""Rational Nevanlinna parameters: evaluation, validation, decomposition,
asymptotic limits."""
from dataclasses import replace

import numpy as np
import pytest

from relcomp.driver import CHECKS
from relcomp.extension import compression_param, rank_sum
from relcomp.linrel import (
    adjoint,
    complement,
    graph_of,
    make_relation,
    negate,
    orth,
    relations_equal,
    vertical_relation,
)
from relcomp.nevanlinna import (
    RationalNevanlinna,
    decompose_tau,
    eval_tau,
    reassemble_decomposition,
    tau_limits,
    validate_tau,
)


def random_tau(rng, d, k=None, b_rank=None, n_poles=None):
    """Random valid parameter; rank-controlled PSD coefficients."""
    k = int(rng.integers(0, d + 1)) if k is None else k
    p = d - k
    mul = np.linalg.qr(rng.standard_normal((d, d))
                       + 1j * rng.standard_normal((d, d)))[0][:, :k] \
        if k else None

    def psd(rank):
        u = np.linalg.qr(rng.standard_normal((p, p))
                         + 1j * rng.standard_normal((p, p)))[0] if p else np.zeros((0, 0))
        w = np.zeros(p)
        w[:rank] = 0.5 + rng.random(rank)
        return (u * w) @ u.conj().T

    a = rng.standard_normal((p, p)) + 1j * rng.standard_normal((p, p))
    a = (a + a.conj().T) / 2
    b_rank = int(rng.integers(0, p + 1)) if b_rank is None else b_rank
    n_poles = int(rng.integers(0, 3 if p else 1)) if n_poles is None else n_poles
    poles = []
    alpha = -2.0
    for _ in range(n_poles):
        alpha += 0.5 + 2 * rng.random()
        poles.append((alpha, psd(int(rng.integers(1, p + 1)))))
    return RationalNevanlinna.build(d, a=a, b=psd(b_rank), poles=poles,
                                    mul_span=mul)


def test_eval_linear_scalar():
    tau = RationalNevanlinna.build(1, b=[[1.0]])
    eq, _ = relations_equal(eval_tau(tau, 2j), graph_of(np.array([[2j]])))
    assert eq


def test_eval_single_pole_scalar():
    # (alpha - lam)^{-1} at alpha=0, lam=i is (-i)^{-1} = i
    tau = RationalNevanlinna.build(1, poles=[(0.0, [[1.0]])])
    eq, _ = relations_equal(eval_tau(tau, 1j), graph_of(np.array([[1j]])))
    assert eq


def test_eval_pure_mul():
    tau = RationalNevanlinna.build(2, mul_span=np.eye(2))
    for lam in (1j, 1 + 1j):
        eq, _ = relations_equal(eval_tau(tau, lam), vertical_relation(2))
        assert eq


def test_eval_rejects_poles_and_real_points():
    tau = RationalNevanlinna.build(1, poles=[(0.5, [[1.0]])])
    with pytest.raises(ValueError):
        eval_tau(tau, 0.5 + 0j)
    with pytest.raises(ValueError):
        eval_tau(tau, 1.0 + 0j)


@pytest.mark.parametrize("s, y", [(1e3, 1e9), (1e6, 1e6), (1e9, 1e3)])
def test_eval_keeps_every_direction_when_tau0_is_large(s, y):
    # |tau0(iy)| is about 1e12, and tau(iy) still has dimension d = 3
    tau = RationalNevanlinna.build(3, a=np.diag([1.0, 2.0, 3.0]),
                                   b=s * np.diag([1.0, 1e-3, 0.0]))
    assert eval_tau(tau, 1j * y).dim == 3


def test_eval_frame_is_orthonormal_far_up_the_axis():
    """dim tau(iy) = d with an orthonormal frame, for y up to 1e12 and
    every coefficient scaled by 1e6."""
    rng = np.random.default_rng(53)
    for _ in range(20):
        d = int(rng.integers(1, 5))
        tau = random_tau(rng, d)
        tau = replace(tau, a_coef=1e6 * tau.a_coef, b_coef=1e6 * tau.b_coef,
                      poles=tuple((alpha, 1e6 * aj) for alpha, aj in tau.poles))
        for y in (1e3, 1e6, 1e9, 1e12):
            frame = eval_tau(tau, 1j * y).frame
            assert frame.shape[1] == d
            assert np.max(np.abs(frame.conj().T @ frame - np.eye(d))) < 1e-13


def v1_tau(d, a, b, poles, mul_span, lam):
    """tau(lam) as the v1 convention defines it: the p x p coefficients act
    on the coordinates of h0 = complement(orth(mul_span))."""
    mul = orth(mul_span)
    h0 = complement(mul)
    t0 = a + lam * b + sum(aj / (alpha - lam) for alpha, aj in poles)
    k = mul.shape[1]
    return make_relation(np.block([[h0, np.zeros((d, k))], [h0 @ t0, mul]]), d, d)


@pytest.mark.parametrize("d, k", [(2, 1), (3, 1), (3, 2), (4, 2), (5, 3), (3, 3)])
def test_build_keeps_the_v1_meaning(d, k):
    rng = np.random.default_rng(10 * d + k)
    p = d - k

    def square():
        return rng.standard_normal((p, p)) + 1j * rng.standard_normal((p, p))

    for _ in range(5):
        mul_span = rng.standard_normal((d, k)) + 1j * rng.standard_normal((d, k))
        a, b = square(), square()
        a, b = a + a.conj().T, b @ b.conj().T
        poles = [(alpha, c @ c.conj().T) for alpha, c in ((-0.7, square()), (1.3, square()))
                 if p]
        tau = RationalNevanlinna.build(d, a=a, b=b, poles=poles, mul_span=mul_span)
        assert validate_tau(tau) == []
        for lam in (0.3 + 1j, -2.0 - 0.5j):
            _, gap = relations_equal(v1_tau(d, a, b, poles, mul_span, lam),
                                     eval_tau(tau, lam))
            assert gap <= 1e-14


def test_build_rejects_a_coefficient_that_is_not_on_h0():
    with pytest.raises(ValueError, match="pole 0 residue"):
        RationalNevanlinna.build(2, poles=[(0.0, np.eye(2))], mul_span=[[1.0], [0.0]])


@pytest.mark.parametrize("a, issue", [
    (np.eye(2), "coefficients do not vanish on K"),
    (np.eye(1), "coefficient shape mismatch"),
])
def test_validate_reads_coefficients_on_c_d(a, issue):
    # K = span e2
    tau = RationalNevanlinna(dim=2, mul_frame=np.eye(2, dtype=complex)[:, 1:],
                             a_coef=a.astype(complex),
                             b_coef=np.zeros((2, 2), dtype=complex))
    assert issue in validate_tau(tau)


def test_build_rejects_a_tolerance_other_than_the_default():
    with pytest.raises(ValueError, match="DEFAULT_TOL"):
        RationalNevanlinna.build(1, tol=1e-6)


@pytest.mark.parametrize("d", [0, 1, 3])
def test_build_reads_a_span_without_columns_as_k_zero(d):
    """A d x 0 span of K, d = 0 included, builds the parameter that no span
    builds, bit for bit."""
    a = np.diag(np.arange(d, dtype=complex))
    spanned = RationalNevanlinna.build(d, a=a, mul_span=np.zeros((d, 0)))
    default = RationalNevanlinna.build(d, a=a)
    assert spanned.mul_frame.shape == (d, 0)
    for field in ("mul_frame", "a_coef", "b_coef", "op_frame"):
        assert np.array_equal(getattr(spanned, field), getattr(default, field))
    assert validate_tau(spanned) == []


def test_build_rejects_a_span_of_another_row_count():
    with pytest.raises(ValueError, match="mul_span has 3 rows, not 2"):
        RationalNevanlinna.build(2, mul_span=np.ones((3, 1)))


@pytest.mark.parametrize("kw", [
    {"a": [[np.nan]]},
    {"b": [[np.inf]]},
    {"poles": [(0.0, [[complex(1.0, np.nan)]])]},
    {"poles": [(np.nan, [[1.0]])]},
    {"poles": [(-np.inf, [[1.0]])]},
])
def test_build_rejects_non_finite_entries_and_pole_locations(kw):
    with pytest.raises(ValueError, match="non-finite"):
        RationalNevanlinna.build(1, **kw)


@pytest.mark.parametrize("field, value, issue", [
    ("a_coef", np.array([[np.nan]]), "non-finite coefficients"),
    ("b_coef", np.array([[np.inf]]), "non-finite coefficients"),
    ("poles", ((np.nan, np.eye(1)),), "non-finite pole locations"),
    ("poles", ((0.0, np.array([[-np.inf]])),), "non-finite coefficients"),
    ("mul_frame", np.full((1, 1), np.nan), "non-finite mul frame"),
])
def test_validate_lists_non_finite_entries(field, value, issue):
    """Every comparison validate_tau makes is false at a NaN, so a directly
    constructed parameter with one is listed by its non-finite entries."""
    tau = replace(RationalNevanlinna.build(1, poles=[(0.0, [[1.0]])]),
                  **{field: value})
    assert validate_tau(tau) == [issue]


def test_validate_rejects_non_psd_b():
    tau = RationalNevanlinna.build(1, b=[[-1e-3]])
    assert any("B not PSD" in msg for msg in validate_tau(tau))


def test_validate_rejects_vanishing_pole_term():
    tau = RationalNevanlinna.build(1, poles=[(0.0, [[0.0]])])
    assert any("vanishes" in msg for msg in validate_tau(tau))


@pytest.mark.parametrize("residue, rank", [(5e-8, 1), (5e-10, 0), (-1.0, 0)])
def test_pole_term_vanishes_exactly_when_its_rank_is_zero(residue, rank):
    """validate_tau and rank_sum decide a residue's rank by the one cut of
    its row of ``spectra``.  That cut reads signed eigenvalues, so it keeps
    none of a negative-definite residue, which is reported as not PSD and
    not as vanishing."""
    tau = RationalNevanlinna.build(1, poles=[(0.0, [[residue]])])
    issues = validate_tau(tau)
    assert rank_sum(tau) == rank
    assert ("pole 0: residue not PSD" in issues) == (residue < 0)
    assert ("pole 0: pole term vanishes" in issues) == (rank == 0 and residue >= 0)


def test_validate_rejects_coincident_poles():
    tau = RationalNevanlinna.build(1, poles=[(0.0, [[1.0]]), (0.0, [[2.0]])])
    assert any("distinct" in msg for msg in validate_tau(tau))


def test_validate_accepts_scalar_linear():
    assert validate_tau(RationalNevanlinna.build(1, b=[[1.0]])) == []


@pytest.mark.parametrize("s", [1e-6, 1.0, 1e6, 1e8, 1e9, 1e10, 1e12])
def test_validate_cuts_are_relative_to_each_coefficient(s):
    """The rounding of build's embedding h0 m h0^H grows with |m|: an exact
    Hermitian A, PSD B or PSD residue with K != {0} is valid at every
    scale, and a Hermitian defect of 1e-6 max(1, max|A|) is not."""
    rng = np.random.default_rng(61)
    d, k = 5, 2
    p = d - k
    for _ in range(20):
        mul = rng.standard_normal((d, k)) + 1j * rng.standard_normal((d, k))
        c = rng.standard_normal((p, p)) + 1j * rng.standard_normal((p, p))
        psd = c @ c.conj().T
        herm, psd = s * (c + c.conj().T), s * (psd + psd.conj().T) / 2
        for kw in ({"a": herm}, {"b": psd}, {"poles": [(0.5, psd)]}):
            assert validate_tau(RationalNevanlinna.build(d, mul_span=mul, **kw)) == []
        tau = RationalNevanlinna.build(d, a=herm, mul_span=mul)
        off_k = np.eye(d) - tau.mul_frame @ tau.mul_frame.conj().T
        defect = 1e-6 * max(1.0, np.max(np.abs(tau.a_coef))) * 1j * off_k
        skewed = replace(tau, a_coef=tau.a_coef + defect)
        assert "A not Hermitian" in validate_tau(skewed)


def test_nevanlinna_symmetry_and_positivity():
    rng = np.random.default_rng(17)
    for _ in range(25):
        d = int(rng.integers(1, 4))
        tau = random_tau(rng, d)
        lam = complex(rng.uniform(-2, 2), rng.uniform(0.5, 2))
        eq, resid = relations_equal(eval_tau(tau, np.conj(lam)),
                                    adjoint(eval_tau(tau, lam)))
        assert eq, resid
        t0 = tau.tau0(lam)
        im = (t0 - t0.conj().T) / 2j
        if im.size:
            assert np.min(np.linalg.eigvalsh((im + im.conj().T) / 2)) > -1e-9


def test_decompose_scalar_linear_is_strict():
    dec = decompose_tau(RationalNevanlinna.build(1, b=[[1.0]]))
    assert dec.h_dprime.shape[1] == 0
    assert dec.tau1.op_dim == 1
    assert np.allclose(dec.tau1.b_coef, [[1.0]])


def test_decompose_kernel_direction():
    tau = RationalNevanlinna.build(2, b=np.diag([1.0, 0.0]))
    dec = decompose_tau(tau)
    assert dec.h_dprime.shape[1] == 1
    assert np.max(np.abs(np.abs(dec.h_dprime.ravel()) - [0.0, 1.0])) < 1e-12
    assert dec.tau1.op_dim == 1
    assert np.allclose(dec.b1, 0) and np.allclose(dec.b2, 0)


def test_decompose_constant_parameter():
    a = np.array([[2.0, 1.0], [1.0, 3.0]])
    dec = decompose_tau(RationalNevanlinna.build(2, a=a))
    assert dec.h_dprime.shape[1] == 2
    assert dec.tau1.op_dim == 0
    # B2 carries the (negated) constant in h_dprime coordinates
    hd = dec.h_dprime
    assert np.max(np.abs(dec.b2 + hd.conj().T @ a @ hd)) < 1e-12


def test_decompose_strictness_of_tau1():
    rng = np.random.default_rng(29)
    for _ in range(25):
        tau = random_tau(rng, int(rng.integers(1, 4)))
        dec = decompose_tau(tau)
        q = dec.tau1.op_dim
        if q:
            im = dec.tau1.tau0(1j)
            im = ((im - im.conj().T) / 2j + ((im - im.conj().T) / 2j).conj().T) / 2
            assert np.min(np.linalg.eigvalsh(im)) > 1e-8


def test_reassembly_pins_sign_convention():
    rng = np.random.default_rng(37)
    for _ in range(25):
        tau = random_tau(rng, int(rng.integers(1, 4)))
        dec = decompose_tau(tau)
        for _ in range(5):
            lam = complex(rng.uniform(-2, 2), rng.uniform(0.5, 2))
            if any(abs(lam - alpha) < 1e-6 for alpha, _ in tau.poles):
                continue
            eq, resid = relations_equal(eval_tau(tau, lam),
                                        reassemble_decomposition(tau, dec, lam))
            assert eq, resid


def test_limits_scalar_linear():
    # tau(iy) = iy tends to the vertical relation {0} (+) C, not to its graph at 0
    tau = RationalNevanlinna.build(1, b=[[1.0]])
    assert tau_limits(tau, vertical_relation(1)) < 1e-12
    assert tau_limits(tau, graph_of([[0.0]])) > 0.5


def test_limits_scalar_pole():
    # tau(iy) = 1/(0 - iy) tends to the graph of 0
    tau = RationalNevanlinna.build(1, poles=[(0.0, [[1.0]])])
    assert tau_limits(tau, graph_of([[0.0]])) < 1e-12
    assert tau_limits(tau, vertical_relation(1)) > 0.5


def test_limits_constant():
    a = np.array([[1.0, 2.0], [2.0, -1.0]])
    tau = RationalNevanlinna.build(2, a=a)
    assert tau_limits(tau, graph_of(a)) < 1e-12
    assert tau_limits(tau, graph_of(1.001 * a)) > 1e-4


def test_limits_numeric_cross_check_random():
    """tau(iy) tends to -tau_c, within the limit_parameter threshold,
    and a target with A' off by 1e-3 is told apart."""
    rng = np.random.default_rng(43)
    threshold = CHECKS["limit_parameter"].threshold
    for _ in range(20):
        tau = random_tau(rng, int(rng.integers(1, 4)))
        assert tau_limits(tau, negate(compression_param(tau))) < threshold
        off = compression_param(replace(tau, a_coef=1.001 * tau.a_coef))
        if relations_equal(off, compression_param(tau))[1] > 1e-6:
            assert tau_limits(tau, negate(off)) > threshold


def test_growth_identity_on_grid():
    # y Im(tau0(iy)h, h) = y^2 (Bh,h) + sum y^2/(a_j^2+y^2) (A_j h, h)
    rng = np.random.default_rng(47)
    for _ in range(10):
        tau = random_tau(rng, 3, k=0)
        p = tau.op_dim
        h = rng.standard_normal(p) + 1j * rng.standard_normal(p)
        for y in (10.0, 100.0):
            lhs = y * np.imag(np.vdot(h, tau.tau0(1j * y) @ h))
            rhs = y ** 2 * np.real(np.vdot(h, tau.b_coef @ h))
            for alpha, aj in tau.poles:
                rhs += y ** 2 / (alpha ** 2 + y ** 2) * np.real(np.vdot(h, aj @ h))
            assert abs(lhs - rhs) < 1e-8 * max(1.0, abs(rhs))
