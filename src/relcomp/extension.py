"""Krein-type resolvent formula and compressions of exit-space extensions.

Given a boundary triplet for A* and a rational Nevanlinna parameter tau,
the generalized resolvents

    R(lam) = (A0 - lam)^{-1} - gamma(lam) (tau(lam) + M(lam))^{-1} gamma(conj lam)*

are compressions of canonical resolvents of a self-adjoint exit-space
extension A~.  The compression C(A~) of A~ itself to the base space is
again parametrized by a boundary relation tau_c built from the limit
structure of tau at i*infinity; this module computes both sides and
classifies C(A~) against A, A0 and A*.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linrel import (
    DEFAULT_TOL,
    LinearRelation,
    _cut,
    _fro,
    _inversion_cut,
    _points,
    _norm_below,
    classify_symmetry,
    graph_operator,
    operator_relation,
    orth,
    relations_equal,
)
from .nevanlinna import RationalNevanlinna, eval_tau
from .triplet import BoundaryTriplet, extension_of, gamma_and_weyl


def krein_resolvent(tri: BoundaryTriplet, tau: RationalNevanlinna,
                    lam) -> np.ndarray:
    """Generalized resolvent of the seed relation at lam for parameter tau,
    or the stack of them at each point of an array lam; ValueError or
    SpectrumError when any point is rejected.

    gamma(lam), M(lam) and gamma(conj lam)* = gamma(i)* (A0 + i) R0(lam)
    come from their values at i, kept with the triplet, as
    ``gamma_and_weyl`` reads them, where the Weyl identities are stated:
    with A0 = span(U c; U s) diagonalized once per triplet
    (``a0_spectrum``) and v = s - lam c, each operator is U diag(w / v) U^H
    for w = c, s -+ i c or c + lam s, with no factorization per lam.
    ``eval_tau`` comes first, so ``tau0`` rejects a real point or a pole
    before any 1/v; at a nonreal lam, v is never 0, as s^2 + c^2 = 1.  lam
    is rejected exactly where ``graph_operator`` would reject R - lam L
    for A0's frame (L; R): that cut reads unitarily invariant norms, here
    those of v.  The product forms keep their relative accuracy at large
    |lam|, where the equal additive form gamma(i) + (lam - i) R0(lam)
    gamma(i) cancels.

    The middle term (tau(lam) + M(lam))^{-1}: with L, R the halves of
    tau(lam)'s frame, the sum is the relation with frame (L; R + M L), and
    its inverse is the graph operator L (R + M L)^{-1}; SpectrumError if it
    is not boundedly invertible.

    All of this after ``eval_tau`` is ``_krein_from``, which a caller that
    reads tau(lam) itself as well, such as ``driver.krein_residuals``,
    calls on its one evaluation.
    """
    return _krein_from(tri, eval_tau(tau, lam), lam)


def _krein_from(tri: BoundaryTriplet, T: LinearRelation, lam) -> np.ndarray:
    """``krein_resolvent`` at lam for T = tau(lam), evaluated by the
    caller: a stack of relations for an array lam."""
    u, c, s = tri.a0_spectrum
    at = _points(lam, 1)
    v = s - at * c
    _inversion_cut(_fro(v, 1), _fro(1.0 / v, 1))
    ws, u_adj = gamma_and_weyl(tri, lam), u.conj().T
    gamma_bar_adj = (tri.gamma_i_in_a0_basis.conj().T * ((s + 1j * c) / v)[..., None, :]) @ u_adj
    out = (u * (c / v)[..., None, :]) @ u_adj
    out -= ws.gamma_field @ graph_operator(T.right + ws.weyl @ T.left, T.left) @ gamma_bar_adj
    return out


def compression_param(tau: RationalNevanlinna) -> LinearRelation:
    """Boundary relation tau_c of the compression C(A~):

    {{h, -A'h (+) h' (+) k}: h in ker B cap K-perp, h' in ran B, k in K},
    where A' compresses the constant coefficient to ker B cap K-perp, and
    ran B and ker B cap K-perp are the two parts of row 0 of ``spectra``
    that ``_cut`` splits: the ``operator_relation`` on dom = ker B cap
    K-perp and mul = [ran B, K], of dimension d at every scale of A.
    """
    values, vectors = tau.spectra
    rank_b = _cut(values[0])
    ker_b = vectors[0][:, rank_b:]
    image = -ker_b @ (ker_b.conj().T @ tau.a_coef @ ker_b)
    return operator_relation(ker_b, image, np.hstack([vectors[0][:, :rank_b], tau.mul_frame]))


@dataclass(frozen=True)
class CompressionReport:
    """Classification of the compression C = C(A~) of the exit-space
    extension attached to a rational parameter tau: ``flags`` are read off
    C, and ``disputed`` maps each flag on which the coefficients of tau
    say otherwise to its (geometric, coefficient) values."""

    tau_c: LinearRelation
    compression: LinearRelation
    flags: dict
    disputed: dict
    n_r: int


def flags_geometric(tri: BoundaryTriplet, C: LinearRelation) -> dict:
    """Flags of C read off by relation algebra against A, A0 and A*; C = A0
    iff C is contained in A0 and has its dimension.

    A0 is self-adjoint, so J A0 = A0^perp, and J A = A*^perp; hence
    A* (-) A0 = J (A0 (-) A).  ``extension_of`` lays A0's frame out as
    [A, q0], so Z = J q0 = (q0_R; -q0_L) is an orthonormal d-column frame
    of A* (-) A0.  C and A0 lie in A*, so the part (I - P_A0) C of C off
    A0 is Z Z^H C: its norm, the containment residual of C in A0, and its
    rank are those of the d x dim C matrix Z^H C, and C + A0 = A* iff that
    rank is dim A* - dim A0 = d."""
    A0 = tri.a0
    n, q0 = tri.space_dim, A0.frame[:, tri.seed.A.dim:]
    off_a0 = np.vstack([q0[n:], -q0[:n]]).conj().T @ C.frame
    subset_a0 = _norm_below(off_a0, DEFAULT_TOL)
    eq_a, _ = relations_equal(C, tri.seed.A)
    transversal = orth(off_a0).shape[1] == tri.seed.A_star.dim - A0.dim
    return {
        "subset_A0": subset_a0,
        "equals_A0": subset_a0 and C.dim == A0.dim,
        "equals_A": eq_a,
        "self_adjoint": classify_symmetry(C) == "self_adjoint",
        "transversal_with_A0": transversal,
    }


def flags_coefficients(tau: RationalNevanlinna) -> dict:
    """Flags of C(A~) read off tau: C = A0 iff ker B cap K-perp is trivial,
    and C is transversal with A0 iff K = {0} and B = 0.  Both facts come
    from rank B, ``_cut`` of row 0 of ``spectra``, the split that
    ``compression_param`` reads ker B off too."""
    ker_b_dim = tau.op_dim - _cut(tau.spectra[0][0])
    return {
        "subset_A0": ker_b_dim == 0,
        "equals_A0": ker_b_dim == 0,
        "equals_A": tau.dim == 0,
        "self_adjoint": True,
        "transversal_with_A0": tau.mul_frame.shape[1] == 0 and ker_b_dim == tau.op_dim,
    }


def rank_sum(tau: RationalNevanlinna) -> int:
    """Exit-space dimension rank B + sum_j rank A_j of a rational parameter,
    each rank ``_cut`` of its row of ``spectra``."""
    return sum(_cut(row) for row in tau.spectra[0])


def classify_compression(tri: BoundaryTriplet,
                         tau: RationalNevanlinna) -> CompressionReport:
    """Compute C(A~) and its flags two ways: from relation algebra on C and
    from the coefficient structure of tau, and the exit dimension n_r."""
    tau_c = compression_param(tau)
    C = extension_of(tri, tau_c)
    geo = flags_geometric(tri, C)
    coef = flags_coefficients(tau)
    disputed = {k: (geo[k], coef[k]) for k in geo if geo[k] != coef[k]}
    return CompressionReport(tau_c=tau_c, compression=C, flags=geo,
                             disputed=disputed, n_r=rank_sum(tau))
