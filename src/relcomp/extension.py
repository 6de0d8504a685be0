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
    _norm2,
    classify_symmetry,
    graph_operator,
    make_relation,
    rank,
    relations_equal,
)
from .nevanlinna import RationalNevanlinna, eval_tau
from .triplet import BoundaryTriplet, extension_of


def _middle_inverse(tau: RationalNevanlinna, lam: complex,
                    weyl: np.ndarray) -> np.ndarray:
    """Matrix of (tau(lam) + M(lam))^{-1} on the boundary space, given
    M(lam) = weyl.

    With L, R the halves of tau(lam)'s frame, the sum is the relation with
    frame (L; R + M L), and its inverse is the graph operator
    L (R + M L)^{-1}; SpectrumError if it is not boundedly invertible.
    """
    T = eval_tau(tau, lam)
    return graph_operator(T.right + weyl @ T.left, T.left)


def krein_resolvent(tri: BoundaryTriplet, tau: RationalNevanlinna,
                    lam: complex) -> np.ndarray:
    """Generalized resolvent of the seed relation at lam for parameter tau.

    gamma and M come from their values at i, kept with the triplet as
    ``weyl_at_i``, through the identities

        gamma(lam) = (A0 - i) R0(lam) gamma(i),
        M(lam) = M(i)* + (lam + i) gamma(i)* gamma(lam).

    With L, R the halves of A0's frame, R0(lam) = L (R - lam L)^{-1} and
    (A0 - i) R0(lam) = (R - i L)(R - lam L)^{-1} come from one graph
    operator.  The product form keeps its relative accuracy at large |lam|,
    where the equal additive form gamma(i) + (lam - i) R0(lam) gamma(i)
    cancels.  gamma(conj lam) comes from the gamma-field identity
    gamma(conj lam) = gamma(lam) + (conj lam - lam) R0(conj lam) gamma(lam),
    with R0(conj lam) = R0(lam)* because A0 is self-adjoint.
    """
    if abs(lam.imag) == 0:
        raise ValueError("Weyl function is evaluated on the real axis")
    left, right = tri.a0.left, tri.a0.right
    both = graph_operator(right - lam * left, np.vstack([left, right - 1j * left]))
    n = tri.space_dim
    r0, shifted = both[:n], both[n:]
    at_i = tri.weyl_at_i
    gamma = shifted @ at_i.gamma_field
    weyl = at_i.weyl.conj().T + (lam + 1j) * (at_i.gamma_field.conj().T @ gamma)
    gamma_adj = gamma.conj().T
    gamma_bar_adj = gamma_adj + (lam - np.conj(lam)) * (gamma_adj @ r0)
    mid = _middle_inverse(tau, lam, weyl)
    return r0 - gamma @ mid @ gamma_bar_adj


def compression_param(tau: RationalNevanlinna) -> LinearRelation:
    """Boundary relation tau_c of the compression C(A~):

    {{h, -A'h (+) h' (+) k}: h in ker B cap K-perp, h' in ran B, k in K},
    where A' compresses the constant coefficient to ker B cap K-perp, and
    ran B and ker B cap K-perp are the two parts of row 0 of ``spectra``
    that ``_cut`` splits.
    """
    d = tau.dim
    values, vectors = tau.spectra
    rank_b = _cut(values[0])
    ker_b = vectors[0][:, rank_b:]
    mul = np.hstack([vectors[0][:, :rank_b], tau.mul_frame])
    a_prime = ker_b @ (ker_b.conj().T @ tau.a_coef @ ker_b)
    cols_dom = np.vstack([ker_b, -a_prime])
    cols_mul = np.vstack([np.zeros_like(mul), mul])
    return make_relation(np.hstack([cols_dom, cols_mul]), d, d)


def compression(tri: BoundaryTriplet, tau: RationalNevanlinna) -> LinearRelation:
    """C(A~) = A_{tau_c}, the compression of the exit-space extension."""
    return extension_of(tri, compression_param(tau))


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

    C and A0 lie in A*, so C + A0 = A* iff the part (I - P_A0) C of C off
    A0 has rank dim A* - dim A0, the rank of one 2n x dim C SVD; its norm
    is the containment residual of C in A0."""
    A0 = tri.a0
    off_a0 = C.frame - A0.frame @ (A0.frame.conj().T @ C.frame)
    subset_a0 = _norm2(off_a0) < DEFAULT_TOL
    eq_a, _ = relations_equal(C, tri.seed.A)
    transversal = rank(off_a0) == tri.seed.A_star.dim - A0.dim
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
    if tau.dim != tri.boundary_dim:
        raise ValueError("parameter dimension does not match the boundary space")
    tau_c = compression_param(tau)
    C = extension_of(tri, tau_c)
    geo = flags_geometric(tri, C)
    coef = flags_coefficients(tau)
    disputed = {k: (geo[k], coef[k]) for k in geo if geo[k] != coef[k]}
    return CompressionReport(tau_c=tau_c, compression=C, flags=geo,
                             disputed=disputed, n_r=rank_sum(tau))
