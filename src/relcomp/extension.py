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
    LinearRelation,
    classify_symmetry,
    contains,
    graph_operator,
    make_relation,
    orth,
    rank,
    relations_equal,
)
from .nevanlinna import RationalNevanlinna, eval_tau
from .triplet import BoundaryTriplet, extension_of


class RouteDisagreement(RuntimeError):
    """The geometric and the coefficient-based classification disagree;
    ``flags`` maps each disputed flag to its (geometric, coefficient) values."""

    def __init__(self, flags: dict):
        super().__init__(f"flag mismatch (geometric, coefficient): {flags}")
        self.flags = flags


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
    where A' compresses the constant coefficient to ker B cap K-perp.
    """
    d = tau.dim
    ker_b = tau.op_kernel(tau.b_coef)
    mul = np.hstack([orth(tau.b_coef), tau.mul_frame])
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
    extension attached to a rational parameter tau."""

    tau_c: LinearRelation
    compression: LinearRelation
    flags: dict
    n_r: int


def flags_geometric(tri: BoundaryTriplet, C: LinearRelation) -> dict:
    """Flags of C read off by relation algebra against A, A0 and A*."""
    A0 = tri.a0
    eq_a0, _ = relations_equal(C, A0)
    eq_a, _ = relations_equal(C, tri.seed.A)
    # C and A0 lie in A*, so C + A0 = A* iff the sum has the dimension of A*
    transversal = rank(np.hstack([C.frame, A0.frame])) == tri.seed.A_star.dim
    return {
        "subset_A0": contains(A0, C),
        "equals_A0": eq_a0,
        "equals_A": eq_a,
        "self_adjoint": classify_symmetry(C) == "self_adjoint",
        "transversal_with_A0": transversal,
    }


def flags_coefficients(tau: RationalNevanlinna) -> dict:
    """Flags of C(A~) read off tau: C = A0 iff ker B is trivial, and C is
    transversal with A0 iff K = {0} and B = 0.  Both facts come from the
    one kernel frame of B in K-perp, so they follow the cut of
    ``null_space``."""
    ker_b_dim = tau.op_kernel(tau.b_coef).shape[1]
    return {
        "subset_A0": ker_b_dim == 0,
        "equals_A0": ker_b_dim == 0,
        "equals_A": tau.dim == 0,
        "self_adjoint": True,
        "transversal_with_A0": tau.mul_frame.shape[1] == 0 and ker_b_dim == tau.op_dim,
    }


def rank_sum(tau: RationalNevanlinna) -> int:
    """Exit-space dimension rank B + sum_j rank A_j of a rational parameter."""
    return sum(orth(m).shape[1]
               for m in (tau.b_coef, *(aj for _, aj in tau.poles)))


def classify_compression(tri: BoundaryTriplet,
                         tau: RationalNevanlinna) -> CompressionReport:
    """Compute C(A~) and its flags two ways: from relation algebra on C and
    from the coefficient structure of tau.  Raises RouteDisagreement if the
    two routes differ."""
    if tau.dim != tri.boundary_dim:
        raise ValueError("parameter dimension does not match the boundary space")
    tau_c = compression_param(tau)
    C = extension_of(tri, tau_c)
    geo = flags_geometric(tri, C)
    coef = flags_coefficients(tau)
    if geo != coef:
        diffs = {k: (geo[k], coef[k]) for k in geo if geo[k] != coef[k]}
        raise RouteDisagreement(diffs)
    return CompressionReport(tau_c=tau_c, compression=C, flags=geo,
                             n_r=rank_sum(tau))
