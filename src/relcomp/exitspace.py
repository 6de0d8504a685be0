"""Explicit exit-space models: brute-force oracle for compressions.

A rational parameter tau is first reduced to a uniformly strict function
tau1 on a smaller boundary space (absorbing the constant block into a
symmetric extension S of the seed), tau1 is realized as the Weyl function
of an explicit model triplet in C^{n_r}, and the two triplets are coupled
into a self-adjoint relation A~ in C^{n + n_r}.  Compressions and
generalized resolvents of A~ are then computed directly by subspace
algebra, with no reference to the resolvent-formula machinery they are
used to cross-validate.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linrel import (
    LinearRelation,
    SpectrumError,
    _cut,
    adjoint,
    classify_symmetry,
    containment_residual,
    graph_operator,
    make_relation,
    negate,
    null_space,
    orth,
    resolvent,
)
from .nevanlinna import RationalNevanlinna, decompose_tau
from .triplet import (
    BoundaryTriplet,
    SymmetricSeed,
    extension_of,
    forbidden_relation,
    gamma_and_weyl,
)


class ModelError(RuntimeError):
    """An internal consistency check of the oracle construction failed."""


@dataclass(frozen=True)
class ReducedProblem:
    """Symmetric extension S absorbing the constant block of tau, with a
    boundary triplet for S* whose parameter is the uniformly strict tau1."""

    s_rel: LinearRelation
    pi_prime: BoundaryTriplet
    tau1: RationalNevanlinna


def reduce_parameter(tri: BoundaryTriplet, tau: RationalNevanlinna) -> ReducedProblem:
    """Absorb the kernel block (B1, B2) and the multivalued part of tau into
    the extension S = A_theta0 and restrict the boundary maps to S*.

    S* is read in the boundary space, as (A_theta)* = A_{theta*}: the
    extension for theta0*, with no adjoint taken in C^n (+) C^n.
    """
    if tau.dim != tri.boundary_dim:
        raise ValueError("parameter dimension does not match the boundary space")
    dec = decompose_tau(tau)
    d = tau.dim
    hp, hd = dec.h_prime, dec.h_dprime
    # theta0 = {{h'', B1 h'' (+) B2 h'' (+) k}}
    cols_dom = np.vstack([hd, hp @ dec.b1 + hd @ dec.b2])
    cols_mul = np.vstack([np.zeros_like(tau.mul_frame), tau.mul_frame])
    theta0 = make_relation(np.hstack([cols_dom, cols_mul]), d, d)
    S = extension_of(tri, theta0)
    seed_prime = SymmetricSeed(A=S, A_star=extension_of(tri, adjoint(theta0)))
    g0p = hp.conj().T @ tri.gamma0
    g1p = hp.conj().T @ tri.gamma1 - dec.b1 @ (hd.conj().T @ tri.gamma0)
    try:
        pi_prime = BoundaryTriplet.from_ambient_maps(seed_prime, g0p, g1p)
    except Exception as exc:
        raise ModelError(f"reduced triplet invalid: {exc}") from exc
    return ReducedProblem(s_rel=S, pi_prime=pi_prime, tau1=dec.tau1)


def psd_factor(m: np.ndarray) -> np.ndarray:
    """Surjective factor D with m = D^H D on the eigenvalues that ``_cut``
    keeps, rows = rank(m), in the ascending order of ``eigh``."""
    w, v = np.linalg.eigh((m + m.conj().T) / 2)
    keep = slice(len(w) - _cut(w[::-1]), None)
    return (np.sqrt(w[keep])[:, None] * v[:, keep].conj().T).astype(complex)


def realize_model(tau1: RationalNevanlinna) -> BoundaryTriplet:
    """Build a model triplet, for a symmetric relation in C^{n_r}, whose
    Weyl function is tau1.

    The model space stacks one block per rank factor of the linear
    coefficient and of each pole residue; the base boundary maps produce
    blockwise Weyl functions lam*I and (alpha_j - lam)^{-1} I, and a column
    transform by G = stack of the factors turns their combination into tau1.
    """
    if tau1.mul_frame.shape[1]:
        raise ValueError("tau1 must have trivial multivalued part")
    q = tau1.op_dim
    d_fac = psd_factor(tau1.b_coef)
    c_facs = [(alpha, psd_factor(aj)) for alpha, aj in tau1.poles]
    G = np.vstack([d_fac] + [c for _, c in c_facs])
    nr = G.shape[0]
    # G = ran_g r is injective iff r is boundedly invertible; then ran_g
    # spans ran G and r^{-1} ran_g^H is the pseudo-inverse of G
    ran_g, r = np.linalg.qr(G)
    try:
        g_pinv = graph_operator(r, np.eye(q, dtype=complex)) @ ran_g.conj().T
    except SpectrumError as exc:
        raise ValueError("tau1 is not uniformly strict: stacked factor not injective") from exc

    # base boundary maps on the trivial seed {{0,0}} in C^nr, acting on
    # ambient pairs (f, f'); row blocks follow the block layout of H_r
    g0_base = np.zeros((nr, 2 * nr), dtype=complex)
    g1_base = np.zeros((nr, 2 * nr), dtype=complex)
    rb = d_fac.shape[0]
    g0_base[:rb, :rb] = np.eye(rb)          # f_B
    g1_base[:rb, nr:nr + rb] = np.eye(rb)   # f'_B
    row = rb
    for alpha, c in c_facs:
        rj = c.shape[0]
        sl = slice(row, row + rj)
        g0_base[sl, row:row + rj] = -alpha * np.eye(rj)
        g0_base[sl, nr + row:nr + row + rj] = np.eye(rj)   # f'_j - alpha f_j
        g1_base[sl, row:row + rj] = -np.eye(rj)            # -f_j
        row += rj

    # S_r = ker (Gamma0_base; G^H Gamma1_base), and its adjoint is
    # {f-hat: Gamma0_base f-hat in ran G}, read off the unit-scale rows
    s_r_frame = null_space(np.vstack([g0_base, G.conj().T @ g1_base]))
    s_r_star = null_space(g0_base - ran_g @ (ran_g.conj().T @ g0_base))
    seed_r = SymmetricSeed(A=LinearRelation(nr, nr, s_r_frame),
                           A_star=LinearRelation(nr, nr, s_r_star))

    e_coef = tau1.a_coef
    g0_amb = g_pinv @ g0_base
    g1_amb = G.conj().T @ g1_base + e_coef @ g0_amb
    pi_r = BoundaryTriplet.from_ambient_maps(seed_r, g0_amb, g1_amb)
    for lam in (1j, 2j, -1j, 0.5 + 1j, -1.5 + 0.7j):
        m = gamma_and_weyl(pi_r, lam).weyl
        if np.max(np.abs(m - tau1.tau0(lam)), initial=0.0) > 1e-8:
            raise ModelError(f"model Weyl function does not match tau1 at {lam}")
    return pi_r


@dataclass(frozen=True)
class ExitSpaceModel:
    """Self-adjoint coupling A~ in C^{n + dim_r} of the reduced problem with
    the model triplet pi_r in C^{dim_r}; base-space coordinates come first
    in both pair components."""

    dim_h: int
    a_tilde: LinearRelation
    reduced: ReducedProblem
    pi_r: BoundaryTriplet

    @property
    def dim_r(self) -> int:
        return self.pi_r.space_dim


def couple(reduced: ReducedProblem, pi_r: BoundaryTriplet) -> ExitSpaceModel:
    """A~ = {f-hat (+) f-hat_r: Gamma0' f-hat = Gamma0^r f-hat_r,
    Gamma1' f-hat = -Gamma1^r f-hat_r} for the model triplet pi_r: S' (+) S_r
    beside a QR frame of the injective {lift' x (+) lift_r diag(I, -I) x}."""
    pi_p = reduced.pi_prime
    if pi_p.boundary_dim != pi_r.boundary_dim:
        raise ValueError("boundary spaces of the two triplets differ")
    n, nr, d = pi_p.space_dim, pi_r.space_dim, pi_p.boundary_dim
    mp, mr = pi_p.seed.A.dim, pi_r.seed.A.dim
    frame = np.zeros((2 * (n + nr), mp + mr + 2 * d), dtype=complex)
    frame[:2 * n, :mp] = pi_p.seed.A.frame
    frame[2 * n:, mp:mp + mr] = pi_r.seed.A.frame
    coupled = frame[:, mp + mr:]
    coupled[:2 * n] = pi_p.lift
    coupled[2 * n:] = pi_r.lift * np.repeat([1.0, -1.0], d)
    coupled[:] = np.linalg.qr(coupled)[0]
    # rows (f, f', f_r, f_r') reordered to (f, f_r, f', f_r')
    order = np.r_[:n, 2 * n:2 * n + nr, n:2 * n, 2 * n + nr:2 * (n + nr)]
    a_tilde = LinearRelation(n + nr, n + nr, frame[order])
    if classify_symmetry(a_tilde) != "self_adjoint":
        raise ModelError("coupled relation is not self-adjoint")
    return ExitSpaceModel(dim_h=n, a_tilde=a_tilde, reduced=reduced, pi_r=pi_r)


def build_exit_space(tri: BoundaryTriplet, tau: RationalNevanlinna) -> ExitSpaceModel:
    """Reduce, realize and couple in one step."""
    reduced = reduce_parameter(tri, tau)
    return couple(reduced, realize_model(reduced.tau1))


def direct_compression(model: ExitSpaceModel):
    """Compression chain of A~ to the base space: (C, S, T) with
    S = A~ restricted to pairs entirely in H, C additionally projecting the
    second component, T projecting both components."""
    n, nr = model.dim_h, model.dim_r
    frame = model.a_tilde.frame
    f_h, f_r = frame[:n], frame[n:n + nr]
    fp_h, fp_r = frame[n + nr:2 * n + nr], frame[2 * n + nr:]
    # C: left exit component zero, right exit component projected away
    coeff_c = null_space(f_r)
    C = make_relation(np.vstack([f_h @ coeff_c, fp_h @ coeff_c]), n, n)
    # S: both exit components zero, so the base rows of the orthonormal
    # frame @ coeff_s are an orthonormal frame already
    coeff_s = null_space(np.vstack([f_r, fp_r]))
    S = LinearRelation(n, n, np.vstack([f_h @ coeff_s, fp_h @ coeff_s]))
    # T: project both components
    T = make_relation(np.vstack([f_h, fp_h]), n, n)
    return C, S, T


def chain_residuals(tri: BoundaryTriplet, chain) -> dict:
    """Containment residuals of A <= S <= C <= T <= A* for the direct
    compression chain (C, S, T)."""
    C, S, T = chain
    return {
        "A_in_S": containment_residual(tri.seed.A.frame, S.frame),
        "S_in_C": containment_residual(S.frame, C.frame),
        "C_in_T": containment_residual(C.frame, T.frame),
        "T_in_A_star": containment_residual(T.frame, tri.seed.A_star.frame),
    }


def generalized_resolvent_direct(model: ExitSpaceModel, lam: complex) -> np.ndarray:
    """Base-space block of (A~ - lam)^{-1}."""
    n = model.dim_h
    return resolvent(model.a_tilde, lam)[:n, :n]


def compression_via_forbidden(model: ExitSpaceModel) -> LinearRelation:
    """C(A~) computed from the forbidden relation of the model triplet:
    the extension of S with boundary parameter -F_r in the reduced triplet."""
    f_r = forbidden_relation(model.pi_r)
    return extension_of(model.reduced.pi_prime, negate(f_r))


def minimality(model: ExitSpaceModel) -> bool:
    """Whether the base space and its resolvent images R(lam)H, over all
    nonreal lam, span C^{n + dim_r}.

    Write R = (A~ - i)^{-1} in blocks over H (+) H_r.  By the Taylor series
    of the resolvent about i, that span is H (+) span{R22^k R21 : k >= 0};
    the lower half-plane adds nothing, since R is normal and a subspace
    invariant under R is invariant under R(-i) = R*.  So the model is
    minimal iff the Kalman rank of (R22, R21) is dim_r: an orthonormal
    block grows from ran R21 by R22 until it reaches dim_r or stops
    growing.
    """
    n, nr = model.dim_h, model.dim_r
    r = resolvent(model.a_tilde, 1j)
    r21, r22 = r[n:, :n], r[n:, n:]
    block = orth(r21)
    while block.shape[1] < nr:
        grown = orth(np.hstack([block, r22 @ block]))
        if grown.shape[1] == block.shape[1]:
            return False
        block = grown
    return True
