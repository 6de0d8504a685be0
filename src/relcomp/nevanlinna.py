"""Rational relation-valued Nevanlinna parameters and their asymptotics.

A parameter tau(lam) = {{h, tau0(lam) h + k}: h in K-perp, k in K} is a
multivalued part K inside C^d, held as an orthonormal frame, and d x d
coefficients on C^d that vanish on K, with no basis of K-perp: a Hermitian
constant, a positive semidefinite linear coefficient and finitely many
positive semidefinite pole residues at distinct real points:

    tau0(lam) = A + lam * B + sum_j A_j / (alpha_j - lam).

Limits at infinity are computed in closed form; a numeric grid estimate is
kept as a cross-check only.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linrel import (
    DEFAULT_TOL,
    LinearRelation,
    complement,
    make_relation,
    null_space,
    orth,
)

DEFAULT_Y_GRID = (1e2, 1e3, 1e4, 1e5, 1e6)


@dataclass(frozen=True)
class RationalNevanlinna:
    """Rational Nevanlinna parameter with multivalued part: an orthonormal
    frame of K and d x d coefficients on C^d that vanish on K."""

    dim: int
    mul_frame: np.ndarray
    a_coef: np.ndarray
    b_coef: np.ndarray
    poles: tuple = ()

    @classmethod
    def build(cls, dim: int, a=None, b=None, poles=(), mul_span=None,
              tol: float = DEFAULT_TOL) -> "RationalNevanlinna":
        """Construct from coefficients on the coordinates of the frame
        h0 = complement(orth(mul_span), dim) of K-perp; each is embedded as
        h0 m h0^H, and a coefficient that is not p x p, p = dim K-perp,
        raises ValueError.

        ``tol`` stays for callers that pass it explicitly; it must equal
        DEFAULT_TOL, the package's single tolerance, or ValueError is
        raised."""
        if tol != DEFAULT_TOL:
            raise ValueError(f"tol must be DEFAULT_TOL ({DEFAULT_TOL}), got {tol}")
        if mul_span is None:
            mul = np.zeros((dim, 0), dtype=complex)
        else:
            mul = orth(np.asarray(mul_span, dtype=complex).reshape(dim, -1))
        h0 = complement(mul, dim)
        p = h0.shape[1]

        def ambient(m, name):
            m = np.zeros((p, p), dtype=complex) if m is None else np.asarray(m, dtype=complex)
            if m.shape != (p, p):
                raise ValueError(f"{name} has shape {m.shape}, not ({p}, {p}) on K-perp")
            return h0 @ m @ h0.conj().T
        poles = tuple((float(alpha), ambient(aj, f"pole {j} residue"))
                      for j, (alpha, aj) in enumerate(poles))
        return cls(dim=dim, mul_frame=mul, a_coef=ambient(a, "A"),
                   b_coef=ambient(b, "B"), poles=poles)

    @property
    def op_dim(self) -> int:
        """Dimension of H0 = K-perp."""
        return self.dim - self.mul_frame.shape[1]

    def tau0(self, lam: complex) -> np.ndarray:
        """Operator part evaluated at lam, as a d x d matrix that vanishes
        on K."""
        out = self.a_coef + lam * self.b_coef
        for alpha, aj in self.poles:
            out = out + aj / (alpha - lam)
        return out

    def op_kernel(self, *coefs) -> np.ndarray:
        """Orthonormal frame of ker(coefs) inside K-perp; the rows of K^H add
        dim K unit singular values, which leave the cut of ``null_space``
        where the coefficients on K-perp put it."""
        return null_space(np.vstack([*coefs, self.mul_frame.conj().T]))


def eval_tau(tau: RationalNevanlinna, lam: complex) -> LinearRelation:
    """The relation {{h, tau0(lam) h + k}: h in K-perp, k in K} inside C^d,
    spanned by (I - P_K; tau0(lam) + P_K), whose Gram matrix
    I + tau0(lam)^H tau0(lam) leaves the cut of ``orth`` nothing to decide."""
    if lam.imag == 0:
        raise ValueError("tau is evaluated on the real axis")
    if any(abs(lam - alpha) < 1e-12 for alpha, _ in tau.poles):
        raise ValueError(f"evaluation at a pole of tau: {lam}")
    proj_k = tau.mul_frame @ tau.mul_frame.conj().T
    frame = np.vstack([np.eye(tau.dim) - proj_k, tau.tau0(lam) + proj_k])
    return make_relation(frame, tau.dim, tau.dim)


def validate_tau(tau: RationalNevanlinna) -> list:
    """List of violated structural conditions (empty means valid).

    Each coefficient m must vanish on K, be Hermitian and (except A) be
    PSD up to the relative cut 100 DEFAULT_TOL max(1, max|m|), since the
    rounding of ``build``'s embedding h0 m h0^H grows with |m|; the Gram
    check of the K frame stays absolute."""
    issues = []
    d = tau.dim
    scale = 100 * DEFAULT_TOL
    if tau.mul_frame.shape[1]:
        gram = tau.mul_frame.conj().T @ tau.mul_frame
        if np.max(np.abs(gram - np.eye(gram.shape[0]))) > scale:
            issues.append("mul frame not orthonormal")
    coefs = [tau.a_coef, tau.b_coef, *(aj for _, aj in tau.poles)]
    if any(m.shape != (d, d) for m in coefs):
        issues.append("coefficient shape mismatch")
        return issues
    stack = np.array(coefs)
    cuts = scale * np.maximum(1.0, np.abs(stack).max(axis=(1, 2), initial=0.0))
    if np.any(np.abs(stack @ tau.mul_frame).max(axis=(1, 2), initial=0.0) > cuts):
        issues.append("coefficients do not vanish on K")
    stack_h = stack.conj().transpose(0, 2, 1)
    not_psd = np.abs(stack - stack_h).max(axis=(1, 2), initial=0.0) > cuts
    if d:
        low = np.linalg.eigvalsh(stack[1:] + stack_h[1:]).min(axis=1) / 2
        not_psd[1:] |= low < -cuts[1:]
    if not_psd[0]:
        issues.append("A not Hermitian")
    if not_psd[1]:
        issues.append("B not PSD")
    alphas = [alpha for alpha, _ in tau.poles]
    if len(set(alphas)) != len(alphas) or any(abs(a - b) < 1e-9 for i, a in enumerate(alphas) for b in alphas[:i]):
        issues.append("pole locations not distinct")
    for j, (alpha, aj) in enumerate(tau.poles):
        if not_psd[2 + j]:
            issues.append(f"pole {j}: residue not PSD")
        if orth(aj).shape[1] == 0:
            issues.append(f"pole {j}: pole term vanishes")
    return issues


@dataclass(frozen=True)
class TauDecomposition:
    """Uniformly strict core of tau0 plus the constant block on its kernel.

    h_dprime is an orthonormal frame of H'' = ker B cap ker A_j cap K-perp
    and h_prime one of H' = C^d minus H'' and K; tau1 lives on
    h_prime-coordinates.  The constant block of tau0 on H' (+) H'' is
    (tau1, -B1; -B1*, -B2).
    """

    h_prime: np.ndarray
    h_dprime: np.ndarray
    b1: np.ndarray
    b2: np.ndarray
    tau1: RationalNevanlinna


def decompose_tau(tau: RationalNevanlinna) -> TauDecomposition:
    """Split K-perp into ker(Im tau0) and its complement, and compress tau0
    to a uniformly strict function on the complement."""
    hd = tau.op_kernel(tau.b_coef, *(aj for _, aj in tau.poles))
    hp = complement(np.hstack([hd, tau.mul_frame]), tau.dim)
    q = hp.shape[1]
    b1 = -(hp.conj().T @ tau.a_coef @ hd)
    b2 = -(hd.conj().T @ tau.a_coef @ hd)
    tau1 = RationalNevanlinna(
        dim=q,
        mul_frame=np.zeros((q, 0), dtype=complex),
        a_coef=hp.conj().T @ tau.a_coef @ hp,
        b_coef=hp.conj().T @ tau.b_coef @ hp,
        poles=tuple((alpha, hp.conj().T @ aj @ hp) for alpha, aj in tau.poles))
    return TauDecomposition(h_prime=hp, h_dprime=hd, b1=b1, b2=b2, tau1=tau1)


def reassemble_decomposition(tau: RationalNevanlinna, dec: TauDecomposition,
                             lam: complex) -> LinearRelation:
    """Rebuild tau(lam) from the block decomposition; pins the sign
    convention of the constant block."""
    d = tau.dim
    hp, hd = dec.h_prime, dec.h_dprime
    t1 = dec.tau1.tau0(lam)
    cols_p = np.vstack([hp, hp @ t1 - hd @ dec.b1.conj().T])
    cols_d = np.vstack([hd, -hp @ dec.b1 - hd @ dec.b2])
    cols_k = np.vstack([np.zeros_like(tau.mul_frame), tau.mul_frame])
    return make_relation(np.hstack([cols_p, cols_d, cols_k]), d, d)


@dataclass(frozen=True)
class TauLimits:
    """Closed-form limits at i*infinity of a rational parameter, and the
    largest discrepancy of the grid estimate from them."""

    n_dom_frame: np.ndarray
    n_matrix: np.ndarray
    grid_residual: float


def _richardson(values_by_y):
    """Eliminate the O(1/y) term from samples at the two largest grid points."""
    (y1, v1), (y2, v2) = values_by_y[-2:]
    return (y2 * v2 - y1 * v1) / (y2 - y1)


def _growth_estimate(samples):
    """Grid estimate of the linear-growth coefficient B of F from samples
    (y, F(iy)), and whether F(iy)/(iy) agrees at the two largest y."""
    scaled = [(y, m / (1j * y)) for y, m in samples]
    consistent = np.max(np.abs(scaled[-1][1] - scaled[-2][1]), initial=0.0) < 1e-3
    return _richardson(scaled), bool(consistent)


def tau_limits(tau: RationalNevanlinna) -> TauLimits:
    """Linear-growth coefficient and strong limit of tau0 at i*infinity.

    Analytically the coefficient is B, the limit domain is ker B in K-perp
    and the limit acts as A there; grid_residual is the largest entrywise
    gap between these and their Richardson estimates on DEFAULT_Y_GRID.
    """
    ker_b = tau.op_kernel(tau.b_coef)
    n_matrix = tau.a_coef @ ker_b
    samples = [(y, tau.tau0(1j * y)) for y in DEFAULT_Y_GRID]
    b_num, _ = _growth_estimate(samples)
    n_num = _richardson([(y, m @ ker_b) for y, m in samples])
    gap = float(max(np.max(np.abs(b_num - tau.b_coef), initial=0.0),
                    np.max(np.abs(n_num - n_matrix), initial=0.0)))
    return TauLimits(n_dom_frame=ker_b, n_matrix=n_matrix, grid_residual=gap)
