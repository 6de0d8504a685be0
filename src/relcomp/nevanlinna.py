"""Rational relation-valued Nevanlinna parameters and their asymptotics.

A parameter tau(lam) = {{h, tau0(lam) h + k}: h in K-perp, k in K} is a
multivalued part K inside C^d, held as an orthonormal frame, and d x d
coefficients on C^d that vanish on K, with no basis of K-perp: a Hermitian
constant, a positive semidefinite linear coefficient and finitely many
positive semidefinite pole residues at distinct real points:

    tau0(lam) = A + lam * B + sum_j A_j / (alpha_j - lam).

The compression of the exit-space extension is read off tau at i*infinity:
the graph of tau(iy) tends to -tau_c as y grows, with a gap of order 1/y.
``tau_limits`` measures that limit against a given relation by the one
limit rule ``linrel.gap_limit``.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linrel import (
    DEFAULT_TOL,
    LinearRelation,
    _as_complex,
    _cut,
    _points,
    complement,
    gap_limit,
    kernel_split,
    operator_relation,
    orth,
)


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
        """Construct from a dim x k span of K, k >= 0, and coefficients on
        the coordinates of the frame h0 = complement(orth(mul_span)) of
        K-perp, kept as ``op_frame``; each is embedded as h0 m h0^H.  A span
        of another row count, a coefficient that is not p x p, p = dim K-perp,
        a non-finite entry or pole location and a ``tol`` other than
        DEFAULT_TOL, the package's single tolerance, kept for callers that
        pass it, raise ValueError."""
        if tol != DEFAULT_TOL:
            raise ValueError(f"tol must be DEFAULT_TOL ({DEFAULT_TOL}), got {tol}")
        mul = orth(np.zeros((dim, 0)) if mul_span is None else mul_span)
        if mul.shape[0] != dim:
            raise ValueError(f"mul_span has {mul.shape[0]} rows, not {dim}")
        h0 = complement(mul)
        p = h0.shape[1]

        def ambient(m, name):
            m = np.zeros((p, p), dtype=complex) if m is None else _as_complex(m)
            if m.shape != (p, p):
                raise ValueError(f"{name} has shape {m.shape}, not ({p}, {p}) on K-perp")
            return h0 @ m @ h0.conj().T
        poles = tuple((float(alpha), ambient(aj, f"pole {j} residue"))
                      for j, (alpha, aj) in enumerate(poles))
        if not np.all(np.isfinite([alpha for alpha, _ in poles])):
            raise ValueError("non-finite pole location")
        tau = cls(dim=dim, mul_frame=mul, a_coef=ambient(a, "A"),
                  b_coef=ambient(b, "B"), poles=poles)
        h0.setflags(write=False)
        vars(tau)["op_frame"] = h0     # op_frame's cache, so K is complemented once
        return tau

    @property
    def op_dim(self) -> int:
        """Dimension of H0 = K-perp."""
        return self.dim - self.mul_frame.shape[1]

    @cached_property
    def op_frame(self) -> np.ndarray:
        """Read-only orthonormal frame complement(K) of K-perp, built on
        first use and kept with the parameter."""
        frame = complement(self.mul_frame)
        frame.setflags(write=False)
        return frame

    @cached_property
    def spectra(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only descending eigenvalues, (L + 1) x p, and eigenvectors
        h0 v, (L + 1) x d x p, of the Hermitian parts of B, A_1 ... A_L on
        K-perp, h0 = ``op_frame``, from one stacked ``eigh``; row 0 is B.

        Every rank of these coefficients is ``_cut`` of its row, and the
        first ``_cut`` eigenvectors of row 0 span ran B, the others
        ker B in K-perp."""
        h0 = self.op_frame
        c = h0.conj().T @ np.array([self.b_coef, *(aj for _, aj in self.poles)]) @ h0
        w, v = np.linalg.eigh((c + c.conj().transpose(0, 2, 1)) / 2)
        values, vectors = w[:, ::-1], h0 @ v[:, :, ::-1]
        values.setflags(write=False)
        vectors.setflags(write=False)
        return values, vectors

    def tau0(self, lam) -> np.ndarray:
        """Operator part evaluated at lam, as a d x d matrix that vanishes
        on K, or at each point of an array lam, as a stack of them;
        ValueError when a point is real or within 1e-12 of a pole."""
        points = np.asarray(lam).ravel().tolist()
        if any(z.imag == 0 for z in points):
            raise ValueError("tau is evaluated on the real axis")
        at_pole = [z for z in points for alpha, _ in self.poles if abs(z - alpha) < 1e-12]
        if at_pole:
            raise ValueError(f"evaluation at a pole of tau: {at_pole[0]}")
        lam = _points(lam, 2)
        out = self.a_coef + lam * self.b_coef
        for alpha, aj in self.poles:
            out = out + aj / (alpha - lam)
        return out


def eval_tau(tau: RationalNevanlinna, lam) -> LinearRelation:
    """The relation {{h, tau0(lam) h + k}: h in K-perp, k in K} inside C^d,
    the ``operator_relation`` on dom = ``op_frame``, image = tau0(lam) dom
    and mul = K: it has dimension d however large tau0(lam) is, and the
    Hermitian coefficients of tau0 vanish on K.  An array lam gives the
    stack of relations; ``tau0`` rejects a real point or a pole."""
    return operator_relation(tau.op_frame, tau.tau0(lam) @ tau.op_frame, tau.mul_frame)


def validate_tau(tau: RationalNevanlinna) -> list:
    """List of violated structural conditions (empty means valid).

    Each coefficient m must vanish on K, be Hermitian and (except A) be
    PSD up to the relative cut 100 DEFAULT_TOL max(1, max|m|), since the
    rounding of ``build``'s embedding h0 m h0^H grows with |m|; the Gram
    check of the K frame stays absolute.  The PSD test reads the last,
    smallest value of the coefficient's row of ``spectra``, on K-perp; a
    PSD pole term vanishes when ``_cut`` of its row keeps no eigenvalue.
    Non-finite entries and misshapen coefficients are listed alone."""
    scale = 100 * DEFAULT_TOL
    coefs = [tau.a_coef, tau.b_coef, *(aj for _, aj in tau.poles)]
    alphas = [alpha for alpha, _ in tau.poles]
    issues = [f"non-finite {name}" for name, parts in (("mul frame", [tau.mul_frame]),
              ("coefficients", coefs), ("pole locations", [alphas]))
              if not all(np.isfinite(m).all() for m in parts)]
    if any(m.shape != (tau.dim, tau.dim) for m in coefs):
        issues.append("coefficient shape mismatch")
    if issues:
        return issues
    if tau.mul_frame.shape[1]:
        gram = tau.mul_frame.conj().T @ tau.mul_frame
        if np.max(np.abs(gram - np.eye(gram.shape[0]))) > scale:
            issues.append("mul frame not orthonormal")
    stack = np.array(coefs)
    cuts = scale * np.maximum(1.0, np.abs(stack).max(axis=(1, 2), initial=0.0))
    if np.any(np.abs(stack @ tau.mul_frame).max(axis=(1, 2), initial=0.0) > cuts):
        issues.append("coefficients do not vanish on K")
    not_psd = np.abs(stack - stack.conj().transpose(0, 2, 1)).max(axis=(1, 2), initial=0.0) > cuts
    if tau.op_dim:
        not_psd[1:] |= tau.spectra[0][:, -1] < -cuts[1:]
    if not_psd[0]:
        issues.append("A not Hermitian")
    if not_psd[1]:
        issues.append("B not PSD")
    if any(abs(a - b) < 1e-9 for i, a in enumerate(alphas) for b in alphas[:i]):
        issues.append("pole locations not distinct")
    for j, row in enumerate(tau.spectra[0][1:]):
        if not_psd[2 + j]:
            issues.append(f"pole {j}: residue not PSD")
        elif _cut(row) == 0:
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
    """Split K-perp into H'' = ker(Im tau0) and H', the span of ran B and
    every ran A_j (each kept by ``_cut`` of its row of ``spectra``), by one
    ``kernel_split``; compress tau0 to a uniformly strict function on H'."""
    h0 = tau.op_frame
    ranges = np.hstack([v[:, :_cut(w)] for w, v in zip(*tau.spectra)])
    ker, row = kernel_split(ranges.conj().T @ h0)
    hd, hp = h0 @ ker, h0 @ row
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
                             lam) -> LinearRelation:
    """Rebuild tau(lam) from the block decomposition, the
    ``operator_relation`` on dom = [H', H''] with mul = K; pins the sign
    convention of the constant block.  An array lam gives the stack of
    relations."""
    hp, hd = dec.h_prime, dec.h_dprime
    varying = hp @ dec.tau1.tau0(lam) - hd @ dec.b1.conj().T
    image = np.empty(varying.shape[:-1] + (hp.shape[1] + hd.shape[1],), dtype=complex)
    image[..., :hp.shape[1]] = varying
    image[..., hp.shape[1]:] = -hp @ dec.b1 - hd @ dec.b2
    return operator_relation(np.hstack([hp, hd]), image, tau.mul_frame)


def tau_limits(tau: RationalNevanlinna, target: LinearRelation) -> float:
    """Gap limit (``gap_limit``) of the graph of tau(iy) against ``target``
    at i*infinity; it is about 0 when tau(iy) tends to target.

    The first point is y1 = 1e4 max(1, |alpha_j|, |A_j|_F,
    (1 + |A|_F + sum_j |A_j|_F) / s), where s is the smallest eigenvalue
    of B (row 0 of ``spectra``) that ``_cut`` keeps; the last term is left
    out when it keeps none.
    Past those scales the pole terms have reached their 1/y tail and iyB
    dominates the bounded terms on ran B.  The factor 1e4 balances the
    truncation error of the Richardson value, which shrinks like 1/y1^2,
    against its rounding floor, which grows like eps y1 |B|."""
    w = tau.spectra[0][0]
    kept = _cut(w)
    norms = [np.linalg.norm(aj) for _, aj in tau.poles]
    scales = [1.0, *(abs(alpha) for alpha, _ in tau.poles), *norms]
    if kept:
        scales.append((1.0 + np.linalg.norm(tau.a_coef) + sum(norms)) / w[kept - 1])
    return gap_limit(lambda lam: eval_tau(tau, lam), target, 1e4 * max(scales))
