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
        """Construct and check a parameter from a dim x k span of K, k >= 0,
        and coefficients on the coordinates of the frame
        h0 = complement(orth(mul_span)) of K-perp, kept as ``op_frame``; each
        is embedded as h0 m h0^H.  A span of another row count, a
        coefficient that is not p x p, p = dim K-perp, a non-finite entry, a
        pole location that is not a finite real number and a ``tol`` other
        than DEFAULT_TOL, the package's single tolerance, kept for callers
        that pass it, raise ValueError.

        The parameter must then have a Hermitian A, a PSD B and PSD residues
        at distinct poles, with no pole term that vanishes, each embedded m
        up to the relative cut 100 DEFAULT_TOL max(1, max|m|), since the
        embedding's rounding grows with |m|.  The PSD test reads the
        smallest value of m's row of ``spectra``, and a pole term vanishes
        when ``_cut`` of its row keeps none.  One ValueError names every
        violation.  Direct construction checks nothing."""
        if tol != DEFAULT_TOL:
            raise ValueError(f"tol must be DEFAULT_TOL ({DEFAULT_TOL}), got {tol}")
        mul = orth(np.zeros((dim, 0)) if mul_span is None else mul_span)
        if mul.shape[0] != dim:
            raise ValueError(f"mul_span has {mul.shape[0]} rows, not {dim}")
        h0 = complement(mul)
        p = h0.shape[1]

        def location(alpha, j):
            if isinstance(alpha, bool) or not isinstance(
                    alpha, (int, float, np.integer, np.floating)):
                raise ValueError(f"pole {j} location {alpha!r} is not a real number")
            if not np.isfinite(alpha):
                raise ValueError("non-finite pole location")
            return float(alpha)

        def ambient(m, name):
            m = np.zeros((p, p), dtype=complex) if m is None else _as_complex(m)
            if m.shape != (p, p):
                raise ValueError(f"{name} has shape {m.shape}, not ({p}, {p}) on K-perp")
            return h0 @ m @ h0.conj().T
        poles = tuple((location(alpha, j), ambient(aj, f"pole {j} residue"))
                      for j, (alpha, aj) in enumerate(poles))
        tau = cls(dim=dim, mul_frame=mul, a_coef=ambient(a, "A"),
                  b_coef=ambient(b, "B"), poles=poles)
        h0.setflags(write=False)
        vars(tau)["op_frame"] = h0     # op_frame's cache, so K is complemented once

        stack = np.array([tau.a_coef, tau.b_coef, *(aj for _, aj in poles)])
        cuts = 100 * DEFAULT_TOL * np.maximum(1.0, np.abs(stack).max(axis=(1, 2), initial=0.0))
        skew = stack - stack.conj().transpose(0, 2, 1)
        not_psd = np.abs(skew).max(axis=(1, 2), initial=0.0) > cuts
        values = tau.spectra[0]
        if p:
            not_psd[1:] |= values[:, -1] < -cuts[1:]
        issues = [issue for issue, bad in (("A not Hermitian", not_psd[0]),
                                           ("B not PSD", not_psd[1])) if bad]
        alphas = [alpha for alpha, _ in poles]
        if any(abs(x - y) < 1e-9 for i, x in enumerate(alphas) for y in alphas[:i]):
            issues.append("pole locations not distinct")
        for j, row in enumerate(values[1:]):
            if not_psd[2 + j]:
                issues.append(f"pole {j}: residue not PSD")
            elif _cut(row) == 0:
                issues.append(f"pole {j}: pole term vanishes")
        if issues:
            raise ValueError("; ".join(issues))
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


@dataclass(frozen=True)
class TauDecomposition:
    """The split of K-perp into H', where tau0 is uniformly strict, and
    H'', where it is constant.

    h_dprime is an orthonormal frame of H'' = ker B cap ker A_j cap K-perp,
    on which tau0 is the constant A, and h_prime one of H' = C^d minus H''
    and K, on which Im tau0(i) is positive definite.
    """

    h_prime: np.ndarray
    h_dprime: np.ndarray


def decompose_tau(tau: RationalNevanlinna) -> TauDecomposition:
    """Split K-perp into H'' = ker(Im tau0) and H', the span of ran B and
    every ran A_j (each kept by ``_cut`` of its row of ``spectra``), by one
    ``kernel_split``."""
    h0 = tau.op_frame
    ranges = np.hstack([v[:, :_cut(w)] for w, v in zip(*tau.spectra)])
    ker, row = kernel_split(ranges.conj().T @ h0)
    return TauDecomposition(h_prime=h0 @ row, h_dprime=h0 @ ker)


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
