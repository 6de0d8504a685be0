"""Explicit exit-space models: brute-force oracle for compressions.

A rational parameter tau = {{h, tau0(lam) h + k}: h in K-perp, k in K}
factors as tau0(lam) = A + G^H M_r(lam) G: G stacks the ``psd_factor``s
of B and of each A_j, and M_r(lam) = diag(lam I, (alpha_j - lam)^{-1} I)
is the Weyl function of block model maps (Gamma0^r, Gamma1^r) on the trivial
seed {{0, 0}} in C^{n_r}.  Coupling those maps to the given triplet gives
the self-adjoint relation

    A~ = {f-hat (+) f-hat_r: f-hat in A*, h = Gamma0 f-hat in K-perp,
          G h = Gamma0^r f-hat_r, Gamma1 f-hat + A h + G^H Gamma1^r f-hat_r in K}

in C^{n + n_r}.  Gamma vanishes on A, so A~ contains A with zero exit
rows, and its frame is A's frame beside one null space of the coupling
conditions on A* (-) A (+) C^{2n_r}, whose size reads no dimension of A.
Building A~ reads only Gamma0, Gamma1, A*, tau's coefficients and K: no
boundary lift, extension, Weyl function or ``spectra`` of the formula
route that it cross-validates, and the module imports nothing of that
route: only the BoundaryTriplet class from ``triplet`` and nothing from
``extension``.
Compressions and generalized resolvents of A~ are then computed directly
by subspace algebra; each compression is A's frame beside its part off A,
read off the exit rows of the null space alone.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linrel import (
    LinearRelation,
    _cut,
    classify_symmetry,
    complement,
    extend,
    graph_operator,
    kernel_split,
    null_space,
    orth,
)
from .nevanlinna import RationalNevanlinna
from .triplet import BoundaryTriplet


class ModelError(RuntimeError):
    """An internal consistency check of the oracle construction failed."""


def psd_factor(stack: np.ndarray) -> list:
    """Surjective factors D with m = D^H D, one per matrix m of the stack,
    from one stacked ``eigh``: each on the eigenvalues of its own row that
    ``_cut`` keeps, rows = rank(m), in the ascending order of ``eigh``."""
    w, v = np.linalg.eigh((stack + stack.conj().swapaxes(-1, -2)) / 2)
    factors = []
    for wk, vk in zip(w, v):
        keep = slice(len(wk) - _cut(wk[::-1]), None)
        factors.append((np.sqrt(wk[keep])[:, None] * vk[:, keep].conj().T).astype(complex))
    return factors


def model_maps(tau: RationalNevanlinna) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(G, Gamma0^r, Gamma1^r): the n_r x d stack G of the ``psd_factor``s
    of B and of each A_j, and n_r x 2n_r block boundary maps on ambient pairs
    (f_r, f_r') of C^{n_r}.

    A row of B's block maps (f, f') to (f, f'), a row of pole j's block to
    (f' - alpha_j f, -f).  On the trivial seed the defect space at lam is
    {f' = lam f}, so their Weyl function is M_r(lam) =
    diag(lam I, (alpha_j - lam)^{-1} I) and A + G^H M_r(lam) G = tau0(lam).
    """
    facs = psd_factor(np.array([tau.b_coef, *(aj for _, aj in tau.poles)]))
    sizes = [f.shape[0] for f in facs]
    b = np.repeat([1.0] + [0.0] * len(tau.poles), sizes)     # 1 on B's rows
    alpha = np.repeat([0.0, *(alpha for alpha, _ in tau.poles)], sizes)
    g0 = np.hstack([np.diag(b - alpha), np.diag(1 - b)])
    g1 = np.hstack([np.diag(b - 1), np.diag(b)])
    return np.vstack(facs), g0, g1


@dataclass(frozen=True)
class ExitSpaceModel:
    """Self-adjoint A~ in C^{dim_h + dim_r}, base-space coordinates first
    in both pair components; dim_r is the exit dimension n_r.  The first
    dim_a columns of A~'s frame are A's frame (``build_exit_space``), and
    their exit rows must be zero: ValueError if not, so a frame replaced
    without its count is refused.  A model built by hand declares none."""

    dim_h: int
    dim_r: int
    a_tilde: LinearRelation
    dim_a: int = 0

    def __post_init__(self):
        n, nr, a = self.dim_h, self.dim_r, self.a_tilde.frame[:, :self.dim_a]
        if np.any(a[n:n + nr]) or np.any(a[2 * n + nr:]):
            raise ValueError(f"the first {self.dim_a} columns of the frame of A~ "
                             "are declared A's, but have nonzero exit rows")


def build_exit_space(tri: BoundaryTriplet, tau: RationalNevanlinna) -> ExitSpaceModel:
    """A~ as A's frame beside one null space of the d + n_r coupling
    conditions on (c, f-hat_r), f-hat = W c for the columns
    W = [N-hat_i, N-hat_{-i}] of A*'s frame after A's, where the conditions
    read Gamma: K^H Gamma0 f-hat = 0,
    h0^H (Gamma1 f-hat + A Gamma0 f-hat + G^H Gamma1^r f-hat_r) = 0 for the
    frame h0 = complement(K) of K-perp, and G Gamma0 f-hat = Gamma0^r f-hat_r.
    Gamma vanishes on A, so A, with zero exit rows, satisfies them all, and
    the null space is of a (d + n_r) x (2d + 2n_r) matrix.  A*'s frame and
    the null space are orthonormal and W is orthogonal to A, so the frame
    of A~ is too.

    ModelError unless A~ has dimension n + n_r and is self-adjoint."""
    n, d = tri.space_dim, tau.dim
    G, g0_r, g1_r = model_maps(tau)
    nr = G.shape[0]
    mul = tau.mul_frame
    h0 = complement(mul)
    k = mul.shape[1]
    p = tri.seed.A.dim
    a_star = tri.seed.A_star.frame
    w = a_star[:, p:]
    g0, g1 = tri.gamma0 @ w, tri.gamma1 @ w
    m = w.shape[1]
    rows = np.zeros((d + nr, m + 2 * nr), dtype=complex)
    rows[:k, :m] = mul.conj().T @ g0
    rows[k:d, :m] = h0.conj().T @ (g1 + tau.a_coef @ g0)
    rows[k:d, m:] = h0.conj().T @ (G.conj().T @ g1_r)
    rows[d:, :m] = G @ g0
    rows[d:, m:] = -g0_r
    coeff = null_space(rows)
    if p + coeff.shape[1] != n + nr:
        raise ModelError(f"coupled relation has dimension {p + coeff.shape[1]}, "
                         f"not n + n_r = {n + nr}")
    base, exit_ = w @ coeff[:m], coeff[m:]
    # pair components (f, f') and (f_r, f_r') in the order (f, f_r, f', f_r'),
    # A's columns first
    frame = np.zeros((2 * (n + nr), n + nr), dtype=complex)
    frame[:n, :p], frame[n + nr:2 * n + nr, :p] = a_star[:n, :p], a_star[n:, :p]
    frame[:n, p:], frame[n:n + nr, p:] = base[:n], exit_[:nr]
    frame[n + nr:2 * n + nr, p:], frame[2 * n + nr:, p:] = base[n:], exit_[nr:]
    a_tilde = LinearRelation(frame)
    if classify_symmetry(a_tilde) != "self_adjoint":
        raise ModelError("coupled relation is not self-adjoint")
    return ExitSpaceModel(dim_h=n, dim_r=nr, a_tilde=a_tilde, dim_a=p)


def direct_compression(model: ExitSpaceModel):
    """Compression chain S <= C <= T of A~ to the base space, returned as
    (C, S, T): S = A~ restricted to pairs entirely in H, C additionally
    projecting the second component, T projecting both components.

    A~'s first dim_a columns are A's frame with zero exit rows, so each set
    is A's frame beside its part off A, read off the other columns alone.
    With base their H rows and f_r, f_r' their exit rows, the parts off A
    of C and T are base times ker f_r and times everything, and S's is
    base times ker f_r cap ker f_r', an orthonormal frame already.  Two
    ``kernel_split``s, of f_r and of f_r' on ker f_r, split the
    coefficients into unitary blocks, so each set is the one before it
    ``extend``ed by the base image of the coefficients it adds, and no SVD
    reads a dimension of A: the splits are at most d + n_r wide and each
    ``extend`` adds at most n_r columns.  The frames are nested, so
    S <= C <= T holds exactly and verify checks no link of the chain: it
    checks each set against its formula, A_theta0, A_tau_c and A_theta_T,
    on the parts off A, and A <= A_theta <= A* for every theta gives
    A <= S and T <= A*."""
    n, nr, p = model.dim_h, model.dim_r, model.dim_a
    frame = model.a_tilde.frame
    f_r, fp_r = frame[n:n + nr, p:], frame[2 * n + nr:, p:]
    base = np.vstack([frame[:n, p:], frame[n + nr:2 * n + nr, p:]])
    to_c, rest_t = kernel_split(f_r)
    to_s, rest_c = kernel_split(fp_r @ to_c)
    base_c = base @ to_c
    s = np.empty((2 * n, p + to_s.shape[1]), dtype=complex)
    s[:n, :p], s[n:, :p] = frame[:n, :p], frame[n + nr:2 * n + nr, :p]
    s[:, p:] = base_c @ to_s
    S = LinearRelation(s)
    C = LinearRelation(extend(S.frame, base_c @ rest_c))
    T = LinearRelation(extend(C.frame, base @ rest_t))
    return C, S, T


def generalized_resolvent_direct(model: ExitSpaceModel, lam: complex) -> np.ndarray:
    """Base-space block of (A~ - lam)^{-1}: with L, R the halves of A~'s
    frame, the resolvent is L (R - lam L)^{-1} (``resolvent``), so the
    block is the graph operator of (R - lam L; L[:n]) on its first n
    columns, from the same LU and with the same cut."""
    n = model.dim_h
    A_tilde = model.a_tilde
    return graph_operator(A_tilde.right - lam * A_tilde.left, A_tilde.left[:n])[:, :n]


def minimality(model: ExitSpaceModel) -> bool:
    """Whether the base space and its resolvent images R(lam)H, over all
    nonreal lam, span C^{n + dim_r}.

    Write R = (A~ - i)^{-1} in blocks over H (+) H_r.  By the Taylor series
    of the resolvent about i, that span is H (+) span{R22^k R21 : k >= 0};
    the lower half-plane adds nothing, since R is normal and a subspace
    invariant under R is invariant under R(-i) = R*.  So the model is
    minimal iff the Kalman rank of (R22, R21) is dim_r: an orthonormal
    block grows from ran R21 by R22 until it reaches dim_r or stops
    growing.  Each step ``extend``s the block by R22 times only the columns
    the step before added, since R22 maps the older ones into the block.

    With L~, R~ the halves of A~'s frame, R = L~ X^{-1} for the square
    X = R~ - i L~ (``resolvent``), and X^H X = I - i G for the Green form
    G = R~^H L~ - L~^H R~, so X is unitary when A~ is self-adjoint.  The
    exit rows [R21, R22] of R are therefore read as L~[n:] X^H, with no LU:
    X^{-1} = (I - i G)^{-1} X^H, so the two differ by at most
    ||G|| / (1 - ||G||) times ||X|| <= (1 + ||G||)^(1/2), and
    ``build_exit_space`` has already rejected an A~ with ||G|| of
    DEFAULT_TOL or more.
    """
    n, nr = model.dim_h, model.dim_r
    A_tilde = model.a_tilde
    r = A_tilde.left[n:] @ (A_tilde.right - 1j * A_tilde.left).conj().T
    r21, r22 = r[:, :n], r[:, n:]
    block = orth(r21)
    added = block
    while block.shape[1] < nr:
        grown = extend(block, r22 @ added)
        if grown.shape[1] == block.shape[1]:
            return False
        block, added = grown, grown[:, block.shape[1]:]
    return True
