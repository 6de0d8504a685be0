"""Numerical linear relations: subspaces of a direct sum of complex spaces.

A linear relation from C^n0 to C^n1 is stored as an orthonormal column
frame of shape (n0 + n1) x r; the first n0 coordinates of a column are
the "left" vector f, the remaining n1 the "right" vector f', encoding the
pair {f, f'}.  Every ``LinearRelation`` frame must be orthonormal: the
checks below read dimensions, containments and symmetry off the frames
without orthonormalizing them again.  A span that is not orthonormal
enters through ``make_relation``.  Equality is the projector distance
||P1 - P2||, read without forming either 2N x 2N projector: it is 1 when
the dimensions differ, and the one-sided gap ||(I - P2) F1|| when they
agree, so verdicts are gauge-free.

Every inverse the package takes is the matrix R L^{-1} of a relation with
frame (L; R): resolvents, ``as_operator``, the middle term of the Krein
formula, the gamma field and a triplet's boundary lift.
``graph_operator`` computes it, from one LU and with the one inversion
cut; no other routine inverts a matrix.

DEFAULT_TOL is the single tolerance of the package: no relation, triplet
or parameter carries one.  Every rank decision is made by ``_cut``,
with no override: a descending singular value (or eigenvalue) s counts
when s > DEFAULT_TOL * max(s_max, 1).  The cut is relative at and above
unit scale and absolute below it: a span whose largest singular value
is under 1 loses every value up to DEFAULT_TOL, so B = 1e-9 I has rank 0
and ``make_relation(1e-9 * I_4, 2, 2)`` is the zero relation.
``orth``, ``kernel_split`` (whose kernel half is ``null_space``) and
``rank`` apply it to the SVD they take, ``extend`` through the ``orth``
of the part of a span off a frame, and ``psd_factor`` in the exit-space
oracle to the eigenvalues of its ``eigh``.  Every rank of a parameter's
B or A_j in the formula route (the split of tau_c, the coefficient
flags, the exit dimension, the first point of ``tau_limits`` and the
vanishing pole terms of ``validate_tau``) is the cut of that
coefficient's row of
``RationalNevanlinna.spectra``, one stacked ``eigh``.  ``complement``
takes the rank of its orthonormal frame as given.  Spectral norms come from
``eigvalsh`` in ``_norm2``, and the PSD test of ``validate_tau`` reads
smallest eigenvalues; neither decides a rank.  Every equality and
containment verdict and the inversion cut of ``graph_operator`` read
DEFAULT_TOL too; the remaining fixed thresholds (Green identity, pole
distance) are constants or literals where they are used.

A relation-valued function F(iy) tends to a relation at i*infinity when
its gap to it vanishes; ``gap_limit`` is the one rule that measures such
a limit.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

DEFAULT_TOL = 1e-9


class SpectrumError(Exception):
    """A relation, such as (T - lam)^{-1}, is not a bounded everywhere-defined
    single-valued operator."""


def _as_complex(a) -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    if a.size and not np.all(np.isfinite(a)):
        raise ValueError("non-finite entries in matrix")
    return a


def _cut(s: np.ndarray) -> int:
    """Number of the descending values s above DEFAULT_TOL * max(s_max, 1):
    the package's one rank rule."""
    return int(np.count_nonzero(s > DEFAULT_TOL * max(float(s[0]) if s.size else 0.0, 1.0)))


def orth(span) -> np.ndarray:
    """Orthonormal basis of the column span, to the rank of ``_cut``."""
    span = _as_complex(span)
    if span.shape[0] == 0 or span.shape[1] == 0:
        return np.zeros((span.shape[0], 0), dtype=complex)
    u, s, _ = np.linalg.svd(span, full_matrices=False)
    return u[:, :_cut(s)]


def rank(span) -> int:
    """Dimension of the column span by the cut of ``orth``, from the
    singular values alone."""
    span = _as_complex(span)
    if span.shape[0] == 0 or span.shape[1] == 0:
        return 0
    return _cut(np.linalg.svd(span, compute_uv=False))


def complement(frame, dim: int) -> np.ndarray:
    """Orthonormal basis of the orthogonal complement of an orthonormal frame
    inside C^dim."""
    frame = _as_complex(frame)
    if frame.shape[1] == 0:
        return np.eye(dim, dtype=complex)
    u, _, _ = np.linalg.svd(frame, full_matrices=True)
    return u[:, frame.shape[1]:]


def kernel_split(mat) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal bases (ker, row) of ker(mat) and of its orthogonal
    complement, the row space, to the rank of ``_cut``, from one full SVD;
    [ker, row] is unitary."""
    mat = _as_complex(mat)
    cols = mat.shape[1]
    if mat.shape[0] == 0 or cols == 0:
        return np.eye(cols, dtype=complex), np.zeros((cols, 0), dtype=complex)
    _, s, vh = np.linalg.svd(mat, full_matrices=True)
    r = _cut(s)
    return vh[r:].conj().T, vh[:r].conj().T


def null_space(mat) -> np.ndarray:
    """Orthonormal basis of ker(mat)."""
    return kernel_split(mat)[0]


def extend(frame: np.ndarray, span) -> np.ndarray:
    """The orthonormal frame [frame, orth(rest)] of span(frame) + span(span),
    for an orthonormal frame, where rest is span with its projection onto
    frame removed twice: one pass leaves rest off orthogonal to frame by
    the rounding of that projection, which ``orth`` then amplifies by
    1/||rest||."""
    rest = _as_complex(span)
    for _ in range(2):
        rest = rest - frame @ (frame.conj().T @ rest)
    return np.hstack([frame, orth(rest)])


def _norm2(x: np.ndarray) -> float:
    """Spectral norm of x as sqrt(lambda_max(x^H x)), 0 for an empty x."""
    if x.size == 0:
        return 0.0
    return float(np.sqrt(max(np.linalg.eigvalsh(x.conj().T @ x)[-1], 0.0)))


def containment_residual(sub: np.ndarray, sup: np.ndarray) -> float:
    """Spectral norm of (I - P_sup) restricted to the columns of sub, for
    an orthonormal frame sup."""
    return _norm2(sub - sup @ (sup.conj().T @ sub))


@dataclass(frozen=True)
class LinearRelation:
    """A subspace of C^{dim_from} (+) C^{dim_to} with an orthonormal frame."""

    dim_from: int
    dim_to: int
    frame: np.ndarray

    def __post_init__(self):
        if self.frame.shape[0] != self.dim_from + self.dim_to:
            raise ValueError("frame row count does not match ambient dimension")
        self.frame.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.frame.shape[1]

    @property
    def left(self) -> np.ndarray:
        return self.frame[: self.dim_from]

    @property
    def right(self) -> np.ndarray:
        return self.frame[self.dim_from:]


@dataclass(frozen=True)
class PartsReport:
    dom: np.ndarray
    ran: np.ndarray
    ker: np.ndarray
    mul: np.ndarray


def make_relation(raw_span, dim_from: int, dim_to: int) -> LinearRelation:
    """Orthonormalize a raw span matrix into a LinearRelation."""
    raw_span = _as_complex(raw_span)
    if raw_span.ndim != 2 or raw_span.shape[0] != dim_from + dim_to:
        raise ValueError("span must be (dim_from + dim_to) x s")
    return LinearRelation(dim_from, dim_to, orth(raw_span))


def zero_relation(n: int) -> LinearRelation:
    """The relation {{0, 0}} in C^n."""
    return LinearRelation(n, n, np.zeros((2 * n, 0), dtype=complex))


def full_relation(n: int) -> LinearRelation:
    """All of C^n (+) C^n."""
    return LinearRelation(n, n, np.eye(2 * n, dtype=complex))


def vertical_relation(n: int) -> LinearRelation:
    """{0} (+) C^n, the purely multivalued self-adjoint relation."""
    frame = np.zeros((2 * n, n), dtype=complex)
    frame[n:, :] = np.eye(n)
    return LinearRelation(n, n, frame)


def graph_of(matrix) -> LinearRelation:
    """Graph of an everywhere-defined operator C^{cols} -> C^{rows}."""
    matrix = _as_complex(matrix)
    n_to, n_from = matrix.shape
    span = np.vstack([np.eye(n_from, dtype=complex), matrix])
    return make_relation(span, n_from, n_to)


def parts(T: LinearRelation) -> PartsReport:
    """Domain, range, kernel and multivalued part of a relation."""
    dom = orth(T.left)
    ran = orth(T.right)
    ker = orth(T.left @ null_space(T.right))
    mul = orth(T.right @ null_space(T.left))
    return PartsReport(dom=dom, ran=ran, ker=ker, mul=mul)


def adjoint(T: LinearRelation) -> LinearRelation:
    """Adjoint relation T* = (J T)^perp with J{f, f'} = {f', -f}."""
    flipped = np.vstack([T.right, -T.left])
    comp = complement(orth(flipped), T.dim_from + T.dim_to)
    return LinearRelation(T.dim_to, T.dim_from, comp)


def inverse(T: LinearRelation) -> LinearRelation:
    """Inverse relation: swap the pair components."""
    return LinearRelation(T.dim_to, T.dim_from, np.vstack([T.right, T.left]))


def negate(T: LinearRelation) -> LinearRelation:
    """The relation {{f, -f'}: {f, f'} in T}."""
    return LinearRelation(T.dim_from, T.dim_to, np.vstack([T.left, -T.right]))


def _check_ambient(T1: LinearRelation, T2: LinearRelation) -> None:
    if (T1.dim_from, T1.dim_to) != (T2.dim_from, T2.dim_to):
        raise ValueError("ambient dimension mismatch")


def comp_sum(T1: LinearRelation, T2: LinearRelation) -> LinearRelation:
    """Componentwise sum: span of the union of the two subspaces."""
    _check_ambient(T1, T2)
    return make_relation(np.hstack([T1.frame, T2.frame]), T1.dim_from, T1.dim_to)


def intersect(T1: LinearRelation, T2: LinearRelation) -> LinearRelation:
    """Intersection via orthogonal complements."""
    _check_ambient(T1, T2)
    dim = T1.dim_from + T1.dim_to
    c1 = complement(T1.frame, dim)
    c2 = complement(T2.frame, dim)
    comp = complement(orth(np.hstack([c1, c2])), dim)
    return LinearRelation(T1.dim_from, T1.dim_to, comp)


def relations_equal(T1: LinearRelation, T2: LinearRelation):
    """Equality by the gap ||P1 - P2||; returns (equal, residual).

    The gap is 1 when the dimensions differ.  When they agree, the two
    one-sided gaps ||(I - P2) P1|| and ||(I - P1) P2|| are equal (Kato), so
    one containment residual is the gap.
    """
    _check_ambient(T1, T2)
    if T1.dim != T2.dim:
        return False, 1.0
    resid = containment_residual(T1.frame, T2.frame)
    return resid < DEFAULT_TOL, resid


def gap_limit(relation_at: Callable[[complex], LinearRelation],
              target: LinearRelation, y1: float) -> float:
    """Richardson value |y2 g(y2) - y1 g(y1)| / (y2 - y1), y2 = 10 y1, of
    the gap g(y) = ``relations_equal(relation_at(iy), target)[1]``.

    When the relation tends to target with a gap c/y + O(1/y^2), this is
    O(1/y1^2); when it tends elsewhere, or has another dimension, it stays
    of the size of the gap."""
    y2 = 10.0 * y1
    g1, g2 = (relations_equal(relation_at(1j * y), target)[1] for y in (y1, y2))
    return abs(y2 * g2 - y1 * g1) / (y2 - y1)


def contains(big: LinearRelation, small: LinearRelation) -> bool:
    """small subseteq big within tolerance."""
    _check_ambient(big, small)
    return containment_residual(small.frame, big.frame) < DEFAULT_TOL


def classify_symmetry(T: LinearRelation) -> str:
    """One of 'not_symmetric', 'symmetric', 'self_adjoint'.

    T* is the orthogonal complement of J T, and J F = (R; -L) is
    orthonormal, so the containment residual of T in T* is the Green form
    ||R^H L - L^H R||.  A symmetric T is self-adjoint iff dim T = n, since
    dim T* = 2n - dim T.
    """
    if T.dim_from != T.dim_to:
        raise ValueError("symmetry is defined for relations in a single space")
    green = T.right.conj().T @ T.left - T.left.conj().T @ T.right
    if _norm2(green) >= DEFAULT_TOL:
        return "not_symmetric"
    return "self_adjoint" if T.dim == T.dim_from else "symmetric"


def graph_operator(left, right) -> np.ndarray:
    """Matrix right @ left^{-1} of the relation with frame (left; right);
    SpectrumError unless that relation is a bounded everywhere-defined
    operator.

    left^{-1} comes from one LU factorization.  left is rejected when it is
    not square, when LU finds it exactly singular, or when
    ||left^{-1}||_F * DEFAULT_TOL * sqrt(||left||_F^2 + 1) is not below 1,
    a NaN or inf included.  ||left^{-1}||_F >= 1/s_min and ||left||_F >=
    s_max, so this cut rejects every left with
    s_min <= DEFAULT_TOL * sqrt(s_max^2 + 1) and is never looser than that
    SVD cut.  The ``+ 1`` makes the cut absolute below unit scale.
    """
    try:
        left_inv = np.linalg.inv(left)
    except np.linalg.LinAlgError as exc:
        raise SpectrumError("left half of the frame is not invertible") from exc
    bound = np.linalg.norm(left_inv) * DEFAULT_TOL * np.sqrt(np.linalg.norm(left) ** 2 + 1.0)
    if not bound < 1.0:
        raise SpectrumError("left half of the frame is numerically singular")
    return right @ left_inv


def as_operator(T: LinearRelation) -> np.ndarray:
    """Matrix of T if it is an everywhere-defined single-valued operator.

    Raises SpectrumError otherwise.
    """
    return graph_operator(T.left, T.right)


def resolvent(T: LinearRelation, lam: complex) -> np.ndarray:
    """Matrix of (T - lam)^{-1} = {{f' - lam f, f}} when it is an
    everywhere-defined operator; SpectrumError otherwise.

    With L, R the left and right halves of T's frame, the inverse is the
    graph operator L (R - lam L)^{-1}, so lam is rejected by the cut of
    ``graph_operator`` on R - lam L.
    """
    if T.dim_from != T.dim_to:
        raise ValueError("resolvent is defined for relations in a single space")
    return graph_operator(T.right - lam * T.left, T.left)
