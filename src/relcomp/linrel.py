"""Numerical linear relations: subspaces of C^n (+) C^n.

A linear relation in C^n is stored as an orthonormal column frame of
shape 2n x r, and n is read off its row count; the first n coordinates
of a column are the "left" vector f, the remaining n the "right" vector
f', encoding the pair {f, f'}.  Every ``LinearRelation`` frame must be
orthonormal: the checks below read dimensions, containments and
symmetry off the frames without orthonormalizing them again.  A span whose dimension is known
enters through ``operator_relation``, with no cut; any other span through
``make_relation``.  Equality is the projector distance ||P1 - P2||, read
without forming either 2N x 2N projector: it is 1 when the dimensions
differ, and the one-sided gap ||(I - P2) F1|| when they agree, so
verdicts are gauge-free.  A relation A <= X <= A* of a symmetric A is
held as A (+) W Y, by its coordinates Y on the frame W of A* (-) A
(``OrthogonalSum``), whose frame is assembled only where it is read.

Every inverse the package takes is the matrix R L^{-1} of a relation with
frame (L; R): resolvents, the middle term of the Krein formula, the
gamma field, a triplet's boundary lift (Gamma W)^{-1}, of the frame
(Gamma W; I), and the rotated relation of ``diagonalize``.
``graph_operator`` computes it, from one LU and with the one inversion
cut, ``_inversion_cut``; no other routine inverts a matrix.  The
oracle's ``minimality`` reads (A~ - i)^{-1} with none, since R - iL is
unitary for the frame (L; R) of a self-adjoint A~ and its inverse is its
adjoint.  The Krein resolvent reads A0's resolvent off the frame
(U diag(c); U diag(s)) of ``diagonalize``, where R - lam L is
U diag(s - lam c) and needs no LU, and cuts lam by ``_inversion_cut``
too.

A relation-valued function sampled at m points is one ``LinearRelation``
whose frame stacks the m frames on a leading axis, and the formula route
evaluates the points of a check as one such stack, with one point as
the 0-d case of the same code: ``operator_relation``, ``graph_of``,
``negate``, ``graph_operator`` (its cut applied to each matrix),
``resolvent``, and ``containment_residual``, ``_norm2`` and
``relations_equal`` (one residual per point) broadcast over it, as do
``tau0``, ``eval_tau`` (which rejects a real point or a pole anywhere in
the stack) in ``nevanlinna``, ``extension_of`` and ``gamma_and_weyl`` in
``triplet`` and ``krein_resolvent`` in ``extension``, and ``gap_limit``
reads the points of its grid as one stack.  What decides a rank
(``orth``, ``kernel_split``, ``diagonalize``, ``classify_symmetry``) takes
one matrix and raises ValueError on a stack, and no stack needs one per
point: ``gamma_and_weyl`` reads M(lam) at every point off A0's one
``diagonalize``.  One reader stays per point: the oracle's
``generalized_resolvent_direct`` takes one LU of the (n + n_r)-square
frame of A~ per point.  Stacked, those matrices raised the peak memory
of a verify at n = 96 with no gain in speed, and a loop of its own keeps
it visibly apart from the formula route.

DEFAULT_TOL is the single tolerance of the package: no relation, triplet
or parameter carries one.  Every rank decision is made by ``_cut``,
with no override: a descending singular value (or eigenvalue) s counts
when s > DEFAULT_TOL * max(s_max, 1).  The cut is relative at and above
unit scale and absolute below it: a span whose largest singular value
is under 1 loses every value up to DEFAULT_TOL, so B = 1e-9 I has rank 0
and ``make_relation(1e-9 * I_4, 2)`` is the zero relation.
Only ``orth`` and ``kernel_split`` take an SVD, and each cuts it with
``_cut``; a dimension is the column count of an ``orth``.  Every kernel
is read off ``kernel_split``: ``null_space`` is its kernel half,
``complement(F)`` the kernel of F^H and ``intersect`` one
``null_space``.  ``extend`` applies the cut through the ``orth`` of the
part of a span off a frame, and ``psd_factor`` in the exit-space oracle
to each row of eigenvalues of its one stacked ``eigh``; the ``eigvalsh``
and ``eigh`` of ``diagonalize`` decide no rank.  Every rank of a
parameter's B or A_j in the formula route (the split of tau_c, H'' of
``decompose_tau``, the coefficient flags, the exit dimension and the
vanishing pole terms that ``RationalNevanlinna.build`` rejects) is the
cut of that coefficient's row of ``RationalNevanlinna.spectra``, one
stacked ``eigh``, whose smallest values the PSD test of ``build`` reads.
``kernel_split`` needs every right singular vector: a wide matrix is
factored as its tall adjoint, whose full U holds them, since LAPACK's
full SVD is about twice as fast in that orientation and the singular
values, so the cut, are the same; any other matrix is factored as it is,
with its thin U.  Spectral norms come from ``eigvalsh`` of the Gram
matrix on the smaller side in ``_norm2`` and decide no rank.
``containment_residual`` is the one containment routine.  A verdict that
reports no residual (``classify_symmetry``, the subset flag of C against
A0, the unitarity of V) asks ``_norm_below``, which reads ||x||_2 < b off
the bracket ||x||_F / sqrt(min(rows, cols)) <= ||x||_2 <= ||x||_F and takes
``_norm2`` only when b lies inside it.  Green forms R^H L - L^H R come
from the one product X = R^H L as X - X^H (``_green_form``).  Every
equality and containment verdict and the inversion cut of
``graph_operator`` read DEFAULT_TOL too; the remaining fixed thresholds
(Green identity, pole distance, settled gap) are constants or literals
where they are used.

A relation-valued function F(iy) tends to a relation at i*infinity when
its gap to it vanishes; ``gap_limit`` is the one rule that measures such
a limit, on one grid y = 10^0 ... 10^16 that no caller sets and that
holds the tail of the gap at any scale of the input.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

DEFAULT_TOL = 1e-9


class SpectrumError(Exception):
    """A relation, such as (T - lam)^{-1}, is not a bounded everywhere-defined
    single-valued operator."""


def _as_complex(a) -> np.ndarray:
    """a as a complex array; ValueError on a NaN or inf entry, the package's
    one finiteness rule for the matrices it reads from its callers."""
    a = np.asarray(a, dtype=complex)
    if a.size and not np.all(np.isfinite(a)):
        raise ValueError("non-finite entries in matrix")
    return a


def _points(lam, axes: int):
    """lam as an array that broadcasts over a stack with one entry per
    point, each entry with ``axes`` axes of its own: an array of points
    gains ``axes`` trailing axes of length 1, and one point is a numpy
    scalar, whose arithmetic costs what a Python number's does."""
    lam = np.asarray(lam)
    return lam.reshape(lam.shape + (1,) * axes) if lam.ndim else lam[()]


def _fro(x: np.ndarray, axes: int):
    """2-norm of each block of x over its last ``axes`` axes, the Frobenius
    norm of each matrix for axes = 2: each block as one row of reals r, and
    r r^T from one BLAS product per block.  As in ``np.linalg.norm``, an
    inf or NaN entry gives an inf or NaN norm with no floating-point
    warning, for the cut that reads it."""
    row = np.ascontiguousarray(x).reshape(x.shape[:x.ndim - axes] + (1, -1)).view(float)
    return np.sqrt((row @ row.swapaxes(-1, -2))[..., 0, 0])


def _cut(s: np.ndarray) -> int:
    """Number of the descending values s above DEFAULT_TOL * max(s_max, 1):
    the package's one rank rule."""
    return int(np.count_nonzero(s > DEFAULT_TOL * max(float(s[0]) if s.size else 0.0, 1.0)))


def _unstacked(a: np.ndarray) -> np.ndarray:
    """a itself when it is one matrix; ValueError for any other shape.  A
    rank is decided on one matrix: the SVD of a stack of them would be cut
    as if it were one."""
    if a.ndim != 2:
        raise ValueError(f"a rank is decided on one matrix, not on shape {a.shape}")
    return a


def orth(span) -> np.ndarray:
    """Orthonormal basis of the column span, to the rank of ``_cut``."""
    span = _unstacked(_as_complex(span))
    if span.shape[0] == 0 or span.shape[1] == 0:
        return np.zeros((span.shape[0], 0), dtype=complex)
    u, s, _ = np.linalg.svd(span, full_matrices=False)
    return u[:, :_cut(s)]


def kernel_split(mat) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal bases (ker, row) of ker(mat) and of its complement, the
    row space, to the rank of ``_cut``, from one SVD that yields every right
    singular vector; [ker, row] is unitary, by descending singular value.  A
    wide mat is factored as mat^H, whose full U holds them (the module
    docstring says why); any other mat needs only its thin SVD."""
    mat = _unstacked(_as_complex(mat))
    rows, cols = mat.shape
    if rows == 0 or cols == 0:
        return np.eye(cols, dtype=complex), np.zeros((cols, 0), dtype=complex)
    if rows < cols:
        v, s, _ = np.linalg.svd(mat.conj().T, full_matrices=True)
    else:
        _, s, vh = np.linalg.svd(mat, full_matrices=False)
        v = vh.conj().T
    r = _cut(s)
    return v[:, r:], v[:, :r]


def null_space(mat) -> np.ndarray:
    """Orthonormal basis of ker(mat)."""
    return kernel_split(mat)[0]


def complement(frame) -> np.ndarray:
    """Orthonormal basis of the orthogonal complement of an orthonormal
    frame, the kernel of frame^H; the identity for a frame of no columns."""
    return kernel_split(np.conj(frame).T)[0]


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


def _norm2(x: np.ndarray):
    """Spectral norm of x as the square root of the largest eigenvalue of
    its Gram matrix on the smaller side, x x^H or x^H x; 0 for an empty x.
    A float for a matrix x, and for a stack of matrices the array of
    their norms, from one stacked ``eigvalsh``."""
    if x.size == 0:
        norms = np.zeros(x.shape[:-2])
    else:
        x_adj = x.conj().swapaxes(-1, -2)
        gram = x @ x_adj if x.shape[-2] < x.shape[-1] else x_adj @ x
        norms = np.sqrt(np.maximum(np.linalg.eigvalsh(gram)[..., -1], 0.0))
    return norms if norms.ndim else float(norms)


def _norm_below(x: np.ndarray, bound: float) -> bool:
    """Whether ||x||_2 < bound, for a verdict that reports no residual.

    ||x||_F / sqrt(min(rows, cols)) <= ||x||_2 <= ||x||_F, so the Frobenius
    norm settles the verdict unless bound lies inside that bracket; only
    then is ``_norm2`` taken, so the verdict is that of ``_norm2``."""
    if x.size == 0:
        return bound > 0.0
    fro = float(np.linalg.norm(x))
    if fro < bound:
        return True
    if fro > bound * np.sqrt(min(x.shape)):
        return False
    return _norm2(x) < bound


def _green_form(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Green form R^H L - L^H R of the columns of the frame (L; R), from
    the one product X = R^H L as X - X^H."""
    x = right.conj().T @ left
    return x - x.conj().T


def containment_residual(sub: np.ndarray, sup: np.ndarray):
    """Spectral norm of (I - P_sup) restricted to the columns of sub, for
    an orthonormal frame sup; one per matrix of stacked frames."""
    off = sup @ (sup.conj().swapaxes(-1, -2) @ sub)
    return _norm2(np.subtract(sub, off, out=off))


@dataclass(frozen=True)
class LinearRelation:
    """A subspace of C^n (+) C^n with an orthonormal frame of 2n rows, or
    a relation-valued function sampled at m points, whose frame stacks
    the m frames of one dimension on a leading axis; n is set from it."""

    frame: np.ndarray
    n: int = field(init=False)

    def __post_init__(self):
        rows = self.frame.shape[-2]
        if rows % 2:
            raise ValueError(f"frame row count {rows} is odd, not 2n")
        object.__setattr__(self, "n", rows // 2)
        self.frame.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.frame.shape[-1]

    @property
    def left(self) -> np.ndarray:
        return self.frame[..., :self.n, :]

    @property
    def right(self) -> np.ndarray:
        return self.frame[..., self.n:, :]


@dataclass(frozen=True)
class OrthogonalSum:
    """The relation a (+) span(w coords) for an orthonormal frame w
    orthogonal to a's and orthonormal coordinates coords on w, or the
    stack of such relations for a stack of coordinates.  It is read as a
    ``LinearRelation`` (frame, left, right, n, dim), and its frame
    [a, w coords] is assembled, read-only, on first read, so a reader of
    coords alone never forms it.  Each relation A <= X <= A* is held so,
    with w the frame W = [N-hat_i, N-hat_{-i}] of A* (-) A."""

    a: LinearRelation
    w: np.ndarray
    coords: np.ndarray

    @property
    def n(self) -> int:
        return self.a.n

    @property
    def dim(self) -> int:
        return self.a.dim + self.coords.shape[-1]

    @cached_property
    def frame(self) -> np.ndarray:
        a = self.a.frame
        frame = np.empty(self.coords.shape[:-2] + (a.shape[0], self.dim), dtype=complex)
        frame[..., :a.shape[1]] = a
        frame[..., a.shape[1]:] = self.w @ self.coords
        frame.setflags(write=False)
        return frame

    @property
    def left(self) -> np.ndarray:
        return self.frame[..., :self.n, :]

    @property
    def right(self) -> np.ndarray:
        return self.frame[..., self.n:, :]


@dataclass(frozen=True)
class PartsReport:
    dom: np.ndarray
    ran: np.ndarray
    ker: np.ndarray
    mul: np.ndarray


def make_relation(raw_span, n: int) -> LinearRelation:
    """Orthonormalize a raw 2n x s span matrix into a relation in C^n."""
    raw_span = _as_complex(raw_span)
    if raw_span.ndim != 2 or raw_span.shape[0] != 2 * n:
        raise ValueError("span must be 2n x s")
    return LinearRelation(orth(raw_span))


def zero_relation(n: int) -> LinearRelation:
    """The relation {{0, 0}} in C^n."""
    return LinearRelation(np.zeros((2 * n, 0), dtype=complex))


def vertical_relation(n: int) -> LinearRelation:
    """{0} (+) C^n, the purely multivalued self-adjoint relation."""
    frame = np.zeros((2 * n, n), dtype=complex)
    frame[n:, :] = np.eye(n)
    return LinearRelation(frame)


def operator_relation(dom, image, mul=None) -> LinearRelation:
    """{{h, Xh}: h in span dom} + {0} (+) span mul, for an orthonormal dom,
    image = X dom and an orthonormal mul (none if None) with mul^H image = 0.
    Its frame [QR(dom; image), (0; mul)] decides no rank: the singular
    values of (dom; image) are all at least 1.  n is the row count of dom.
    A stack of images gives the stack of relations, from one stacked QR; a
    dom of no columns needs none."""
    (n, r), m = dom.shape, 0 if mul is None else mul.shape[1]
    frame = np.zeros(image.shape[:-2] + (2 * n, r + m), dtype=complex)
    frame[..., :n, :r] = dom
    frame[..., n:, :r] = image
    if r:
        frame[..., :r] = np.linalg.qr(frame[..., :r])[0]
    if m:
        frame[..., n:, r:] = mul
    return LinearRelation(frame)


def graph_of(matrix) -> LinearRelation:
    """Graph of an everywhere-defined operator on C^n: the
    ``operator_relation`` on dom = I, of dimension n at every scale.  A
    stack of matrices gives the stack of their graphs; ValueError, naming
    the shape, unless each matrix is square."""
    matrix = _as_complex(matrix)
    if matrix.ndim < 2 or matrix.shape[-1] != matrix.shape[-2]:
        raise ValueError(f"graph_of needs square matrices, not shape {matrix.shape}")
    return operator_relation(np.eye(matrix.shape[-1], dtype=complex), matrix)


def parts(T: LinearRelation) -> PartsReport:
    """Domain, range, kernel and multivalued part of a relation."""
    dom = orth(T.left)
    ran = orth(T.right)
    # an orthonormal frame times an orthonormal kernel is orthonormal
    ker = T.left @ null_space(T.right)
    mul = T.right @ null_space(T.left)
    return PartsReport(dom=dom, ran=ran, ker=ker, mul=mul)


def adjoint(T: LinearRelation) -> LinearRelation:
    """Adjoint T* = (J T)^perp, J{f, f'} = {f', -f}, whose frame (R; -L) is orthonormal."""
    return LinearRelation(complement(np.vstack([T.right, -T.left])))


def negate(T: LinearRelation) -> LinearRelation:
    """The relation {{f, -f'}: {f, f'} in T}."""
    return LinearRelation(np.concatenate([T.left, -T.right], axis=-2))


def _check_ambient(T1: LinearRelation, T2: LinearRelation) -> None:
    if T1.n != T2.n:
        raise ValueError("ambient dimension mismatch")


def intersect(T1: LinearRelation, T2: LinearRelation) -> LinearRelation:
    """Intersection F1 ker((I - P2) F1) for the frame F1 of T1 and the
    projector P2 onto T2: the c with F1 c in T2, from one SVD."""
    _check_ambient(T1, T2)
    f1, f2 = T1.frame, T2.frame
    kernel = null_space(f1 - f2 @ (f2.conj().T @ f1))
    return LinearRelation(f1 @ kernel)


def relations_equal(T1: LinearRelation, T2: LinearRelation):
    """Equality by the gap ||P1 - P2||; returns (equal, residual), each
    an array over the points of stacked relations.

    The gap is 1 when the dimensions differ.  When they agree, the two
    one-sided gaps ||(I - P2) P1|| and ||(I - P1) P2|| are equal (Kato), so
    one containment residual is the gap.
    """
    _check_ambient(T1, T2)
    resid = _gap(T1.frame, T2.frame)
    return resid < DEFAULT_TOL, resid


def _gap(f1: np.ndarray, f2: np.ndarray):
    """The gap ||P1 - P2|| of the spans of two orthonormal frames, or one
    per matrix of stacked frames: 1 when their column counts differ, and
    the one containment residual otherwise (``relations_equal``)."""
    if f1.shape[-1] != f2.shape[-1]:
        stack = np.broadcast_shapes(f1.shape[:-2], f2.shape[:-2])
        return np.ones(stack) if stack else 1.0
    return containment_residual(f1, f2)


def gap_limit(relation_at: Callable[[np.ndarray], LinearRelation],
              target: LinearRelation) -> float:
    """Smallest Richardson value |y2 g(y2) - y1 g(y1)| / (y2 - y1) over the
    adjacent points y2 = 10 y1 of the grid y = 10^0 ... 10^16, of the gap
    g(y) = ``relations_equal(relation_at(iy), target)[1]`` (relation_at
    returns the stack at the points iy); a pair whose gap has not settled,
    g(y1) > 1e-4, reads g(y1).  A gap c/y + O(1/y^2) reads O(1/y1^2) until
    rounding takes over, at points that the input's scale moves.  A target
    at gap d off the tail's direction has a gap near sqrt(c^2/y^2 + d^2):
    its pairs read about 5.5 d^2 / g(y1), at least 5.5e4 d^2 once settled,
    and a relation that tends elsewhere reads its gap."""
    y = 10.0 ** np.arange(17)
    g = relations_equal(relation_at(1j * y), target)[1]
    richardson = np.abs(np.diff(y * g)) / np.diff(y)
    return float(np.min(np.where(g[:-1] <= 1e-4, richardson, g[:-1])))


def classify_symmetry(T: LinearRelation) -> str:
    """One of 'not_symmetric', 'symmetric', 'self_adjoint'.

    T* is the orthogonal complement of J T, and J F = (R; -L) is
    orthonormal, so the containment residual of T in T* is the Green form
    ||R^H L - L^H R||.  A symmetric T is self-adjoint iff dim T = n, since
    dim T* = 2n - dim T.
    """
    _unstacked(T.frame)
    if not _norm_below(_green_form(T.left, T.right), DEFAULT_TOL):
        return "not_symmetric"
    return "self_adjoint" if T.dim == T.n else "symmetric"


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

    Stacked halves give the stack of matrices, from one stacked LU, and
    SpectrumError when the cut rejects any one of them.
    """
    try:
        left_inv = np.linalg.inv(left)
    except np.linalg.LinAlgError as exc:
        raise SpectrumError("left half of the frame is not invertible") from exc
    _inversion_cut(_fro(left, 2), _fro(left_inv, 2))
    return right @ left_inv


def _inversion_cut(left_fro, inverse_fro) -> None:
    """SpectrumError unless inverse_fro * DEFAULT_TOL * sqrt(left_fro^2 + 1)
    is below 1, a NaN or inf included, for each pair of the arrays: the cut
    of ``graph_operator`` on the Frobenius norms of a left half and of its
    inverse.  Both norms are unitarily invariant, so a left half U diag(v) W
    with U, W unitary is cut on the 2-norms of v and 1/v."""
    ratio = inverse_fro * DEFAULT_TOL * np.sqrt(left_fro ** 2 + 1.0)
    if not all((ratio < 1.0).ravel().tolist()):
        raise SpectrumError("left half of the frame is numerically singular")


def diagonalize(T: LinearRelation) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Unitary U and the cosines c and sines s of angles theta with
    T = span(U diag(c); U diag(s)), for a self-adjoint T in C^n; no rank is
    decided.  The eigenvalues of T are the tan theta_k, with theta_k =
    pi/2 on mul T, and (T - lam)^{-1} = U diag(c / (s - lam c)) U^H.

    With L, R the halves of T's frame, L L^H = U diag(c^2) U^H, so its
    ``eigvalsh`` gives each theta_k up to sign.  Rotating the pair by the
    midpoint phi of the widest gap among the +-theta_k mod pi, which is at
    least pi / (2n), leaves every |sin(theta_k - phi)| at least
    sin(pi / (4n)), and
    S = ``graph_operator``(cos phi R - sin phi L, cos phi L + sin phi R)
    is the Hermitian U diag(cot(theta - phi)) U^H.  The ``eigh`` of S gives
    U and sigma, and theta = phi + arccot sigma.
    """
    if T.dim != T.n:
        raise ValueError("diagonalize needs a relation of dimension n in C^n")
    _unstacked(T.frame)
    if T.dim == 0:
        return np.zeros((0, 0), dtype=complex), np.zeros(0), np.zeros(0)
    left, right = T.left, T.right
    # theta_k in [0, pi/2], descending
    theta = np.arccos(np.sqrt(np.clip(np.linalg.eigvalsh(left @ left.conj().T), 0.0, 1.0)))
    # the +-theta_k mod pi are symmetric about 0 and about pi/2, so their
    # widest gap is one of those between -theta_min, the ascending theta_k
    # and pi - theta_max
    points = np.concatenate([[-theta[-1]], theta[::-1], [np.pi - theta[0]]])
    k = int(np.argmax(np.diff(points)))
    phi = float(points[k] + points[k + 1]) / 2.0
    cos_phi, sin_phi = math.cos(phi), math.sin(phi)
    cot = graph_operator(cos_phi * right - sin_phi * left, cos_phi * left + sin_phi * right)
    sigma, unitary = np.linalg.eigh((cot + cot.conj().T) / 2.0)
    # cos and sin of phi + arccot sigma, by the addition formulas: a cosine
    # read off theta itself would lose the relative accuracy of a small one
    hyp = np.hypot(1.0, sigma)
    return unitary, (sigma * cos_phi - sin_phi) / hyp, (sigma * sin_phi + cos_phi) / hyp


def resolvent(T: LinearRelation, lam) -> np.ndarray:
    """Matrix of (T - lam)^{-1} = {{f' - lam f, f}} when it is an
    everywhere-defined operator; SpectrumError otherwise.  An array lam,
    with T one relation or a stack of as many, gives the stack of
    resolvents.

    With L, R the left and right halves of T's frame, the inverse is the
    graph operator L (R - lam L)^{-1}, so lam is rejected by the cut of
    ``graph_operator`` on R - lam L.
    """
    return graph_operator(T.right - _points(lam, 2) * T.left, T.left)
