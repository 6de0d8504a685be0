"""Boundary triplets for the adjoint of a symmetric relation.

A seed builds A* = A (+) N-hat_i (+) N-hat_{-i} (von Neumann's formula)
from A alone; its defect frames at +-i are the only ones the package
takes.  The boundary maps Gamma0, Gamma1 are stored as d x 2n
matrices acting on ambient pairs (f, f') in C^n (+) C^n.  Only their
restriction to A* matters: two triplets whose maps agree on A* are the
same triplet, and no basis of A* is part of one.  Gamma vanishes on A and
maps W = [N-hat_i, N-hat_{-i}] = A* (-) A onto C^{2d}, so each triplet
keeps one boundary lift W (Gamma W)^{-1}, and every extension is
A_theta = A (+) lift(theta).  The gamma field and the Weyl function have
one spelling, ``gamma_and_weyl``: their values at i (``weyl_at_i``, Gamma0
inverted on N-hat_i) carried to every lam by A0's spectrum.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linrel import (
    DEFAULT_TOL,
    LinearRelation,
    SpectrumError,
    _as_complex,
    _check_ambient,
    _green_form,
    _norm_below,
    _points,
    classify_symmetry,
    containment_residual,
    diagonalize,
    gap_limit,
    graph_of,
    graph_operator,
    make_relation,
    null_space,
    vertical_relation,
)

# Largest Green-identity residual a boundary triplet may have.
GREEN_TOL = 1e-10


class TripletError(Exception):
    """A boundary-triplet invariant failed."""


@dataclass(frozen=True)
class SymmetricSeed:
    """A closed symmetric relation A in C^n and its read-only defect frames at +-i."""

    A: LinearRelation
    defect_frames_at_i: tuple[np.ndarray, np.ndarray]

    def __post_init__(self):
        for frame in self.defect_frames_at_i:
            frame.setflags(write=False)

    @classmethod
    def from_relation(cls, A: LinearRelation) -> "SymmetricSeed":
        if classify_symmetry(A) == "not_symmetric":
            raise ValueError("seed relation is not symmetric")
        return cls(A, (_defect_frame(A, 1j), _defect_frame(A, -1j)))

    @cached_property
    def A_star(self) -> LinearRelation:
        """A* with the orthonormal frame [A, N-hat_i, N-hat_{-i}], built on first use."""
        return LinearRelation(np.hstack([self.A.frame, *self.defect_frames_at_i]))


def _defect_frame(A: LinearRelation, lam: complex) -> np.ndarray:
    """Frame (f; lam f) / sqrt(2) of N-hat_lam at lam = +-i, f spanning
    ker(A* - lam) = ker (R -+ i L)^H for A's frame (L; R).  R -+ i L has
    the Gram matrix I +- i (R^H L - L^H R), so for a symmetric A its
    columns are orthonormal, and ``null_space``'s cut keeps exactly
    n - dim A columns."""
    f = null_space((A.right - np.conj(lam) * A.left).conj().T)
    return np.vstack([f, lam * f]) / np.sqrt(2.0)


@dataclass(frozen=True)
class BoundaryTriplet:
    """Boundary space C^d with maps Gamma0, Gamma1 given as d x 2n matrices
    on ambient pairs."""

    seed: SymmetricSeed
    gamma0: np.ndarray
    gamma1: np.ndarray

    @property
    def space_dim(self) -> int:
        return self.seed.A.n

    @property
    def boundary_dim(self) -> int:
        return self.gamma0.shape[0]

    @cached_property
    def lift(self) -> np.ndarray:
        """Read-only W (Gamma W)^{-1}, 2n x 2d, for the seed's defect frames
        W = [N-hat_i, N-hat_{-i}] of A* (-) A, built on first use and kept;
        its ``graph_operator`` cut (Gamma W is square iff d = n - dim A) is
        the verdict that Gamma maps A* onto C^{2d}, TripletError if not."""
        w = np.hstack(self.seed.defect_frames_at_i)
        try:
            lift = graph_operator(np.vstack([self.gamma0, self.gamma1]) @ w, w)
        except SpectrumError as exc:
            raise TripletError("stacked boundary map is not surjective") from exc
        lift.setflags(write=False)
        return lift

    @cached_property
    def a0(self) -> LinearRelation:
        """A0 = ker Gamma0, built on first use and kept with the triplet."""
        return extension_of(self, vertical_relation(self.boundary_dim))

    @cached_property
    def a0_spectrum(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Read-only (U, cos theta, sin theta) of ``diagonalize(a0)``, built
        on first use and kept with the triplet; ``gamma_and_weyl`` and the
        Krein resolvent read R0(lam) = U diag(cos theta / (sin theta -
        lam cos theta)) U^H off it at every lam."""
        spectrum = diagonalize(self.a0)
        for part in spectrum:
            part.setflags(write=False)
        return spectrum

    @cached_property
    def weyl_at_i(self) -> WeylSample:
        """Read-only gamma(i) and M(i), built on first use and kept with the
        triplet: Gamma0 inverted on the seed's frame of N-hat_i, the one
        inversion of Gamma0 on a defect frame; TripletError where it is
        not invertible.  ``gamma_and_weyl`` reaches every other lam from
        them."""
        frame = self.seed.defect_frames_at_i[0]
        try:
            X = graph_operator(self.gamma0 @ frame, frame)
        except SpectrumError as exc:
            raise TripletError("Gamma0 restricted to the defect subspace is singular") from exc
        ws = WeylSample(gamma_field=X[: self.space_dim], weyl=self.gamma1 @ X)
        ws.gamma_field.setflags(write=False)
        ws.weyl.setflags(write=False)
        return ws

    @cached_property
    def gamma_i_in_a0_basis(self) -> np.ndarray:
        """Read-only U^H gamma(i) for the U of ``a0_spectrum``, built on
        first use and kept, so that no lam of ``gamma_and_weyl`` or of the
        Krein resolvent forms it again."""
        g = self.a0_spectrum[0].conj().T @ self.weyl_at_i.gamma_field
        g.setflags(write=False)
        return g

    @classmethod
    def from_ambient_maps(cls, seed: SymmetricSeed, g0_ambient,
                          g1_ambient) -> "BoundaryTriplet":
        """Build from copies of d x 2n boundary maps on ambient pairs, with
        ValueError on a non-finite entry or on maps that are not both d x 2n,
        and check that they form a triplet."""
        g0, g1 = _as_complex(g0_ambient), _as_complex(g1_ambient)
        if g0.ndim != 2 or g0.shape != g1.shape or g0.shape[1] != 2 * seed.A.n:
            raise ValueError(f"boundary maps of shapes {g0.shape} and {g1.shape} "
                             f"are not both d x {2 * seed.A.n}")
        tri = cls(seed=seed, gamma0=g0.copy(), gamma1=g1.copy())
        assert_valid_triplet(tri)
        return tri


def check_green(tri: BoundaryTriplet) -> float:
    """Max residual of the abstract Green identity over pairs of frame
    vectors of A*."""
    a_star = tri.seed.A_star
    lhs = _green_form(a_star.left, a_star.right)
    rhs = _green_form(tri.gamma0 @ a_star.frame, tri.gamma1 @ a_star.frame)
    return float(np.max(np.abs(lhs - rhs), initial=0.0))


def assert_valid_triplet(tri: BoundaryTriplet) -> None:
    """Raise TripletError unless tri is a boundary triplet.

    A* = (J A)^perp has dimension 2n - dim A, and a seed whose frames give
    A* another is rejected first.  The Green identity over A* and a Gamma
    onto C^{2d} (``lift``) force Gamma to vanish on A, whose Green form
    with all of A* is 0.
    """
    n, dim_a, dim_a_star = tri.space_dim, tri.seed.A.dim, tri.seed.A_star.dim
    if dim_a_star != 2 * n - dim_a:
        raise TripletError(f"dim A* = {dim_a_star}, but 2n - dim A = {2 * n - dim_a}")
    green = check_green(tri)
    if green > GREEN_TOL:
        raise TripletError(f"Green identity residual {green:.2e}")
    tri.lift   # raises unless Gamma maps A* onto C^{2d}


def von_neumann_triplet(seed: SymmetricSeed, V=None) -> BoundaryTriplet:
    """Concrete triplet on the seed's graph-orthogonal decomposition
    A* = A (+) N-hat_i (+) N-hat_{-i} and a unitary matching V of its
    defect frames N+, N- at +-i, both n - dim A wide, the columns of A*
    after A's: Gamma0 = (N+* + V N-*)/sqrt(2), Gamma1 = i(N+* - V N-*)/sqrt(2)."""
    n_plus_frame, n_minus_frame = seed.defect_frames_at_i
    d = n_plus_frame.shape[1]
    V = np.eye(d, dtype=complex) if V is None else _as_complex(V)
    if V.shape != (d, d) or not _norm_below(V.conj().T @ V - np.eye(d), 1e-10):
        raise TripletError("V must be a d x d unitary")

    # 1/sqrt(2) rescales the ambient-orthonormal defect frames so that the
    # Green identity holds exactly; both maps vanish on A.
    plus = n_plus_frame.conj().T / np.sqrt(2.0)
    minus = V @ n_minus_frame.conj().T / np.sqrt(2.0)
    return BoundaryTriplet.from_ambient_maps(seed, plus + minus, 1j * (plus - minus))


def extension_of(tri: BoundaryTriplet, theta: LinearRelation) -> LinearRelation:
    """A_theta = {f-hat in A*: {Gamma0 f-hat, Gamma1 f-hat} in theta}: the
    frame of A beside a QR frame of the injective lift(theta), in A* (-) A,
    so no rank is decided.  A stack of theta gives the stack of extensions,
    from one stacked QR; a theta of dimension 0 needs none."""
    if theta.n != tri.boundary_dim:
        raise ValueError("theta must be a relation in the boundary space")
    a = tri.seed.A.frame
    frame = np.empty(theta.frame.shape[:-2] + (a.shape[0], a.shape[1] + theta.dim), dtype=complex)
    frame[..., :a.shape[1]] = a
    if theta.dim:
        frame[..., a.shape[1]:] = np.linalg.qr(tri.lift @ theta.frame)[0]
    return LinearRelation(frame)


def boundary_param_of(tri: BoundaryTriplet, A_tilde: LinearRelation) -> LinearRelation:
    """Inverse of the extension parametrization: theta = Gamma(A_tilde)."""
    seed = tri.seed
    _check_ambient(seed.A, A_tilde)
    if not (containment_residual(seed.A.frame, A_tilde.frame) < DEFAULT_TOL
            and containment_residual(A_tilde.frame, seed.A_star.frame) < DEFAULT_TOL):
        raise ValueError("not a proper extension: A subseteq A~ subseteq A* fails")
    return _boundary_image(tri, A_tilde.frame)


def _boundary_image(tri: BoundaryTriplet, vectors: np.ndarray) -> LinearRelation:
    """The relation spanned by {Gamma0 f-hat, Gamma1 f-hat} over the columns
    f-hat of `vectors`, ambient pairs in A*."""
    return make_relation(np.vstack([tri.gamma0 @ vectors, tri.gamma1 @ vectors]),
                         tri.boundary_dim)


@dataclass(frozen=True)
class WeylSample:
    """gamma-field and Weyl function evaluated at one nonreal point."""

    gamma_field: np.ndarray
    weyl: np.ndarray


def gamma_and_weyl(tri: BoundaryTriplet, lam) -> WeylSample:
    """gamma(lam) and M(lam) at a nonreal lam, or their stacks at each
    point of an array lam, read off ``weyl_at_i`` and ``a0_spectrum``
    (U, c, s) with v = s - lam c:

        gamma(lam) = U diag((s - i c) / v) U^H gamma(i),
        M(lam) = Re M(i) + gamma(i)^H U diag((c + lam s) / v) U^H gamma(i),

    that is, (A0 - i) R0(lam) gamma(i) and the Nevanlinna form of
    M(i)* + (lam + i) gamma(i)* gamma(lam), by Im M(i) = gamma(i)* gamma(i).
    As s^2 + c^2 = 1, v is never 0, and the identities
    gamma(lam) - gamma(z) = (lam - z) R0(lam) gamma(z) and
    M(z) - M(lam)* = (z - conj lam) gamma(lam)* gamma(z) hold term by term;
    the tests check them against Gamma0 inverted on a defect frame at
    each lam.  No factorization is taken per lam, so M(iy) is read at any y.
    ValueError at a real point."""
    if not np.all(np.imag(lam)):
        raise ValueError("Weyl function is evaluated on the real axis")
    u, c, s = tri.a0_spectrum
    at = _points(lam, 1)
    v = s - at * c
    g, at_i = tri.gamma_i_in_a0_basis, tri.weyl_at_i
    re_m = (at_i.weyl + at_i.weyl.conj().T) / 2.0
    return WeylSample(gamma_field=u @ (((s - 1j * c) / v)[..., None] * g),
                      weyl=re_m + g.conj().T @ (((c + at * s) / v)[..., None] * g))


def forbidden_relation(tri: BoundaryTriplet) -> LinearRelation:
    """Image under the boundary maps of {0} (+) mul A*, whose orthonormal
    frame is the frame of A* times that of ker of its left half."""
    a_star = tri.seed.A_star
    return _boundary_image(tri, a_star.frame @ null_space(a_star.left))


def check_forbidden_asymptotics(tri: BoundaryTriplet) -> float:
    """Gap limit (``gap_limit``) of the graph of M(iy) against the forbidden
    relation F at i*infinity: about 0 when M(iy) tends to F, that is, when
    F holds the limits of M(iy) on its domain and ran B_M lies in mul F.
    The grid of ``gap_limit`` needs no scale, and M(iy) on it is one
    stacked ``gamma_and_weyl``, with no defect frame and no inversion."""
    return gap_limit(lambda lams: graph_of(gamma_and_weyl(tri, lams).weyl),
                     forbidden_relation(tri))
