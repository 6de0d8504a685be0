"""Boundary triplets for the adjoint of a symmetric relation.

The boundary maps Gamma0, Gamma1 are stored as d x 2n matrices acting on
ambient pairs (f, f') in C^n (+) C^n.  Only their restriction to A*
matters: two triplets whose maps agree on A* are the same triplet, and no
basis of A* is part of one.  Kernels and images of the maps on A* are
computed on the seed's frame of A*.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linrel import (
    DEFAULT_TOL,
    LinearRelation,
    SpectrumError,
    _norm2,
    adjoint,
    contains,
    gap_limit,
    graph_of,
    graph_operator,
    make_relation,
    null_space,
    orth,
    relations_equal,
    resolvent,
    vertical_relation,
)

# Largest Green-identity residual a boundary triplet may have.
GREEN_TOL = 1e-10


class TripletError(Exception):
    """A boundary-triplet invariant failed."""


@dataclass(frozen=True)
class SymmetricSeed:
    """A closed symmetric relation A in C^n together with its adjoint."""

    A: LinearRelation
    A_star: LinearRelation

    @classmethod
    def from_relation(cls, A: LinearRelation) -> "SymmetricSeed":
        A_star = adjoint(A)
        if not contains(A_star, A):
            raise ValueError("seed relation is not symmetric")
        return cls(A=A, A_star=A_star)

    @property
    def space_dim(self) -> int:
        return self.A.dim_from

    @cached_property
    def defect_frames_at_i(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only defect frames at i and -i, built on first use and kept
        with the seed."""
        frames = (_defect_frame(self, 1j), _defect_frame(self, -1j))
        for frame in frames:
            frame.setflags(write=False)
        return frames


def defect(seed: SymmetricSeed, lam: complex):
    """Frame of the graph defect subspace {f-hat in A*: f' = lam f} plus the
    deficiency indices (n+, n-); the frames at +-i are the seed's."""
    plus, minus = seed.defect_frames_at_i
    frame = plus if lam == 1j else minus if lam == -1j else _defect_frame(seed, lam)
    return frame, (plus.shape[1], minus.shape[1])


def _defect_frame(seed: SymmetricSeed, lam: complex) -> np.ndarray:
    """A* intersected with graph(lam I): the frame of A* times the
    coefficients c with (R - lam L) c = 0, where L, R are its halves."""
    a_star = seed.A_star
    return a_star.frame @ null_space(a_star.right - lam * a_star.left)


@dataclass(frozen=True)
class BoundaryTriplet:
    """Boundary space C^d with maps Gamma0, Gamma1 given as d x 2n matrices
    on ambient pairs."""

    seed: SymmetricSeed
    gamma0: np.ndarray
    gamma1: np.ndarray

    @property
    def space_dim(self) -> int:
        return self.seed.space_dim

    @property
    def boundary_dim(self) -> int:
        return self.gamma0.shape[0]

    @cached_property
    def coord_map(self) -> np.ndarray:
        """Read-only (Gamma0; Gamma1) on the frame of A*, a 2d x m matrix,
        built on first use and kept with the triplet."""
        g = np.vstack([self.gamma0, self.gamma1]) @ self.seed.A_star.frame
        g.setflags(write=False)
        return g

    @cached_property
    def a0(self) -> LinearRelation:
        """A0 = ker Gamma0, built on first use and kept with the triplet."""
        return extension_of(self, vertical_relation(self.boundary_dim))

    @cached_property
    def weyl_at_i(self) -> WeylSample:
        """Read-only gamma(i) and M(i), built on first use and kept with the
        triplet; the Krein resolvent reaches every other lam from them."""
        ws = gamma_and_weyl(self, 1j)
        ws.gamma_field.setflags(write=False)
        ws.weyl.setflags(write=False)
        return ws

    @classmethod
    def from_ambient_maps(cls, seed: SymmetricSeed, g0_ambient,
                          g1_ambient) -> "BoundaryTriplet":
        """Build from boundary maps given as d x 2n matrices on ambient pairs
        and check that they form a boundary triplet."""
        tri = cls(seed=seed, gamma0=np.array(g0_ambient, dtype=complex),
                  gamma1=np.array(g1_ambient, dtype=complex))
        assert_valid_triplet(tri)
        return tri


def check_green(tri: BoundaryTriplet) -> float:
    """Max residual of the abstract Green identity over pairs of frame
    vectors of A*."""
    d = tri.boundary_dim
    top = tri.seed.A_star.left
    bot = tri.seed.A_star.right
    lhs = (top.conj().T @ bot - bot.conj().T @ top).T
    g0, g1 = tri.coord_map[:d], tri.coord_map[d:]
    rhs = (g0.conj().T @ g1 - g1.conj().T @ g0).T
    if lhs.size == 0:
        return 0.0
    return float(np.max(np.abs(lhs - rhs)))


def triplet_report(tri: BoundaryTriplet) -> dict:
    """Residuals of the defining invariants of a boundary triplet."""
    report = {"green": check_green(tri)}
    G = tri.coord_map
    d = tri.boundary_dim
    ker = null_space(G)
    # rank G = m - dim ker G, and G maps A* onto C^{2d} iff that rank is 2d
    report["surjective"] = ker.shape[1] == G.shape[1] - 2 * d
    ker_rel = LinearRelation(tri.space_dim, tri.space_dim, tri.seed.A_star.frame @ ker)
    _, report["kernel_vs_A"] = relations_equal(ker_rel, tri.seed.A)
    return report


def assert_valid_triplet(tri: BoundaryTriplet) -> None:
    """Raise TripletError unless tri is a boundary triplet.

    A* = (J A)^perp has dimension 2n - dim A, and a seed whose frame of A*
    has another is rejected first.  Given that count, a surjective
    (Gamma0; Gamma1) whose kernel is A has rank 2d = dim A* - dim A, so d
    is the deficiency index n - dim A.
    """
    n, dim_a, dim_a_star = tri.space_dim, tri.seed.A.dim, tri.seed.A_star.dim
    if dim_a_star != 2 * n - dim_a:
        raise TripletError(f"dim A* = {dim_a_star}, but 2n - dim A = {2 * n - dim_a}")
    rep = triplet_report(tri)
    if rep["green"] > GREEN_TOL:
        raise TripletError(f"Green identity residual {rep['green']:.2e}")
    if not rep["surjective"]:
        raise TripletError("stacked boundary map is not surjective")
    if rep["kernel_vs_A"] > 100 * DEFAULT_TOL:
        raise TripletError("kernel of the boundary map is not the seed relation")


def von_neumann_triplet(seed: SymmetricSeed, V=None) -> BoundaryTriplet:
    """Concrete triplet from the graph-orthogonal decomposition
    A* = A (+) N-hat_i (+) N-hat_{-i} and a unitary matching V of the
    seed's defect frames N+, N- at +-i:
    Gamma0 = (N+* + V N-*)/sqrt(2), Gamma1 = i(N+* - V N-*)/sqrt(2)."""
    n_plus_frame, n_minus_frame = seed.defect_frames_at_i
    d = n_plus_frame.shape[1]
    if n_minus_frame.shape[1] != d:
        raise TripletError(
            f"unequal deficiency indices ({d}, {n_minus_frame.shape[1]})")
    if V is None:
        V = np.eye(d, dtype=complex)
    V = np.asarray(V, dtype=complex)
    if V.shape != (d, d) or _norm2(V.conj().T @ V - np.eye(d)) > 1e-10:
        raise TripletError("V must be a d x d unitary")

    # 1/sqrt(2) rescales the ambient-orthonormal defect frames so that the
    # Green identity holds exactly; both maps vanish on A.
    plus = n_plus_frame.conj().T / np.sqrt(2.0)
    minus = V @ n_minus_frame.conj().T / np.sqrt(2.0)
    return BoundaryTriplet.from_ambient_maps(seed, plus + minus, 1j * (plus - minus))


def extension_of(tri: BoundaryTriplet, theta: LinearRelation) -> LinearRelation:
    """A_theta = {f-hat in A*: {Gamma0 f-hat, Gamma1 f-hat} in theta}."""
    d = tri.boundary_dim
    if (theta.dim_from, theta.dim_to) != (d, d):
        raise ValueError("theta must be a relation in the boundary space")
    G = tri.coord_map
    proj = theta.frame @ theta.frame.conj().T
    constr = G - proj @ G
    n = tri.space_dim
    # an orthonormal frame times an orthonormal kernel frame
    return LinearRelation(n, n, tri.seed.A_star.frame @ null_space(constr))


def boundary_param_of(tri: BoundaryTriplet, A_tilde: LinearRelation) -> LinearRelation:
    """Inverse of the extension parametrization: theta = Gamma(A_tilde)."""
    if not contains(A_tilde, tri.seed.A) or not contains(tri.seed.A_star, A_tilde):
        raise ValueError("not a proper extension: A subseteq A~ subseteq A* fails")
    return _boundary_image(tri, A_tilde.frame)


def _boundary_image(tri: BoundaryTriplet, vectors: np.ndarray) -> LinearRelation:
    """The relation spanned by {Gamma0 f-hat, Gamma1 f-hat} over the columns
    f-hat of `vectors`, ambient pairs in A*."""
    d = tri.boundary_dim
    return make_relation(np.vstack([tri.gamma0 @ vectors, tri.gamma1 @ vectors]), d, d)


@dataclass(frozen=True)
class WeylSample:
    """gamma-field and Weyl function evaluated at one nonreal point."""

    gamma_field: np.ndarray
    weyl: np.ndarray


def gamma_and_weyl(tri: BoundaryTriplet, lam: complex) -> WeylSample:
    """Invert Gamma0 on the defect subspace at lam."""
    if abs(lam.imag) == 0:
        raise ValueError("Weyl function is evaluated on the real axis")
    d = tri.boundary_dim
    frame, _ = defect(tri.seed, lam)
    if frame.shape[1] != d:
        raise TripletError(
            f"defect dimension {frame.shape[1]} != boundary dim {d} at {lam}")
    try:
        X = graph_operator(tri.gamma0 @ frame, frame)
    except SpectrumError as exc:
        raise TripletError("Gamma0 restricted to the defect subspace is singular") from exc
    return WeylSample(gamma_field=X[: tri.space_dim], weyl=tri.gamma1 @ X)


def check_weyl_identities(tri: BoundaryTriplet, lam: complex, z: complex):
    """Residuals of the gamma-field and Weyl-function identities."""
    ws_l = gamma_and_weyl(tri, lam)
    ws_z = gamma_and_weyl(tri, z)
    r0 = resolvent(tri.a0, lam)
    res_gamma = ws_l.gamma_field - ws_z.gamma_field \
        - (lam - z) * (r0 @ ws_z.gamma_field)
    res_weyl = ws_z.weyl - ws_l.weyl.conj().T \
        - (z - np.conj(lam)) * (ws_l.gamma_field.conj().T @ ws_z.gamma_field)
    return _norm2(res_gamma), _norm2(res_weyl)


def forbidden_relation(tri: BoundaryTriplet) -> LinearRelation:
    """Image under the boundary maps of {0} (+) mul A*."""
    n = tri.space_dim
    a_star = tri.seed.A_star
    mul_frame = orth(a_star.right @ null_space(a_star.left))
    return _boundary_image(
        tri, np.vstack([np.zeros((n, mul_frame.shape[1]), dtype=complex), mul_frame]))


def check_forbidden_asymptotics(tri: BoundaryTriplet) -> float:
    """Gap limit (``gap_limit``) of the graph of M(iy) against the forbidden
    relation F at i*infinity, from y1 = 1e4: about 0 when M(iy) tends to F,
    that is, when F holds the limits of M(iy) on its domain and
    ran B_M lies in mul F.  The point y1 suits unit-scale triplets."""
    return gap_limit(lambda lam: graph_of(gamma_and_weyl(tri, lam).weyl),
                     forbidden_relation(tri), 1e4)
