"""Boundary triplets: defect subspaces, Green identity, extensions, Weyl."""
import numpy as np
import pytest

import relcomp.triplet as triplet
from relcomp.linrel import (
    LinearRelation,
    SpectrumError,
    _norm2,
    adjoint,
    classify_symmetry,
    containment_residual,
    graph_of,
    intersect,
    make_relation,
    relations_equal,
    resolvent,
    vertical_relation,
    zero_relation,
)
from relcomp.triplet import (
    GREEN_TOL,
    BoundaryTriplet,
    SymmetricSeed,
    TripletError,
    WeylSample,
    boundary_param_of,
    check_forbidden_asymptotics,
    check_green,
    extension_of,
    forbidden_relation,
    gamma_and_weyl,
    von_neumann_triplet,
)

from test_linrel import comp_sum


def random_symmetric_seed(rng, n, d=None, n_mul=None):
    """Seed with prescribed deficiency index d and dimension n_mul of its
    multivalued part (each random by default)."""
    if d is None:
        d = int(rng.integers(0, n + 1))
    if n_mul is None:
        n_mul = int(rng.integers(0, n - d + 1))
    m = n - d - n_mul
    q = np.linalg.qr(rng.standard_normal((n, n))
                     + 1j * rng.standard_normal((n, n)))[0]
    h = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    h = (h + h.conj().T) / 2
    dom = q[:, :m]
    span = np.vstack([
        np.hstack([dom, np.zeros((n, n_mul))]),
        np.hstack([h @ dom, q[:, m:m + n_mul]]),
    ])
    return SymmetricSeed.from_relation(make_relation(span, n))


def random_unitary(rng, d):
    if d == 0:
        return np.zeros((0, 0), dtype=complex)
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return np.linalg.qr(z)[0]


def model_triplet(blocks):
    """Seed {{0,0}} in C^len(blocks) with diagonal closed-form Weyl blocks:
    entry None gives M(lam) = lam; entry alpha gives M(lam) = 1/(alpha-lam)."""
    n = len(blocks)
    seed = SymmetricSeed.from_relation(zero_relation(n))
    g0 = np.zeros((n, 2 * n))
    g1 = np.zeros((n, 2 * n))
    for i, alpha in enumerate(blocks):
        if alpha is None:
            g0[i, i] = 1.0
            g1[i, n + i] = 1.0
        else:
            g0[i, i] = -alpha
            g0[i, n + i] = 1.0
            g1[i, i] = -1.0
    return BoundaryTriplet.from_ambient_maps(seed, g0, g1)


def reference_defect_frame(seed, lam):
    """Frame (f; lam f) / sqrt(1 + |lam|^2) of N-hat_lam at any nonreal lam:
    f the trailing n - dim A right singular vectors of (R - conj(lam) L)^H
    for A's frame (L; R).  For a symmetric A and lam = x + iy,
    ||(R - conj(lam) L) c||^2 = ||(R - x L) c||^2 + y^2 ||L c||^2, so that
    matrix has rank dim A and the known dimension takes the place of a
    cut; far up the axis a cut would count mul A into the kernel."""
    A = seed.A
    f = np.linalg.svd((A.right - np.conj(lam) * A.left).conj().T)[2][A.dim:].conj().T
    return np.vstack([f, lam * f]) / np.sqrt(1.0 + abs(lam) ** 2)


def reference_gamma_and_weyl(tri, lam):
    """gamma(lam) and M(lam) by Gamma0 inverted on the reference defect
    frame at lam, the route the package took before it read both off
    their values at i."""
    frame = reference_defect_frame(tri.seed, lam)
    x = frame @ np.linalg.inv(tri.gamma0 @ frame)
    return WeylSample(gamma_field=x[: tri.space_dim], weyl=tri.gamma1 @ x)


def weyl_identity_residuals(tri, lam, z):
    """Residuals of gamma(lam) - gamma(z) = (lam - z) R0(lam) gamma(z) and
    M(z) - M(lam)* = (z - conj lam) gamma(lam)* gamma(z) on the reference,
    with R0 from the LU of ``resolvent``."""
    ws_l, ws_z = reference_gamma_and_weyl(tri, lam), reference_gamma_and_weyl(tri, z)
    res_gamma = ws_l.gamma_field - ws_z.gamma_field \
        - (lam - z) * (resolvent(tri.a0, lam) @ ws_z.gamma_field)
    res_weyl = ws_z.weyl - ws_l.weyl.conj().T \
        - (z - np.conj(lam)) * (ws_l.gamma_field.conj().T @ ws_z.gamma_field)
    return _norm2(res_gamma), _norm2(res_weyl)


def test_defect_of_trivial_seed():
    seed = SymmetricSeed.from_relation(zero_relation(1))
    assert reference_defect_frame(seed, 0.3 + 1.7j).shape == (2, 1)
    assert [frame.shape for frame in seed.defect_frames_at_i] == [(2, 1), (2, 1)]


@pytest.mark.parametrize("n", [6, 24, 96])
def test_seed_adjoint_matches_the_complement_reference(n):
    """The seed's A* = [A, N-hat_i, N-hat_{-i}] against ``adjoint``, the
    complement of J A computed from A alone, and its frame orthonormal; a
    relation that is not symmetric is rejected."""
    rng = np.random.default_rng(300 + n)
    seeds = [random_symmetric_seed(rng, n, d=n // 3, n_mul=n_mul)
             for n_mul in (0, n // 4)]
    seeds += [random_symmetric_seed(rng, n, d=0),
              SymmetricSeed.from_relation(zero_relation(3))]
    for seed in seeds:
        assert relations_equal(seed.A_star, adjoint(seed.A))[1] <= 1e-13
        frame = seed.A_star.frame
        gram = frame.conj().T @ frame - np.eye(frame.shape[1])
        assert np.max(np.abs(gram), initial=0.0) <= 1e-14
    h = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    with pytest.raises(ValueError, match="not symmetric"):
        SymmetricSeed.from_relation(graph_of(h))


@pytest.mark.parametrize("n", [6, 24, 96])
def test_defect_frame_matches_intersection_reference(n):
    """The seed's defect frames at +-i and the reference frame at other
    lam against A* cap graph(lam I) computed independently through
    orthogonal complements, with A* from ``adjoint``, which reads no
    defect frame."""
    rng = np.random.default_rng(400 + n)
    for _ in range(2):
        seed = random_symmetric_seed(rng, n, d=int(rng.integers(1, n // 2 + 1)))
        a_star = adjoint(seed.A)
        frames = [(1j, seed.defect_frames_at_i[0]), (-1j, seed.defect_frames_at_i[1])]
        frames += [(lam, reference_defect_frame(seed, lam))
                   for lam in (1j, -1j, 0.3 + 1.7j, 100j, 1e6j)]
        for lam, frame in frames:
            ref = intersect(a_star, graph_of(lam * np.eye(n))).frame
            assert frame.shape[1] == ref.shape[1]
            graph_res = np.linalg.norm(frame[n:] - lam * frame[:n], 2) / max(1.0, abs(lam))
            assert graph_res <= 1e-13
            assert containment_residual(frame, a_star.frame) <= 1e-13
            # At 1e6i the subspace itself is ill-conditioned: both frames have
            # residuals near 1e-15 yet differ by about 1e-9 as subspaces.
            if abs(lam) <= 100:
                dist = np.linalg.norm(frame @ frame.conj().T - ref @ ref.conj().T, 2)
                assert dist <= 1e-12


def test_defect_frame_keeps_its_dimension_up_the_imaginary_axis():
    """The reference N-hat_iy has n - dim A columns at every
    y = 10^0 ... 10^16, on seeds with a multivalued part too, and lies in
    A* (``adjoint``, which reads no defect frame) to rounding."""
    rng = np.random.default_rng(5)
    for n in (6, 24):
        seed = random_symmetric_seed(rng, n, d=n // 3, n_mul=n // 4)
        a_star = adjoint(seed.A)
        for y in 10.0 ** np.arange(17):
            frame = reference_defect_frame(seed, 1j * y)
            assert frame.shape[1] == n // 3
            assert containment_residual(frame, a_star.frame) <= 1e-14


def test_defect_of_selfadjoint_graph():
    seed = SymmetricSeed.from_relation(graph_of(np.diag([1.0, 2.0])))
    assert [frame.shape for frame in seed.defect_frames_at_i] == [(4, 0), (4, 0)]


def test_defect_of_symmetric_restriction():
    span = np.array([[1.0], [0.0], [1.0], [0.0]])
    seed = SymmetricSeed.from_relation(make_relation(span, 2))
    frame = seed.defect_frames_at_i[0]
    assert frame.shape == (4, 1)
    # members of the defect space solve f' = lam f inside A*
    top, bot = frame[:2], frame[2:]
    assert np.max(np.abs(bot - 1j * top), initial=0.0) < 1e-9


def count_defect_frames(monkeypatch) -> list:
    """List that records the lam of every defect frame computed from now on."""
    import relcomp.triplet as triplet
    calls = []
    frame_of = triplet._defect_frame
    monkeypatch.setattr(triplet, "_defect_frame",
                        lambda A, lam: calls.append(lam) or frame_of(A, lam))
    return calls


def test_defect_at_plus_minus_i_reuses_its_frame(monkeypatch):
    """from_relation builds the two frames at +-i once, each the
    (f; lam f) / sqrt(2) of n - dim A columns, and A* reads them as they
    are, with no frame of its own."""
    calls = count_defect_frames(monkeypatch)
    seed = random_symmetric_seed(np.random.default_rng(6), 5, d=2)
    assert calls == [1j, -1j]
    for k, (lam, frame) in enumerate(zip((1j, -1j), seed.defect_frames_at_i)):
        assert frame.shape == (10, 2)
        assert np.max(np.abs(frame[5:] - lam * frame[:5])) <= 1e-15
        assert np.array_equal(seed.A_star.frame[:, 3 + 2 * k:5 + 2 * k], frame)
    assert calls == [1j, -1j]


def test_frames_and_weyl_at_i_are_built_once_and_read_only(monkeypatch):
    """from_relation builds the two frames at +-i once; the triplet, its
    gamma(i) and M(i), A0's spectrum and U^H gamma(i) build none, and each
    is kept."""
    calls = count_defect_frames(monkeypatch)
    seed = random_symmetric_seed(np.random.default_rng(7), 6, d=3)
    tri = von_neumann_triplet(seed)
    at_i, spectrum, g = tri.weyl_at_i, tri.a0_spectrum, tri.gamma_i_in_a0_basis
    assert tri.weyl_at_i is at_i and tri.a0_spectrum is spectrum
    assert tri.gamma_i_in_a0_basis is g
    assert calls == [1j, -1j]
    for cached in (*seed.defect_frames_at_i, at_i.gamma_field, at_i.weyl, *spectrum, g):
        with pytest.raises(ValueError, match="read-only"):
            cached[0, 0] = 0.0


def test_only_from_relation_builds_the_frames_at_plus_minus_i(monkeypatch):
    """from_relation builds the two frames at +-i, and building and checking
    a von Neumann triplet on the seed builds none."""
    calls = count_defect_frames(monkeypatch)
    rng = np.random.default_rng(2)
    for _ in range(15):
        calls.clear()
        seed = random_symmetric_seed(rng, int(rng.integers(1, 6)))
        assert calls == [1j, -1j]
        tri = von_neumann_triplet(seed)
        BoundaryTriplet.from_ambient_maps(seed, tri.gamma0, tri.gamma1)
        assert len(calls) == 2


def test_wrongly_sized_adjoint_frame_raises():
    """A seed whose frame [A, N-hat_i, N-hat_{-i}] of A* does not have
    dimension 2n - dim A is not the seed of a boundary triplet; the error
    names both dimensions."""
    seed = random_symmetric_seed(np.random.default_rng(5), 5, d=2)
    tri = von_neumann_triplet(seed)
    plus, minus = seed.defect_frames_at_i
    # one dimension short of A*, and one too many
    for frames in ((plus, minus[:, :-1]), (plus, np.hstack([minus, plus[:, :1]]))):
        bad = SymmetricSeed(A=seed.A, defect_frames_at_i=frames)
        dim = seed.A.dim + frames[0].shape[1] + frames[1].shape[1]
        with pytest.raises(TripletError,
                           match=rf"dim A\* = {dim}, but 2n - dim A = 7"):
            BoundaryTriplet.from_ambient_maps(bad, tri.gamma0, tri.gamma1)


@pytest.mark.parametrize("eps", [1e-9, 1e-7, 1e-4])
def test_maps_that_do_not_vanish_on_a_break_green(eps):
    """Gamma0 + eps X A.frame^H differs from Gamma0 on A alone; the Green
    identity over A* rejects it, so no separate check that Gamma
    vanishes on A is needed."""
    rng = np.random.default_rng(90)
    for _ in range(12):
        n = int(rng.integers(3, 8))
        d = int(rng.integers(1, n))
        seed = random_symmetric_seed(rng, n, d=d)
        tri = von_neumann_triplet(seed, V=random_unitary(rng, d))
        x = rng.standard_normal((d, n - d)) + 1j * rng.standard_normal((d, n - d))
        g0 = tri.gamma0 + eps * x @ seed.A.frame.conj().T
        with pytest.raises(TripletError, match="Green identity residual"):
            BoundaryTriplet.from_ambient_maps(seed, g0, tri.gamma1)


def test_boundary_dimension_other_than_the_deficiency_index_raises():
    """d = n - dim A + 1 (a zero row appended to both maps, which keeps the
    Green identity) makes Gamma W non-square, so the lift raises;
    d = n - dim A - 1 (the last row dropped) breaks the Green identity."""
    seed = random_symmetric_seed(np.random.default_rng(91), 5, d=2)
    tri = von_neumann_triplet(seed)
    zero = np.zeros((1, 10), dtype=complex)
    with pytest.raises(TripletError, match="not surjective"):
        BoundaryTriplet.from_ambient_maps(seed, np.vstack([tri.gamma0, zero]),
                                          np.vstack([tri.gamma1, zero]))
    with pytest.raises(TripletError, match="Green identity residual"):
        BoundaryTriplet.from_ambient_maps(seed, tri.gamma0[:1], tri.gamma1[:1])


def _constraint_kernel(tri, theta):
    """Reference A_theta: A*.frame times the kernel of the constraint
    (I - P_theta) Gamma on A*, whose dimension dim A + dim theta is known."""
    a_star = tri.seed.A_star
    g = np.vstack([tri.gamma0, tri.gamma1]) @ a_star.frame
    vh = np.linalg.svd(g - theta.frame @ (theta.frame.conj().T @ g))[2]
    return a_star.frame @ vh[vh.shape[0] - tri.seed.A.dim - theta.dim:].conj().T


def test_ill_conditioned_explicit_triplet():
    """(s Gamma0, Gamma1 / s) keeps the Green identity while cond(Gamma W)
    grows as s^2.  At s = 1e3 (cond 1e6) every A_theta stays within
    10 eps cond(Gamma W) of the constraint-kernel reference (measured up
    to 1.2 eps cond); at s = 1e5 (cond 1e10) the inversion cut of the lift
    rejects the maps."""
    rng = np.random.default_rng(92)
    eps = np.finfo(float).eps
    for _ in range(10):
        n = int(rng.integers(3, 9))
        seed = random_symmetric_seed(rng, n, d=int(rng.integers(1, n // 2 + 1)))
        base = von_neumann_triplet(seed)
        d = base.boundary_dim
        tri = BoundaryTriplet.from_ambient_maps(seed, 1e3 * base.gamma0, base.gamma1 / 1e3)
        w = np.linalg.svd(seed.A_star.frame.conj().T @ seed.A.frame)[0][:, seed.A.dim:]
        cond = np.linalg.cond(np.vstack([tri.gamma0, tri.gamma1]) @ seed.A_star.frame @ w)
        assert 1e5 < cond < 1e7
        thetas = [vertical_relation(d), graph_of(np.zeros((d, d)))] + [
            make_relation(rng.standard_normal((2 * d, r))
                          + 1j * rng.standard_normal((2 * d, r)), d)
            for r in range(2 * d + 1)]
        for theta in thetas:
            ext = extension_of(tri, theta)
            ref = LinearRelation(_constraint_kernel(tri, theta))
            assert relations_equal(ext, ref)[1] <= 10 * eps * cond
        with pytest.raises(TripletError, match="not surjective"):
            BoundaryTriplet.from_ambient_maps(seed, 1e5 * base.gamma0, base.gamma1 / 1e5)


def test_a0_built_once_per_triplet():
    seed = random_symmetric_seed(np.random.default_rng(12), 4, d=2)
    tri = von_neumann_triplet(seed)
    a0 = tri.a0
    assert tri.a0 is a0
    eq, _ = relations_equal(a0, extension_of(tri, vertical_relation(2)))
    assert eq


def test_indices_count_codimension():
    rng = np.random.default_rng(2)
    for _ in range(15):
        n = int(rng.integers(1, 6))
        seed = random_symmetric_seed(rng, n)
        plus, minus = seed.defect_frames_at_i
        assert plus.shape[1] == minus.shape[1] == n - seed.A.dim


def test_von_neumann_weyl_at_i():
    rng = np.random.default_rng(8)
    for _ in range(10):
        n = int(rng.integers(1, 6))
        seed = random_symmetric_seed(rng, n)
        d = n - seed.A.dim
        tri = von_neumann_triplet(seed, V=random_unitary(rng, d))
        if d == 0:
            continue
        m = gamma_and_weyl(tri, 1j).weyl
        assert np.max(np.abs(m - 1j * np.eye(d))) < 1e-9


def test_von_neumann_green_residual():
    rng = np.random.default_rng(4)
    for _ in range(15):
        seed = random_symmetric_seed(rng, int(rng.integers(1, 7)))
        d = seed.A.n - seed.A.dim
        tri = von_neumann_triplet(seed, V=random_unitary(rng, d))
        assert check_green(tri) < GREEN_TOL
        # Gamma vanishes on A, and the lift inverts it on A* (-) A
        gamma = np.vstack([tri.gamma0, tri.gamma1])
        assert np.max(np.abs(gamma @ seed.A.frame), initial=0.0) < 1e-12
        assert np.max(np.abs(gamma @ tri.lift - np.eye(2 * d)), initial=0.0) < 1e-12


@pytest.mark.parametrize("d", [1, 3, 8])
def test_von_neumann_maps_on_the_decomposition_basis(d):
    """Reference: the block construction on the basis [A, N+, N-] of A*,
    Gamma0 = [0, I, V]/sqrt(2) and Gamma1 = [0, iI, -iV]/sqrt(2)."""
    rng = np.random.default_rng(70 + d)
    seed = random_symmetric_seed(rng, d + 3, d=d)
    V = random_unitary(rng, d)
    tri = von_neumann_triplet(seed, V=V)
    basis = np.column_stack([seed.A.frame, *seed.defect_frames_at_i])
    on_a = np.zeros((d, seed.A.dim))
    eye = np.eye(d)
    g0 = np.hstack([on_a, eye, V]) / np.sqrt(2.0)
    g1 = np.hstack([on_a, 1j * eye, -1j * V]) / np.sqrt(2.0)
    assert np.max(np.abs(tri.gamma0 @ basis - g0)) <= 1e-14
    assert np.max(np.abs(tri.gamma1 @ basis - g1)) <= 1e-14


def test_von_neumann_rejects_nonunitary():
    rng = np.random.default_rng(1)
    seed = random_symmetric_seed(rng, 3, d=2)
    with pytest.raises(TripletError):
        von_neumann_triplet(seed, V=2.0 * np.eye(2))


def test_selfadjoint_seed_gives_empty_triplet():
    seed = SymmetricSeed.from_relation(graph_of(np.diag([1.0, -1.0])))
    tri = von_neumann_triplet(seed)
    assert tri.boundary_dim == 0
    assert check_green(tri) < 1e-12


def test_negated_gamma1_breaks_green():
    tri = model_triplet([None])
    broken = BoundaryTriplet(seed=tri.seed, gamma0=tri.gamma0, gamma1=-tri.gamma1)
    assert check_green(broken) > 0.1


def test_extension_endpoints():
    rng = np.random.default_rng(21)
    seed = random_symmetric_seed(rng, 4, d=2)
    tri = von_neumann_triplet(seed)
    full_theta = make_relation(np.eye(4), 2)
    eq, _ = relations_equal(extension_of(tri, full_theta), seed.A_star)
    assert eq
    a0 = tri.a0
    assert classify_symmetry(a0) == "self_adjoint"
    eq, _ = relations_equal(intersect(a0, extension_of(tri, zero_relation(2))),
                            seed.A)
    assert eq


def test_extension_scalar_substitution():
    tri = model_triplet([None])
    ext = extension_of(tri, graph_of(np.array([[5.0]])))
    eq, resid = relations_equal(ext, graph_of(np.array([[5.0]])))
    assert eq, resid


def test_boundary_param_roundtrip():
    rng = np.random.default_rng(31)
    for _ in range(25):
        n = int(rng.integers(2, 6))
        seed = random_symmetric_seed(rng, n, d=int(rng.integers(1, min(3, n) + 1)))
        d = n - seed.A.dim
        tri = von_neumann_triplet(seed, V=random_unitary(rng, d))
        r = int(rng.integers(0, 2 * d + 1))
        theta = make_relation(rng.standard_normal((2 * d, r))
                              + 1j * rng.standard_normal((2 * d, r)), d)
        ext = extension_of(tri, theta)
        eq, resid = relations_equal(boundary_param_of(tri, ext), theta)
        assert eq, resid
        eq, _ = relations_equal(extension_of(tri, boundary_param_of(tri, ext)), ext)
        assert eq
    # trivial endpoints
    eq, _ = relations_equal(boundary_param_of(tri, seed.A), zero_relation(d))
    assert eq
    eq, _ = relations_equal(boundary_param_of(tri, seed.A_star),
                            make_relation(np.eye(2 * d), d))
    assert eq
    eq, _ = relations_equal(boundary_param_of(tri, tri.a0),
                            vertical_relation(d))
    assert eq


def test_boundary_param_of_rejects_a_relation_not_between_a_and_a_star():
    """{0} does not contain A, C^n (+) C^n is not contained in A*, and a
    relation in another space is neither."""
    seed = random_symmetric_seed(np.random.default_rng(31), 4, d=1)
    tri, n = von_neumann_triplet(seed), seed.A.n
    for outside in (zero_relation(n), LinearRelation(np.eye(2 * n, dtype=complex))):
        with pytest.raises(ValueError, match="not a proper extension"):
            boundary_param_of(tri, outside)
    with pytest.raises(ValueError, match="ambient dimension mismatch"):
        boundary_param_of(tri, zero_relation(n + 1))


def test_adjoint_commutes_with_parametrization():
    rng = np.random.default_rng(41)
    for _ in range(30):
        n = int(rng.integers(2, 6))
        seed = random_symmetric_seed(rng, n, d=int(rng.integers(1, min(3, n) + 1)))
        d = n - seed.A.dim
        tri = von_neumann_triplet(seed, V=random_unitary(rng, d))
        r = int(rng.integers(0, 2 * d + 1))
        theta = make_relation(rng.standard_normal((2 * d, r))
                              + 1j * rng.standard_normal((2 * d, r)), d)
        eq, resid = relations_equal(adjoint(extension_of(tri, theta)),
                                    extension_of(tri, adjoint(theta)))
        assert eq, resid


def test_selfadjoint_transfer():
    rng = np.random.default_rng(43)
    for _ in range(15):
        seed = random_symmetric_seed(rng, 4, d=2)
        tri = von_neumann_triplet(seed, V=random_unitary(rng, 2))
        h = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        theta = graph_of((h + h.conj().T) / 2)
        assert classify_symmetry(extension_of(tri, theta)) == "self_adjoint"


def test_transversality_iff_operator_parameter():
    rng = np.random.default_rng(47)
    seed = random_symmetric_seed(rng, 4, d=2)
    tri = von_neumann_triplet(seed)
    h = rng.standard_normal((2, 2))
    op_ext = extension_of(tri, graph_of((h + h.T) / 2))
    a0 = tri.a0
    eq, _ = relations_equal(comp_sum(op_ext, a0), seed.A_star)
    assert eq
    eq, _ = relations_equal(intersect(op_ext, a0), seed.A)
    assert eq
    # vertical parameter: extension equals A0, not transversal
    vert_ext = extension_of(tri, vertical_relation(2))
    eq, _ = relations_equal(comp_sum(vert_ext, a0), seed.A_star)
    assert not eq


def test_scalar_weyl_functions():
    tri = model_triplet([None])
    for lam in (1j, 2j, -0.5 + 1j):
        ws = gamma_and_weyl(tri, lam)
        assert abs(ws.weyl[0, 0] - lam) < 1e-12
        assert abs(abs(ws.gamma_field[0, 0]) - 1.0) < 1e-12
    tri2 = model_triplet([0.7])
    for lam in (1j, 2j):
        ws = gamma_and_weyl(tri2, lam)
        assert abs(ws.weyl[0, 0] - 1.0 / (0.7 - lam)) < 1e-12


def test_weyl_function_is_not_evaluated_on_the_real_axis():
    with pytest.raises(ValueError, match="Weyl function is evaluated on the real axis"):
        gamma_and_weyl(model_triplet([None]), complex(0.5, 0.0))


def test_gamma0_singular_on_the_defect_subspace_is_a_triplet_error(monkeypatch):
    """weyl_at_i, the one inversion of Gamma0 on a defect frame, raises
    TripletError where that inversion fails."""
    tri = model_triplet([None])

    def singular(left, right):
        raise SpectrumError("left half of the frame is not invertible")
    monkeypatch.setattr(triplet, "graph_operator", singular)
    with pytest.raises(TripletError, match="Gamma0 restricted to the defect subspace"):
        tri.weyl_at_i


def test_weyl_function_matches_its_closed_form_up_the_imaginary_axis():
    """On the model triplets M(lam) = lam and diag(lam, 1/(-0.7 - lam)),
    M(iy) is within 1e-15 of its closed form, relative to it, at every
    y = 10^0 ... 10^16, where inverting Gamma0 on the defect frame at iy
    rejected y >= 1e10 and y >= 1e9."""
    y = 10.0 ** np.arange(17)
    lam = 1j * y
    for blocks, closed in (([None], lam[:, None]),
                           ([None, -0.7], np.stack([lam, 1.0 / (-0.7 - lam)], axis=-1))):
        weyl = gamma_and_weyl(model_triplet(blocks), lam).weyl
        expected = closed[:, :, None] * np.eye(len(blocks))
        err = np.linalg.norm(weyl - expected, 2, axis=(1, 2)) \
            / np.linalg.norm(expected, 2, axis=(1, 2))
        assert np.max(err) <= 1e-15, (blocks, err)


def test_weyl_nevanlinna_positivity_and_symmetry():
    rng = np.random.default_rng(53)
    for _ in range(15):
        seed = random_symmetric_seed(rng, int(rng.integers(2, 6)),
                                     d=int(rng.integers(1, 3)))
        d = seed.A.n - seed.A.dim
        tri = von_neumann_triplet(seed, V=random_unitary(rng, d))
        lam = complex(rng.uniform(-2, 2), rng.uniform(0.5, 2))
        m = gamma_and_weyl(tri, lam).weyl
        m_bar = gamma_and_weyl(tri, np.conj(lam)).weyl
        assert np.max(np.abs(m_bar - m.conj().T)) < 1e-9
        im = (m - m.conj().T) / 2j
        assert np.min(np.linalg.eigvalsh((im + im.conj().T) / 2)) > -1e-9


def test_weyl_identities_random_and_degenerate():
    rng = np.random.default_rng(59)
    for _ in range(10):
        seed = random_symmetric_seed(rng, int(rng.integers(2, 6)),
                                     d=int(rng.integers(1, 3)))
        d = seed.A.n - seed.A.dim
        tri = von_neumann_triplet(seed, V=random_unitary(rng, d))
        r1, r2 = weyl_identity_residuals(tri, 1j, 2j)
        assert r1 < 1e-8 and r2 < 1e-8
        r1, r2 = weyl_identity_residuals(tri, 1j, 1j)
        assert r1 < 1e-10 and r2 < 1e-8
        r1, r2 = weyl_identity_residuals(tri, 0.4 + 1.3j, 0.4 - 1.3j)
        assert r1 < 1e-8 and r2 < 1e-8


def test_forbidden_relation_shapes():
    assert forbidden_relation(model_triplet([None])).frame.shape == (2, 1)
    eq, _ = relations_equal(forbidden_relation(model_triplet([None])),
                            vertical_relation(1))
    assert eq
    # pole triplet: Gamma0 n = n, Gamma1 n = 0 -> horizontal relation
    horizontal = make_relation(np.array([[1.0], [0.0]]), 1)
    eq, _ = relations_equal(forbidden_relation(model_triplet([0.0])), horizontal)
    assert eq


def test_forbidden_dimension_counts_mul_of_adjoint():
    # dim F = dim mul A* = codim of dom A; trivial only for dense domains,
    # which in finite dimension forces A self-adjoint
    rng = np.random.default_rng(61)
    seed = random_symmetric_seed(rng, 4, d=2, n_mul=0)
    tri = von_neumann_triplet(seed)
    from relcomp.linrel import parts
    assert forbidden_relation(tri).dim == parts(seed.A_star).mul.shape[1] == 2
    dense = SymmetricSeed.from_relation(graph_of(np.diag([1.0, 2.0])))
    assert forbidden_relation(von_neumann_triplet(dense)).dim == 0


def test_forbidden_asymptotics_scalar_models():
    # M = lam tends to F = {0} (+) C, and M = 1/(0.3 - lam) to F = C (+) {0}
    assert check_forbidden_asymptotics(model_triplet([None])) < 1e-10
    assert check_forbidden_asymptotics(model_triplet([0.3])) < 1e-10


def test_forbidden_asymptotics_vacuous_for_selfadjoint():
    seed = SymmetricSeed.from_relation(graph_of(np.diag([1.0, 2.0])))
    assert check_forbidden_asymptotics(von_neumann_triplet(seed)) == 0.0
