"""Exit-space oracle: factor model, coupling, compressions."""
import ast
from pathlib import Path

import numpy as np
import pytest

from relcomp.driver import (
    CHECKS,
    VerifyContext,
    admissible_lambdas,
    build_problem,
    generate_instance,
    krein_residuals,
)
import relcomp.exitspace as exitspace
from relcomp.exitspace import (
    ExitSpaceModel,
    ModelError,
    build_exit_space,
    direct_compression,
    generalized_resolvent_direct,
    minimality,
    model_maps,
    psd_factor,
)
from relcomp.extension import classify_compression, rank_sum
from relcomp.linrel import (
    DEFAULT_TOL,
    classify_symmetry,
    graph_of,
    orth,
    relations_equal,
    zero_relation,
)
from relcomp.nevanlinna import RationalNevanlinna
import relcomp.triplet as triplet
from relcomp.triplet import BoundaryTriplet, SymmetricSeed, gamma_and_weyl

from test_driver import _eighty_instances
from test_extension import random_problem
from test_nevanlinna import random_tau
from test_triplet import model_triplet


def test_pure_mul_gives_a0():
    """K = C^d: no exit space, and A~ = A0 = ker Gamma0."""
    rng = np.random.default_rng(5)
    tri, _ = random_problem(rng)
    d = tri.boundary_dim
    tau = RationalNevanlinna.build(d, mul_span=np.eye(d))
    model = build_exit_space(tri, tau)
    assert model.dim_r == 0
    eq, _ = relations_equal(model.a_tilde, tri.a0)
    assert eq


@pytest.mark.parametrize("route", [build_exit_space, classify_compression])
@pytest.mark.parametrize("extra", [-1, 1])
def test_parameter_off_the_boundary_space_raises(route, extra):
    """The oracle and the formula route each reject a tau whose dimension
    is not the boundary dimension with ValueError."""
    tri, _ = random_problem(np.random.default_rng(5))
    d = tri.boundary_dim + extra
    with pytest.raises(ValueError):
        route(tri, RationalNevanlinna.build(d, b=np.eye(d)))


def test_exit_space_dimension_bookkeeping():
    # B = diag(1, 0), A = 0, no poles: n_r = 1, dim A~ = n + n_r, and the
    # direct S gains the direction H'' = span e2 over A
    rng = np.random.default_rng(7)
    tri, _ = random_problem(rng, n_max=5, d_max=2)
    while tri.boundary_dim != 2:
        tri, _ = random_problem(rng, n_max=5, d_max=2)
    model = build_exit_space(tri, RationalNevanlinna.build(2, b=np.diag([1.0, 0.0])))
    n = tri.space_dim
    assert model.dim_r == 1
    assert model.a_tilde.dim == n + 1
    assert direct_compression(model)[1].dim == tri.seed.A.dim + 1


def test_a_tilde_and_its_compressions_start_with_a():
    """On the 80 instances, A~ holds the seed's A, whose frame leads A~'s
    with zero exit rows, and S, C and T start with A's frame exactly."""
    for i, (inst, _) in enumerate(_eighty_instances()):
        tri, tau = build_problem(inst)
        model = build_exit_space(tri, tau)
        a, p = tri.seed.A.frame, tri.seed.A.dim
        n, nr = model.dim_h, model.dim_r
        assert model.a is tri.seed.A, i
        head = model.a_tilde.frame[:, :p]
        assert np.array_equal(head[:n], a[:n]) and np.array_equal(head[n + nr:2 * n + nr], a[n:]), i
        assert not np.any(head[n:n + nr]) and not np.any(head[2 * n + nr:]), i
        for rel in direct_compression(model):
            assert np.array_equal(rel.frame[:, :p], a), i


def test_split_compressions_match_a_model_that_declares_no_a():
    """On the 80 instances, direct_compression on the model whose A is
    {{0, 0}} and whose w is the identity, which splits A~'s whole frame,
    gives C, S and T within 1e-13 of the split off A."""
    for i, (inst, _) in enumerate(_eighty_instances()):
        model = build_exit_space(*build_problem(inst))
        n, nr, frame = model.dim_h, model.dim_r, model.a_tilde.frame
        # A~'s rows (f, f_r, f', f_r') as coordinates (f, f', f_r, f_r') on I (+) C^{2n_r}
        coords = np.vstack([frame[:n], frame[n + nr:2 * n + nr], frame[n:n + nr], frame[2 * n + nr:]])
        whole = direct_compression(ExitSpaceModel(zero_relation(n), np.eye(2 * n), coords))
        for split, plain in zip(direct_compression(model), whole):
            assert relations_equal(split, plain)[1] <= 1e-13, i


def test_no_svd_of_the_oracle_reads_the_dimension_of_a(monkeypatch):
    """On an n = 96 instance (d = 18, n_r = 34, dim K = 2, dim A = 78),
    build_exit_space's one coupling null space is (2d + 2n_r) x (d + n_r),
    as the tall adjoint of its rows, beside the complement of K, and every
    SVD of direct_compression is at most d + n_r on each side, but for the
    orth of ``extend``, whose at most n_r new columns have the 2d rows of
    coordinates on W.  Every side over A* or the whole of A~'s frame would
    be at least n + n_r > 2d + 2n_r here."""
    inst = generate_instance(np.random.default_rng(1513), 96, 48, 4)
    tri, tau = build_problem(inst)
    n, d, nr, k = inst.dim, tau.dim, rank_sum(tau), tau.mul_frame.shape[1]
    assert (n, d, nr, k, tri.seed.A.dim) == (96, 18, 34, 2, 78)
    assert n + nr > 2 * (d + nr)
    shapes = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda a, *args, **kwargs: (
        shapes.append(a.shape) or svd(a, *args, **kwargs)))
    model = build_exit_space(tri, tau)
    assert shapes == [(d, k), (2 * d + 2 * nr, d + nr)]
    shapes.clear()
    direct_compression(model)
    assert len(shapes) == 4
    for rows, cols in shapes:
        assert max(rows, cols) <= d + nr or (rows == 2 * d and cols <= nr), (rows, cols)


def _model_triplet(tau):
    """tau's model maps as a boundary triplet on the trivial seed in C^{n_r}."""
    G, g0_r, g1_r = model_maps(tau)
    seed = SymmetricSeed.from_relation(zero_relation(G.shape[0]))
    return G, BoundaryTriplet.from_ambient_maps(seed, g0_r, g1_r)


def test_realize_linear_scalar():
    """tau = lam: one exit dimension, A = {0} on it, and M_r(lam) = lam."""
    _, tri_r = _model_triplet(RationalNevanlinna.build(1, b=[[1.0]]))
    assert tri_r.space_dim == 1
    assert tri_r.seed.A.dim == 0
    m = gamma_and_weyl(tri_r, 1.3j).weyl
    assert abs(m[0, 0] - 1.3j) < 1e-12


def test_realize_pole_scalar():
    """tau = (0 - lam)^{-1}: one exit dimension and M_r(lam) = (0 - lam)^{-1}."""
    _, tri_r = _model_triplet(RationalNevanlinna.build(1, poles=[(0.0, [[1.0]])]))
    assert tri_r.space_dim == 1
    m = gamma_and_weyl(tri_r, 2j).weyl
    assert abs(m[0, 0] - 1.0 / (0.0 - 2j)) < 1e-12


def test_realize_counts_rank_blocks():
    """n_r counts rank B plus the rank of each pole coefficient."""
    tau = RationalNevanlinna.build(1, b=[[1.0]], poles=[(1.0, [[2.0]])])
    _, tri_r = _model_triplet(tau)
    assert tri_r.space_dim == 2 == rank_sum(tau)


def test_realize_weyl_matches_random():
    """On the trivial seed in C^{n_r}, the model maps have the Weyl function
    M_r(lam) = diag(lam I, (alpha_j - lam)^{-1} I), with rank B rows of
    lam and rank A_j rows for pole j, and A + G^H M_r(lam) G = tau0(lam)."""
    rng = np.random.default_rng(11)
    for _ in range(20):
        tau = random_tau(rng, int(rng.integers(1, 4)), k=int(rng.integers(0, 2)))
        G, tri_r = _model_triplet(tau)
        assert G.shape[0] == rank_sum(tau)
        ranks = [orth(m).shape[1] for m in (tau.b_coef, *(aj for _, aj in tau.poles))]
        for _ in range(3):
            lam = complex(rng.uniform(-2, 2), rng.choice([-1, 1]) * rng.uniform(0.5, 2))
            inverse_gaps = [1.0 / (alpha - lam) for alpha, _ in tau.poles]
            expected = np.diag(np.repeat([lam, *inverse_gaps], ranks))
            m_r = gamma_and_weyl(tri_r, lam).weyl
            assert np.max(np.abs(m_r - expected), initial=0.0) < 1e-12
            tau0 = tau.a_coef + G.conj().T @ m_r @ G
            assert np.max(np.abs(tau0 - tau.tau0(lam))) < 1e-12


def test_build_exit_space_reads_no_formula_route(monkeypatch):
    """A~ comes from Gamma0, Gamma1, A*, tau's coefficients and K alone: it
    is built with the boundary lift, A0, the Weyl function, extensions and
    tau's ``spectra`` and ``op_frame`` all made to raise."""
    rng = np.random.default_rng(47)
    problems = [random_problem(rng) for _ in range(10)]
    problems.append(build_problem(generate_instance(
        np.random.default_rng(292), max_dim=96, max_boundary=48, max_poles=4)))
    expected = [build_exit_space(tri, tau).a_tilde for tri, tau in problems]

    def refuse(*args, **kwargs):
        raise AssertionError("the oracle read the formula route")
    for cls, name in ((BoundaryTriplet, "lift"), (BoundaryTriplet, "a0"),
                      (BoundaryTriplet, "weyl_at_i"), (BoundaryTriplet, "gamma_i_in_a0_basis"),
                      (RationalNevanlinna, "spectra"),
                      (RationalNevanlinna, "op_frame")):
        monkeypatch.setattr(cls, name, property(refuse))
    for name in ("gamma_and_weyl", "extension_of"):
        monkeypatch.setattr(triplet, name, refuse)
    for (tri, tau), a_tilde in zip(problems, expected):
        assert np.array_equal(build_exit_space(tri, tau).a_tilde.frame, a_tilde.frame)


def test_exitspace_imports_nothing_of_the_formula_route():
    """The oracle module takes only the BoundaryTriplet class from
    ``triplet`` and nothing from ``extension``, so no function of the
    formula route can enter its results."""
    tree = ast.parse(Path(exitspace.__file__).read_text())
    imported = {(node.module, alias.name) for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert {name for module, name in imported if module == "triplet"} == {"BoundaryTriplet"}
    assert not {name for module, name in imported if module == "extension"}
    assert not [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names if alias.name.startswith("relcomp")]


def test_swap_anchor_coupling():
    tri = model_triplet([None])
    tau = RationalNevanlinna.build(1, poles=[(0.0, [[1.0]])])
    model = build_exit_space(tri, tau)
    swap = graph_of(np.array([[0.0, 1.0], [1.0, 0.0]]))
    eq, resid = relations_equal(model.a_tilde, swap)
    assert eq and resid < 1e-12
    C, S, T = direct_compression(model)
    eq, resid = relations_equal(C, graph_of(np.zeros((1, 1))))
    assert eq and resid < 1e-12
    assert S.dim == 0
    assert T.dim == 2
    r = generalized_resolvent_direct(model, 2j)
    assert abs(r[0, 0] - 0.4j) < 1e-12
    assert minimality(model)


def test_coupled_relation_selfadjoint_random():
    rng = np.random.default_rng(13)
    for _ in range(20):
        tri, tau = random_problem(rng)
        model = build_exit_space(tri, tau)
        assert classify_symmetry(model.a_tilde) == "self_adjoint"


def _uncoupled_problem():
    """(tri, tau, model) with A~ replaced by the direct sum of A0 and the
    vertical relation in H_r: the resolvent never leaves H.  A0 is
    A (+) W Y0, so the rest of A~ has coordinates Y0 beside a vertical
    exit block."""
    rng = np.random.default_rng(17)
    tri, tau = random_problem(rng)
    model = build_exit_space(tri, tau)
    assert model.dim_r > 0
    nr, y0 = model.dim_r, tri.a0.coords
    m = y0.shape[0]
    coords = np.zeros((m + 2 * nr, y0.shape[1] + nr), dtype=complex)
    coords[:m, :-nr] = y0
    coords[m + nr:, -nr:] = np.eye(nr)   # vertical block in H_r
    return tri, tau, ExitSpaceModel(tri.seed.A, tri.seed.w, coords)


def test_uncoupled_model_not_minimal():
    tri, _, uncoupled = _uncoupled_problem()
    assert not minimality(uncoupled)
    C, _, _ = direct_compression(uncoupled)
    eq, _ = relations_equal(C, tri.a0)
    assert eq


def test_exit_dimension_fails_on_a_non_minimal_model():
    tri, tau, uncoupled = _uncoupled_problem()
    ctx = VerifyContext(tri, tau, None)
    ctx.model = uncoupled
    exit_dimension = CHECKS["exit_dimension"]
    assert exit_dimension.residual(ctx) == uncoupled.dim_r
    assert exit_dimension.residual(ctx) >= exit_dimension.threshold


def _worst_on_random_problems(check, seed, count):
    """Largest residual of a verify check over seeded random problems."""
    rng = np.random.default_rng(seed)
    return max(CHECKS[check].residual(VerifyContext(*random_problem(rng), rng))
               for _ in range(count))


def test_direct_compression_chain_random():
    assert _worst_on_random_problems("compression_chain", 19, 20) < 1e-8


def test_s_direct_matches_theta0_extension():
    assert _worst_on_random_problems("s_direct_matches_theta0", 23, 20) < DEFAULT_TOL


def test_oracle_agrees_with_formula_compression():
    assert _worst_on_random_problems("compression_equivalence", 31, 30) < DEFAULT_TOL


def test_generalized_resolvent_matches_krein():
    rng = np.random.default_rng(37)
    for _ in range(15):
        tri, tau = random_problem(rng)
        model = build_exit_space(tri, tau)
        _, direct = krein_residuals(tri, tau, model, admissible_lambdas(rng, 1))
        assert direct < CHECKS["krein_formula"].threshold


def test_minimal_models_have_exact_exit_dimension():
    exit_dimension = CHECKS["exit_dimension"]
    rng = np.random.default_rng(41)
    checked = 0
    for _ in range(30):
        ctx = VerifyContext(*random_problem(rng), None)
        assert exit_dimension.residual(ctx) < exit_dimension.threshold
        checked += minimality(ctx.model)
    assert checked >= 10


def test_psd_factor_keeps_what_the_rank_cut_keeps():
    """psd_factor of a stack has, for each PSD m in it, rank(m) rows when m
    has an eigenvalue just above or just below the cut
    DEFAULT_TOL * max(||m||, 1), at scales from 1e-6 to 1e6 in one stack,
    so each matrix is cut on its own largest eigenvalue, and D^H D is m
    compressed to the kept eigenvectors."""
    rng = np.random.default_rng(43)
    for n in (2, 5):
        stack, kept = [], []
        for scale in (1e-6, 1.0, 1e6):
            cut = DEFAULT_TOL * max(scale, 1.0)
            u = np.linalg.qr(rng.standard_normal((n, n))
                             + 1j * rng.standard_normal((n, n)))[0]
            for edge in (1.01, 0.99):
                w = np.zeros(n)
                w[0], w[1] = scale, edge * cut
                w[2:] = scale * rng.random(n - 2) * rng.integers(0, 2, n - 2)
                stack.append((u * w) @ u.conj().T)
                kept.append((scale, u[:, w > cut]))
        stack.append(np.zeros((n, n)))
        kept.append((1.0, np.zeros((n, 0))))
        factors = psd_factor(np.array(stack))
        assert len(factors) == len(stack)
        for D, m, (scale, vecs) in zip(factors, stack, kept):
            assert D.shape == (orth(m).shape[1], n) == (vecs.shape[1], n)
            on_kept = vecs @ (vecs.conj().T @ m @ vecs) @ vecs.conj().T
            assert np.max(np.abs(D.conj().T @ D - on_kept), initial=0.0) <= 1e-14 * scale
    assert orth(np.zeros((3, 3))).shape == (3, 0)


def test_coupling_with_a_sign_flipped_model_is_a_model_error(monkeypatch):
    """With Gamma1^r negated, the coupling conditions no longer cancel the
    Green forms of the base and model pairs."""
    rng = np.random.default_rng(3)
    tri, tau = random_problem(rng)
    while rank_sum(tau) == 0:
        tri, tau = random_problem(rng)
    maps = exitspace.model_maps

    def flipped(tau):
        G, g0_r, g1_r = maps(tau)
        return G, g0_r, -g1_r
    monkeypatch.setattr(exitspace, "model_maps", flipped)
    with pytest.raises(ModelError, match="not self-adjoint"):
        build_exit_space(tri, tau)


def test_coupled_relation_of_the_wrong_dimension_is_a_model_error(monkeypatch):
    """With a column of the coupling kernel dropped, A~ has dimension
    n + n_r - 1, and the model is refused before its symmetry is read."""
    tri, tau = random_problem(np.random.default_rng(3))
    kernel = exitspace.null_space
    monkeypatch.setattr(exitspace, "null_space", lambda mat: kernel(mat)[:, 1:])
    n_nr = tri.space_dim + rank_sum(tau)
    with pytest.raises(ModelError, match=rf"dimension {n_nr - 1}, not n \+ n_r = {n_nr}"):
        build_exit_space(tri, tau)
