"""Relation arithmetic: construction, parts, adjoints, resolvents."""
import ast
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import relcomp.linrel as linrel
from relcomp.linrel import (
    DEFAULT_TOL,
    LinearRelation,
    SpectrumError,
    _check_ambient,
    _cut,
    _norm2,
    _norm_below,
    adjoint,
    classify_symmetry,
    complement,
    containment_residual,
    diagonalize,
    extend,
    graph_of,
    graph_operator,
    intersect,
    kernel_split,
    make_relation,
    orth,
    parts,
    relations_equal,
    resolvent,
    vertical_relation,
    zero_relation,
)

SRC = Path(__file__).resolve().parents[1] / "src" / "relcomp"


def comp_sum(T1: LinearRelation, T2: LinearRelation) -> LinearRelation:
    """Reference componentwise sum: the span of the union of the two
    subspaces, orthonormalized by make_relation."""
    _check_ambient(T1, T2)
    return make_relation(np.hstack([T1.frame, T2.frame]), T1.n)


def inverse(T: LinearRelation) -> LinearRelation:
    """Reference inverse relation: the pair components swapped."""
    return LinearRelation(np.vstack([T.right, T.left]))


def random_relation(rng, n, r=None):
    r = int(rng.integers(0, 2 * n + 1)) if r is None else r
    span = rng.standard_normal((2 * n, r)) + 1j * rng.standard_normal((2 * n, r))
    return make_relation(span, n)


def subspace_equal(frame_a, frame_b, tol=1e-9):
    pa = frame_a @ frame_a.conj().T
    pb = frame_b @ frame_b.conj().T
    return np.max(np.abs(pa - pb), initial=0.0) < tol


def perturbed(rng, frame, eps):
    """Orthonormal frame of frame + E with ||E||_2 = eps."""
    noise = rng.standard_normal(frame.shape) + 1j * rng.standard_normal(frame.shape)
    return orth(frame + eps * noise / np.linalg.norm(noise, 2))


def test_make_relation_collapses_dependent_columns():
    T = make_relation(np.array([[1.0, 2.0], [0.0, 0.0]]), 1)
    assert T.dim == 1
    assert subspace_equal(T.frame, np.array([[1.0], [0.0]], dtype=complex))


def test_make_relation_empty_span():
    T = make_relation(np.zeros((4, 0)), 2)
    assert T.dim == 0


def test_make_relation_idempotent_on_frames():
    T = graph_of(np.eye(2))
    T2 = make_relation(T.frame, 2)
    eq, resid = relations_equal(T, T2)
    assert eq and resid < 1e-12


def test_graph_of_a_stack_is_the_stack_of_graphs():
    """A stack of two 3 x 3 matrices gives the stack of their graphs in
    C^3: each of dimension 3, and each the graph of its own matrix."""
    rng = np.random.default_rng(53)
    mats = rng.standard_normal((2, 3, 3)) + 1j * rng.standard_normal((2, 3, 3))
    stacked = graph_of(mats)
    assert (stacked.n, stacked.dim, stacked.frame.shape) == (3, 3, (2, 6, 3))
    for frame, m in zip(stacked.frame, mats):
        assert np.allclose(frame, graph_of(m).frame, rtol=0.0, atol=1e-15)


@pytest.mark.parametrize("shape", [(3, 2), (2, 3, 2), (4,)])
def test_graph_of_a_matrix_that_is_not_square_names_its_shape(shape):
    """A relation lives in one space, so the graph of a matrix that is not
    square, or of a stack of them, is a ValueError naming the shape."""
    with pytest.raises(ValueError, match=re.escape(f"not shape {shape}")):
        graph_of(np.ones(shape))


def test_make_relation_rejects_nonfinite():
    with pytest.raises(ValueError):
        make_relation(np.array([[np.nan], [0.0]]), 1)


def test_parts_vertical():
    p = parts(vertical_relation(1))
    assert p.dom.shape[1] == 0 and p.ker.shape[1] == 0
    assert p.mul.shape[1] == 1 and p.ran.shape[1] == 1


def test_parts_identity_graph():
    p = parts(graph_of(np.eye(2)))
    assert p.dom.shape[1] == 2 and p.ran.shape[1] == 2
    assert p.ker.shape[1] == 0 and p.mul.shape[1] == 0


def test_parts_nilpotent_matrix():
    # M(x, y) = (y, 0): kernel from an independent dense null-space solve
    M = np.array([[0.0, 1.0], [0.0, 0.0]])
    p = parts(graph_of(M))
    _, _, vh = np.linalg.svd(M)
    ker_oracle = vh[1:].conj().T
    assert subspace_equal(p.ker, ker_oracle)
    assert subspace_equal(p.ran, np.array([[1.0], [0.0]], dtype=complex))
    assert p.mul.shape[1] == 0


def test_adjoint_identity_graph():
    eq, _ = relations_equal(adjoint(graph_of(np.eye(2))), graph_of(np.eye(2)))
    assert eq


def test_adjoint_of_zero_is_full():
    eq, _ = relations_equal(adjoint(zero_relation(1)),
                            LinearRelation(np.eye(2, dtype=complex)))
    assert eq


def test_adjoint_matches_hermitian_transpose_oracle():
    rng = np.random.default_rng(7)
    for _ in range(20):
        M = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        eq, resid = relations_equal(adjoint(graph_of(M)), graph_of(M.conj().T))
        assert eq, resid


def test_comp_sum_spans_everything():
    horizontal = make_relation(np.array([[1.0], [0.0]]), 1)
    eq, _ = relations_equal(comp_sum(vertical_relation(1), horizontal),
                            LinearRelation(np.eye(2, dtype=complex)))
    assert eq


def test_intersect_idempotent():
    rng = np.random.default_rng(3)
    for _ in range(10):
        T = random_relation(rng, 3)
        eq, _ = relations_equal(intersect(T, T), T)
        assert eq


def test_graph_meets_vertical_at_zero():
    meet = intersect(graph_of(np.eye(2)), vertical_relation(2))
    assert meet.dim == 0


def test_intersect_dimension_mismatch():
    with pytest.raises(ValueError):
        intersect(zero_relation(1), zero_relation(2))


def _complement_by_full_svd(frame):
    """The complement of an orthonormal d x k frame as the last d - k
    columns of the full U of its SVD."""
    return np.linalg.svd(frame, full_matrices=True)[0][:, frame.shape[1]:]


def test_complement_and_adjoint_match_the_full_svd_route():
    """complement and adjoint read the full U of the SVD of the tall frame
    (on the adjoint's J F = (R; -L)), bit for bit, so the coordinates of a
    tau file's h0 do not move; on orthonormal d x k frames with d up to 60,
    k = 0 and k = d included, and on the J frames of random relations."""
    rng = np.random.default_rng(41)
    for d, k in ((1, 0), (1, 1), (2, 1), (5, 0), (5, 2), (5, 5), (17, 6),
                 (40, 39), (60, 0), (60, 23), (60, 60)):
        frame = _unitary(rng, d)[:, :k]
        assert np.array_equal(complement(frame), _complement_by_full_svd(frame))
    for n, r in ((1, 1), (3, 0), (3, 2), (3, 6), (5, 3), (12, 12), (24, 30), (30, 60)):
        span = rng.standard_normal((2 * n, r)) + 1j * rng.standard_normal((2 * n, r))
        T = make_relation(span, n)
        j_frame = np.vstack([T.right, -T.left])
        expected = _complement_by_full_svd(j_frame)
        assert np.array_equal(complement(j_frame), expected)
        T_star = adjoint(T)
        assert T_star.n == n
        assert np.array_equal(T_star.frame, expected)


def _intersect_by_complements(T1, T2):
    """T1 meet T2 as the complement of the span of the two complements."""
    def comp(frame):
        if frame.shape[1] == 0:
            return np.eye(frame.shape[0], dtype=complex)
        return _complement_by_full_svd(frame)
    meet = comp(orth(np.hstack([comp(T1.frame), comp(T2.frame)])))
    return LinearRelation(meet)


def test_intersect_matches_the_complement_route(monkeypatch):
    """On pairs that share a planted subspace of dimension 0 to 3 and are
    otherwise in general position, intersect has the planted dimension,
    lies within 1e-12 of the complement route, has an orthonormal frame
    and takes one SVD."""
    rng = np.random.default_rng(43)
    pairs = []
    for n in (2, 3, 4, 6, 12):
        dim = 2 * n
        for m in range(4):
            for extra1, extra2 in ((0, 0), (1, 2), (dim - m, 0), ((dim - m) // 2, (dim - m) // 2)):
                if m + extra1 + extra2 > dim:
                    continue
                q = _unitary(rng, dim)
                shared, rest = q[:, :m], q[:, m:]
                spans = (np.hstack([shared, rest[:, :extra1]]),
                         np.hstack([shared, rest[:, extra1:extra1 + extra2]]))
                # mix each span's columns so neither frame starts with the shared part
                T1, T2 = (make_relation(sp @ _unitary(rng, sp.shape[1]), n)
                          for sp in spans)
                pairs.append((T1, T2, m))
    assert len(pairs) >= 50
    references = [_intersect_by_complements(T1, T2) for T1, T2, _ in pairs]
    svd, calls, meets = np.linalg.svd, [], []
    monkeypatch.setattr(np.linalg, "svd", lambda *args, **kwargs: calls.append(1)
                        or svd(*args, **kwargs))
    for T1, T2, _ in pairs:
        calls.clear()
        meets.append((intersect(T1, T2), len(calls)))
    monkeypatch.undo()
    for (T1, _, m), reference, (meet, svds) in zip(pairs, references, meets):
        assert meet.dim == reference.dim == m
        assert relations_equal(meet, reference)[1] <= 1e-12
        assert _unitary_gap(meet.frame) <= 1e-14
        assert svds == (1 if T1.dim else 0)


def test_classify_swap_matrix():
    assert classify_symmetry(graph_of(np.array([[0.0, 1.0], [1.0, 0.0]]))) \
        == "self_adjoint"


def test_a_frame_of_the_wrong_row_count_is_rejected():
    """n is read off the 2n rows of a frame, so an odd row count, of one
    frame or of a stack of them, is a ValueError."""
    for shape in ((3, 1), (1, 0), (2, 5, 2)):
        with pytest.raises(ValueError, match=f"frame row count {shape[-2]} is odd"):
            LinearRelation(np.zeros(shape, dtype=complex))


def test_classify_vertical():
    assert classify_symmetry(vertical_relation(1)) == "self_adjoint"


def test_classify_strictly_symmetric():
    # {(a,0) -> (a,0)} in C^2: symmetric restriction of the identity
    span = np.array([[1.0], [0.0], [1.0], [0.0]])
    T = make_relation(span, 2)
    assert classify_symmetry(T) == "symmetric"
    assert containment_residual(T.frame, adjoint(T).frame) < DEFAULT_TOL
    assert adjoint(T).dim > T.dim


def _symmetry_via_adjoint(T):
    """Reference: T in T*, then T = T*, with T* built by ``adjoint``."""
    T_star = adjoint(T)
    if containment_residual(T.frame, T_star.frame) >= DEFAULT_TOL:
        return "not_symmetric"
    return "self_adjoint" if relations_equal(T, T_star)[0] else "symmetric"


def _symmetric_relation(rng, n, m, k):
    """{{h, Hh + g}: h in D, g in M} with H Hermitian and D (dim m)
    orthogonal to M (dim k): symmetric, self-adjoint iff m + k = n."""
    q = np.linalg.qr(rng.standard_normal((n, n))
                     + 1j * rng.standard_normal((n, n)))[0]
    dom, mul = q[:, :m], q[:, m:m + k]
    h = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    h = (h + h.conj().T) / 2
    span = np.vstack([np.hstack([dom, np.zeros((n, k))]),
                      np.hstack([h @ dom, mul])])
    return make_relation(span, n)


def _normal_graph(rng, green, flat, n=4):
    """Graph of U diag(i t) U^H, t = g / (1 + sqrt(1 - g^2)) on every
    coordinate (flat) or on one, whose Green form has spectral norm
    2t / (1 + t^2) = g = green."""
    t = np.zeros(n)
    t[:n if flat else 1] = green / (1 + np.sqrt(1 - green ** 2))
    u = _unitary(rng, n)
    return graph_of((u * 1j * t) @ u.conj().T)


def test_classify_symmetry_green_form_matches_adjoint_route():
    rng = np.random.default_rng(77)
    self_adjoint = _symmetric_relation(rng, 6, 4, 2)
    cases = [
        (vertical_relation(3), "self_adjoint"),
        (zero_relation(3), "symmetric"),
        (LinearRelation(np.eye(6, dtype=complex)), "not_symmetric"),
        (graph_of(np.array([[0.0, 1.0], [1.0, 0.0]])), "self_adjoint"),
        # a graph keeps its dimension however large the operator is
        *((graph_of(np.diag([s, 0.0])), "self_adjoint") for s in (1e9, 1e10, 1e12)),
        (self_adjoint, "self_adjoint"),
        (LinearRelation(perturbed(rng, self_adjoint.frame, 1e-11)),
         "self_adjoint"),
        (LinearRelation(perturbed(rng, self_adjoint.frame, 1e-7)),
         "not_symmetric"),
        # Green norms planted on both sides of the cut, with a flat and a
        # rank-one spectrum: the two ends of its Frobenius bracket
        *((_normal_graph(rng, green, flat), expected)
          for green, expected in ((0.5e-9, "self_adjoint"), (2e-9, "not_symmetric"))
          for flat in (True, False)),
    ]
    for n in (1, 2, 5, 9):
        for m in range(n + 1):
            for k in sorted({0, n - m}):
                expected = "self_adjoint" if m + k == n else "symmetric"
                cases.append((_symmetric_relation(rng, n, m, k), expected))
        for r in (1, n, 2 * n - 1):
            cases.append((random_relation(rng, n, r=r), "not_symmetric"))
    for T, expected in cases:
        assert classify_symmetry(T) == expected
        assert _symmetry_via_adjoint(T) == expected


def test_selfadjoint_dom_complements_mul():
    rng = np.random.default_rng(19)
    for _ in range(20):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(0, n + 1))
        q = np.linalg.qr(rng.standard_normal((n, n))
                         + 1j * rng.standard_normal((n, n)))[0]
        h = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        h = (h + h.conj().T) / 2
        dom = q[:, :m]
        span = np.vstack([
            np.hstack([dom, np.zeros((n, n - m))]),
            np.hstack([dom @ (dom.conj().T @ h @ dom), q[:, m:]]),
        ])
        theta = make_relation(span, n)
        assert classify_symmetry(theta) == "self_adjoint"
        p = parts(theta)
        assert p.dom.shape[1] + p.mul.shape[1] == n


def test_resolvent_vertical_is_zero():
    for n in (1, 0):
        for lam in (1j, 2j, 1 + 1j):
            assert np.array_equal(resolvent(vertical_relation(n), lam), np.zeros((n, n)))


def test_resolvent_swap_matrix_against_dense_inverse():
    M = np.array([[0.0, 1.0], [1.0, 0.0]])
    lam = 2j
    oracle = np.linalg.inv(M - lam * np.eye(2))
    assert np.max(np.abs(resolvent(graph_of(M), lam) - oracle)) < 1e-12


def test_resolvent_eigenvalue_hit():
    with pytest.raises(SpectrumError):
        resolvent(graph_of(np.diag([1.0, 2.0])), 1.0)


@pytest.mark.parametrize("scale", [1e-6, 1e6])
def test_resolvent_eigenvalue_hit_at_any_scale(scale):
    T = graph_of(scale * np.diag([1.0, 2.0]))
    with pytest.raises(SpectrumError):
        resolvent(T, scale)
    lam = scale * (1.5 + 0.5j)
    oracle = np.diag(1.0 / (scale * np.array([1.0, 2.0]) - lam))
    # The graph frame holds its left half (entries ~ 1/scale) to absolute
    # precision, so relative accuracy degrades like eps * scale above 1.
    rel_err = np.max(np.abs(resolvent(T, lam) - oracle)) * scale
    assert rel_err < 1e-14 * max(scale, 1.0)


def _resolvent_svd(T, lam):
    """Reference: L (R - lam L)^{-1} from one SVD U diag(s) V* of
    R - lam L, and the condition number s_max/s_min; (None, inf) where
    s_min <= DEFAULT_TOL * sqrt(s_max^2 + 1)."""
    u, s, vh = np.linalg.svd(T.right - lam * T.left)
    if s[-1] <= DEFAULT_TOL * np.sqrt(s[0] ** 2 + 1.0):
        return None, np.inf
    return ((T.left @ vh.conj().T) / s) @ u.conj().T, s[0] / s[-1]


def _scaled_relations(rng):
    """{{Qx, s QHx + k}: k in ran(Q)^perp} for s from 1e-6 to 1e6, H
    Hermitian or not, with the eigenvalues s * eig(H) of the relation."""
    for scale in (1e-6, 1e-3, 1.0, 1e3, 1e6):
        for n in (1, 3, 8):
            for m in sorted({1, (n + 1) // 2, n}):
                for hermitian in (True, False):
                    u = np.linalg.qr(rng.standard_normal((n, n))
                                     + 1j * rng.standard_normal((n, n)))[0]
                    h = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
                    if hermitian:
                        h = h + h.conj().T
                    span = np.zeros((2 * n, n), dtype=complex)
                    span[:n, :m] = u[:, :m]
                    span[n:, :m] = scale * u[:, :m] @ h
                    span[n:, m:] = u[:, m:]
                    yield make_relation(span, n), scale * np.linalg.eigvals(h)


def test_resolvent_cut_is_never_looser_than_the_svd_cut():
    """lam at relative distance 1e-16 to 1e-1 from an eigenvalue: every lam
    the SVD cut rejects is rejected, and an accepted resolvent matches the
    SVD formula to 1e-12 relative, or to the eps * cond(R - lam L) that
    bounds both routes, if larger."""
    eps = np.finfo(float).eps
    rng = np.random.default_rng(61)
    rejected = accepted = stricter = 0
    for T, eigs in _scaled_relations(rng):
        for mu in eigs:
            for e in range(-16, 0):
                lam = mu + abs(mu) * 10.0 ** e * np.exp(2j * np.pi * rng.random())
                ref, cond = _resolvent_svd(T, lam)
                try:
                    res = resolvent(T, lam)
                except SpectrumError:
                    res = None
                if ref is None:
                    rejected += 1
                    assert res is None, (T.n, lam)
                elif res is None:
                    stricter += 1
                else:
                    accepted += 1
                    rel = np.max(np.abs(res - ref)) / np.max(np.abs(ref))
                    assert rel <= max(1e-12, 32 * eps * cond), (T.n, lam, rel, cond)
    assert min(rejected, accepted, stricter) > 0, (rejected, accepted, stricter)


def _unitary(rng, n):
    return np.linalg.qr(rng.standard_normal((n, n))
                        + 1j * rng.standard_normal((n, n)))[0]


def _with_singular_values(rng, rows, cols, s):
    """rows x cols matrix U diag(s) V* with random isometries U, V."""
    k = len(s)
    return (_unitary(rng, rows)[:, :k] * s) @ _unitary(rng, cols)[:, :k].conj().T


# Smallest singular values as multiples of a removed rule's threshold.
NEAR_CUT = (0.0, 1e-3, 0.1, 0.5, 0.9, 0.99, 1.01, 1.1, 2.0, 10.0, 1e3)


def _frame_halves_inputs(rng):
    """Orthonormal frames (L; R) with s_min(L) near 1e-9, where the matrix
    of a relation used to be rejected for s_min(L) <= 1e-9."""
    for n in (1, 3, 8):
        for f in NEAR_CUT:
            c = rng.uniform(0.1, 1.0, n)
            c[-1] = 1e-9 * f
            vh = _unitary(rng, n).conj().T
            frame = np.vstack([(_unitary(rng, n) * c) @ vh,
                               (_unitary(rng, n) * np.sqrt(1.0 - c ** 2)) @ vh])
            left, right = frame[:n], frame[n:]
            yield (np.linalg.svd(left, compute_uv=False)[-1] <= 1e-9,
                   lambda: graph_operator(left, right))


def _gamma_and_weyl_inputs(rng):
    """Gamma0 on a defect frame, d x d at scales 1e-6 to 1e6 with s_min near
    1e-9, where gamma_and_weyl used to reject s_min(G0) <= 1e-9."""
    for scale in (1e-6, 1e-3, 1.0, 1e3, 1e6):
        for d in (1, 3, 8):
            for f in NEAR_CUT:
                s = scale * rng.uniform(0.5, 2.0, d)
                s[-1] = 1e-9 * f
                g0 = _with_singular_values(rng, d, d, s)
                coords = _with_singular_values(rng, 2 * d + 1, d, np.ones(d))
                yield (np.linalg.svd(g0, compute_uv=False)[-1] <= 1e-9,
                       lambda: graph_operator(g0, coords))


@pytest.mark.parametrize("inputs", [_frame_halves_inputs, _gamma_and_weyl_inputs],
                         ids=["frame_halves", "gamma_and_weyl"])
def test_graph_operator_rejects_what_a_removed_rule_rejected(inputs):
    """Each invertibility rule that graph_operator replaced stays here as
    the reference: the kernel rejects every matrix the rule rejected."""
    rng = np.random.default_rng(67)
    rule_rejected = accepted = 0
    for rejects, invert in inputs(rng):
        try:
            invert()
        except SpectrumError:
            rule_rejected += rejects
            continue
        assert not rejects
        accepted += 1
    assert min(rule_rejected, accepted) > 0, (rule_rejected, accepted)


def _name_used(node):
    """The numpy name an AST node uses: an attribute or an imported name,
    and "norm2" for a ``norm`` call whose ord takes an SVD (2, -2, "nuc",
    or an ord that is not a literal)."""
    if isinstance(node, ast.Call) and \
            getattr(node.func, "attr", getattr(node.func, "id", None)) == "norm":
        ords = node.args[1:2] + [kw.value for kw in node.keywords if kw.arg == "ord"]
        if not ords:
            return None
        try:
            spectral = ast.literal_eval(ords[0]) in (2, -2, "nuc")
        except ValueError:
            spectral = True
        return "norm2" if spectral else None
    return node.attr if isinstance(node, ast.Attribute) else \
        node.name if isinstance(node, ast.alias) else None


@pytest.mark.parametrize("source, name", [
    ("np.linalg.norm(x, 2)", "norm2"), ("norm(x, ord=-2)", "norm2"),
    ("np.linalg.norm(x, 'nuc')", "norm2"), ("np.linalg.norm(x, k)", "norm2"),
    ("np.linalg.norm(x)", None), ("np.linalg.norm(x, ord='fro')", None),
    ("np.linalg.norm(x, 1)", None)])
def test_a_norm_that_takes_an_svd_is_seen(source, name):
    assert _name_used(ast.parse(source).body[0].value) == name


def _sites(names):
    """(module, function) of every use of one of the numpy names in the
    package, as ``_name_used`` reads them; None for a use outside any
    function."""
    sites = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        funcs = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
        for node in ast.walk(tree):
            name = _name_used(node)
            if name in names:
                owner = max((f for f in funcs if f.lineno <= node.lineno <= f.end_lineno),
                            key=lambda f: f.lineno, default=None)
                sites.add((path.stem, owner and owner.name))
    return sites


def _stacked_self_adjoint():
    """Two self-adjoint relations in C^2 (graphs of real diagonal matrices)
    as one relation with a stacked frame."""
    frames = [graph_of(np.diag([a, 1.0])).frame for a in (0.5, -2.0)]
    return LinearRelation(np.array(frames))


@pytest.mark.parametrize("decide", [
    lambda T: orth(T.frame),
    lambda T: kernel_split(T.frame),
    diagonalize,
    classify_symmetry,
], ids=["orth", "kernel_split", "diagonalize", "classify_symmetry"])
def test_rank_decisions_reject_a_stacked_frame(decide):
    """A rank is decided on one matrix: a stack of frames would be read as
    one matrix and could get a wrong verdict."""
    with pytest.raises(ValueError, match="one matrix"):
        decide(_stacked_self_adjoint())


def test_every_inverse_goes_through_graph_operator():
    assert _sites({"inv", "matrix_rank"}) == {("linrel", "graph_operator")}


def _cutting(sites):
    """The (module, function) sites whose function calls ``_cut``."""
    out = set()
    for module, func in sites:
        tree = ast.parse((SRC / f"{module}.py").read_text())
        node = next(n for n in ast.walk(tree)
                    if isinstance(n, ast.FunctionDef) and n.name == func)
        if any(isinstance(n, ast.Call) and getattr(n.func, "id", None) == "_cut"
               for n in ast.walk(node)):
            out.add((module, func))
    return out


def test_every_svd_is_a_linrel_rank_cut():
    """Every SVD is cut by ``_cut``: two routines take one, every
    dimension is the column count of an ``orth``, and every kernel and
    complement is read off ``kernel_split``; no lstsq or pinv cuts at
    numpy's own rcond."""
    assert _sites({"lstsq", "pinv"}) == set()
    svds = _sites({"svd", "norm2"})
    assert svds == {("linrel", "orth"), ("linrel", "kernel_split")}
    assert svds - _cutting(svds) == set()


def test_every_eigendecomposition_is_pinned():
    """psd_factor cuts its eigenvalues with ``_cut``; the parameter's
    ``spectra`` takes the one eigendecomposition of B and the residues,
    whose rows its readers cut or read (``build``'s PSD and pole-vanishing
    tests among them); _norm2 reads a largest eigenvalue
    and diagonalize the angles and the unitary of a self-adjoint relation,
    and neither decides a rank."""
    eigs = _sites({"eig", "eigh", "eigvals", "eigvalsh"})
    assert eigs == {("exitspace", "psd_factor"), ("linrel", "_norm2"),
                    ("linrel", "diagonalize"), ("nevanlinna", "spectra")}
    assert _cutting(eigs) == {("exitspace", "psd_factor")}


def test_every_qr_is_pinned():
    """No QR decides a rank: operator_relation's (dom; image) on an
    orthonormal dom and the lifted columns of extension_of have full column
    rank, and instance generation draws random unitaries."""
    qrs = _sites({"qr"})
    assert qrs == {("linrel", "operator_relation"), ("triplet", "extension_of"),
                   ("driver", "_random_unitary")}
    assert _cutting(qrs) == set()


def test_make_relation_is_called_only_on_spans_of_unknown_rank():
    """A relation whose dimension is known by construction enters through
    operator_relation, with no rank cut; make_relation's SVD is left to the
    seed span and a boundary image."""
    callers = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        for func in ast.walk(tree):
            if isinstance(func, ast.FunctionDef):
                callers |= {(path.stem, func.name) for node in ast.walk(func)
                            if isinstance(node, ast.Call)
                            and getattr(node.func, "id", None) == "make_relation"}
    assert callers == {("driver", "build_problem"),
                       ("triplet", "_boundary_image")}


@pytest.mark.parametrize("T", [LinearRelation(np.eye(4, dtype=complex)),
                               zero_relation(2)])
def test_resolvent_of_relation_without_n_dimensions(T):
    with pytest.raises(SpectrumError):
        resolvent(T, 1j)


def test_resolvent_with_multivalued_part_against_dense_compression():
    """{{Qx, QHx + k}: k in ran(Q)^perp} has resolvent Q (H - lam)^{-1} Q*."""
    rng = np.random.default_rng(29)
    for n, m in ((3, 1), (5, 3), (8, 4)):
        u = np.linalg.qr(rng.standard_normal((n, n))
                         + 1j * rng.standard_normal((n, n)))[0]
        q = u[:, :m]
        h = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        h = (h + h.conj().T) / 2
        span = np.vstack([np.hstack([q, np.zeros((n, n - m))]),
                          np.hstack([q @ h, u[:, m:]])])
        T = make_relation(span, n)
        assert classify_symmetry(T) == "self_adjoint"
        for lam in (1j, -0.7j, 1.3 + 0.2j, -2.0 - 5.0j):
            oracle = q @ np.linalg.inv(h - lam * np.eye(m)) @ q.conj().T
            assert np.max(np.abs(resolvent(T, lam) - oracle)) < 1e-12


def test_selfadjoint_resolvent_everywhere_off_axis():
    rng = np.random.default_rng(23)
    for _ in range(10):
        n = int(rng.integers(1, 5))
        h = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        h = (h + h.conj().T) / 2
        T = graph_of(h)
        for lam in (1j, -2j, 0.5 + 1j):
            r = resolvent(T, lam)
            assert np.max(np.abs(r - np.linalg.inv(h - lam * np.eye(n)))) < 1e-9


def test_relations_equal_gauge_invariance():
    rng = np.random.default_rng(5)
    T = random_relation(rng, 3, r=3)
    u = np.linalg.qr(rng.standard_normal((3, 3))
                     + 1j * rng.standard_normal((3, 3)))[0]
    T2 = make_relation(T.frame @ u, 3)
    eq, resid = relations_equal(T, T2)
    assert eq and resid < 1e-12


def test_relations_equal_distinguishes():
    eq, _ = relations_equal(graph_of(np.eye(2)), vertical_relation(2))
    assert not eq


def _projector_distance(F1, F2):
    """Reference: ||F1 F1^H - F2 F2^H||_2, the projector-difference formula."""
    return float(np.linalg.norm(F1 @ F1.conj().T - F2 @ F2.conj().T, 2))


def _containment_reference(sub, sup):
    """Reference: ||(I - P_sup) sub||_2 through a full SVD."""
    if sub.shape[1] == 0:
        return 0.0
    return float(np.linalg.norm(sub - sup @ (sup.conj().T @ sub), 2))


def _random_frame(rng, rows, cols):
    return orth(rng.standard_normal((rows, cols))
                + 1j * rng.standard_normal((rows, cols)))


def _frame_pairs(rng):
    """Frame pairs on C^N for even N from 2 to 192: perturbations of one frame
    from 0 to 1e-1, frames of unequal dimensions and empty frames."""
    for N in (2, 4, 8, 32, 64, 128, 192):
        for r in sorted({1, N // 2, N - 1 or 1}):
            F1 = _random_frame(rng, N, r)
            for eps in (0.0, 1e-14, 1e-10, 1e-6, 1e-3, 1e-1):
                yield F1, perturbed(rng, F1, eps)
            if r > 1:
                yield F1, perturbed(rng, F1[:, 1:], 1e-6)
            yield F1, _random_frame(rng, N, (r + N // 2) % N + 1)
        yield np.zeros((N, 0)), np.zeros((N, 0))
        yield np.zeros((N, 0)), _random_frame(rng, N, 1)
        yield np.eye(N, dtype=complex), _random_frame(rng, N, N)


def test_relations_equal_matches_projector_distance():
    rng = np.random.default_rng(2024)
    cases = 0
    for F1, F2 in _frame_pairs(rng):
        N = F1.shape[0]
        T1, T2 = LinearRelation(F1), LinearRelation(F2)
        _, resid = relations_equal(T1, T2)
        assert abs(resid - _projector_distance(F1, F2)) <= 1e-14, (N, resid)
        if T1.dim != T2.dim:
            assert abs(resid - 1.0) <= 1e-14
        for sub, sup in ((F1, F2), (F2, F1)):
            assert abs(containment_residual(sub, sup)
                       - _containment_reference(sub, sup)) <= 1e-14
        cases += 1
    assert cases > 150


def test_one_sided_gap_matches_the_two_sided_reference():
    """For frames of equal dimension, relations_equal reads one containment
    residual, and the two-sided max of both agrees with it to 1e-15.  Below
    1e-12 the gap is the rounding of the frames themselves (pairs at
    perturbation 0 and 1e-14); there both sides only have to read as
    rounding."""
    rng = np.random.default_rng(2025)
    cases = 0
    for F1, F2 in _frame_pairs(rng):
        if F1.shape[1] != F2.shape[1]:
            continue
        N = F1.shape[0]
        T1, T2 = LinearRelation(F1), LinearRelation(F2)
        two_sided = max(containment_residual(F1, F2), containment_residual(F2, F1))
        one_sided = relations_equal(T1, T2)[1]
        if two_sided >= 1e-12:
            assert abs(one_sided - two_sided) <= 1e-15, N
            cases += 1
        else:
            assert max(one_sided, two_sided) <= 1e-13, N
    assert cases >= 70


def test_unequal_dimensions_are_unequal_without_a_factorization(monkeypatch):
    rng = np.random.default_rng(8)
    pairs = [(random_relation(rng, 4, r=3), random_relation(rng, 4, r=5)),
             (zero_relation(3), LinearRelation(np.eye(6, dtype=complex)))]

    def no_factorization(*args, **kwargs):
        raise AssertionError("factorization called")

    for name in ("svd", "eigvalsh", "eigh", "qr"):
        monkeypatch.setattr(np.linalg, name, no_factorization)
    for T1, T2 in pairs:
        assert relations_equal(T1, T2) == (False, 1.0)
        assert relations_equal(T2, T1) == (False, 1.0)


def test_rank_is_the_column_count_of_orth():
    """A dimension is the column count of orth, which keeps the singular
    values above the cut, on spans with singular values on both sides of
    it, at scales from 1e-6 to 1e6, and is 0 on an empty span."""
    rng = np.random.default_rng(31)
    for scale in (1e-6, 1.0, 1e6):
        for rows, cols in ((1, 1), (5, 3), (3, 5), (12, 12)):
            k = min(rows, cols)
            s = scale * np.logspace(0, -14, k)
            span = (_random_frame(rng, rows, k) * s) @ _random_frame(rng, cols, k).conj().T
            expected = int(np.count_nonzero(s > DEFAULT_TOL * max(s[0], 1.0)))
            assert orth(span).shape[1] == expected
    assert orth(np.zeros((4, 0))).shape == (4, 0)
    assert orth(np.zeros((0, 4))).shape == (0, 0)


def _unitary_gap(u):
    """max |U^H U - I| of a frame."""
    return float(np.max(np.abs(u.conj().T @ u - np.eye(u.shape[1])), initial=0.0))


def test_kernel_split_is_one_unitary_basis():
    """In every orientation, tall, wide and square, kernel_split keeps the
    rank of ``_cut`` of the singular values, [ker, row] is unitary and mat
    maps ker to the cut singular values alone; wide matrices carry values
    planted just above (2e-9 s_max) and below (5e-10 s_max) the cut.  With
    no rows everything is kernel, with no columns both halves are empty."""
    rng = np.random.default_rng(37)
    near_cut = [1.0, 0.3, 2e-9, 5e-10]
    for rows, cols, s in ((3, 5, np.logspace(0, -3, 2)), (5, 3, np.logspace(0, -3, 3)),
                          (4, 4, []), (6, 6, np.logspace(0, -3, 6)),
                          (9, 4, [1.0, 1e-12]), (84, 96, np.logspace(0, -8, 60)),
                          (6, 14, near_cut), (50, 177, [1e3 * v for v in near_cut]),
                          (3, 8, [1.0, 0.5, 0.25]), (4, 9, [1e-3, 2e-12])):
        mat = _with_singular_values(rng, rows, cols, np.asarray(s, dtype=float))
        values = np.linalg.svd(mat, compute_uv=False)
        r = _cut(values)
        ker, row = kernel_split(mat)
        assert (ker.shape, row.shape) == ((cols, cols - r), (cols, r))
        assert _unitary_gap(np.hstack([ker, row])) <= 1e-14
        cut_off = values[r] if r < len(values) else 0.0
        assert abs(_norm2(mat @ ker) - cut_off) <= 1e-13 * _norm2(mat)
    ker, row = kernel_split(np.zeros((0, 3)))
    assert np.array_equal(ker, np.eye(3)) and row.shape == (3, 0)
    ker, row = kernel_split(np.zeros((4, 0)))
    assert ker.shape == row.shape == (0, 0)


def test_norm_below_is_the_verdict_of_norm2(monkeypatch):
    """_norm_below(x, b) is _norm2(x) < b with ||x||_2 planted at
    b (1 -+ 1e-6), on a graded spectrum and at both ends of the Frobenius
    bracket, a rank-one and a flat spectrum, and on empty x; it takes no
    _norm2 when the bracket settles the verdict."""
    rng = np.random.default_rng(41)
    for b in (1e-10, 1e-9, 1.0, 1e6):
        for rows, cols in ((5, 3), (3, 5), (6, 6), (1, 4)):
            k = min(rows, cols)
            for s in (np.logspace(0, -2, k), np.ones(1), np.ones(k)):
                for factor in (1 - 1e-6, 1 + 1e-6):
                    x = _with_singular_values(rng, rows, cols, b * factor * s)
                    assert _norm_below(x, b) == (_norm2(x) < b) == (factor < 1)
    for shape in ((0, 3), (3, 0), (0, 0)):
        assert _norm_below(np.zeros(shape), 1e-9) == (_norm2(np.zeros(shape)) < 1e-9)

    def unused(x):
        raise AssertionError("the Frobenius bracket settles this verdict")
    monkeypatch.setattr(linrel, "_norm2", unused)
    x = _with_singular_values(rng, 6, 4, np.ones(4))
    assert _norm_below(x, 2.1) and not _norm_below(x, 0.9)


def test_extend_adds_only_what_lies_outside_the_frame():
    """extend keeps the frame as its first columns and adds the part of the
    span off it, to the cut: nothing for an empty span or a span inside the
    frame, a component at 1e-8 kept and one at 1e-11 dropped, and the
    result orthonormal to 1e-14 when the span lies 1e-8 off the frame."""
    rng = np.random.default_rng(41)
    q = _random_frame(rng, 8, 5)
    frame, off = q[:, :3], q[:, 3:]
    span = rng.standard_normal((8, 2)) + 1j * rng.standard_normal((8, 2))
    from_empty = extend(np.zeros((8, 0), dtype=complex), span)
    assert from_empty.shape == (8, 2) and _unitary_gap(from_empty) <= 1e-14
    assert containment_residual(span / np.linalg.norm(span, axis=0), from_empty) <= 1e-14
    assert np.array_equal(extend(frame, np.zeros((8, 0))), frame)
    inside = frame @ (rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4)))
    assert np.array_equal(extend(frame, inside), frame)
    for eps, added in ((1e-8, 2), (1e-11, 0)):
        grown = extend(frame, inside[:, :2] + eps * off)
        assert grown.shape == (8, 3 + added)
        assert np.array_equal(grown[:, :3], frame)
        assert _unitary_gap(grown) <= 1e-14
    # the rounding of the projection, eps-sized, tilts a 1e-8 component by
    # about eps / 1e-8
    assert containment_residual(off, extend(frame, inside[:, :2] + 1e-8 * off)) <= 1e-7


def test_graph_operator_rejects_vertical():
    T = vertical_relation(1)
    with pytest.raises(SpectrumError):
        graph_operator(T.left, T.right)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=4),
       st.integers(min_value=0, max_value=8),
       st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_adjoint_involution_and_dimension_count(n, r, seed):
    rng = np.random.default_rng(seed)
    T = random_relation(rng, n, r=min(r, 2 * n))
    T_star = adjoint(T)
    assert T.dim + T_star.dim == 2 * n
    eq, resid = relations_equal(adjoint(T_star), T)
    assert eq, resid


def test_inverse_commutes_with_adjoint():
    rng = np.random.default_rng(13)
    for _ in range(20):
        T = random_relation(rng, 3)
        eq, resid = relations_equal(adjoint(inverse(T)), inverse(adjoint(T)))
        assert eq, resid


# eigenvalue families of a self-adjoint relation, inf for its multivalued part
SPECTRA = {
    "random": lambda rng, n: 2.0 * rng.standard_normal(n),
    "mul_and_kernel": lambda rng, n: np.where(
        np.arange(n) % 3 == 0, np.inf,
        np.where(np.arange(n) % 3 == 1, 0.0, rng.standard_normal(n))),
    "repeated": lambda rng, n: np.repeat(rng.standard_normal(n), 3)[:n],
    "plus_minus_pairs": lambda rng, n: np.ravel(
        [[t, -t - 1e-12] for t in rng.standard_normal(n)])[:n],
    "t_beside_inverse": lambda rng, n: np.ravel(
        [[t, 1.0 / t] for t in np.exp(rng.standard_normal(n))])[:n],
    "scaled_up": lambda rng, n: 1e6 * rng.standard_normal(n),
    "scaled_down": lambda rng, n: 1e-6 * rng.standard_normal(n),
}


def _self_adjoint_with_spectrum(rng, t):
    """T = span(U0 c; U0 s) W for random unitaries U0, W, with c, s the
    cosine and sine of arctan t (0 and 1 where t is inf), formed without
    an angle so a small cosine keeps its relative accuracy; and its exact
    resolvent at lam, U0 diag(1 / (t - lam)) U0^H with 0 on mul T."""
    n = len(t)
    u0, w = (np.linalg.qr(rng.standard_normal((n, n))
                          + 1j * rng.standard_normal((n, n)))[0] for _ in range(2))
    finite = np.where(np.isinf(t), 0.0, t)
    hyp = np.hypot(1.0, finite)
    c, s = np.where(np.isinf(t), 0.0, 1.0 / hyp), np.where(np.isinf(t), 1.0, finite / hyp)
    T = LinearRelation(np.vstack([u0 * c, u0 * s]) @ w)
    return T, lambda lam: (u0 * np.where(np.isinf(t), 0.0, 1.0 / (finite - lam))) @ u0.conj().T


def _relative_error(approx, exact):
    scale = np.linalg.norm(exact, 2)
    diff = np.linalg.norm(approx - exact, 2)
    return diff / scale if scale else diff


@pytest.mark.parametrize("family", sorted(SPECTRA))
def test_diagonalize_a_self_adjoint_relation(family):
    """diagonalize returns a unitary U and c, s with T = span(U c; U s),
    each to 1e-13, and U diag(c / (s - lam c)) U^H is as close to the exact
    resolvent as the LU of ``resolvent``, or within 1e-14."""
    rng = np.random.default_rng(sorted(SPECTRA).index(family))
    worst_spectral = worst_lu = 0.0
    for n in (1, 2, 5, 17, 60):
        T, exact = _self_adjoint_with_spectrum(rng, SPECTRA[family](rng, n))
        u, c, s = diagonalize(T)
        assert np.linalg.norm(u.conj().T @ u - np.eye(n), 2) <= 1e-13
        spectral_frame = LinearRelation(np.vstack([u * c, u * s]))
        assert relations_equal(spectral_frame, T)[1] <= 1e-13
        for lam in (0.3 + 0.7j, -2 + 0.5j, 10j, 1e5j):
            spectral = (u * (c / (s - lam * c))) @ u.conj().T
            worst_spectral = max(worst_spectral, _relative_error(spectral, exact(lam)))
            worst_lu = max(worst_lu, _relative_error(resolvent(T, lam), exact(lam)))
    assert worst_spectral <= max(worst_lu, 1e-14), (worst_spectral, worst_lu)


@pytest.mark.parametrize("T", [zero_relation(2),
                               LinearRelation(np.eye(4, dtype=complex))])
def test_diagonalize_needs_n_dimensions_in_one_space(T):
    with pytest.raises(ValueError):
        diagonalize(T)


def test_diagonalize_the_relation_in_no_space():
    u, c, s = diagonalize(zero_relation(0))
    assert u.shape == (0, 0) and c.shape == s.shape == (0,)
