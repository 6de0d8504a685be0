"""A relation-valued function sampled at m points is one LinearRelation
whose frame has a leading axis of length m.  Each function of the formula
route that broadcasts over that axis gives, on a stack of points, what a
loop of calls at one point gives, bit for bit; a stack that holds a bad
point raises what the call at that point raises."""
import numpy as np
import pytest

from relcomp.driver import (
    CATEGORIES,
    _random_hermitian,
    _random_psd_of_rank,
    _random_unitary,
    admissible_lambdas,
    build_problem,
    generate_instance,
    Instance,
)
from relcomp.extension import krein_resolvent
from relcomp.linrel import (
    LinearRelation,
    SpectrumError,
    negate,
    relations_equal,
    resolvent,
)
from relcomp.nevanlinna import eval_tau
from relcomp.triplet import extension_of

# (n, boundary dim d, dim of tau's multivalued part, rank of B, pole ranks):
# the shapes of the benchmark's resolvent sweep
SWEEP_SHAPES = (
    (48, 8, 0, 8, (4, 4)),
    (56, 16, 4, 6, (6,)),
    (64, 24, 0, 12, (12, 6)),
)


def sweep_instance(rng, n, d, k, b_rank, pole_ranks):
    """A symmetric seed of deficiency d, a von Neumann triplet and a tau
    with dim K = k, rank B = b_rank and poles of the given ranks."""
    dom = _random_unitary(rng, n)[:, :n - d]
    span = np.vstack([dom, _random_hermitian(rng, n) @ dom])
    p = d - k
    alphas = np.linspace(-2.5, 2.5, len(pole_ranks))
    poles = tuple((float(a), _random_psd_of_rank(rng, p, r))
                  for a, r in zip(alphas, pole_ranks))
    return Instance(dim=n, seed_span=span, triplet_kind="von_neumann",
                    triplet_data={"V": _random_unitary(rng, d)}, tau_dim=d,
                    tau_mul=_random_unitary(rng, d)[:, :k],
                    tau_a=_random_hermitian(rng, p),
                    tau_b=_random_psd_of_rank(rng, p, b_rank), tau_poles=poles)


def _problems():
    rng = np.random.default_rng(2028)
    cases = [(f"sweep-{shape[0]}", sweep_instance(rng, *shape)) for shape in SWEEP_SHAPES]
    cases += [(f"{category}-{i}", generate_instance(rng, category=category))
              for category in CATEGORIES for i in range(3)]
    return cases


PROBLEMS = _problems()


@pytest.mark.parametrize("inst", [inst for _, inst in PROBLEMS],
                         ids=[name for name, _ in PROBLEMS])
def test_stack_equals_loop(inst):
    tri, tau = build_problem(inst)
    points = admissible_lambdas(np.random.default_rng(inst.dim), 4)
    lams = np.array(points)

    def same(stacked, looped):
        assert stacked.shape == (len(points),) + np.shape(looped[0])
        assert np.array_equal(stacked, np.array(looped))

    same(krein_resolvent(tri, tau, lams), [krein_resolvent(tri, tau, z) for z in points])
    same(resolvent(tri.a0, lams), [resolvent(tri.a0, z) for z in points])

    taus = eval_tau(tau, lams)
    same(taus.frame, [eval_tau(tau, z).frame for z in points])

    ext = extension_of(tri, negate(taus))
    same(ext.frame, [extension_of(tri, negate(eval_tau(tau, z))).frame for z in points])
    same(resolvent(ext, lams),
         [resolvent(extension_of(tri, negate(eval_tau(tau, z))), z) for z in points])

    # tau(lam) on another basis of each point's frame
    unitary = _random_unitary(np.random.default_rng(1), taus.dim)
    rotated = [LinearRelation(tau.dim, tau.dim, eval_tau(tau, z).frame @ unitary)
               for z in points]
    stacked = LinearRelation(tau.dim, tau.dim, np.array([r.frame for r in rotated]))
    equal, resid = relations_equal(taus, stacked)
    looped = [relations_equal(eval_tau(tau, z), r) for z, r in zip(points, rotated)]
    assert equal.tolist() == [eq for eq, _ in looped]
    same(resid, [r for _, r in looped])
    if taus.dim:
        # relations of different dimensions are 1 apart at every point
        fewer = LinearRelation(taus.dim_from, taus.dim_to, taus.frame[..., :-1])
        equal, resid = relations_equal(taus, fewer)
        assert equal.tolist() == [False] * len(points)
        assert resid.tolist() == [1.0] * len(points)


def _raised(call):
    """The type of the exception call() raises, None if it returns."""
    try:
        call()
    except Exception as exc:          # the type is what is compared
        return type(exc)
    return None


def _bad_points(tri, tau):
    """A point 1e-13 i off an eigenvalue of A0, that eigenvalue itself, one
    1e-13 i off a pole of tau and a real one."""
    _, c, s = tri.a0_spectrum
    k = int(np.argmax(np.abs(c)))
    return {"a0_eigenvalue": complex(s[k] / c[k], 1e-13),
            "a0_real": complex(s[k] / c[k], 0.0),
            "tau_pole": complex(tau.poles[0][0], 1e-13),
            "real": complex(0.3, 0.0)}


@pytest.mark.parametrize("shape", SWEEP_SHAPES, ids=[f"sweep-{s[0]}" for s in SWEEP_SHAPES])
def test_a_bad_point_in_a_stack_raises_what_the_point_raises(shape):
    tri, tau = build_problem(sweep_instance(np.random.default_rng(shape[0]), *shape))
    routes = {
        "krein_resolvent": lambda lam: krein_resolvent(tri, tau, lam),
        "resolvent": lambda lam: resolvent(tri.a0, lam),
        "eval_tau": lambda lam: eval_tau(tau, lam),
    }
    bad_points = _bad_points(tri, tau)
    raised = {}
    for name, bad in bad_points.items():
        stack = np.array([0.4 + 0.9j, bad, -1.1 - 0.6j])
        for route, call in routes.items():
            alone, stacked = _raised(lambda: call(bad)), _raised(lambda: call(stack))
            assert alone is stacked, (name, route, alone, stacked)
            raised[name, route] = alone
    assert raised["a0_eigenvalue", "krein_resolvent"] is SpectrumError
    for name in ("a0_eigenvalue", "a0_real"):
        assert raised[name, "resolvent"] is SpectrumError, name
    for name in ("a0_real", "tau_pole", "real"):
        for route in ("krein_resolvent", "eval_tau"):
            assert raised[name, route] is ValueError, (name, route)
    # the Krein route evaluates tau first, so tau0 rejects a real point,
    # wherever it stands in a stack, before A0's resolvent divides by it
    bad = bad_points["a0_real"]
    for lam in (bad, np.array([0.4 + 0.9j, bad, -1.1 - 0.6j])):
        with pytest.raises(ValueError, match="tau is evaluated on the real axis"):
            krein_resolvent(tri, tau, lam)
