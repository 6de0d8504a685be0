"""A relation-valued function sampled at m points is one LinearRelation
whose frame has a leading axis of length m.  Each function of the formula
route that broadcasts over that axis gives, on a stack of points, what a
loop of calls at one point gives, bit for bit; a stack that holds a bad
point raises what the call at that point raises."""
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from relcomp.driver import (
    CATEGORIES,
    _random_unitary,
    admissible_lambdas,
    build_problem,
    generate_instance,
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

# the benchmark's resolvent-sweep shapes and their generator, one copy
_WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
_spec = importlib.util.spec_from_file_location("perfbench_workloads", _WORKLOADS)
_workloads = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_workloads)
SWEEP_SHAPES, sweep_instance = _workloads.SWEEP_SHAPES, _workloads.sweep_instance


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
    rotated = [LinearRelation(eval_tau(tau, z).frame @ unitary) for z in points]
    stacked = LinearRelation(np.array([r.frame for r in rotated]))
    equal, resid = relations_equal(taus, stacked)
    looped = [relations_equal(eval_tau(tau, z), r) for z, r in zip(points, rotated)]
    assert equal.tolist() == [eq for eq, _ in looped]
    same(resid, [r for _, r in looped])
    if taus.dim:
        # relations of different dimensions are 1 apart at every point
        fewer = LinearRelation(taus.frame[..., :-1])
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
