"""Driver: serialization round-trips, determinism, CLI exit codes."""
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import relcomp.driver as driver
import relcomp.extension as extension
import relcomp.linrel as linrel
from relcomp.linrel import make_relation, negate, relations_equal
from relcomp.nevanlinna import RationalNevanlinna, eval_tau
from relcomp.triplet import BoundaryTriplet, SymmetricSeed
from relcomp.driver import (
    DEMOS,
    Instance,
    InputError,
    admissible_lambdas,
    build_problem,
    generate_instance,
    main,
    matrix_from_json,
    matrix_to_json,
    run_demo,
    run_verify,
    verify_instance,
)

REPO = Path(__file__).resolve().parents[1]


def test_matrix_roundtrip_bit_exact():
    rng = np.random.default_rng(1)
    m = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    back = matrix_from_json(json.loads(json.dumps(matrix_to_json(m))))
    assert back.shape == m.shape
    assert np.array_equal(back, m)   # exact, not approximate


def test_instance_roundtrip_bit_exact():
    rng = np.random.default_rng(2)
    for _ in range(10):
        inst = generate_instance(rng)
        doc = json.loads(json.dumps(inst.to_json()))
        back = Instance.from_json(doc)
        assert np.array_equal(back.seed_span, inst.seed_span)
        assert np.array_equal(back.tau_a, inst.tau_a)
        assert np.array_equal(back.tau_b, inst.tau_b)
        assert back.tau_poles == () if not inst.tau_poles else all(
            a1 == a2 and np.array_equal(m1, m2)
            for (a1, m1), (a2, m2) in zip(back.tau_poles, inst.tau_poles))
        assert json.dumps(back.to_json(), sort_keys=True) \
            == json.dumps(inst.to_json(), sort_keys=True)


def test_from_json_rejects_unknown_schema():
    with pytest.raises(InputError):
        Instance.from_json({"schema": "nope"})


def test_from_json_rejects_another_tolerance():
    doc = generate_instance(np.random.default_rng(3)).to_json()
    Instance.from_json(doc)
    doc["tol"] = 1e-6
    with pytest.raises(InputError, match="tol"):
        Instance.from_json(doc)


def _without(key):
    def edit(tri):
        del tri[key]
    return edit


def _gamma0(rows, cols):
    def edit(tri):
        tri["gamma0"] = matrix_to_json(np.ones((rows, cols)))
    return edit


# instance -> edit of its triplet entry that makes the file malformed
MALFORMED_TRIPLETS = {
    "explicit_without_gamma1": ("canonical", _without("gamma1")),
    "explicit_gamma0_1x3": ("canonical", _gamma0(1, 3)),
    "explicit_gamma0_2x2": ("canonical", _gamma0(2, 2)),
    "explicit_with_V": ("canonical", lambda tri: tri.update(V=[[[1.0, 0.0]]])),
    "von_neumann_without_V": ("random", _without("V")),
    "von_neumann_V_2x2": ("random", lambda tri: tri.update(V=matrix_to_json(np.eye(2)))),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_TRIPLETS))
def test_malformed_instance_triplet_is_bad_input(tmp_path, case):
    source, edit = MALFORMED_TRIPLETS[case]
    inst = DEMOS[source] if source in DEMOS else \
        generate_instance(np.random.default_rng(5), max_boundary=1)
    doc = json.loads(json.dumps(inst.to_json()))
    edit(doc["triplet"])
    with pytest.raises(InputError):
        Instance.from_json(doc)
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", "--replay", str(path)]) == 2


@pytest.mark.parametrize("coef", ["A", "B", "A_j"])
@pytest.mark.parametrize("shape", [(2, 2), (1, 2)])
def test_misshapen_tau_coefficient_is_bad_input(tmp_path, capsys, coef, shape):
    # the swap demo has p = dim H0 = 1 and one pole
    doc = json.loads(json.dumps(DEMOS["swap"].to_json()))
    entry = doc["tau"]["poles"][0] if coef == "A_j" else doc["tau"]
    entry[coef] = matrix_to_json(np.ones(shape))
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", "--replay", str(path)]) == 2
    assert "invalid tau" in capsys.readouterr().err


def test_von_neumann_instance_without_v_replays_from_its_file():
    # seed {(e1, 0)} in C^2 with deficiency (1, 1), tau = 0.3 + lam
    inst = Instance(dim=2, seed_span=np.array([[1.0], [0.0], [0.0], [0.0]]),
                    triplet_kind="von_neumann", tau_dim=1, tau_mul=np.zeros((1, 0)),
                    tau_a=np.array([[0.3]]), tau_b=np.array([[1.0]]))
    back = Instance.from_json(json.loads(json.dumps(inst.to_json())))
    assert np.array_equal(back.triplet_data["V"], np.eye(1))
    verdicts = [[(c.name, c.passed) for c in verify_instance(case, np.random.default_rng(0))]
                for case in (inst, back)]
    assert verdicts[0] == verdicts[1]
    assert all(passed for _, passed in verdicts[0])


def test_explicit_instance_without_boundary_replays():
    # self-adjoint seed: d = 0 and both boundary maps are 0 x 2
    inst = Instance(dim=1, seed_span=np.array([[1.0], [0.5]]), triplet_kind="explicit",
                    triplet_data={"gamma0": np.zeros((0, 2)), "gamma1": np.zeros((0, 2))},
                    tau_dim=0)
    back = Instance.from_json(json.loads(json.dumps(inst.to_json())))
    assert back.triplet_data["gamma0"].shape == back.triplet_data["gamma1"].shape == (0, 2)
    for case in (inst, back):
        assert all(c.passed for c in verify_instance(case, np.random.default_rng(0)))


def test_cli_has_no_tolerance_option():
    with pytest.raises(SystemExit) as exit_info:
        main(["verify", "--tol", "1e-6"])
    assert exit_info.value.code == 2


def test_readme_verify_example_matches_output(capsys):
    readme = (REPO / "README.md").read_text()
    block = readme.split("```text\n$ relcomp verify", 1)[1].split("```", 1)[0]
    command, *expected = block.splitlines()
    assert main(["verify", *command.split()]) == 0
    actual = capsys.readouterr().out.splitlines()
    drop_elapsed = (lambda lines: [ln for ln in lines
                                   if not ln.strip().startswith("elapsed:")])
    assert drop_elapsed(actual) == drop_elapsed(expected)


def test_build_problem_rejects_non_psd_b():
    inst = Instance(dim=1, seed_span=np.zeros((2, 0)),
                    triplet_kind="explicit",
                    triplet_data={"gamma0": np.array([[1.0, 0.0]]),
                                  "gamma1": np.array([[0.0, 1.0]])},
                    tau_dim=1, tau_mul=np.zeros((1, 0)),
                    tau_a=np.zeros((1, 1)), tau_b=np.array([[-1e-3]]))
    with pytest.raises(InputError, match="B not PSD"):
        build_problem(inst)


def test_build_problem_rejects_nonsymmetric_seed():
    # {f, i f} is not symmetric in C
    inst = Instance(dim=1, seed_span=np.array([[1.0], [1.0j]]),
                    triplet_kind="von_neumann", tau_dim=0)
    with pytest.raises(InputError, match="not symmetric"):
        build_problem(inst)


def test_verify_report_deterministic():
    w1 = run_verify(count=5, rng_seed=9)
    w2 = run_verify(count=5, rng_seed=9)
    assert json.dumps(w1["body"], sort_keys=True) \
        == json.dumps(w2["body"], sort_keys=True)
    assert w1["body"]["all_passed"]


def test_verify_instance_checks_all_pass():
    rng = np.random.default_rng(33)
    inst = generate_instance(rng)
    checks = verify_instance(inst, rng)
    assert checks and all(c.passed for c in checks)
    names = {c.name for c in checks}
    assert names == set(driver.CHECKS)


def _explicit_instances(count):
    """Instances of generate_instance(default_rng(7), 12, 6, 3) with each
    triplet written out as its two ambient maps."""
    rng = np.random.default_rng(7)
    out = []
    for _ in range(count):
        inst = generate_instance(rng, 12, 6, 3)
        tri, _ = build_problem(inst)
        out.append(dataclasses.replace(
            inst, triplet_kind="explicit",
            triplet_data={"gamma0": tri.gamma0, "gamma1": tri.gamma1}))
    return out


def _rotate_frames(monkeypatch):
    """Right-multiply every frame orth, null_space and complement return by
    a seeded random unitary, in every relcomp module that binds them."""
    rng = np.random.default_rng(11)

    def rotated(frame_of):
        def frame(*args, **kwargs):
            f = frame_of(*args, **kwargs)
            return f @ driver._random_unitary(rng, f.shape[1])
        return frame

    patched = {name: rotated(getattr(linrel, name))
               for name in ("orth", "null_space", "complement")}
    for module in [m for name, m in sys.modules.items() if name.startswith("relcomp.")]:
        for name, frame_of in patched.items():
            if hasattr(module, name):
                monkeypatch.setattr(module, name, frame_of)


def test_explicit_verdicts_do_not_depend_on_frame_bases(monkeypatch):
    instances = _explicit_instances(30)
    runs = []
    for rotate in (False, True):
        if rotate:
            _rotate_frames(monkeypatch)
        runs.append([verify_instance(inst, np.random.default_rng(i))
                     for i, inst in enumerate(instances)])
    for plain, rotated in zip(*runs):
        assert [(c.name, c.passed) for c in plain] == [(c.name, c.passed) for c in rotated]
        for a, b in zip(plain, rotated):
            # the grid estimate extrapolates, and amplifies rounding
            if a.name != "limits_analytic_vs_grid":
                assert abs(a.residual - b.residual) <= 1e-14, a.name


KREIN_POINTS = (0.3 + 1j, -1.1 - 0.6j)


def _ambient_problem(n, seed_span, gamma0, gamma1, tau_fields):
    """tau(lam), tau_c, A0 and C(A~) as relations, and the Krein resolvents
    at KREIN_POINTS, of the problem rebuilt from its ambient data."""
    seed = SymmetricSeed.from_relation(make_relation(seed_span, n, n))
    tri = BoundaryTriplet.from_ambient_maps(seed, gamma0, gamma1)
    tau = RationalNevanlinna(**tau_fields)
    relations = [eval_tau(tau, KREIN_POINTS[0]), extension.compression_param(tau),
                 tri.a0, extension.compression(tri, tau)]
    return relations, [extension.krein_resolvent(tri, tau, lam) for lam in KREIN_POINTS]


def test_problem_does_not_depend_on_frame_bases(monkeypatch):
    rng = np.random.default_rng(7)
    data = []
    while len(data) < 30:
        inst = generate_instance(rng, 12, 6, 3)
        if inst.tau_mul.shape[1]:   # K != {0}
            tri, tau = build_problem(inst)
            data.append((inst.dim, inst.seed_span, tri.gamma0, tri.gamma1, vars(tau)))
    plain = [_ambient_problem(*args) for args in data]
    _rotate_frames(monkeypatch)
    rotated = [_ambient_problem(*args) for args in data]
    for (rels, krein), (rels_rot, krein_rot) in zip(plain, rotated):
        for a, b in zip(rels, rels_rot):
            assert relations_equal(a, b)[1] <= 1e-13
        for a, b in zip(krein, krein_rot):
            assert np.max(np.abs(a - b), initial=0.0) <= 1e-13


# check -> (owner, attribute, wrapper that injects a fault into the original)
FAULTS = {
    # tau_c with its sign flipped
    "compression_equivalence": (extension, "compression_param",
                                lambda param: lambda tau: negate(param(tau))),
    # the gamma(lam) (tau + M)^-1 gamma(conj lam)* term added, not subtracted
    "krein_formula": (extension, "_middle_inverse",
                      lambda middle: lambda *args: -middle(*args)),
    # tau0 with B off by 1e-3, but only far up the imaginary axis, where
    # only the grid estimate looks
    "limits_analytic_vs_grid": (
        RationalNevanlinna, "tau0",
        lambda tau0: lambda self, lam: tau0(self, lam) + (abs(lam) > 50) * 1e-3 * lam),
}


@pytest.mark.parametrize("check", sorted(FAULTS))
def test_injected_fault_fails_exactly_its_check(monkeypatch, check):
    owner, attr, inject = FAULTS[check]
    monkeypatch.setattr(owner, attr, inject(getattr(owner, attr)))
    inst = generate_instance(np.random.default_rng(0), category="b_deficient")
    checks = verify_instance(inst, np.random.default_rng(0))
    assert [c.name for c in checks if not c.passed] == [check]


def test_verify_builds_one_compression_per_instance(monkeypatch):
    calls = []
    param = extension.compression_param
    monkeypatch.setattr(extension, "compression_param",
                        lambda tau: calls.append(tau) or param(tau))
    inst = generate_instance(np.random.default_rng(0), category="b_deficient")
    verify_instance(inst, np.random.default_rng(0))
    assert len(calls) == 1


def test_verify_instance_factorization_count(monkeypatch):
    """One verify_instance of a fixed draw (n = 11, boundary dimension 6,
    dim K = 1, one pole) takes 66 SVDs and 19 eigvalsh calls."""
    inst = generate_instance(np.random.default_rng(13), 12, 6, 3)
    counts = {"svd": 0, "eigvalsh": 0}
    for name in counts:
        def counted(*args, _name=name, _factor=getattr(np.linalg, name), **kwargs):
            counts[_name] += 1
            return _factor(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    verify_instance(inst, np.random.default_rng(0))
    assert counts == {"svd": 66, "eigvalsh": 19}


def test_report_names_the_check_that_raised(monkeypatch):
    def explode(ctx):
        raise ValueError("injected failure")
    monkeypatch.setattr(driver, "CHECKS", {
        "krein_formula": driver.CHECKS["krein_formula"],
        "explode": driver.Check("explode", 1.0, explode)})
    wrapped = run_verify(count=1, rng_seed=3)
    [failure] = wrapped["body"]["failures"]
    assert failure["failed"] == ["exception:ValueError"]
    assert failure["error"] == {"check": "explode", "type": "ValueError",
                                "message": "injected failure"}
    lines = driver.report_text(wrapped).splitlines()
    i = lines.index("  FAIL instance 0: exception:ValueError")
    assert lines[i + 1] == \
        "    raised in check explode: ValueError: injected failure"


# The points the rejection sampler returned for seed 14 (none rejected).
SEED_14_POINTS = [
    1.485293537402998 - 0.5442002582313883j, 1.7055821492093557 - 1.6291775856345878j,
    1.9097229138055467 + 1.8842125638331384j, -0.6223462212336797 + 1.6319489318192875j,
    -1.342366476031629 - 1.5984680422529607j, -1.2346721279520865 + 0.7759508077764172j,
    -1.3251847355907733 - 1.4964880546696242j, -0.8767295938255555 + 1.4816340042032072j,
    0.7440864786009689 + 1.9939503094739977j, 1.3798547839765294 + 1.1449781968577544j,
]


def test_admissible_lambdas_evaluates_nothing(monkeypatch):
    def refuse(*args):
        raise AssertionError("the sampler evaluated a resolvent")
    for name in ("compression", "krein_resolvent", "resolvent"):
        monkeypatch.setattr(driver, name, refuse)
    rng = np.random.default_rng(14)
    generate_instance(rng, max_dim=6, max_boundary=3, category="b_full")
    assert admissible_lambdas(rng, 10) == SEED_14_POINTS


def test_spectral_lambda_fails_krein_formula_by_name(monkeypatch):
    # tau = 1/2 and M(lam) = lam: -1/2 is an eigenvalue of A_{-tau}, and a
    # real point, where the Weyl function is not evaluated
    monkeypatch.setattr(driver, "admissible_lambdas",
                        lambda rng, count: [-0.5] * count)
    wrapped = run_verify(rng_seed=0, replay_instance=DEMOS["canonical"])
    [failure] = wrapped["body"]["failures"]
    assert failure["failed"] == ["exception:ValueError"]
    assert failure["error"]["check"] == "krein_formula"
    assert failure["error"]["message"] == "Weyl function is evaluated on the real axis"


def test_verify_rejects_bad_bounds():
    with pytest.raises(InputError):
        run_verify(count=0)


def test_demo_outputs():
    for name in ("swap", "canonical", "a0"):
        text = run_demo(name)
        assert "flags" in text and "residual" in text
    with pytest.raises(InputError):
        run_demo("nope")


def test_demo_instances_verify():
    rng = np.random.default_rng(44)
    for inst in DEMOS.values():
        assert all(c.passed for c in verify_instance(inst, rng))


def run_python(*args):
    """A child interpreter that imports relcomp from this checkout's src."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"),
                                                      env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


def cli(*args):
    return run_python("-m", "relcomp", *args)


def test_cli_verify_pass_exit_zero(tmp_path):
    out = tmp_path / "report.json"
    proc = cli("verify", "--count", "3", "--seed", "5",
               "--format", "json", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(out.read_text())
    assert doc["body"]["schema"] == "relcomp-report-v1"
    assert doc["body"]["all_passed"]


def test_cli_input_error_exit_two(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    proc = cli("verify", "--replay", str(bad))
    assert proc.returncode == 2
    assert "error:" in proc.stderr


def test_cli_replay_roundtrip(tmp_path):
    rng = np.random.default_rng(55)
    inst = generate_instance(rng)
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(inst.to_json()))
    proc = cli("verify", "--replay", str(path), "--seed", "1")
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_cli_unknown_demo_exit_two():
    assert cli("demo", "nope").returncode == 2


DEMO_DIR = REPO / "demos"


@pytest.mark.parametrize("script", sorted(p.name for p in DEMO_DIR.glob("*.py")))
def test_demo_script_runs(script):
    proc = run_python(str(DEMO_DIR / script))
    assert proc.returncode == 0, proc.stderr


def test_cli_demo_exit_zero():
    proc = cli("demo", "swap")
    assert proc.returncode == 0
    assert "0.4j" in proc.stdout.replace(" ", "") or "flags" in proc.stdout
