"""Driver: serialization round-trips, determinism, CLI exit codes."""
import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import relcomp.driver as driver
import relcomp.exitspace as exitspace
import relcomp.extension as extension
import relcomp.linrel as linrel
import relcomp.triplet as triplet
from relcomp.exitspace import build_exit_space, generalized_resolvent_direct, minimality
from relcomp.linrel import (
    _green_form,
    _norm2,
    extend,
    graph_operator,
    make_relation,
    negate,
    orth,
    relations_equal,
)
from relcomp.nevanlinna import RationalNevanlinna, decompose_tau, eval_tau, tau_limits
from relcomp.triplet import BoundaryTriplet, SymmetricSeed
from relcomp.driver import (
    CHECKS,
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


@pytest.mark.parametrize("text, kind", [("[1, 2]", "list"), ('"hello"', "str"),
                                        ("null", "NoneType")], ids=["list", "string", "null"])
def test_replay_of_a_document_that_is_not_an_object_is_bad_input(tmp_path, capsys,
                                                                  text, kind):
    """A JSON document whose top level is not an object is malformed input
    (exit 2 with an error line), not a failed check (exit 1)."""
    message = f"malformed instance: top level is a {kind}, not an object"
    with pytest.raises(InputError, match=message):
        Instance.from_json(json.loads(text))
    path = tmp_path / "inst.json"
    path.write_text(text)
    assert main(["verify", "--replay", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


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
    "unknown_kind": ("canonical", lambda tri: tri.update(kind="cayley")),
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


# a matrix whose rows differ in length or whose entry is not an [re, im]
# pair of numbers
MALFORMED_MATRICES = {
    "ragged_rows": [[[1.0, 0.0], [2.0, 0.0]], [[3.0, 0.0]]],
    "ragged_empty_row": [[[1.0, 0.0]], []],
    "entry_of_three": [[[1.0, 0.0, 3.0]]],
    "entry_of_one": [[[1.0]]],
    "bare_number_entry": [[1.0]],
    "string_imaginary_part": [[[1.0, "0"]]],
    "bool_entry": [[[True, False]]],
}


@pytest.mark.parametrize("case", sorted(MALFORMED_MATRICES))
def test_malformed_matrix_is_bad_input(tmp_path, case):
    with pytest.raises(InputError, match="malformed matrix"):
        matrix_from_json(MALFORMED_MATRICES[case])
    # the swap demo's B is 1 x 1
    doc = json.loads(json.dumps(DEMOS["swap"].to_json()))
    doc["tau"]["B"] = MALFORMED_MATRICES[case]
    with pytest.raises(InputError, match="malformed matrix"):
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


def test_readme_lists_the_checks_in_suite_order():
    """README's CLI section lists every check of CHECKS by its name, in
    backticks at the head of one item each, in the order the suite runs."""
    readme = (REPO / "README.md").read_text()
    block = readme.split("on each, in this order:\n", 1)[1].split("\n\n", 1)[0]
    listed = [line.split("`")[1] for line in block.splitlines() if line.startswith("- ")]
    assert listed == list(CHECKS)


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


def _pole_at(location):
    """Edit that gives an in-memory instance one pole at location, with the
    identity on K-perp as its residue."""
    return lambda inst: dataclasses.replace(
        inst, tau_poles=((location, np.eye(inst.tau_dim - inst.tau_mul.shape[1])),))


# in-memory instance -> (edit that build_problem rejects, error message)
MALFORMED_PROBLEMS = {
    "seed_span_rows": (lambda inst: dataclasses.replace(inst, seed_span=inst.seed_span[1:]),
                       "invalid seed or triplet: span must be"),
    "tau_dim_off_boundary": (lambda inst: dataclasses.replace(inst, tau_dim=inst.tau_dim + 1),
                             "tau dimension"),
    "complex_pole": (_pole_at(0.5 + 0.1j), "invalid tau: pole 0 location .* is not a real"),
    "none_pole": (_pole_at(None), "invalid tau: pole 0 location None is not a real"),
    "string_pole": (_pole_at("0.5"), "invalid tau: pole 0 location '0.5' is not a real"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_PROBLEMS))
def test_malformed_in_memory_instance_is_bad_input(case):
    edit, message = MALFORMED_PROBLEMS[case]
    inst = edit(generate_instance(np.random.default_rng(0)))
    with pytest.raises(InputError, match=message):
        build_problem(inst)
    with pytest.raises(InputError, match=message):
        run_verify(replay_instance=inst)


def _put(value, *path):
    """Edit that sets the entry at path in an instance document to value."""
    def edit(doc):
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    return edit


# instance -> (edit of its document outside the paper's hypotheses or with
# a malformed scalar, the part build_problem or Instance.from_json names);
# json writes and reads NaN and Infinity
INVALID_INSTANCES = {
    "gamma1_equals_gamma0": ("canonical", lambda doc: doc["triplet"].update(
        gamma1=doc["triplet"]["gamma0"]), "invalid seed or triplet: Green identity"),
    "V_not_unitary": ("random", _put([[[2.0, 0.0]]], "triplet", "V"),
                      "invalid seed or triplet: V must be a d x d unitary"),
    "nan_in_V": ("random", _put(math.nan, "triplet", "V", 0, 0, 0),
                 "invalid seed or triplet: non-finite"),
    "nan_in_seed_span": ("random", _put(math.nan, "seed_span", 0, 0, 1),
                         "invalid seed or triplet: non-finite"),
    "nan_in_gamma0": ("canonical", _put(math.nan, "triplet", "gamma0", 0, 1, 0),
                      "invalid seed or triplet: non-finite"),
    "nan_in_A": ("swap", _put(math.nan, "tau", "A", 0, 0, 0), "invalid tau: non-finite"),
    "inf_in_B": ("swap", _put(math.inf, "tau", "B", 0, 0, 0), "invalid tau: non-finite"),
    "nan_pole": ("swap", _put(math.nan, "tau", "poles", 0, "alpha"),
                 "invalid tau: non-finite pole location"),
    "fractional_dim": ("random", lambda doc: doc.update(dim=doc["dim"] + 0.7),
                       "malformed instance: not a dimension"),
    "negative_dim": ("swap", _put(-1, "dim"), "malformed instance: not a dimension"),
    "string_dim": ("random", lambda doc: doc.update(dim=str(doc["dim"])),
                   "malformed instance: not a number"),
    "string_pole": ("swap", _put("0.5", "tau", "poles", 0, "alpha"),
                    "malformed instance: not a number"),
}


@pytest.mark.parametrize("case", sorted(INVALID_INSTANCES))
def test_invalid_instance_is_bad_input(tmp_path, capsys, case):
    """An instance outside the paper's hypotheses is rejected by
    build_problem as bad input (exit 2), not reported as a failed check."""
    source, edit, message = INVALID_INSTANCES[case]
    inst = DEMOS[source] if source in DEMOS else \
        generate_instance(np.random.default_rng(5), max_boundary=1)
    doc = json.loads(json.dumps(inst.to_json()))
    edit(doc)
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(InputError, match=message):
        build_problem(Instance.from_json(json.loads(path.read_text())))
    assert main(["verify", "--replay", str(path)]) == 2
    out, err = capsys.readouterr()
    assert err.startswith("error: ") and "raised in" not in out + err


@pytest.mark.parametrize("kind, data, message", [
    ("cayley", {"gamma0": np.array([[1.0, 0.0]]), "gamma1": np.array([[0.0, 1.0]])},
     "unknown triplet kind: 'cayley'"),
    ("explicit", {"gamma0": np.array([[1.0, 0.0]])},
     "an explicit triplet needs the maps gamma0 and gamma1"),
])
def test_in_memory_triplet_of_no_known_kind_is_bad_input(kind, data, message):
    """An in-memory Instance, which Instance.from_json never checked, with
    an unknown triplet kind or an explicit triplet short of a map raises
    InputError from build_problem, and run_verify passes it on instead of
    reporting a failed verification."""
    inst = dataclasses.replace(DEMOS["canonical"], triplet_kind=kind, triplet_data=data)
    with pytest.raises(InputError, match=f"invalid seed or triplet: {message}"):
        build_problem(inst)
    with pytest.raises(InputError, match=message):
        run_verify(replay_instance=inst)


@pytest.mark.parametrize("gamma0, gamma1", [
    (np.ones((1, 3)), np.array([[0.0, 1.0]])),
    (np.ones((2, 2)), np.array([[0.0, 1.0]])),
    (np.ones((1, 1)), np.array([[0.0, 1.0]])),
    (np.array([[1.0, 0.0]]), np.ones((2, 2))),
], ids=["gamma0_1x3", "gamma0_2x2", "gamma0_1x1", "gamma1_2x2"])
def test_in_memory_boundary_maps_not_d_x_2n_are_bad_input(gamma0, gamma1):
    """On the canonical demo (n = 1), explicit maps that are not both d x 2
    raise a ValueError naming both shapes from the library call, and
    InputError from build_problem and run_verify."""
    message = re.escape(f"boundary maps of shapes {gamma0.shape} and {gamma1.shape} "
                        "are not both d x 2")
    seed = SymmetricSeed.from_relation(make_relation(np.zeros((2, 0)), 1))
    with pytest.raises(ValueError, match=message):
        BoundaryTriplet.from_ambient_maps(seed, gamma0, gamma1)
    inst = dataclasses.replace(DEMOS["canonical"],
                               triplet_data={"gamma0": gamma0, "gamma1": gamma1})
    with pytest.raises(InputError, match=f"invalid seed or triplet: {message}"):
        build_problem(inst)
    with pytest.raises(InputError, match=message):
        run_verify(replay_instance=inst)


def test_build_problem_takes_one_complement(monkeypatch):
    """build and the op_frame it keeps share one complement(K); the frame
    equals a fresh complement bit for bit."""
    calls = []
    for module in [m for name, m in sys.modules.items() if name.startswith("relcomp.")]:
        if hasattr(module, "complement"):
            monkeypatch.setattr(module, "complement", lambda frame, _c=module.complement:
                                calls.append(frame.shape) or _c(frame))
    _, tau = build_problem(generate_instance(np.random.default_rng(13), 12, 6, 3))
    assert tau.op_frame is tau.op_frame and not tau.op_frame.flags.writeable
    assert calls == [(6, 1)]
    assert np.array_equal(tau.op_frame, linrel.complement(tau.mul_frame))


def test_verify_report_deterministic():
    w1 = run_verify(count=5, rng_seed=9)
    w2 = run_verify(count=5, rng_seed=9)
    assert json.dumps(w1["body"], sort_keys=True) \
        == json.dumps(w2["body"], sort_keys=True)
    assert w1["body"]["all_passed"]


def test_a_check_removed_moves_no_other_residual(monkeypatch):
    """The checks of each instance draw from a generator of its own, so a
    batch without krein_formula, the one check that draws, verifies the
    same instances and gives every other check its residual bit for bit."""
    def residuals(wrapped):
        return [{c["name"]: c["residual"] for c in entry["checks"]}
                for entry in wrapped["body"]["instances"]]
    full = residuals(run_verify(count=40, rng_seed=0))
    monkeypatch.setattr(driver, "CHECKS", {name: check for name, check in CHECKS.items()
                                           if name != "krein_formula"})
    without = residuals(run_verify(count=40, rng_seed=0))
    assert without == [{name: r for name, r in checks.items() if name != "krein_formula"}
                       for checks in full]


@pytest.mark.parametrize("category", ["b_defficient", "selfadjoint"])
def test_generate_instance_rejects_an_unknown_category(category):
    """A misspelled category is an error, raised before any draw, not an
    instance of the 'random' category."""
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="unknown category.*selfadjoint_seed"):
        generate_instance(rng, category=category)
    assert rng.random() == np.random.default_rng(0).random()


def test_verify_instance_checks_all_pass():
    rng = np.random.default_rng(33)
    inst = generate_instance(rng)
    checks = verify_instance(inst, rng)
    assert checks and all(c.passed for c in checks)
    names = {c.name for c in checks}
    assert names == set(driver.CHECKS)


def _b_beside_a_large_residue(b, a):
    """n = 4, d = 2, V = I and K = {0}, with B = diag(b, 0) and one pole at
    0.5 whose residue diag(0, a) is far larger than B."""
    rng = np.random.default_rng(0)
    dom = driver._random_unitary(rng, 4)[:, :2]
    span = np.vstack([dom, driver._random_hermitian(rng, 4) @ dom])
    return Instance(dim=4, seed_span=span, triplet_kind="von_neumann",
                    triplet_data={"V": np.eye(2)}, tau_dim=2,
                    tau_mul=np.zeros((2, 0)), tau_a=np.zeros((2, 2)),
                    tau_b=np.diag([b, 0.0]), tau_poles=((0.5, np.diag([0.0, a])),))


@pytest.mark.parametrize("b, a", [(1e-7, 1e3), (1e-6, 1e4), (1e-3, 1e7)])
def test_b_beside_a_large_residue_passes_every_check(b, a):
    """The cut of each row of ``spectra`` keeps B and A_1, so H'' = {0};
    the decomposition and theta0 read H'' off those same cuts, not off one
    cut relative to the larger coefficient, which would drop B."""
    checks = verify_instance(_b_beside_a_large_residue(b, a), np.random.default_rng(1))
    assert [c.name for c in checks if not c.passed] == []


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
    """Right-multiply every frame orth, null_space, complement and
    kernel_split (each of its two) return by a seeded random unitary, in
    every relcomp module that binds them."""
    rng = np.random.default_rng(11)

    def rotate(f):
        return f @ driver._random_unitary(rng, f.shape[1])

    def rotated(frame_of):
        def frame(*args, **kwargs):
            f = frame_of(*args, **kwargs)
            return tuple(map(rotate, f)) if isinstance(f, tuple) else rotate(f)
        return frame

    patched = {name: rotated(getattr(linrel, name))
               for name in ("orth", "null_space", "complement", "kernel_split")}
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
            # the gap limit extrapolates, and amplifies rounding
            bound = 1e-9 if a.name == "limit_parameter" else 1e-14
            assert abs(a.residual - b.residual) <= bound, a.name


KREIN_POINTS = (0.3 + 1j, -1.1 - 0.6j)


def _ambient_problem(n, seed_span, gamma0, gamma1, tau_fields):
    """tau(lam), tau_c, A0 and C(A~) as relations, and the Krein resolvents
    at KREIN_POINTS, of the problem rebuilt from its ambient data."""
    seed = SymmetricSeed.from_relation(make_relation(seed_span, n))
    tri = BoundaryTriplet.from_ambient_maps(seed, gamma0, gamma1)
    tau = RationalNevanlinna(**tau_fields)
    report = extension.classify_compression(tri, tau)
    relations = [eval_tau(tau, KREIN_POINTS[0]), report.tau_c, tri.a0, report.compression]
    return relations, [extension.krein_resolvent(tri, tau, lam) for lam in KREIN_POINTS]


def test_problem_does_not_depend_on_frame_bases(monkeypatch):
    rng = np.random.default_rng(7)
    data = []
    while len(data) < 30:
        inst = generate_instance(rng, 12, 6, 3)
        if inst.tau_mul.shape[1]:   # K != {0}
            tri, tau = build_problem(inst)
            fields = {f.name: getattr(tau, f.name) for f in dataclasses.fields(tau)}
            data.append((inst.dim, inst.seed_span, tri.gamma0, tri.gamma1, fields))
    plain = [_ambient_problem(*args) for args in data]
    _rotate_frames(monkeypatch)
    rotated = [_ambient_problem(*args) for args in data]
    for (rels, krein), (rels_rot, krein_rot) in zip(plain, rotated):
        for a, b in zip(rels, rels_rot):
            assert relations_equal(a, b)[1] <= 1e-13
        for a, b in zip(krein, krein_rot):
            assert np.max(np.abs(a - b), initial=0.0) <= 1e-13


# the fault, or the check it aims at -> (owner, attribute, wrapper that
# injects the fault into the original, every check the fault must fail, in
# CHECKS order, and the category of the instance it is injected into,
# generate_instance(default_rng(0), category=...))
FAULTS = {
    # tau_c with its sign flipped: tau(iy) tends to -tau_c, not to tau_c
    "compression_equivalence": (
        extension, "compression_param",
        lambda param: lambda tau: negate(param(tau)),
        ["limit_parameter", "compression_equivalence"], "b_deficient"),
    # the gamma(lam) (tau + M)^-1 gamma(conj lam)* term added, not subtracted:
    # krein_resolvent is the one caller of graph_operator in extension
    "krein_formula": (extension, "graph_operator",
                      lambda inverse: lambda *args: -inverse(*args),
                      ["krein_formula"], "b_deficient"),
    # tau0 with B off by 1e-3, but only far up the imaginary axis, where
    # only the gap limit looks; lam may be a stack of points
    "limit_parameter": (
        RationalNevanlinna, "tau0",
        lambda tau0: lambda self, lam: tau0(self, lam)
        + ((np.abs(lam) > 50) * 1e-3 * np.asarray(lam))[..., None, None],
        ["limit_parameter"], "b_deficient"),
    # tau_c with A' built from 1.001 A
    "scaled_a_prime": (
        extension, "compression_param",
        lambda param: lambda tau: param(dataclasses.replace(tau, a_coef=1.001 * tau.a_coef)),
        ["limit_parameter", "compression_equivalence"], "b_deficient"),
    # the oracle's C read as T = P_H A~: the chain A <= S <= C <= T still holds
    "c_is_t": (
        driver, "direct_compression",
        lambda direct: lambda model: (lambda C, S, T: (T, S, T))(*direct(model)),
        ["compression_equivalence"], "b_deficient"),
    # the oracle's T read as C: the chain still holds, but dim H' = 2 here,
    # so T has two dimensions more than C
    "t_is_c": (
        driver, "direct_compression",
        lambda direct: lambda model: (lambda C, S, T: (C, S, C))(*direct(model)),
        ["compression_chain"], "b_deficient"),
    # the oracle's T and S with frames that are not orthonormal: each check
    # reads the projector of the oracle's part off A, and the distance of
    # its A columns from A's frame, which fails where S = A
    "t_frame_scaled": (
        driver, "direct_compression",
        lambda direct: lambda model: (lambda C, S, T: (
            C, S, dataclasses.replace(T, frame=1.01 * T.frame)))(*direct(model)),
        ["compression_chain"], "b_deficient"),
    "s_frame_scaled": (
        driver, "direct_compression",
        lambda direct: lambda model: (lambda C, S, T: (
            C, dataclasses.replace(S, frame=1.01 * S.frame), T))(*direct(model)),
        ["s_direct_matches_theta0"], "b_deficient"),
    # only the A columns of the oracle's C scaled: its part off A, the part
    # the gap reads, is right, and the distance of those columns from A's
    # frame is what fails
    "c_a_columns_scaled": (
        driver, "direct_compression",
        lambda direct: lambda model: (lambda C, S, T: (
            dataclasses.replace(C, frame=np.hstack([
                1.01 * C.frame[:, :model.dim_a], C.frame[:, model.dim_a:]])),
            S, T))(*direct(model)),
        ["compression_equivalence"], "b_deficient"),
    # H'' without its first column; the FAULTS instance has H'' = {0}, this
    # one dim H'' = 2
    "h_dprime_column": (
        driver, "decompose_tau",
        lambda decompose: lambda tau: (lambda dec: dataclasses.replace(
            dec, h_dprime=dec.h_dprime[:, 1:]))(decompose(tau)),
        ["s_direct_matches_theta0"], "random"),
}


@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_injected_fault_fails_exactly_its_check(monkeypatch, fault):
    owner, attr, inject, failing, category = FAULTS[fault]
    monkeypatch.setattr(owner, attr, inject(getattr(owner, attr)))
    inst = generate_instance(np.random.default_rng(0), category=category)
    checks = verify_instance(inst, np.random.default_rng(0))
    assert [c.name for c in checks if not c.passed] == failing
    if "limit_parameter" in failing:
        assert next(c.residual for c in checks if c.name == "limit_parameter") >= 1e-6


def test_a_wrong_lift_is_caught_although_both_routes_read_it(monkeypatch):
    """The formula route and the reference relations of the oracle's checks
    read BoundaryTriplet.lift; building A~ does not.  A shear of the lift
    (Gamma0 += Gamma1) moves A0, and verify fails or raises, naming a check,
    on the FAULTS instance and on every instance of the five categories with
    d >= 1.  A sign flip of its Gamma1 half leaves A0 unchanged: verify
    fails every instance whose tau has an operator part, and passes the
    purely multivalued ones (K = C^d), whose results read only A0 and are
    correct."""
    lift = BoundaryTriplet.__dict__["lift"].func
    corpus = [generate_instance(np.random.default_rng(0), category="b_deficient")]
    for category in ("random", "k_nontrivial", "transversal", "b_full", "b_deficient"):
        rng = np.random.default_rng(5)
        corpus += [generate_instance(rng, category=category) for _ in range(8)]

    def sheared(out, d):
        out[:, d:] += out[:, :d]

    def flipped(out, d):
        out[:, d:] *= -1

    for fault in (sheared, flipped):
        def wrong(tri, _fault=fault):
            out = lift(tri).copy()
            _fault(out, tri.boundary_dim)
            return out
        monkeypatch.setattr(BoundaryTriplet, "lift", property(wrong))
        passed = 0
        for i, inst in enumerate(corpus):
            try:
                checks = verify_instance(inst, np.random.default_rng(i))
            except Exception as exc:
                assert exc.check_name in CHECKS, (fault.__name__, i)
                continue
            failed = [c.name for c in checks if not c.passed]
            if fault is sheared or inst.tau_a.shape[0]:
                assert failed, (fault.__name__, i)
            else:
                assert not failed, (fault.__name__, i)
                passed += 1
        assert passed == (0 if fault is sheared else 6), fault.__name__


def _eighty_instances():
    """The 40 instances of generate_instance(default_rng(0)) and the 40 of
    (1), instance i with the check stream default_rng([0, i])."""
    corpus = []
    for seed in (0, 1):
        rng = np.random.default_rng(seed)
        corpus += [generate_instance(rng) for _ in range(40)]
    return [(inst, np.random.default_rng([0, i])) for i, inst in enumerate(corpus)]


def test_t_read_as_c_fails_only_where_h_prime_is_nonzero(monkeypatch):
    """On the 80 instances the oracle's T has dimension n + dim H', as
    T = A_theta_T says.  With T read as C, compression_chain fails on
    exactly the 60 with H' != {0}, where C is the smaller, and nothing
    else fails.  The neighbour containments A <= S <= C <= T <= A* that
    compression_chain read before it checked T against its formula all
    still hold, so they caught this fault on none."""
    corpus = _eighty_instances()
    with_h_prime = set()
    for i, (inst, _) in enumerate(corpus):
        tri, tau = build_problem(inst)
        dim_h_prime = decompose_tau(tau).h_prime.shape[1]
        T = driver.direct_compression(build_exit_space(tri, tau))[2]
        assert T.dim == inst.dim + dim_h_prime, i
        if dim_h_prime:
            with_h_prime.add(i)
    direct = driver.direct_compression
    chains = []

    def t_is_c(model):
        C, S, _ = direct(model)
        chains.append((C, S, C))
        return chains[-1]
    monkeypatch.setattr(driver, "direct_compression", t_is_c)
    failing = set()
    for i, (inst, rng) in enumerate(corpus):
        checks = verify_instance(inst, rng)
        failed = [c.name for c in checks if not c.passed]
        assert failed in ([], ["compression_chain"]), i
        failing |= {i} if failed else set()
        tri, _ = build_problem(inst)
        C, S, T = chains[-1]
        a, a_star = tri.seed.A.frame, tri.seed.A_star.frame
        assert max(linrel.containment_residual(sub, sup) for sub, sup in (
            (a, S.frame), (S.frame, C.frame), (C.frame, T.frame), (T.frame, a_star))) < 1e-7
    assert len(with_h_prime) == 60 and failing == with_h_prime


def test_chain_checks_read_the_full_gap_off_a(monkeypatch):
    """On the 80 instances each of the three chain checks, which reads the
    parts off A of the formula's and the oracle's set, equals the gap
    ``relations_equal`` reads on their whole frames within 1e-14."""
    readings = []
    gap_off_a = driver._gap_off_a

    def recorded(ctx, formula, oracle):
        readings.append((formula, oracle, gap_off_a(ctx, formula, oracle)))
        return readings[-1][2]
    monkeypatch.setattr(driver, "_gap_off_a", recorded)
    for i, (inst, rng) in enumerate(_eighty_instances()):
        readings.clear()
        checks = {c.name: c.residual for c in verify_instance(inst, rng)}
        assert [gap for *_, gap in readings] == [checks[name] for name in (
            "compression_equivalence", "s_direct_matches_theta0", "compression_chain")], i
        for formula, oracle, gap in readings:
            assert abs(gap - relations_equal(formula, oracle)[1]) <= 1e-14, i


def test_a_skewed_extend_fails_the_chain_checks(monkeypatch):
    """``extend``'s first new column skewed by 1e-6 times its frame's first
    column, in the oracle (its compressions and ``minimality``): verify
    fails 60 of the 80 instances, compression_chain on all 60 and
    compression_equivalence on 44, and no other check."""
    extend = exitspace.extend

    def skewed(frame, span):
        out = extend(frame, span)
        if frame.shape[1] and out.shape[1] > frame.shape[1]:
            out[:, frame.shape[1]] += 1e-6 * frame[:, 0]
        return out
    monkeypatch.setattr(exitspace, "extend", skewed)
    failing, by_check = 0, {}
    for inst, rng in _eighty_instances():
        failed = [c.name for c in verify_instance(inst, rng) if not c.passed]
        failing += bool(failed)
        for name in failed:
            by_check[name] = by_check.get(name, 0) + 1
    assert (failing, by_check) == (60, {"compression_equivalence": 44, "compression_chain": 60})


def test_krein_against_canonical_alone_catches_a_negated_gamma1_lift(monkeypatch):
    """A lift whose Gamma1 half is negated fails krein_formula on 71 of the
    80 instances; on 23 of them it fails no other check and the oracle
    half of krein_formula passes, so the comparison with the canonical
    resolvent of A_{-tau(lam)} is their only catcher and stays."""
    lift = BoundaryTriplet.__dict__["lift"].func

    def negated(tri):
        out = lift(tri).copy()
        out[:, tri.boundary_dim:] *= -1
        return out
    monkeypatch.setattr(BoundaryTriplet, "lift", property(negated))
    threshold = CHECKS["krein_formula"].threshold
    krein_failed = canonical_only = 0
    for i, (inst, rng) in enumerate(_eighty_instances()):
        failed = [c.name for c in verify_instance(inst, rng) if not c.passed]
        krein_failed += "krein_formula" in failed
        if failed == ["krein_formula"]:
            ctx = driver.VerifyContext(*build_problem(inst), np.random.default_rng([0, i]))
            canonical, oracle = driver.krein_residuals(
                ctx.tri, ctx.tau, ctx.model, admissible_lambdas(ctx.rng, 3))
            canonical_only += oracle < threshold <= canonical
    assert (krein_failed, canonical_only) == (71, 23)


def test_a_far_weyl_fault_is_caught_only_by_the_forbidden_asymptotics(monkeypatch):
    """M(lam) times 1 + 1e-3 at |lam| > 50, far above the points verify
    draws: verify passes all 80 instances, and check_forbidden_asymptotics,
    which reads M(iy) on the gap-limit grid, reads at least 1e-8 on all
    80.  extension imports gamma_and_weyl by name, so both bindings are
    patched."""
    weyl = triplet.gamma_and_weyl

    def far_off(tri, lam):
        ws = weyl(tri, lam)
        factor = 1 + 1e-3 * (np.abs(np.asarray(lam)) > 50)
        return dataclasses.replace(ws, weyl=ws.weyl * factor[..., None, None])
    for module in (triplet, extension):
        monkeypatch.setattr(module, "gamma_and_weyl", far_off)
    for i, (inst, rng) in enumerate(_eighty_instances()):
        assert all(c.passed for c in verify_instance(inst, rng)), i
        assert triplet.check_forbidden_asymptotics(build_problem(inst)[0]) >= 1e-8, i


def test_verify_builds_one_compression_per_instance(monkeypatch):
    """verify reads C(A~), its flags and n_r off one classify_compression."""
    calls = []
    param = extension.compression_param
    monkeypatch.setattr(extension, "compression_param",
                        lambda tau: calls.append("param") or param(tau))
    classify = driver.classify_compression
    monkeypatch.setattr(driver, "classify_compression",
                        lambda *args: calls.append("classify") or classify(*args))
    inst = generate_instance(np.random.default_rng(0), category="b_deficient")
    verify_instance(inst, np.random.default_rng(0))
    assert sorted(calls) == ["classify", "param"]


def test_disputed_flag_fails_classification_routes(monkeypatch):
    """A coefficient route that flips one flag is reported in ``disputed``,
    not raised, and verify fails classification_routes by that one flag."""
    coefficients = extension.flags_coefficients
    monkeypatch.setattr(extension, "flags_coefficients", lambda tau: {
        **coefficients(tau), "self_adjoint": False})
    inst = generate_instance(np.random.default_rng(0), category="b_deficient")
    tri, tau = build_problem(inst)
    rep = extension.classify_compression(tri, tau)
    assert rep.disputed == {"self_adjoint": (True, False)}
    checks = verify_instance(inst, np.random.default_rng(0))
    assert [(c.name, c.residual) for c in checks if not c.passed] == \
        [("classification_routes", 1.0)]


def _count_factorizations(monkeypatch, run) -> dict:
    """Number of SVDs, eigvalsh, eigh, QR and LU (``inv``) calls in run()."""
    counts = {"svd": 0, "eigvalsh": 0, "eigh": 0, "qr": 0, "inv": 0}
    for name in counts:
        def counted(*args, _name=name, _factor=getattr(np.linalg, name), **kwargs):
            counts[_name] += 1
            return _factor(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    run()
    return counts


def test_verify_instance_factorization_count(monkeypatch):
    """One verify_instance of a fixed draw (n = 11, boundary dimension 6,
    dim K = 1, one pole) takes 14 SVDs, one of them the one
    ``decompose_tau`` that theta0 and theta_T read, and 3 eigh calls (the
    parameter's ``spectra``, the oracle's one stacked ``psd_factor`` of B
    and the residue, and ``diagonalize(A0)``).  ``krein_formula`` reads three lam:
    it evaluates tau on their stack once, reads both formula-route sides
    off it, one call per factorization, and the oracle at each lam.  It
    takes 5 eigvalsh calls: one per reported gap (one for the stacked
    points of the gap limit and three for the parts off A of the
    compressions C, S and T), and the angles of
    ``diagonalize(A0)``; the symmetry and subset verdicts are settled by
    Frobenius norms.  It takes 10 QRs: ``operator_relation`` in the
    stacked ``eval_tau`` of the Krein formula, in the stacked gap-limit
    points, in ``compression_param``, in theta0 and in theta_T, and
    ``extension_of`` for A0, C, theta0, theta_T and the stacked canonical
    resolvent.  It takes 8 LUs (``inv``, in ``graph_operator``): the
    triplet's lift, gamma(i), ``diagonalize(A0)``, the stacked middle term
    and canonical resolvent and the oracle's three points; A0's resolvent
    needs none, and neither does ``minimality``, which reads (A~ - i)^{-1}
    off a unitary."""
    inst = generate_instance(np.random.default_rng(13), 12, 6, 3)
    counts = _count_factorizations(
        monkeypatch, lambda: verify_instance(inst, np.random.default_rng(0)))
    assert counts == {"svd": 14, "eigvalsh": 5, "eigh": 3, "qr": 10, "inv": 8}


def test_build_problem_factorization_count(monkeypatch):
    """build_problem alone on the same draw takes 5 SVDs (the seed's orth,
    its two defect frames at +-i, and the orth and the one complement of
    the parameter's ``build``, which ``op_frame`` keeps), no eigvalsh
    (the Frobenius norms of the seed's Green form and of V^H V - I settle
    both verdicts), 1 eigh
    (``spectra``, whose rows ``build`` checks), no QR and 1 LU (the
    triplet's lift)."""
    inst = generate_instance(np.random.default_rng(13), 12, 6, 3)
    counts = _count_factorizations(monkeypatch, lambda: build_problem(inst))
    assert counts == {"svd": 5, "eigvalsh": 0, "eigh": 1, "qr": 0, "inv": 1}


def test_no_full_svd_of_a_wide_matrix(monkeypatch):
    """One verify_instance at n = 96 takes no SVD with full unitaries of a
    matrix with fewer rows than columns: LAPACK's full SVD is about twice
    as fast on the tall orientation, so kernel_split factors a wide mat as
    mat^H."""
    inst = generate_instance(np.random.default_rng(292), 96, 48, 4)
    calls = []
    svd = np.linalg.svd

    def recorded(a, full_matrices=True, compute_uv=True, **kwargs):
        calls.append((a.shape, full_matrices and compute_uv))
        return svd(a, full_matrices=full_matrices, compute_uv=compute_uv, **kwargs)
    monkeypatch.setattr(np.linalg, "svd", recorded)
    verify_instance(inst, np.random.default_rng(0))
    assert any(full for _, full in calls)
    assert [(shape, full) for shape, full in calls if full and shape[0] < shape[1]] == []


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
    for name in ("classify_compression", "krein_resolvent", "resolvent"):
        monkeypatch.setattr(driver, name, refuse)
    rng = np.random.default_rng(14)
    generate_instance(rng, max_dim=6, max_boundary=3, category="b_full")
    assert admissible_lambdas(rng, 10) == SEED_14_POINTS


def test_spectral_lambda_fails_krein_formula_by_name(monkeypatch):
    # tau = 1/2 and M(lam) = lam: -1/2 is an eigenvalue of A_{-tau}, and a
    # real point, where tau0 refuses to evaluate tau
    monkeypatch.setattr(driver, "admissible_lambdas",
                        lambda rng, count: [-0.5] * count)
    wrapped = run_verify(rng_seed=0, replay_instance=DEMOS["canonical"])
    [failure] = wrapped["body"]["failures"]
    assert failure["failed"] == ["exception:ValueError"]
    assert failure["error"]["check"] == "krein_formula"
    assert failure["error"]["message"] == "tau is evaluated on the real axis"


def test_verify_rejects_bad_bounds():
    with pytest.raises(InputError):
        run_verify(count=0)


# each demo's generalized resolvent at 2i in closed form: on the seed
# {{0, 0}} in C, R0 = 0 and M(lam) = lam, so R(lam) = -1/(tau(lam) + lam),
# with tau(lam) = -1/lam (swap), 1/2 (canonical) or lam (a0)
DEMO_RESOLVENTS_AT_2I = {"swap": 0.4j, "canonical": -1.0 / (0.5 + 2j), "a0": 0.25j}


def test_demo_outputs():
    """Each demo prints its flags and residual, and both routes give its
    closed-form resolvent at 2i."""
    for name, value in DEMO_RESOLVENTS_AT_2I.items():
        text = run_demo(name)
        assert "flags" in text and "residual" in text
        tri, tau = build_problem(DEMOS[name])
        for r in (extension.krein_resolvent(tri, tau, 2j),
                  generalized_resolvent_direct(build_exit_space(tri, tau), 2j)):
            assert r.shape == (1, 1) and abs(r[0, 0] - value) < 1e-12, (name, r)
    with pytest.raises(InputError):
        run_demo("nope")


def test_demo_instances_verify():
    rng = np.random.default_rng(44)
    for inst in DEMOS.values():
        assert all(c.passed for c in verify_instance(inst, rng))


def run_python(*args):
    """A child interpreter that imports relcomp from this checkout's src and
    turns every warning into an error, as tier-1 does in its own process."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"),
                                                      env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-W", "error", *args],
                          capture_output=True, text=True, env=env)


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


def test_cli_unwritable_out_is_bad_input(tmp_path, capsys, monkeypatch):
    """An --out in a directory that does not exist exits 2 with an error
    line, before any instance is verified."""
    monkeypatch.setattr(driver, "run_verify", lambda **kwargs: pytest.fail("batch ran"))
    out = tmp_path / "missing" / "report.json"
    assert main(["verify", "--count", "1", "--out", str(out)]) == 2
    stdout, stderr = capsys.readouterr()
    assert stderr.startswith("error: cannot write report") and stdout == ""
    assert not out.parent.exists()


def test_cli_bad_input_leaves_an_existing_report(tmp_path, capsys):
    """A run that exits 2 leaves an existing --out file byte for byte; a
    run that reports replaces all of it, however long it was."""
    bad = tmp_path / "bad.json"
    doc = DEMOS["swap"].to_json()
    doc["tau"]["A"][0][0][0] = math.nan
    bad.write_text(json.dumps(doc))
    good = tmp_path / "swap.json"
    good.write_text(json.dumps(DEMOS["swap"].to_json()))
    out = tmp_path / "report.json"
    previous = b"an earlier report\n" * 10000
    out.write_bytes(previous)
    assert main(["verify", "--replay", str(bad), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert out.read_bytes() == previous
    assert main(["verify", "--replay", str(good), "--format", "json", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["body"]["all_passed"]
    # a target that cannot seek or be truncated takes a report too
    assert main(["verify", "--replay", str(good), "--out", os.devnull]) == 0


def test_huge_declared_dimension_is_bad_input_before_any_n_squared_work(tmp_path, capsys):
    """An instance file that declares dim 10^6 with an empty seed and a tau
    of dimension 0 is rejected for its boundary dimension, n - dim A, from
    the seed's span alone: the defect frames, n x n for this seed, are
    never formed."""
    doc = {"schema": driver.INSTANCE_SCHEMA, "dim": 10 ** 6, "seed_span": [],
           "triplet": {"kind": "von_neumann", "V": []},
           "tau": {"dim": 0, "mul_basis": [], "A": [], "B": [], "poles": []}}
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    tracemalloc.start()
    try:
        assert main(["verify", "--replay", str(path)]) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out, err = capsys.readouterr()
    assert err == "error: invalid tau: tau dimension 0 != boundary dimension 1000000\n"
    assert out == "" and peak < 2 ** 24


def test_cli_replay_roundtrip(tmp_path):
    rng = np.random.default_rng(55)
    inst = generate_instance(rng)
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(inst.to_json()))
    proc = cli("verify", "--replay", str(path), "--seed", "1")
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_replay_reports_one_instance(tmp_path, capsys):
    """A replay verifies one instance, and both reports say so, whatever
    --count is."""
    path = tmp_path / "swap.json"
    path.write_text(json.dumps(DEMOS["swap"].to_json()))
    assert main(["verify", "--replay", str(path), "--format", "json"]) == 0
    body = json.loads(capsys.readouterr().out)["body"]
    assert body["params"]["count"] == len(body["instances"]) == 1
    assert main(["verify", "--replay", str(path), "--count", "7"]) == 0
    assert "  instances=1 max_dim=" in capsys.readouterr().out


def test_cli_unknown_demo_exit_two():
    assert cli("demo", "nope").returncode == 2


DEMO_DIR = REPO / "demos"


@pytest.mark.parametrize("script", sorted(p.name for p in DEMO_DIR.glob("*.py")))
def test_demo_script_runs(script):
    proc = run_python(str(DEMO_DIR / script))
    assert proc.returncode == 0, proc.stderr


def test_cli_demo_exit_zero():
    """The swap demo prints 0.4i, its closed-form value at 2i, on both
    resolvent lines."""
    proc = cli("demo", "swap")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    for prefix in ("generalized resolvent at 2j:", "Krein formula at 2j:"):
        [line] = [line for line in lines if line.startswith(prefix)]
        assert line[len(prefix):].replace(" ", "") == "[[0.+0.4j]]", line


def _scaled_tau_corpus(scale, seed):
    """The 30 instances drawn with default_rng(seed), with tau's A, B and
    every A_j multiplied by scale."""
    rng = np.random.default_rng(seed)
    for _ in range(30):
        inst = generate_instance(rng)
        yield dataclasses.replace(
            inst, tau_a=scale * inst.tau_a, tau_b=scale * inst.tau_b,
            tau_poles=tuple((alpha, scale * aj) for alpha, aj in inst.tau_poles))


@pytest.mark.parametrize("scale", [1e-6, 1.0, 1e3, 1e6])
def test_scaled_tau_keeps_its_verdicts(scale):
    """On the scaled-tau corpora of the generator seeds 0 ... 9 every verify
    check passes at every scale: the gap limit picks no point from the
    size of tau.  compression_chain, the oracle's T against A_theta_T,
    reads at most 1e-12, and at most 1e-9 at x 1e6, where the oracle's
    null space loses digits (2.9e-13, 2.9e-15, 2.7e-13 and 4.8e-10
    measured)."""
    chain_bound = 1e-9 if scale == 1e6 else 1e-12
    for seed in range(10):
        for i, inst in enumerate(_scaled_tau_corpus(scale, seed)):
            checks = verify_instance(inst, np.random.default_rng(i))
            assert all(c.passed for c in checks), (seed, i, checks)
            assert next(c.residual for c in checks
                        if c.name == "compression_chain") <= chain_bound, (seed, i)


@pytest.mark.parametrize("factor, told_apart", [(1.001, 154), (1 + 3e-5, 151)])
def test_a_wrong_limit_fails_on_the_ten_seed_corpus(factor, told_apart):
    """On the unit-scale corpora of the generator seeds 0 ... 9, the
    -tau_c built from factor * A fails tau_limits on each instance where it
    is more than 1e-6 from -tau_c; on the others A does not enter tau_c, or
    barely.  The targets from (1 + 3e-5) A on seed 2, instances 3 and 4,
    and seed 4, instance 15, 1.1e-6 to 1.5e-5 from -tau_c, read their gap
    only at pairs past the point where it has settled below 1e-4: the
    smallest Richardson value over every pair of the grid passes them."""
    threshold = CHECKS["limit_parameter"].threshold
    found = 0
    for seed in range(10):
        for inst in _scaled_tau_corpus(1.0, seed):
            _, tau = build_problem(inst)
            tau_c = extension.compression_param(tau)
            off = extension.compression_param(dataclasses.replace(tau, a_coef=factor * tau.a_coef))
            if relations_equal(off, tau_c)[1] > 1e-6:
                assert tau_limits(tau, negate(off)) > threshold, (seed, inst)
                found += 1
    assert found == told_apart


def _minimal_by_lu(r, nr):
    """minimality's Kalman test on exit rows r = [R21, R22] of
    (A~ - i)^{-1} given by the caller."""
    n = r.shape[1] - nr
    block = added = orth(r[:, :n])
    while block.shape[1] < nr:
        grown = extend(block, r[:, n:] @ added)
        if grown.shape[1] == block.shape[1]:
            return False
        block, added = grown, grown[:, block.shape[1]:]
    return True


@pytest.mark.parametrize("scale", [1e-6, 1.0, 1e3, 1e6])
def test_minimality_reads_the_resolvent_off_a_unitary(scale, monkeypatch):
    """minimality reads the exit rows of (A~ - i)^{-1} as L~[n:] X^H for
    the unitary X = R~ - i L~.  On the models of the scaled-tau corpus of
    the generator seed 3 every entry of R21, the first span minimality
    orthonormalizes, differs from ``graph_operator``'s LU value by at most
    2 ||G|| + 1e-14, with G the Green form of A~'s frame, and by at most
    1e-11 (the worst entry of all exit rows differs by 1.2e-13, at 1e6),
    and the minimality verdict on the LU's exit rows is the same."""
    spans = []
    monkeypatch.setattr(exitspace, "orth", lambda span: spans.append(span) or orth(span))
    for inst in _scaled_tau_corpus(scale, 3):
        model = build_exit_space(*build_problem(inst))
        n, a = model.dim_h, model.a_tilde
        spans.clear()
        minimal = minimality(model)
        by_lu = graph_operator(a.right - 1j * a.left, a.left[n:])
        diff = np.max(np.abs(spans[0] - by_lu[:, :n]), initial=0.0)
        assert diff <= min(2.0 * _norm2(_green_form(a.left, a.right)) + 1e-14, 1e-11)
        assert minimal == _minimal_by_lu(by_lu, model.dim_r)
