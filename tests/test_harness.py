import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bergreen
from bergreen import ConfigError, NumericError, StudyInsufficientError, harness
from bergreen.cli import main as cli_main
from bergreen.harness import (
    ASSUMPTIONS,
    Check,
    ExperimentConfig,
    run,
)
from bergreen.pdegreen import REFINEMENT_TOLERANCE


def cfg(**kw):
    base = {"experiment": "verify-identity", "seed": 7, "count": 25}
    base.update(kw)
    return ExperimentConfig.from_dict(base)


def test_verify_identity_unit_disk(tmp_path):
    report = run(cfg(), tmp_path)
    assert report.passed
    max_res = max(r["residual"] for r in report.records)
    assert max_res < 1e-5
    assert (tmp_path / "identity.csv").exists()
    payload = json.loads((tmp_path / "report.json").read_text())
    assert payload["schema"] == 1
    assert payload["assumptions"] == ASSUMPTIONS
    for check in payload["checks"]:
        assert "tolerance" in check and "passed" in check
    # CSV columns are documented in the report header
    assert payload["csv_columns"]["identity.csv"][:4] == ["re_z", "im_z", "re_w", "im_w"]


def test_verify_identity_weighted_and_moebius(tmp_path):
    rep = run(cfg(weight={"representation": "holo_modulus_squared",
                          "coefficients": [[2, 0], [1, 0]]}), tmp_path / "w")
    assert rep.passed
    rep2 = run(cfg(domain={"kind": "moebius_disk", "params": {"a": [0.3, 0.1], "theta": 0.5}},
                   count=10), tmp_path / "m")
    assert rep2.passed


def test_verify_identity_log_harmonic_weight(tmp_path):
    rep = run(cfg(count=15, weight={"representation": "log_harmonic",
                                    "coefficients": [[0.1, 0.0], [0.4, 0.2]]}), tmp_path)
    assert rep.passed
    assert max(r["residual"] for r in rep.records) < 1e-8


# (domain, weight, center, radius) of the diagonal-pair runs
DIAGONAL_CASES = {
    "unit disk": ({"kind": "unit_disk"}, {"coefficients": [[2, 0], [1, 0]]}, 0j, 1.0),
    "Moebius disk": ({"kind": "moebius_disk", "params": {"a": [0.3, 0.1], "theta": 0.5}},
                     {"coefficients": [[2, 0], [1, 0]]}, 0j, 1.0),
    "off-center disk": ({"kind": "disk", "params": {"center": [0.5, -0.2], "radius": 2.0}},
                        {"coefficients": [[3, 0], [1, 0]]}, 0.5 - 0.2j, 2.0),
    "log-harmonic weight": ({"kind": "unit_disk"}, {"representation": "log_harmonic",
                                                     "coefficients": [[0.1, 0], [0.4, 0.2]]},
                            0j, 1.0),
    "unit disk spelled as a disk": ({"kind": "disk", "params": {"center": [0, 0], "radius": 1}},
                                    {"coefficients": [[2, 0], [1, 0]]}, 0j, 1.0),
    "constant weight rho = 4": ({"kind": "unit_disk"}, {"coefficients": [[2, 0]]}, 0j, 1.0),
}


def test_verify_identity_diagonal_pairs(tmp_path, capsys):
    # the identity holds at z = w through the regular part of G, so diagonal
    # pairs are evaluated like any other: one record each, no note
    for name, (domain, weight, center, radius) in DIAGONAL_CASES.items():
        pts = [center + 0.13 * k * radius * np.exp(1.3j * k) for k in range(6)]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"domain": domain, "weight": weight, "pairs": [
            [[p.real, p.imag], [p.real, p.imag]] for p in pts]}))
        out = tmp_path / name.replace(" ", "_")
        assert cli_main(["verify-identity", "--config", str(path), "--out", str(out)]) == 0, name
        payload = json.loads((out / "report.json").read_text())
        assert [r["z"] for r in payload["records"]] == [r["w"] for r in payload["records"]]
        assert len(payload["records"]) == len(pts) and payload["notes"] == [], name
    assert "[NOTE]" not in capsys.readouterr().out


def test_verify_identity_skips_stencil_failures(tmp_path):
    # second point sits so close to the boundary that the FD stencil leaves
    # the domain; the run records the skip and continues
    report = run(cfg(pairs=[[[0.9999, 0.0], [0.2, 0.1]], [[0.2, 0.1], [0.0, -0.3]]]),
                 tmp_path)
    assert report.passed
    assert len(report.records) == 1
    assert any("skipped" in n for n in report.notes)


def test_verify_identity_notes_and_records_keep_pair_order(tmp_path):
    # good, diagonal, stencil-leaving z, good, diagonal at the boundary (it
    # leaves the stencil like any pair), stencil-leaving w, w with two
    # stencil points outside (the note names the first), good
    pairs = [[[0.2, 0.1], [0.0, -0.3]], [[0.3, 0.0], [0.3, 0.0]], [[0.9999, 0.0], [0.2, 0.1]],
             [[0.1, 0.5], [-0.4, 0.2]], [[0.9999, 0.0], [0.9999, 0.0]],
             [[0.2, 0.1], [0.0, 0.9995]], [[0.1, 0.1], [-0.7071, -0.7071]],
             [[0.6, -0.2], [0.1, 0.1]]]
    report = run(cfg(pairs=pairs, basis_order=20, quad_order=24, weight={
        "representation": "holo_modulus_squared", "coefficients": [[2, 0], [1, 0]]}), tmp_path)
    assert report.notes == [
        "pair ((0.9999+0j), (0.2+0.1j)) skipped: stencil point (1.0009+0j) leaves the domain",
        "pair ((0.9999+0j), (0.9999+0j)) skipped: stencil point (1.0009+0j) leaves the domain",
        "pair ((0.2+0.1j), 0.9995j) skipped: stencil point 1.0005j leaves the domain",
        "pair ((0.1+0.1j), (-0.7071-0.7071j)) skipped: "
        "stencil point (-0.7081-0.7071j) leaves the domain",
    ]
    assert [(r["z"], r["w"]) for r in report.records] == [
        ([0.2, 0.1], [0.0, -0.3]), ([0.3, 0.0], [0.3, 0.0]), ([0.1, 0.5], [-0.4, 0.2]),
        ([0.6, -0.2], [0.1, 0.1])]
    assert all(set(r) == {"z", "w", "residual", "residual_fd"} for r in report.records)
    assert max(r["residual"] for r in report.records) < 1e-12
    assert max(r["residual_fd"] for r in report.records) < 1e-10
    assert report.passed
    rows = (tmp_path / "identity.csv").read_text().splitlines()
    assert rows[0] == "re_z,im_z,re_w,im_w,residual_analytic,residual_fd,abs_K"
    assert [r.split(",")[:4] for r in rows[1:]] == [
        ["0.20000000000000001", "0.10000000000000001", "0", "-0.29999999999999999"],
        ["0.29999999999999999", "0", "0.29999999999999999", "0"],
        ["0.10000000000000001", "0.5", "-0.40000000000000002", "0.20000000000000001"],
        ["0.59999999999999998", "-0.20000000000000001", "0.10000000000000001",
         "0.10000000000000001"]]


def test_verify_identity_rejects_annulus():
    with pytest.raises(ConfigError, match="pde-green"):
        run(cfg(domain={"kind": "annulus", "params": {"inner": 0.5, "outer": 1.0}},
                basis_order=16))


def test_seed_mandatory_for_random_points():
    # the experiments that draw points at random need a seed, unless the
    # pairs are given; the others do not draw and take none
    for data in ({"experiment": "verify-identity"}, {"experiment": "kernel"},
                 {"experiment": "green"}, {"experiment": "distance"},
                 {"experiment": "gauge-experiment", "weight": {"coefficients": [[2, 0], [1, 0]]}}):
        with pytest.raises(ConfigError, match="a seed is mandatory"):
            ExperimentConfig.from_dict(data)
        ExperimentConfig.from_dict({**data, "pairs": [[[0.1, 0.2], [0.3, -0.1]]]})
    for data in ({"experiment": "pde-green", "domain": SQUARE},
                 {"experiment": "pde-green", "pde_check": "reference", "domain": SQUARE},
                 {"experiment": "pde-green", "pde_check": "factorization", "domain": SQUARE,
                  "weight": {"coefficients": [[2, 0], [1, 0]]}},
                 {"experiment": "exhaust"},
                 {"experiment": "gauge-experiment", "domain": SQUARE,
                  "weight": {"representation": "generic_c1", "name": "exp_abs_sq"}}):
        assert ExperimentConfig.from_dict(data).seed is None


def test_unknown_experiment_and_keys():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"experiment": "frobnicate", "seed": 1})
    with pytest.raises(ConfigError, match="unknown config keys"):
        ExperimentConfig.from_dict({"experiment": "kernel", "seed": 1, "spam": 2})
    with pytest.raises(ConfigError, match="no experiment named"):
        ExperimentConfig.from_dict({"seed": 1})


def test_config_is_validated_once_on_construction(tmp_path, monkeypatch):
    calls = []
    validate = ExperimentConfig.validate
    monkeypatch.setattr(ExperimentConfig, "validate",
                        lambda self: calls.append(1) or validate(self))
    run(ExperimentConfig.from_dict({"experiment": "distance", "seed": 1, "count": 3,
                                    "basis_order": 8, "quad_order": 10}), tmp_path)
    assert len(calls) == 1


def test_config_construction_validates_and_freezes():
    with pytest.raises(ConfigError, match="unknown experiment"):
        ExperimentConfig(experiment="frobnicate", seed=1)
    with pytest.raises(ConfigError, match="fd_step must be positive"):
        ExperimentConfig(experiment="kernel", seed=1, fd_step=0.0)
    config = ExperimentConfig(experiment="kernel", seed=1)
    with pytest.raises(dataclasses.FrozenInstanceError):
        config.seed = 2


def test_exhaust_table(tmp_path):
    report = run(ExperimentConfig.from_dict(
        {"experiment": "exhaust", "seed": 1, "exhaust_steps": 6}), tmp_path)
    assert report.passed
    rows = (tmp_path / "exhaust.csv").read_text().strip().splitlines()[1:]
    hs = [float(r.split(",")[2]) for r in rows]
    want = [math.log(1 - 2.0 ** (-j)) for j in range(1, 7)]
    assert np.allclose(hs, want, atol=1e-12)
    assert all(a < b for a, b in zip(hs, hs[1:]))


def test_exhaust_rejects_a_moebius_disk():
    with pytest.raises(ConfigError, match="runs on disks"):
        run(ExperimentConfig.from_dict({"experiment": "exhaust", "seed": 1, "domain": {
            "kind": "moebius_disk", "params": {"a": [0.3, 0.1], "theta": 0.5}}}))


SQUARE = {"kind": "rectangle", "params": {"x0": 0, "x1": 1, "y0": 0, "y1": 1}}
ANNULUS_SPEC = {"kind": "annulus", "params": {"inner": 0.5, "outer": 1.0}}
SMALL = {"basis_order": 10, "quad_order": 16}

# every experiment, the single-resolution pde-green reference check (its
# report embeds the solver statistics) and one study
DETERMINISM_CONFIGS = {
    "verify-identity": {"experiment": "verify-identity", "seed": 7, "count": 25},
    "kernel": {"experiment": "kernel", "seed": 5, "count": 12, **SMALL},
    "green": {"experiment": "green", "seed": 5, "count": 12},
    "exhaust": {"experiment": "exhaust", "seed": 1, "exhaust_steps": 3, **SMALL},
    "distance": {"experiment": "distance", "seed": 5, "count": 12, **SMALL},
    "pde-green": {"experiment": "pde-green", "pde_check": "identity", "domain": SQUARE,
                  "weight": {"representation": "holo_modulus_squared",
                             "coefficients": [[2, 0], [1, 0]]},
                  "grid": [32, 32], "seed": 1, **SMALL},
    "reference": {"experiment": "pde-green", "pde_check": "reference", "domain": SQUARE,
                  "grid": [32, 32], "seed": 1},
    "gauge-experiment": {"experiment": "gauge-experiment", "seed": 2, **SMALL,
                         "weight": {"representation": "holo_modulus_squared",
                                    "coefficients": [[2, 0], [1, 0]]}},
    "study": {"experiment": "verify-identity", "seed": 1, "count": 10,
              "study": {"parameter": "fd_step", "values": [0.08, 0.04, 0.02]}},
}


def test_annulus_basis_is_set_by_basis_order():
    # the first basis_order + 1 Laurent exponents, in trimming order
    for order, label in ((30, "laurent(-15..15)"), (40, "laurent(-20..20)"),
                         (7, "laurent(-3..4)")):
        rep = run(cfg(experiment="kernel", domain=ANNULUS_SPEC, basis_order=order, count=6))
        assert rep.tables["kernel"]["basis"] == label
        assert rep.tables["kernel"]["requested_order"] == order + 1


def test_annulus_kind_in_any_spelling_gets_the_annulus_grid_rule(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"domain": {**ANNULUS_SPEC, "kind": "Annulus"},
                                "grid": [16, 17]}))
    assert cli_main(["pde-green", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "configuration error: annulus grids need an even angular count" in err


def test_determinism_byte_identical(tmp_path):
    for name, config in DETERMINISM_CONFIGS.items():
        a, b = tmp_path / name / "a", tmp_path / name / "b"
        run(ExperimentConfig.from_dict(dict(config)), a)
        run(ExperimentConfig.from_dict(dict(config)), b)
        files = sorted(f.name for f in a.iterdir())
        assert "report.json" in files and len(files) > 1, name
        assert files == sorted(f.name for f in b.iterdir()), name
        for f in files:
            assert (a / f).read_bytes() == (b / f).read_bytes(), (name, f)


def test_kernel_green_distance_experiments(tmp_path):
    for exp in ("kernel", "green", "distance"):
        report = run(ExperimentConfig.from_dict(
            {"experiment": exp, "seed": 5, "count": 12}), tmp_path / exp)
        assert report.passed, exp
        assert report.csv_files


def test_pde_green_reference_and_identity(tmp_path):
    rep = run(ExperimentConfig.from_dict({
        "experiment": "pde-green", "seed": 1, "pde_check": "reference",
        "domain": {"kind": "rectangle", "params": {"x0": 0, "x1": 1, "y0": 0, "y1": 1}},
        "grid": [128, 128]}), tmp_path / "ref")
    assert rep.passed

    rep2 = run(ExperimentConfig.from_dict({
        "experiment": "pde-green", "seed": 1, "pde_check": "identity",
        "domain": {"kind": "rectangle", "params": {"x0": 0, "x1": 1, "y0": 0, "y1": 1}},
        "grid": [64, 64], "basis_order": 24,
        "tolerances": {"grid_identity": 0.05}}), tmp_path / "id")
    assert rep2.passed
    for name, n in (("ref", 128), ("id", 64)):
        solver = json.loads((tmp_path / name / "report.json").read_text())["tables"]["solver"]
        assert solver == {"method": "transform", "unknowns": n * n, "refinement_steps": 1,
                          "backward_error": solver["backward_error"]}
        assert solver["backward_error"] <= REFINEMENT_TOLERANCE


def test_pde_green_reference_with_constant_weight(tmp_path):
    values = []
    for c in (1, 2):  # rho = 1 and rho = 4
        rep = run(ExperimentConfig.from_dict({
            "experiment": "pde-green", "seed": 1, "pde_check": "reference",
            "domain": {"kind": "rectangle", "params": {"x0": 0, "x1": 1, "y0": 0, "y1": 1}},
            "weight": {"representation": "holo_modulus_squared", "coefficients": [[c, 0]]},
            "grid": [32, 32]}), tmp_path / str(c))
        values.append(rep.checks[0].value)
    assert values[0] < 1e-2
    assert values[1] == pytest.approx(values[0], rel=1e-12)


def test_constant_log_harmonic_weight_is_a_constant_weight(tmp_path, capsys):
    # rho = e^(2 * 0.5) = e on every node: reference solves for it, and
    # factorization has nothing to check
    config = {"experiment": "pde-green", "domain": SQUARE,
              "weight": {"representation": "log_harmonic", "coefficients": [[0.5, 0]]}}
    rep = run(ExperimentConfig.from_dict({**config, "pde_check": "reference"}), tmp_path)
    assert rep.passed and rep.checks[0].value < 1e-3
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**config, "pde_check": "factorization", "grid": [32, 32]}))
    assert cli_main(["pde-green", "--config", str(path), "--out", str(tmp_path / "f")]) == 2
    assert "the factorization check needs a non-constant weight" in capsys.readouterr().err


def test_pde_green_factorization(tmp_path):
    rep = run(ExperimentConfig.from_dict({
        "experiment": "pde-green", "seed": 1, "pde_check": "factorization",
        "domain": {"kind": "rectangle", "params": {"x0": 0, "x1": 1, "y0": 0, "y1": 1}},
        "weight": {"representation": "holo_modulus_squared",
                   "coefficients": [[-2, -2], [1, 0]]},
        "grid": [48, 48]}), tmp_path)
    assert rep.passed


def test_gauge_experiment_holomorphic(tmp_path):
    rep = run(ExperimentConfig.from_dict({
        "experiment": "gauge-experiment", "seed": 2,
        "weight": {"representation": "holo_modulus_squared",
                   "coefficients": [[2, 0], [1, 0]]}}), tmp_path)
    assert rep.passed
    pert = rep.tables["perturbation"]
    assert pert[0]["epsilon"] == 0.0 and pert[0]["max_identity_residual"] < 1e-8
    # rescaling the gauge visibly breaks the identity
    assert pert[-1]["max_identity_residual"] > 1e-3


def test_gauge_experiment_on_the_unit_disk_spelled_as_a_disk(tmp_path):
    # the gauge's domain Disk(0, 1) is the domain of the disk Green's function
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "seed": 2, "domain": {"kind": "disk", "params": {"center": [0, 0], "radius": 1}},
        "weight": {"coefficients": [[2, 0], [1, 0]]}}))
    out = tmp_path / "out"
    assert cli_main(["gauge-experiment", "--config", str(path), "--out", str(out)]) == 0
    payload = json.loads((out / "report.json").read_text())
    assert payload["tables"]["perturbation"][0]["max_identity_residual"] < 1e-8


def test_gauge_experiment_generic_reports_obstruction(tmp_path):
    rep = run(ExperimentConfig.from_dict({
        "experiment": "gauge-experiment", "seed": 2,
        "domain": {"kind": "rectangle", "params": {"x0": 0, "x1": 1, "y0": 0, "y1": 1}},
        "weight": {"representation": "generic_c1", "name": "exp_abs_sq"},
        "grid": [32, 32], "basis_order": 14}), tmp_path)
    assert rep.passed  # the only check is that residuals are finite
    assert any("not harmonic" in n for n in rep.notes)
    assert rep.tables["log_laplacian_residual"] == pytest.approx(4.0, abs=1e-4)
    assert all(math.isfinite(r["residual"]) for r in rep.records)


def _cli_exit(tmp_path, experiment, data, *flags):
    """Exit status of the CLI on a config, writing into ``tmp_path / "o"``."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(data))
    return cli_main([experiment, "--config", str(path), "--out", str(tmp_path / "o"), *flags])


def _study(experiment, parameter, values, **kw):
    return ExperimentConfig.from_dict(
        {"experiment": experiment, "seed": 1, **kw,
         "study": {"parameter": parameter, "values": values}})


RHO_Z_PLUS_2 = {"weight": {"representation": "holo_modulus_squared",
                           "coefficients": [[2, 0], [1, 0]]}}


def test_convergence_study_fd_step(tmp_path):
    # at these steps the Richardson-extrapolated difference sits at roundoff,
    # so its fitted order is no order at all, and the study says so
    rep = run(_study("verify-identity", "fd_step", [4e-3, 2e-3, 1e-3]), tmp_path)
    assert not rep.passed
    assert all(r["error"] < 1e-9 for r in rep.tables["study"]["rows"])


def test_convergence_study_basis_order(tmp_path):
    rep = run(_study("verify-identity", "basis_order", [10, 20, 30]), tmp_path)
    assert rep.passed
    errs = [r["error"] for r in rep.tables["study"]["rows"]]
    assert all(a > b for a, b in zip(errs, errs[1:]))
    # the error of each value is the first check of the run at that value
    assert errs[-1] == run(cfg(seed=1, basis_order=30)).checks[0].value
    # the error falls as the order rises, whichever way the values are listed
    assert run(_study("verify-identity", "basis_order", [30, 20, 10])).passed


def test_convergence_study_grid_resolution(tmp_path):
    rep = run(_study("pde-green", "grid_resolution", [32, 64, 128], pde_check="reference",
                     domain=SQUARE), tmp_path)
    assert rep.passed and rep.tables["study"]["fitted_order"] >= 1.5
    single = run(ExperimentConfig.from_dict({"experiment": "pde-green", "pde_check": "reference",
                                             "domain": SQUARE, "grid": [128, 128]}))
    assert rep.checks[1].value == single.checks[0].value
    assert rep.checks[1].tolerance == single.checks[0].tolerance == 1e-3


def test_square_identity_grid_study_table(tmp_path):
    # the configured experiment, check and weight, not a fixed problem
    rep = run(_study("pde-green", "grid_resolution", [32, 64, 128], domain=SQUARE,
                     **RHO_Z_PLUS_2), tmp_path)
    assert rep.passed
    errs = [r["error"] for r in rep.tables["study"]["rows"]]
    assert errs == pytest.approx([0.111, 0.0399, 0.00857], rel=3e-3)
    assert rep.tables["study"]["fitted_order"] == pytest.approx(1.85, abs=0.01)
    assert rep.checks[1].tolerance == 0.02  # the grid_identity gate of the finest run


def test_convergence_study_validation():
    # each fails before any computation, so the CLI exits 2
    for parameter, values, message in (
            ("fd_step", [1e-3, 1e-4], "at least three values"),
            ("fd_step", [1e-3, 4e-3, 2e-3], "strictly monotone"),
            ("warp_factor", [1, 2, 3], "unknown study parameter 'warp_factor'"),
            # the order is fitted to log(value)
            ("basis_order", [0, 10, 20], "study values must be positive"),
            ("basis_order", [10, 20.5, 30], "study value 20.5 of basis_order: basis_order must be")):
        with pytest.raises(ConfigError, match=message):
            _study("verify-identity", parameter, values)
    with pytest.raises(ConfigError, match="study value 33 of grid_resolution: annulus grids"):
        _study("pde-green", "grid_resolution", [32, 33, 64], domain=ANNULUS_SPEC)


def test_study_of_a_check_that_holds_by_construction_fails(tmp_path, capsys):
    # distance symmetry reads 0, 1.1e-16 and 0 over quad_order: two values
    # give no row, and one row fits no order
    data = {"seed": 1, "study": {"parameter": "quad_order", "values": [10, 20, 30]}}
    assert _cli_exit(tmp_path, "distance", data) == 1
    err = capsys.readouterr().err
    assert "only 1 study rows succeeded" in err
    assert "study value 10 skipped: error 0.0 is not positive and finite" in err


def test_study_notes_every_skipped_value(tmp_path, monkeypatch):
    # fd_step 0.6 takes every stencil off the disk, so its check evaluates
    # nothing; a value whose run raises is noted too
    pairs = [[[0.5, 0.1], [-0.2, 0.3]], [[0.1, -0.4], [0.3, 0.2]]]
    rep = run(_study("verify-identity", "fd_step", [0.6, 0.08, 0.04, 0.02], pairs=pairs),
              tmp_path / "o")
    assert rep.passed and len(rep.tables["study"]["rows"]) == 3
    assert rep.notes[-1] == "study value 0.6 skipped: error None is not positive and finite"
    assert len(rep.notes) == 3  # and one note per pair the stencil left

    original = harness._EXPERIMENT_FUNCS["verify-identity"]

    def raising(config):
        if config.basis_order == 15:
            raise NumericError("Cholesky factor is singular")
        return original(config)

    monkeypatch.setitem(harness._EXPERIMENT_FUNCS, "verify-identity", raising)
    rep = run(_study("verify-identity", "basis_order", [10, 15, 20, 30]), tmp_path / "r")
    assert rep.notes == ["study value 15 skipped: Cholesky factor is singular"]
    assert [r["value"] for r in rep.tables["study"]["rows"]] == [10.0, 20.0, 30.0]
    assert "skipped" not in rep.tables["study"]
    with pytest.raises(StudyInsufficientError, match="study value 15 skipped"):
        run(_study("verify-identity", "basis_order", [10, 15, 20]))


def test_study_config_route(tmp_path):
    rep = run(_study("verify-identity", "fd_step", [0.08, 0.04, 0.02]), tmp_path)
    assert rep.passed and "Richardson" in rep.checks[0].name
    assert rep.tables["study"]["fitted_order"] == pytest.approx(4.0, abs=0.01)
    # the error is that of the finite-difference identity check
    assert rep.tables["study"]["rows"][1]["error"] == run(cfg(seed=1, fd_step=0.04)).checks[1].value
    assert (tmp_path / "study.csv").read_text().splitlines()[0] == "value,error"


@pytest.mark.parametrize("data", [
    {"pde_check": "reference", "domain": SQUARE, "grid": [96, 96]},
    {"pde_check": "factorization", "domain": SQUARE, "grid": [16, 16], **RHO_Z_PLUS_2},
    {"pde_check": "identity", "domain": ANNULUS_SPEC, "grid": [64, 128], "quad_order": 24},
])
def test_cli_tol_overrides_the_gate_of_the_pde_check(tmp_path, data):
    assert _cli_exit(tmp_path, "pde-green", data) == 0
    assert _cli_exit(tmp_path, "pde-green", data, "--tol", "1e-30") == 1
    checks = json.loads((tmp_path / "o" / "report.json").read_text())["checks"]
    assert checks[0]["tolerance"] == 1e-30 and not checks[0]["passed"]


def test_cli_exit_codes(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"experiment": "verify-identity", "seed": 7, "count": 10}))
    out = tmp_path / "out"
    assert cli_main(["verify-identity", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert (out / "report.json").exists()
    # an unachievable tolerance flips the exit code
    assert cli_main(["verify-identity", "--config", str(cfg_path), "--out",
                     str(tmp_path / "out2"), "--tol", "1e-22"]) == 1
    # config errors exit 2 before any computation
    assert cli_main(["verify-identity", "--config", str(tmp_path / "nope.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"experiment": "verify-identity"}))
    assert cli_main(["verify-identity", "--config", str(bad)]) == 2
    bad.write_text("[1, 2]")
    assert cli_main(["verify-identity", "--config", str(bad)]) == 2


def test_cli_overrides(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"experiment": "kernel", "seed": 3, "count": 6}))
    out = tmp_path / "o"
    assert cli_main(["kernel", "--config", str(cfg_path), "--out", str(out),
                     "--seed", "11", "--points", "8"]) == 0
    payload = json.loads((out / "report.json").read_text())
    assert payload["config"]["seed"] == 11
    assert payload["config"]["count"] == 8


def test_cli_overrides_are_applied_before_validation(tmp_path, capsys):
    # a seed or an experiment given on the command line satisfies the config
    small = {"count": 4, "basis_order": 10, "quad_order": 16}
    for name, data in (("no-seed", {"experiment": "kernel", **small}),
                       ("no-experiment", {"seed": 3, **small})):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(data))
        out = tmp_path / name
        assert cli_main(["kernel", "--config", str(path), "--out", str(out), "--seed", "4"]) == 0
        payload = json.loads((out / "report.json").read_text())
        assert payload["experiment"] == "kernel" and payload["config"]["seed"] == 4
    assert cli_main(["kernel", "--config", str(tmp_path / "no-seed.json"),
                     "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert "a seed is mandatory" in err and "Traceback" not in err


# domain and weight specs that fail to parse with a ValueError, TypeError or
# IndexError rather than a ParameterError
UNPARSABLE_SPECS = [
    ({"domain": {"kind": "disk", "params": {"radius": "x"}}}, "bad domain spec"),
    ({"domain": [1, 2]}, "bad domain spec"),
    ({"weight": {"representation": "holo_modulus_squared", "coefficients": [[1]]}},
     "bad weight spec"),
    ({"weight": {"representation": "holo_modulus_squared", "coefficients": "ab"}},
     "bad weight spec"),
]


@pytest.mark.parametrize("change, message", UNPARSABLE_SPECS)
def test_validate_rejects_unparsable_specs(change, message):
    with pytest.raises(ConfigError, match=message):
        ExperimentConfig.from_dict({"experiment": "kernel", "seed": 1, **change})


@pytest.mark.parametrize("change, message", [
    ({"count": "5"}, "count must be an integer"),
    ({"weight": {"representation": "holo_modulus_squared", "coefficients": [[0, 0]]}},
     "bad weight spec"),
    ({"tolerances": {"hermitan": 1e-30}}, "unknown tolerance names"),
    ({"basis_order": 2.5}, "basis_order must be an integer"),
    ({"fd_step": "small"}, "fd_step must be a number"),
    ({"seed": "7"}, "seed must be an integer"),
    ({"tolerances": {"hermitian": "tiny"}}, "tolerance hermitian must be a number"),
    ({"pairs": [[0.1, 0.2]]}, "pairs must be a list"),
    ({"pairs": []}, "pairs must not be empty"),
    ({"grid": [64.5, 64]}, "grid must be two positive integers"),
    ({"grid": [64]}, "grid must be two positive integers"),
    ({"grid": [0, 64]}, "grid must be two positive integers"),
    ({"exhaust_steps": 0}, "exhaust_steps must be >= 1"),
    # keys that once set the annulus basis and the sampling margin
    ({"laurent": [-8, 8]}, "unknown config keys: ['laurent']"),
    ({"margin": 0.7}, "unknown config keys: ['margin']"),
    ({"grid": [4, 4]}, "grid needs at least 8 nodes per axis"),
    ({"domain": ANNULUS_SPEC, "grid": [16, 15]}, "annulus grids need an even angular count"),
    ({"domain": ANNULUS_SPEC, "grid": [16, 8]}, "annulus grids need an even angular count"),
    ({"experiment": "pde-green", "pde_check": "reference", "grid": [32, 128]},
     "solves on a square grid"),
    ({"experiment": "pde-green", "pde_check": "factorization", "domain": ANNULUS_SPEC,
      "grid": [64, 32]}, "solves on a square grid"),
    ({"experiment": "pde-green", "pde_check": "factorization", "grid": [12, 12]},
     "pde_check 'factorization' also solves at grid[0] // 2: grid needs at least 8 nodes per axis"),
    ({"experiment": "pde-green", "pde_check": "reference",
      "study": {"parameter": "grid_resolution", "values": [4, 16, 32, 64]}},
     "study value 4 of grid_resolution: grid needs at least 8 nodes per axis"),
    ({"experiment": "pde-green", "pde_check": "reference",
      "study": {"parameter": "grid_resolution", "values": [4, 6, 16]}},
     "study value 4 of grid_resolution: grid needs at least 8 nodes per axis"),
    ({"experiment": "pde-green", "pde_check": "reference",
      "study": {"parameter": "grid_resolution", "values": [16, 24.5, 32]}},
     "study value 24.5 of grid_resolution: grid must be two positive integers"),
    ({"study": {"parameter": "fd_step", "values": [1e-3, "2e-3", 4e-3]}},
     "study values must be a list of numbers"),
    *UNPARSABLE_SPECS,
    # the perturbation table's epsilons are fixed (harness.PERTURBATIONS)
    ({"experiment": "gauge-experiment", "perturbations": [0.0, 0.1],
      "weight": {"coefficients": [[2, 0], [1, 0]]}}, "unknown config keys: ['perturbations']"),
    ({"experiment": "gauge-experiment", "perturbations": ["a"]},
     "unknown config keys: ['perturbations']"),
    ({"experiment": "gauge-experiment", "perturbations": 0.1,
      "weight": {"coefficients": [[2, 0], [1, 0]]}},
     "unknown config keys: ['perturbations']"),
    ({"experiment": "pde-green", "pde_check": "nope"}, "unknown pde_check 'nope'"),
    ({"experiment": "pde-green", "pde_check": "factorization", "domain": SQUARE,
      "weight": {"coefficients": [[3, 0]]}}, "the factorization check needs a non-constant weight"),
    ({"experiment": "pde-green", "pde_check": "factorization", "domain": SQUARE,
      "weight": {"representation": "generic_c1", "name": "exp_abs_sq"}},
     "the factorization check needs a weight with a gauge"),
    ({"study": {"parameter": "fd_step", "values": [1e-3, 2e-3]}}, "at least three values"),
    ({"study": {"parameter": "fd_step", "values": [1e-3, 4e-3, 2e-3]}}, "strictly monotone"),
    ({"study": {"parameter": "grid", "values": [16, 32, 64]}}, "unknown study parameter"),
    ({"study": {"parameter": "basis_order", "values": [-1, 4, 8]}},
     "study values must be positive"),
    # a study re-runs its own experiment: verify-identity has no closed form
    # on an annulus and builds no grid on the unit disk, and green builds no
    # kernel
    ({"experiment": "verify-identity", "domain": ANNULUS_SPEC,
      "weight": {"representation": "generic_c1", "name": "exp_abs_sq"},
      "study": {"parameter": "grid_resolution", "values": [64, 128, 192]}},
     "no closed-form Green's function on annulus"),
    ({"experiment": "verify-identity",
      "study": {"parameter": "grid_resolution", "values": [32, 64, 128]}},
     "study parameter grid_resolution does not reach the check 'identity residual"),
    ({"experiment": "green", "study": {"parameter": "basis_order", "values": [10, 20, 30]}},
     "study parameter basis_order does not reach the check 'symmetry"),
    ({"domain": ANNULUS_SPEC, "study": {"parameter": "grid_resolution", "values": [16, 17, 32]}},
     "study value 17 of grid_resolution: annulus grids need an even angular count"),
])
def test_cli_malformed_config_exits_2(tmp_path, capsys, change, message):
    path = tmp_path / "cfg.json"
    data = {"experiment": "kernel", "seed": 3, "count": 4, **change}
    path.write_text(json.dumps(data))
    assert cli_main([data["experiment"], "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and message in err
    assert "Traceback" not in err


def test_no_pairs_evaluated_fails(tmp_path, capsys):
    # every identity pair leaves the stencil, and the only green pair is
    # diagonal, so no identity or symmetry check has a value
    configs = {"verify-identity": ([[[0.9999, 0.0], [0.2, 0.1]], [[0.1, 0.2], [0.0, -0.9999]]],
                                   "skipped"),
               "green": ([[[0.1, 0.2], [0.1, 0.2]]], "excluded")}
    for exp, (pairs, note) in configs.items():
        path = tmp_path / f"{exp}.json"
        path.write_text(json.dumps({"pairs": pairs}))
        out = tmp_path / exp
        assert cli_main([exp, "--config", str(path), "--out", str(out)]) == 1
        payload = json.loads((out / "report.json").read_text())
        assert payload["notes"] and all(note in n for n in payload["notes"])
        failed = [c for c in payload["checks"] if not c["passed"]]
        assert failed and all(c["value"] is None for c in failed)
        assert not payload["passed"]
    assert "[FAIL] identity residual (analytic mixed derivative), max over pairs: none" in \
        capsys.readouterr().out


def test_check_derives_passed():
    assert Check("a", 1e-6, 1e-5).passed
    assert not Check("a", 1e-5, 1e-5).passed
    assert Check("a", 1e-5, 1e-5, "<=").passed
    assert Check("a", 0.0, -1e-9, ">=").passed
    assert not Check("a", float("nan"), 1.0).passed
    assert not Check("a", None, 1.0).passed


# A closed-form run in a fresh process: no scipy module may be loaded, and
# validating grid configs must not load the grid solver either, since a fresh
# process pays to import (and may compile) every module it loads.  The grid
# names of the package must still resolve afterwards.
_NO_SCIPY_RUN = """
import sys
import bergreen.harness as h
cfg = h.ExperimentConfig.from_dict({"experiment": "verify-identity", "seed": 7, "count": 5,
                                    "basis_order": 10, "quad_order": 12})
assert h.run(cfg).records
square = {"kind": "rectangle", "params": {"x0": 0, "x1": 1, "y0": 0, "y1": 1}}
for grid_cfg in (
        {"experiment": "pde-green", "pde_check": "identity", "domain": square, "seed": 1,
         "weight": {"coefficients": [[2, 0], [1, 0]]}, "grid": [128, 128]},
        {"experiment": "pde-green", "pde_check": "identity", "grid": [128, 256], "seed": 1,
         "domain": {"kind": "annulus", "params": {"inner": 0.5, "outer": 1.0}}},
        {"experiment": "pde-green", "pde_check": "reference", "domain": square, "seed": 1,
         "study": {"parameter": "grid_resolution", "values": [64, 128, 192]}}):
    h.ExperimentConfig.from_dict(grid_cfg)
loaded = sorted(m for m in sys.modules
                if m in ("scipy", "bergreen.pdegreen") or m.startswith("scipy."))
assert not loaded, loaded
import bergreen
from bergreen import GridSpec, pdegreen
assert bergreen.GridSpec is GridSpec is pdegreen.GridSpec
assert bergreen.solve_mixed is pdegreen.solve_mixed
assert bergreen._PDEGREEN_NAMES == set(pdegreen.__all__)
print("ok")
"""


def _fresh_python(code, *args, **env):
    """stdout of ``code`` run by a fresh interpreter with extra environment."""
    src = str(Path(bergreen.__file__).resolve().parents[1])
    env = {**os.environ, **env,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code, *args], env=env, check=True,
                         capture_output=True, text=True)
    return out.stdout.strip()


def test_closed_form_run_loads_no_scipy():
    assert _fresh_python(_NO_SCIPY_RUN) == "ok"


_GRID_REFERENCE = {"experiment": "pde-green", "pde_check": "reference", "seed": 1,
                   "domain": {"kind": "rectangle", "params": {"x0": 0, "x1": 1, "y0": 0, "y1": 1}},
                   "study": {"parameter": "grid_resolution", "values": [64, 128, 192]}}

_GRID_IDENTITY_SQUARE = {"experiment": "pde-green", "pde_check": "identity", "seed": 1,
                         "domain": _GRID_REFERENCE["domain"], "grid": [128, 128],
                         "basis_order": 20, "quad_order": 24,
                         "weight": {"coefficients": [[2, 0], [1, 0]]}}

# The transform-preconditioned grid solve, for a constant weight or one with a
# gauge, works without scipy; only a sparse LU factorization (here of the
# generic weight exp(|z|^2), which has no gauge) loads it.
_GRID_SCIPY_RUN = f"""
import sys
import bergreen.harness as h
def scipy_loaded():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
assert h.run(h.ExperimentConfig.from_dict({_GRID_REFERENCE!r})).passed
gauge_cfg = {{**{_GRID_IDENTITY_SQUARE!r}, "grid": [48, 48]}}
assert h.run(h.ExperimentConfig.from_dict(gauge_cfg)).tables["solver"]["method"] == "transform"
assert not scipy_loaded(), scipy_loaded()
lu_cfg = {{**gauge_cfg, "weight": {{"representation": "generic_c1", "name": "exp_abs_sq"}}}}
assert h.run(h.ExperimentConfig.from_dict(lu_cfg)).tables["solver"]["method"] == "sparse_lu"
assert "scipy.sparse.linalg" in scipy_loaded()
print("ok")
"""


def test_transform_grid_run_loads_no_scipy():
    assert _fresh_python(_GRID_SCIPY_RUN) == "ok"


# SHA-256 of every file a run of the JSON config in argv[2] writes
_DIGEST = """
import hashlib, json, sys
from pathlib import Path
import bergreen.harness as h
out = Path(sys.argv[1])
h.run(h.ExperimentConfig.from_dict(json.loads(sys.argv[2])), out)
for f in sorted(out.iterdir()):
    print(f.name, hashlib.sha256(f.read_bytes()).hexdigest())
"""


def _digests_at_one_and_two_blas_threads(cfg, tmp_path):
    return {_fresh_python(_DIGEST, str(tmp_path / n), json.dumps(cfg), OPENBLAS_NUM_THREADS=n,
                          OMP_NUM_THREADS=n) for n in ("1", "2")}


def test_grid_reference_outputs_identical_under_one_and_two_blas_threads(tmp_path):
    # the transform solver, the series reference and their BLAS products give
    # the same bytes at either thread count (the sparse LU of a weight with
    # no gauge does not, and is not tested here)
    digests = _digests_at_one_and_two_blas_threads(_GRID_REFERENCE, tmp_path)
    assert len(digests) == 1 and "report.json" in digests.pop()


def test_grid_identity_square_outputs_identical_under_one_and_two_blas_threads(tmp_path):
    # rho = |z+2|^2 takes the gauge-preconditioned transform solve; with a
    # sparse LU its residuals moved by up to 7e-12 between the two
    digests = _digests_at_one_and_two_blas_threads(_GRID_IDENTITY_SQUARE, tmp_path)
    assert len(digests) == 1 and "pde_identity.csv" in digests.pop()
