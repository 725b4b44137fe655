import dataclasses
import itertools
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.polynomial import polynomial as P

import bergreen
from bergreen import ConfigError, NumericError, StudyInsufficientError, harness, weights
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


def csv_column(report, csv, column) -> np.ndarray:
    """One named column of a report's CSV table, as the writer writes it."""
    header, rows = report.csv_files[csv]
    return np.asarray(rows, dtype=float).reshape(-1, len(header))[:, header.index(column)]


def study_rows(report) -> list:
    """The (value, error) rows of a study's table."""
    return report.csv_files["study.csv"][1]


def test_verify_identity_unit_disk(tmp_path):
    report = run(cfg(), tmp_path)
    assert report.passed
    max_res = max(csv_column(report, "identity.csv", "residual_analytic"))
    assert max_res < 1e-5
    assert (tmp_path / "identity.csv").exists()
    payload = json.loads((tmp_path / "report.json").read_text())
    assert payload["schema"] == 2
    assert payload["assumptions"] == ASSUMPTIONS
    for check in payload["checks"]:
        assert "tolerance" in check and "passed" in check
    # each CSV's columns and row count are documented in the report
    assert payload["outputs"]["identity.csv"]["columns"][:4] == ["re_z", "im_z", "re_w", "im_w"]
    assert payload["outputs"]["identity.csv"]["rows"] == 25


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
    assert max(csv_column(rep, "identity.csv", "residual_analytic")) < 1e-8


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
    # pairs are evaluated like any other: one CSV row each, no note
    for name, (domain, weight, center, radius) in DIAGONAL_CASES.items():
        pts = [center + 0.13 * k * radius * np.exp(1.3j * k) for k in range(6)]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"domain": domain, "weight": weight, "pairs": [
            [[p.real, p.imag], [p.real, p.imag]] for p in pts]}))
        out = tmp_path / name.replace(" ", "_")
        assert cli_main(["verify-identity", "--config", str(path), "--out", str(out)]) == 0, name
        payload = json.loads((out / "report.json").read_text())
        rows = [line.split(",") for line in (out / "identity.csv").read_text().splitlines()[1:]]
        assert [row[:2] for row in rows] == [row[2:4] for row in rows], name
        assert len(rows) == payload["outputs"]["identity.csv"]["rows"] == len(pts), name
        assert payload["notes"] == [], name
    assert "[NOTE]" not in capsys.readouterr().out


def test_verify_identity_skips_stencil_failures(tmp_path):
    # second point sits so close to the boundary that the FD stencil leaves
    # the domain; the run records the skip and continues
    report = run(cfg(pairs=[[[0.9999, 0.0], [0.2, 0.1]], [[0.2, 0.1], [0.0, -0.3]]]),
                 tmp_path)
    assert report.passed
    assert len(report.csv_files["identity.csv"][1]) == 1
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
    assert np.asarray(report.csv_files["identity.csv"][1])[:, :4].tolist() == [
        [0.2, 0.1, 0.0, -0.3], [0.3, 0.0, 0.3, 0.0], [0.1, 0.5, -0.4, 0.2], [0.6, -0.2, 0.1, 0.1]]
    assert max(csv_column(report, "identity.csv", "residual_analytic")) < 1e-12
    assert max(csv_column(report, "identity.csv", "residual_fd")) < 1e-10
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
    with pytest.raises(ConfigError, match="verify-identity runs only on disk and moebius_disk "
                                          "domains, not on annulus"):
        run(cfg(domain={"kind": "annulus", "params": {"inner": 0.5, "outer": 1.0}},
                basis_order=16))


def test_seed_mandatory_for_random_points():
    # the experiments that draw points at random need a seed, unless the
    # pairs are given; the others do not draw and take none
    for data in ({"experiment": "verify-identity"}, {"experiment": "kernel"},
                 {"experiment": "green"}, {"experiment": "distance"}):
        with pytest.raises(ConfigError, match="a seed is mandatory"):
            ExperimentConfig.from_dict(data)
        ExperimentConfig.from_dict({**data, "pairs": [[[0.1, 0.2], [0.3, -0.1]]]})
    for data in ({"experiment": "pde-green", "domain": SQUARE},
                 {"experiment": "pde-green", "pde_check": "reference", "domain": SQUARE},
                 {"experiment": "pde-green", "pde_check": "factorization", "domain": SQUARE,
                  "weight": {"coefficients": [[2, 0], [1, 0]]}},
                 {"experiment": "exhaust"},
                 {"experiment": "gauge-experiment", "weight": {"coefficients": [[2, 0], [1, 0]]}},
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
    # neither a non-string nor an unhashable experiment raises a TypeError
    for experiment in (5, ["kernel"], {"kernel": 1}):
        with pytest.raises(ConfigError, match="unknown experiment"):
            ExperimentConfig.from_dict({"experiment": experiment, "seed": 1, "grid": [8, 8]})


def test_every_experiment_accepts_a_seed():
    # the CLI's --seed sets it whatever the experiment
    for experiment, row in harness._EXPERIMENTS.items():
        domain = SQUARE if row.kinds and "disk" not in row.kinds else {"kind": "unit_disk"}
        ExperimentConfig.from_dict({"experiment": experiment, "seed": 0, "domain": domain})


def test_each_config_builds_its_domain_once(monkeypatch):
    # the study config and each swept copy build one domain each, and the
    # run takes them from the configs; validating again builds none
    built, build = [], harness.make_domain
    monkeypatch.setattr(harness, "make_domain", lambda *a, **kw: built.append(1) or build(*a, **kw))
    disk_identity = {"experiment": "verify-identity", "domain": {"kind": "unit_disk"},
                     **RHO_Z_PLUS_2, "basis_order": 30, "quad_order": 40, "seed": 7, "count": 25}
    for configs, builds in (([disk_identity], 1),
                            ([_GRID_IDENTITY_SQUARE, _GRID_IDENTITY_ANNULUS], 2),
                            ([_GRID_REFERENCE], 4)):
        built.clear()
        for data in configs:
            config = ExperimentConfig.from_dict(data)
            config.validate()
            assert config.primary_tolerance()
            run(config)
        assert len(built) == builds, configs


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


def _readme_table(header: str) -> list:
    """The body lines of the README table whose header line is ``header``."""
    lines = (Path(__file__).resolve().parents[1] / "README.md").read_text().splitlines()
    start = lines.index(header) + 2
    return list(itertools.takewhile(lambda s: s.startswith("|"), lines[start:]))


def _readme_experiment_table() -> dict:
    """(experiment, pde_check or None) -> (keys, domain kinds or None, --tol
    key) of the README's experiment table."""
    rows = {}
    for line in _readme_table("| experiment | keys read | domains | `--tol` |"):
        name, keys, kinds, tol = (re.findall(r"`([^`]+)`", cell) for cell in line.split("|")[1:-1])
        rows[(name[0], name[1] if len(name) > 1 else None)] = (
            set(keys), tuple(kinds) or None, tol[0])
    return rows


def test_readme_experiment_table_matches_the_harness_table():
    want = {}
    for experiment, row in harness._EXPERIMENTS.items():
        for check in harness.PDE_CHECKS if experiment == "pde-green" else [None]:
            keys = harness._keys_read(experiment, check) - harness.COMMON_KEYS
            tol = row.tol or harness.PDE_TOLERANCE[check]
            want[(experiment, check)] = (set(keys), row.kinds, tol)
    assert _readme_experiment_table() == want


def test_readme_report_fields_match_the_report():
    fields = [re.match(r"\| `(\w+)` \|", line).group(1)
              for line in _readme_table("| `report.json` field | holds |")]
    report = harness.VerificationReport(ExperimentConfig("kernel", seed=1), [])
    assert fields == list(report.to_json())


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
    with pytest.raises(ConfigError, match="exhaust runs only on disk domains, not on moebius_disk"):
        ExperimentConfig.from_dict({"experiment": "exhaust", "seed": 1, "domain": {
            "kind": "moebius_disk", "params": {"a": [0.3, 0.1], "theta": 0.5}}})


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
    "gauge-experiment": {"experiment": "gauge-experiment", "seed": 2, "quad_order": 16,
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
        report = run(ExperimentConfig.from_dict(dict(config)), a)
        run(ExperimentConfig.from_dict(dict(config)), b)
        files = sorted(f.name for f in a.iterdir())
        assert files == sorted(["report.json", *report.csv_files]), name
        # the gauge experiment's residuals are all in report.json
        assert len(files) > 1 or name == "gauge-experiment", name
        assert files == sorted(f.name for f in b.iterdir()), name
        for f in files:
            assert (a / f).read_bytes() == (b / f).read_bytes(), (name, f)


SCHEMA_2_FIELDS = {"schema", "experiment", "config", "assumptions", "checks", "tables", "notes",
                   "outputs", "passed"}


def test_report_census(tmp_path):
    # per-row data is written once, to the CSVs, and outputs counts each
    # CSV's data lines
    configs = {**DETERMINISM_CONFIGS,
               "distance-2000": {"experiment": "distance", "seed": 11, "count": 2000, **SMALL}}
    for name, config in configs.items():
        run(ExperimentConfig.from_dict(dict(config)), tmp_path / name)
        payload = json.loads((tmp_path / name / "report.json").read_text())
        assert set(payload) == SCHEMA_2_FIELDS and payload["schema"] == 2, name
        assert "rows" not in payload["tables"].get("study", {}), name
        written = {f.name: f.read_text().splitlines() for f in (tmp_path / name).iterdir()
                   if f.name != "report.json"}
        assert payload["outputs"] == {csv: {"columns": lines[0].split(","), "rows": len(lines) - 1}
                                      for csv, lines in written.items()}, name
    assert json.loads((tmp_path / "distance-2000" / "report.json").read_text())["outputs"] == {
        "distance.csv": {"columns": ["re_z", "im_z", "re_w", "im_w", "distance"], "rows": 2000}}
    # a single reference run writes the field table alone
    assert sorted(f.name for f in (tmp_path / "reference").iterdir()) == \
        ["pde_field.csv", "report.json"]


def oracle_fmt(v) -> str:
    """One CSV value as the writer once formatted each value: an integer in
    decimal, a string as it is, anything else by %.17g."""
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, str):
        return v
    return "%.17g" % float(v)


def oracle_csv(header, rows) -> str:
    rows = rows if hasattr(rows, "__iter__") else np.asarray(rows)
    return "".join(",".join(oracle_fmt(v) for v in row) + "\n" for row in [header, *rows])


# every experiment, every pde_check and one study; the all-leaving pairs give
# a table with no rows
WRITER_CONFIGS = {
    **DETERMINISM_CONFIGS,
    "factorization": {"experiment": "pde-green", "pde_check": "factorization", "domain": SQUARE,
                      "weight": {"representation": "holo_modulus_squared",
                                 "coefficients": [[2, 0], [1, 0]]},
                      "grid": [32, 32]},
    "pde-green-generic": {"experiment": "pde-green", "domain": SQUARE, "grid": [32, 32],
                          "weight": {"representation": "generic_c1", "name": "exp_abs_sq"},
                          **SMALL},
    "all-leave": {"experiment": "verify-identity", **SMALL,
                  "pairs": [[[0.9999, 0.0], [0.2, 0.1]], [[0.1, 0.2], [0.0, -0.9999]]]},
}


def test_csv_writer_matches_the_per_value_oracle(tmp_path):
    reports = {name: run(ExperimentConfig.from_dict(dict(c)), tmp_path / name)
               for name, c in WRITER_CONFIGS.items()}
    special = harness.VerificationReport(ExperimentConfig("kernel", seed=1), [], csv_files={
        "special.csv": (("a", "b", "c"), [(math.nan, math.inf, -math.inf),
                                          (-0.0, 2**53 - 1, 5e-324)])})
    special.write(tmp_path / "special")
    reports["special"] = special
    written = set()
    for name, report in reports.items():
        for csv, (header, rows) in report.csv_files.items():
            text = (tmp_path / name / csv).read_text()
            assert text == oracle_csv(header, rows), (name, csv)
            # every cell reads back as exactly its float64, sign of zero included
            table = np.asarray(rows, dtype=float).reshape(-1, len(header))
            cells = np.array([[float(v) for v in line.split(",")]
                              for line in text.splitlines()[1:]]).reshape(table.shape)
            assert cells.tobytes() == table.tobytes(), (name, csv)
            written.add(csv)
    assert {r.config.experiment for r in reports.values()} >= set(harness.EXPERIMENTS)
    assert {r.config.pde_check for r in reports.values()
            if r.config.experiment == "pde-green"} == set(harness.PDE_CHECKS)
    # integer columns, the lazy field table and a study table
    assert {"exhaust.csv", "pde_field.csv", "study.csv"} <= written
    assert (tmp_path / "exhaust" / "exhaust.csv").read_text().splitlines()[1].startswith("1,")
    assert (tmp_path / "all-leave" / "identity.csv").read_text() == \
        "re_z,im_z,re_w,im_w,residual_analytic,residual_fd,abs_K\n"
    assert (tmp_path / "special" / "special.csv").read_text() == \
        "a,b,c\nnan,inf,-inf\n-0,9007199254740991,4.9406564584124654e-324\n"


def test_field_table_is_built_only_when_written(tmp_path, monkeypatch):
    # a reference study discards its three solutions unwritten, so it must
    # not pay for their field tables
    def refuse(self, dtype=None, copy=None):
        raise AssertionError("field table built")

    single = {"experiment": "pde-green", "pde_check": "reference", "domain": SQUARE}
    with monkeypatch.context() as m:
        m.setattr(harness._FieldRows, "__array__", refuse)
        study = run(ExperimentConfig.from_dict(
            {**single, "study": {"parameter": "grid_resolution", "values": [32, 64, 128]}}),
            tmp_path / "study")
    assert len(study_rows(study)) == 3
    n = 32
    report = run(ExperimentConfig.from_dict({**single, "grid": [n, n]}), tmp_path / "single")
    assert len(report.csv_files["pde_field.csv"][1]) == n * n
    lines = (tmp_path / "single" / "pde_field.csv").read_text().splitlines()
    assert len(lines) == n * n + 1 and lines[0] == "x,y,re_G,im_G"


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
        assert solver == {"method": "transform", "unknowns": n * n, "refinement_steps": 0,
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


GAUGE_CHECKS = ["gauge equation residual (1/g) dg/dwbar - (1/rho) drho/dwbar, max",
                "antiholomorphy residual dg/dw, max"]


def test_gauge_experiment_holomorphic(tmp_path):
    rep = run(ExperimentConfig.from_dict({
        "experiment": "gauge-experiment",
        "weight": {"representation": "holo_modulus_squared",
                   "coefficients": [[2, 0], [1, 0]]}}), tmp_path)
    assert rep.passed
    assert [c.name for c in rep.checks] == GAUGE_CHECKS
    assert all(c.value < 1e-10 for c in rep.checks)
    # it checks the gauge alone: no perturbation table and no data file
    assert set(rep.tables) == {"decomposition_residual"}
    assert rep.tables["decomposition_residual"] < 1e-12
    assert [f.name for f in tmp_path.iterdir()] == ["report.json"]


def test_gauge_experiment_on_the_unit_disk_spelled_as_a_disk(tmp_path):
    # the gauge's domain Disk(0, 1) is the domain of the disk Green's function
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "domain": {"kind": "disk", "params": {"center": [0, 0], "radius": 1}},
        "weight": {"coefficients": [[2, 0], [1, 0]]}}))
    out = tmp_path / "out"
    assert cli_main(["gauge-experiment", "--config", str(path), "--out", str(out)]) == 0
    payload = json.loads((out / "report.json").read_text())
    assert [c["name"] for c in payload["checks"] if c["passed"]] == GAUGE_CHECKS
    assert "perturbation" not in payload["tables"] and payload["outputs"] == {}


def test_pde_green_identity_reports_the_gauge_obstruction(tmp_path, capsys):
    # a weight with no gauge is gated like any other, and the report names
    # the obstruction
    data = {"domain": SQUARE, "weight": GENERIC, "grid": [32, 32], **SMALL}
    rep = run(ExperimentConfig.from_dict({"experiment": "pde-green", **data}), tmp_path)
    assert not rep.passed and rep.checks[0].value == pytest.approx(0.126, rel=1e-2)
    assert rep.tables["solver"]["method"] == "sparse_lu"
    assert any("not harmonic" in n for n in rep.notes)
    assert rep.tables["log_laplacian_residual"] == pytest.approx(4.0, abs=1e-4)
    assert all(math.isfinite(r) for r in csv_column(rep, "pde_identity.csv", "residual"))
    # gauge-experiment has nothing to check for it
    assert _cli_exit(tmp_path, "gauge-experiment", {"domain": SQUARE, "weight": GENERIC}) == 2
    err = capsys.readouterr().err
    assert "no antiholomorphic gauge exists" in err and "pde-green identity" in err
    # |z|^2 has a gauge on the annulus, but not in closed form: the grid
    # solves it by the LU, with no note, and gauge-experiment asks for a
    # closed form
    abs_sq = {"domain": ANNULUS_SPEC, "weight": {"representation": "generic_c1", "name": "abs_sq"}}
    rep = run(ExperimentConfig.from_dict({"experiment": "pde-green", "grid": [16, 32], **SMALL,
                                          **abs_sq}))
    assert rep.tables["solver"]["method"] == "sparse_lu"
    assert rep.notes == [] and "log_laplacian_residual" not in rep.tables
    assert _cli_exit(tmp_path, "gauge-experiment", abs_sq) == 1
    assert "re-express it" in capsys.readouterr().err


def test_each_gauge_check_fails_on_its_defect(monkeypatch):
    # mu = z + 2 + i, where both checks read about 1e-11 as built
    config = ExperimentConfig.from_dict({"experiment": "gauge-experiment",
                                         "weight": {"coefficients": [[2, 1], [1, 0]]}})
    assert run(config).passed
    solve = weights.solve_gauge

    def checks(g):
        """(passed, value) of each check when the gauge's g is g(weight, gauge)."""
        def defective(weight):
            gauge = solve(weight)
            return dataclasses.replace(gauge, _g=g(weight, gauge))

        monkeypatch.setattr(weights, "solve_gauge", defective)
        return [(c.passed, c.value) for c in run(config).checks]

    # coefficients left unconjugated: g is still antiholomorphic, but of the
    # wrong function
    unconjugated = checks(lambda weight, gauge: (
        lambda w: P.polyval(np.conj(w), weight.mu_coefficients)))
    assert unconjugated[0] == (False, pytest.approx(0.954, rel=1e-3))
    assert unconjugated[1][0]
    # g holomorphic in w
    holomorphic = checks(lambda weight, gauge: lambda w: P.polyval(w, gauge.conj_coefficients))
    assert holomorphic == [(False, pytest.approx(0.766, rel=1e-3)), (False, pytest.approx(1.0))]


def _cli_exit(tmp_path, experiment, data, *flags):
    """Exit status of the CLI on a config, writing into ``tmp_path / "o"``."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(data))
    return cli_main([experiment, "--config", str(path), "--out", str(tmp_path / "o"), *flags])


# a well-formed value of every config key but COMMON_KEYS
WELL_FORMED = {"domain": {"kind": "unit_disk"}, "weight": {"coefficients": [[2, 0], [1, 0]]},
               "basis_order": 8, "quad_order": 8, "grid": [16, 16], "fd_step": 1e-3, "count": 3,
               "pairs": [[[0.1, 0], [0.2, 0]]], "exhaust_steps": 2, "pde_check": "identity"}


def assert_key_census(tmp_path, capsys, experiment, base, moved):
    """On the config ``base``, each key of the experiment's row in
    ``harness._EXPERIMENTS`` moves a check value when set to its value in
    ``moved``, and every other key exits 2 with a message naming it."""
    fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
    assert set(WELL_FORMED) == fields - harness.COMMON_KEYS
    row = harness._keys_read(experiment, base.get("pde_check")) - harness.COMMON_KEYS
    assert set(moved) == row

    def values(data):
        config = ExperimentConfig.from_dict({"experiment": experiment, **data})
        return [c.value for c in run(config).checks]

    before = values(base)
    for key, value in moved.items():
        assert values({**base, key: value}) != before, key
    for key in sorted(set(WELL_FORMED) - row):
        assert _cli_exit(tmp_path, experiment, {**base, key: WELL_FORMED[key]}) == 2, key
        assert f"{experiment} does not read config keys [{key!r}]" in capsys.readouterr().err


# each domain kind, spelled as configs spell it, and another region; a
# Moebius disk is the unit disk as a point set, so it moves to a smaller disk
SMALLER_DISK = {"kind": "disk", "params": {"center": [0, 0], "radius": 0.9}}
DOMAIN_MOVES = {
    "unit_disk": ({"kind": "unit_disk"}, SMALLER_DISK),
    "disk": ({"kind": "disk", "params": {"center": [0.1, 0], "radius": 0.8}},
             {"kind": "disk", "params": {"center": [0.1, 0], "radius": 0.7}}),
    "moebius_disk": ({"kind": "moebius_disk", "params": {"a": [0.3, 0.1], "theta": 0.5}},
                     SMALLER_DISK),
    "annulus": (ANNULUS_SPEC, {"kind": "annulus", "params": {"inner": 0.6, "outer": 1.0}}),
    "rectangle": (SQUARE, {"kind": "rectangle", "params": {"x0": 0, "x1": 1.5, "y0": 0, "y1": 1}}),
}


@pytest.mark.parametrize("kind", sorted(DOMAIN_MOVES))
def test_gauge_experiment_reads_every_key_of_its_row(tmp_path, capsys, kind):
    # quad_order sets the rule's order max(4, quad_order // 8), so 40 and 48
    # take different nodes
    domain, moved_domain = DOMAIN_MOVES[kind]
    assert_key_census(tmp_path, capsys, "gauge-experiment",
                      {"domain": domain, "weight": {"coefficients": [[2, 1], [1, 0]]}},
                      {"domain": moved_domain, "weight": {"coefficients": [[3, 1], [1, 0]]},
                       "quad_order": 48})


def test_gauge_experiment_of_a_constant_weight_takes_no_seed(tmp_path, capsys):
    # the config is valid without a seed, and the run exits 2 on the weight:
    # a constant gauge would pass both checks at exactly 0
    data = {"experiment": "gauge-experiment", "weight": {"coefficients": [[3, 0]]}}
    assert ExperimentConfig.from_dict(data).seed is None
    assert _cli_exit(tmp_path, "gauge-experiment", data) == 2
    err = capsys.readouterr().err
    assert "gauge-experiment needs a non-constant weight" in err and "seed" not in err


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
    assert all(error < 1e-9 for _, error in study_rows(rep))


def test_convergence_study_basis_order(tmp_path):
    rep = run(_study("verify-identity", "basis_order", [10, 20, 30]), tmp_path)
    assert rep.passed
    errs = [error for _, error in study_rows(rep)]
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
    errs = [error for _, error in study_rows(rep)]
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


def test_study_validates_each_value_once(monkeypatch, tmp_path):
    # the study config and the swept config of each value are validated on
    # construction, and the run takes those swept configs as they are
    validated, validate = [], ExperimentConfig.validate
    monkeypatch.setattr(ExperimentConfig, "validate",
                        lambda self: validated.append(self.grid) or validate(self))
    config = _study("pde-green", "grid_resolution", [16, 24, 32], pde_check="reference",
                    domain=SQUARE)
    assert validated == [(128, 128), (16, 16), (24, 24), (32, 32)]
    validated.clear()
    run(config, tmp_path)
    assert validated == []
    echo = json.loads((tmp_path / "report.json").read_text())["config"]
    assert echo == json.loads(json.dumps(dataclasses.asdict(config)))
    assert set(echo) == {f.name for f in dataclasses.fields(ExperimentConfig)}


def test_study_of_a_check_that_holds_by_construction_fails(tmp_path, capsys):
    # the kernel is Hermitian bit for bit, so distance symmetry reads exactly
    # 0 at every quad_order: the parameter does not reach the check, which is
    # a configuration error
    data = {"seed": 1, "study": {"parameter": "quad_order", "values": [10, 20, 30]}}
    assert _cli_exit(tmp_path, "distance", data) == 2
    assert ("study parameter quad_order does not reach the check 'distance symmetry"
            in capsys.readouterr().err)
    # so does the exhaustion's harmonic part, which is log r in closed form
    assert _cli_exit(tmp_path, "exhaust", data) == 2
    assert ("study parameter quad_order does not reach the check 'harmonic part at center"
            in capsys.readouterr().err)
    # these fd_step values take every stencil off the disk, so no value
    # evaluates anything and no row is left to fit
    pairs = [[[0.5, 0.1], [-0.2, 0.3]], [[0.1, -0.4], [0.3, 0.2]]]
    data = {"seed": 1, "pairs": pairs,
            "study": {"parameter": "fd_step", "values": [0.6, 0.7, 0.8]}}
    assert _cli_exit(tmp_path, "verify-identity", data) == 1
    err = capsys.readouterr().err
    assert "only 0 study rows succeeded" in err
    assert "study value 0.6 skipped: error None is not positive and finite" in err


def test_study_notes_every_skipped_value(tmp_path, monkeypatch):
    # fd_step 0.6 takes every stencil off the disk, so its check evaluates
    # nothing; a value whose run raises is noted too
    pairs = [[[0.5, 0.1], [-0.2, 0.3]], [[0.1, -0.4], [0.3, 0.2]]]
    rep = run(_study("verify-identity", "fd_step", [0.6, 0.08, 0.04, 0.02], pairs=pairs),
              tmp_path / "o")
    assert rep.passed and len(study_rows(rep)) == 3
    assert rep.notes[-1] == "study value 0.6 skipped: error None is not positive and finite"
    assert len(rep.notes) == 3  # and one note per pair the stencil left

    row = harness._EXPERIMENTS["verify-identity"]

    def raising(config):
        if config.basis_order == 15:
            raise NumericError("Cholesky factor is singular")
        return row.run(config)

    monkeypatch.setitem(harness._EXPERIMENTS, "verify-identity", row._replace(run=raising))
    rep = run(_study("verify-identity", "basis_order", [10, 15, 20, 30]), tmp_path / "r")
    assert rep.notes == ["study value 15 skipped: Cholesky factor is singular"]
    assert [value for value, _ in study_rows(rep)] == [10.0, 20.0, 30.0]
    assert "skipped" not in rep.tables["study"]
    with pytest.raises(StudyInsufficientError, match="study value 15 skipped"):
        run(_study("verify-identity", "basis_order", [10, 15, 20]))


def test_study_config_route(tmp_path):
    rep = run(_study("verify-identity", "fd_step", [0.08, 0.04, 0.02]), tmp_path)
    assert rep.passed and "Richardson" in rep.checks[0].name
    assert rep.tables["study"]["fitted_order"] == pytest.approx(4.0, abs=0.01)
    # the error is that of the finite-difference identity check
    assert study_rows(rep)[1] == (0.04, run(cfg(seed=1, fd_step=0.04)).checks[1].value)
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
    # a negative seed or a tolerance that is not finite is a config error too
    for flags in (["--seed", "-5"], ["--tol", "inf"], ["--tol", "nan"]):
        assert cli_main(["verify-identity", "--config", str(cfg_path), "--out",
                         str(tmp_path / "out3"), *flags]) == 2, flags


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


GENERIC = {"representation": "generic_c1", "name": "exp_abs_sq"}


@pytest.mark.parametrize("change, message", [
    ({"count": "5"}, "count must be an integer"),
    ({"weight": {"representation": "holo_modulus_squared", "coefficients": [[0, 0]]}},
     "bad weight spec"),
    ({"tolerances": {"hermitan": 1e-30}}, "unknown tolerance names"),
    ({"basis_order": 2.5}, "basis_order must be an integer"),
    ({"experiment": "verify-identity", "fd_step": "small"}, "fd_step must be a number"),
    ({"seed": "7"}, "seed must be an integer"),
    ({"tolerances": {"hermitian": "tiny"}}, "tolerance hermitian must be a number"),
    ({"pairs": [[0.1, 0.2]]}, "pairs must be a list"),
    ({"pairs": []}, "pairs must not be empty"),
    ({"experiment": "pde-green", "domain": SQUARE, "grid": [64.5, 64]},
     "grid must be two positive integers"),
    ({"experiment": "pde-green", "domain": SQUARE, "grid": [64]},
     "grid must be two positive integers"),
    ({"experiment": "pde-green", "domain": SQUARE, "grid": [0, 64]},
     "grid must be two positive integers"),
    ({"experiment": "exhaust", "exhaust_steps": 0}, "exhaust_steps must be >= 1"),
    # keys that once set the annulus basis and the sampling margin
    ({"laurent": [-8, 8]}, "unknown config keys: ['laurent']"),
    ({"margin": 0.7}, "unknown config keys: ['margin']"),
    ({"experiment": "pde-green", "domain": SQUARE, "grid": [4, 4]},
     "grid needs at least 8 nodes per axis"),
    ({"experiment": "pde-green", "domain": ANNULUS_SPEC, "grid": [16, 15]},
     "annulus grids need an even angular count"),
    ({"experiment": "pde-green", "domain": ANNULUS_SPEC, "grid": [16, 8]},
     "annulus grids need an even angular count"),
    ({"experiment": "pde-green", "pde_check": "reference", "domain": SQUARE, "grid": [32, 128]},
     "pde_check 'reference' builds its grids from n = grid[0] (n x 2n on annuli), "
     "so grid must be [n, n]; got [32, 128]"),
    ({"experiment": "pde-green", "pde_check": "factorization", "domain": ANNULUS_SPEC,
      "grid": [32, 64]}, "pde_check 'factorization' builds its grids from n = grid[0] "
     "(n x 2n on annuli), so grid must be [n, n]; got [32, 64]"),
    ({"experiment": "pde-green", "pde_check": "factorization", "domain": SQUARE, "grid": [12, 12]},
     "pde_check 'factorization' also solves at grid[0] // 2: grid needs at least 8 nodes per axis"),
    ({"experiment": "pde-green", "pde_check": "reference", "domain": SQUARE,
      "study": {"parameter": "grid_resolution", "values": [4, 16, 32, 64]}},
     "study value 4 of grid_resolution: grid needs at least 8 nodes per axis"),
    ({"experiment": "pde-green", "pde_check": "reference", "domain": SQUARE,
      "study": {"parameter": "grid_resolution", "values": [4, 6, 16]}},
     "study value 4 of grid_resolution: grid needs at least 8 nodes per axis"),
    ({"experiment": "pde-green", "pde_check": "reference", "domain": SQUARE,
      "study": {"parameter": "grid_resolution", "values": [16, 24.5, 32]}},
     "study value 24.5 of grid_resolution: grid must be two positive integers"),
    ({"experiment": "verify-identity",
      "study": {"parameter": "fd_step", "values": [1e-3, "2e-3", 4e-3]}},
     "study values must be a list of numbers"),
    *UNPARSABLE_SPECS,
    # a key that once set the epsilons of a gauge perturbation table
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
      "weight": GENERIC}, "the factorization check needs a weight with a gauge"),
    ({"experiment": "verify-identity", "study": {"parameter": "fd_step", "values": [1e-3, 2e-3]}},
     "at least three values"),
    ({"experiment": "verify-identity",
      "study": {"parameter": "fd_step", "values": [1e-3, 4e-3, 2e-3]}}, "strictly monotone"),
    ({"study": {"parameter": "grid", "values": [16, 32, 64]}}, "unknown study parameter"),
    ({"study": {"parameter": "basis_order", "values": [-1, 4, 8]}},
     "study values must be positive"),
    # verify-identity has no closed form on an annulus; a study re-runs its
    # own experiment, and the gauge experiment builds no grid; green builds
    # no kernel
    ({"experiment": "verify-identity", "domain": ANNULUS_SPEC, "weight": GENERIC,
      "study": {"parameter": "grid_resolution", "values": [64, 128, 192]}},
     "verify-identity runs only on disk and moebius_disk domains, not on annulus"),
    ({"experiment": "gauge-experiment", "domain": SQUARE, "weight": GENERIC, "quad_order": 16,
      "study": {"parameter": "grid_resolution", "values": [16, 24, 32]}},
     "study parameter grid_resolution: gauge-experiment does not read config keys ['grid']"),
    ({"experiment": "green", "study": {"parameter": "basis_order", "values": [10, 20, 30]}},
     "study parameter basis_order: green does not read config keys ['basis_order']"),
    ({"experiment": "pde-green", "domain": ANNULUS_SPEC,
      "study": {"parameter": "grid_resolution", "values": [16, 17, 32]}},
     "study value 17 of grid_resolution: annulus grids need an even angular count"),
    # explicit points must lie in the domain, and a NaN lies nowhere
    ({"pairs": [[[2, 0], [3, 0.5]], [[0.1, 0], [5, 0]]]},
     "pairs must lie in the domain; (2+0j) does not"),
    ({"experiment": "distance", "pairs": [[[0.1, 0], [0.2, 0]], [[0.1, 0], [5, 0]]]},
     "pairs must lie in the domain; (5+0j) does not"),
    ({"experiment": "green", "pairs": [[[0.1, 0], [0.2, 0]], [[0.3, 0.5], [3, 0.5]]]},
     "pairs must lie in the domain; (3+0.5j) does not"),
    ({"experiment": "green", "pairs": [[[0.1, math.nan], [0.2, 0]]]},
     "pairs must lie in the domain; (0.1+nanj) does not"),
    # keys the experiment does not read, whatever their value
    ({"grid": [4, 4]}, "kernel does not read config keys ['grid']"),
    ({"grid": [128, 128], "fd_step": 1e-3, "exhaust_steps": 6, "pde_check": "identity"},
     "kernel does not read config keys ['exhaust_steps', 'fd_step', 'grid', 'pde_check']"),
    ({"experiment": "green", "weight": {"coefficients": [[2, 0], [1, 0]]}},
     "green does not read config keys ['weight']"),
    ({"experiment": "pde-green", "pde_check": "reference", "domain": SQUARE, "basis_order": 10},
     "pde-green with pde_check 'reference' does not read config keys ['basis_order']"),
    ({"experiment": "pde-green", "domain": SQUARE, "count": 4},
     "pde-green with pde_check 'identity' does not read config keys ['count']"),
    ({"experiment": "exhaust", "count": 4}, "exhaust does not read config keys ['count']"),
    ({"study": {"parameter": "grid_resolution", "values": [32, 64, 128]}},
     "study parameter grid_resolution: kernel does not read config keys ['grid']"),
    ({"experiment": "verify-identity",
      "study": {"parameter": "grid_resolution", "values": [32, 64, 128]}},
     "study parameter grid_resolution: verify-identity does not read config keys ['grid']"),
    ({"experiment": "pde-green", "pde_check": ["identity"], "domain": SQUARE},
     "unknown pde_check ['identity']"),
    # domains the experiment does not run on
    ({"experiment": "green", "domain": SQUARE},
     "green runs only on disk and moebius_disk domains, not on rectangle"),
    ({"experiment": "exhaust", "domain": ANNULUS_SPEC},
     "exhaust runs only on disk domains, not on annulus"),
    ({"experiment": "pde-green"}, "pde-green runs only on rectangle and annulus domains, not on disk"),
    # malformed numbers
    ({"seed": -1}, "seed must be an integer >= 0, got -1"),
    ({"experiment": "verify-identity", "fd_step": math.nan},
     "fd_step must be positive and finite, got nan"),
    ({"experiment": "verify-identity", "fd_step": math.inf},
     "fd_step must be positive and finite, got inf"),
    ({"experiment": "verify-identity",
      "tolerances": {"identity_fd": math.inf, "identity_analytic": math.inf}},
     "tolerance identity_fd must be finite, got inf"),
    ({"weight": {"representation": "log_harmonic", "coefficients": [[math.nan, 0]]}},
     "polynomial coefficients must be finite, got [(nan+0j)]"),
    ({"weight": {"coefficients": [[1, math.nan]]}},
     "polynomial coefficients must be finite, got [(1+nanj)]"),
    ({"weight": {"coefficients": [[math.nan, 0], [1, 0]]}},
     "polynomial coefficients must be finite, got [(nan+0j)]"),
    # every domain parameter must be finite
    ({"experiment": "pde-green", "domain": {"kind": "rectangle", "params": {
        "x0": 0, "x1": math.inf, "y0": 0, "y1": 1}}}, "rectangle parameter x1 must be finite"),
    ({"domain": {"kind": "disk", "params": {"radius": math.inf}}},
     "disk parameter radius must be finite, got inf"),
    ({"domain": {"kind": "disk", "params": {"center": [math.nan, 0], "radius": 1}}},
     "disk parameter center must be finite, got (nan+0j)"),
    ({"experiment": "green", "domain": {"kind": "disk", "params": {"center": [math.inf, 0],
                                                                   "radius": 1}}},
     "disk parameter center must be finite, got (inf+0j)"),
    ({"domain": {"kind": "annulus", "params": {"inner": 0.5, "outer": math.inf}}},
     "annulus parameter outer must be finite, got inf"),
    ({"experiment": "distance", "domain": {"kind": "moebius_disk", "params": {"theta": math.nan}}},
     "moebius_disk parameter theta must be finite, got nan"),
    # a weight that overflows at a quadrature node or is not positive on the grid
    ({"weight": {"representation": "log_harmonic", "coefficients": [[0, 0], [1000, 0]]}},
     "weight must be finite and positive on every quadrature node; rho("),
    ({"weight": {"representation": "log_harmonic", "coefficients": [[0, 0], [1000, 0]]},
      "study": {"parameter": "basis_order", "values": [4, 6, 8]}},
     "weight must be finite and positive on every quadrature node; rho("),
    ({"experiment": "pde-green", "domain": SQUARE,
      "weight": {"representation": "generic_c1", "name": "abs_sq"}},
     "weight must be finite and positive on every grid node; rho(0+0j) = 0"),
    # keys gauge-experiment does not read, on the domain it would run on
    ({"experiment": "gauge-experiment", "grid": [4, 4]},
     "gauge-experiment does not read config keys ['grid']"),
    ({"experiment": "gauge-experiment", "domain": SQUARE, "count": 7, "basis_order": 3,
      "weight": {"coefficients": [[2, 0], [1, 0]]}, "pairs": [[[0.1, 0.2], [0.3, 0.4]]]},
     "gauge-experiment does not read config keys ['basis_order', 'count', 'pairs']"),
    # a constant weight, the default one included, has a constant gauge
    ({"experiment": "gauge-experiment"}, "gauge-experiment needs a non-constant weight"),
    ({"experiment": "gauge-experiment", "weight": {"coefficients": [[3, 0]]}},
     "gauge-experiment needs a non-constant weight"),
    ({"experiment": "gauge-experiment", "domain": ANNULUS_SPEC,
      "weight": {"representation": "log_harmonic", "coefficients": [[0.5, 1]]}},
     "gauge-experiment needs a non-constant weight"),
])
def test_cli_malformed_config_exits_2(tmp_path, capsys, change, message):
    path = tmp_path / "cfg.json"
    data = {"experiment": "kernel", "seed": 3, **change}
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


def test_worst_keeps_a_nan():
    # Python's max([0.1, nan]) is 0.1, so a NaN residual that did not come
    # first used to pass its check
    for values in ([0.1, math.nan], [math.nan, 0.1], np.array([0.1, math.nan])):
        assert math.isnan(harness._worst(values))
        assert not Check("a", harness._worst(values), 1.0).passed
    assert harness._worst([0.1, 0.3, 0.2]) == 0.3
    assert harness._worst(np.array([])) is None


# A closed-form run in a fresh process: no scipy module may be loaded, and
# validating grid configs must not load the grid solver either, since a fresh
# process pays to import (and may compile) every module it loads.  The grid
# names of the package must still resolve afterwards.
_NO_SCIPY_RUN = """
import sys
import bergreen.harness as h
cfg = h.ExperimentConfig.from_dict({"experiment": "verify-identity", "seed": 7, "count": 5,
                                    "basis_order": 10, "quad_order": 12})
assert len(h.run(cfg).csv_files["identity.csv"][1])
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

_GRID_IDENTITY_ANNULUS = {"experiment": "pde-green", "pde_check": "identity", "seed": 1,
                          "domain": {"kind": "annulus", "params": {"inner": 0.5, "outer": 1.0}},
                          "grid": [128, 256], "quad_order": 24}


def test_grid_workload_solves_take_pinned_steps():
    # the census of the benchmark's grid solves, pinned so that a change to
    # the transform preconditioner cannot trade speed for refinement steps
    # unseen: constant weights accept T_1's own answer, and the rho = |z+2|^2
    # square takes five corrections
    single = {k: v for k, v in _GRID_REFERENCE.items() if k != "study"}
    configs = [{**single, "grid": [n, n]} for n in _GRID_REFERENCE["study"]["values"]]
    census = [run(ExperimentConfig.from_dict(cfg)).tables["solver"]
              for cfg in (*configs, _GRID_IDENTITY_SQUARE, _GRID_IDENTITY_ANNULUS)]
    assert [(s["method"], s["refinement_steps"]) for s in census] == \
        [("transform", 0)] * 3 + [("transform", 5), ("transform", 0)]
    assert all(s["backward_error"] <= REFINEMENT_TOLERANCE for s in census)


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


def test_grid_identity_annulus_outputs_identical_under_one_and_two_blas_threads(tmp_path):
    # the unit weight takes the Fourier transform and tridiagonal sweeps of
    # the annulus, with no correction
    digests = _digests_at_one_and_two_blas_threads(_GRID_IDENTITY_ANNULUS, tmp_path)
    assert len(digests) == 1 and "pde_identity.csv" in digests.pop()
