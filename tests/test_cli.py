import functools
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import gftree
from gftree.cli import main, make_parser, parse_rate, parse_size_range
from gftree.invariant import solve_conservative_pde
from gftree.model import PowerLawRate, reference_model


def run(args, **kwargs):
    return main([str(a) for a in args], **kwargs)


# ---------------------------------------------------------------------------
# Flag parsing
# ---------------------------------------------------------------------------

def test_parse_rate_forms():
    assert parse_rate("x^2") == PowerLawRate(1.0, 2.0)
    assert parse_rate("2.5*x^1.5") == PowerLawRate(2.5, 1.5)
    assert parse_rate("x") == PowerLawRate(1.0, 1.0)


def test_parse_size_range():
    assert parse_size_range("5..8") == [5, 6, 7, 8]
    assert parse_size_range("5,7,9") == [5, 7, 9]


def test_help_lists_every_flag_with_defaults(capsys):
    """Keeps --help in sync with the run-config surface."""
    expected = {
        "simulate": ["--scheme", "--generations", "--length", "--b", "--rho",
                     "--e-min", "--e-max", "--init-low", "--init-high",
                     "--seed", "--workers", "--out", "--no-timestamp",
                     "--model"],
        "estimate": ["--input", "--pooled-tau", "--cross-check",
                     "--bandwidth",
                     "--bandwidth-exponent", "--threshold", "--threshold-rule",
                     "--grid-dx", "--grid-xmax", "--seed", "--out"],
        "study": ["--sizes", "--replicates", "--full-only", "--band-size",
                  "--workers", "--seed"],
        "verify": ["--many-to-one", "--t", "--replicates", "--class-check",
                   "--drift", "--scheme-check"],
        "pde-check": ["--b", "--tau", "--grid-dx", "--grid-xmax", "--t-end",
                      "--cfl", "--check-lo", "--check-hi"],
        "ingest": ["--input", "--map", "--lineage-column", "--drop-first",
                   "--drop-last"],
    }
    parser = make_parser()
    for command, flags in expected.items():
        with pytest.raises(SystemExit) as exc:
            parser.parse_args([command, "--help"])
        assert exc.value.code == 0
        text = capsys.readouterr().out
        for flag in flags:
            assert flag in text, f"{command} --help lacks {flag}"
        assert "default" in text


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def test_simulate_full_row_count(tmp_path):
    assert run(["simulate", "--scheme", "full", "--generations", 2,
                "--seed", 1, "--out", tmp_path, "--no-timestamp"]) == 0
    lines = (tmp_path / "genealogy.csv").read_text().splitlines()
    assert len(lines) == 1 + 7
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["records"] == 7
    assert "timestamp" not in manifest


def test_simulate_sparse_row_count(tmp_path):
    assert run(["simulate", "--scheme", "sparse", "--length", 5,
                "--seed", 1, "--out", tmp_path, "--no-timestamp"]) == 0
    lines = (tmp_path / "genealogy.csv").read_text().splitlines()
    assert len(lines) == 1 + 5


def test_simulate_same_seed_is_byte_identical(tmp_path):
    for sub in ("a", "b"):
        assert run(["simulate", "--scheme", "full", "--generations", 6,
                    "--seed", 42, "--out", tmp_path / sub,
                    "--no-timestamp"]) == 0
    assert ((tmp_path / "a" / "genealogy.csv").read_bytes()
            == (tmp_path / "b" / "genealogy.csv").read_bytes())
    assert ((tmp_path / "a" / "manifest.json").read_bytes()
            == (tmp_path / "b" / "manifest.json").read_bytes())


def test_simulate_needs_scheme_parameter(tmp_path):
    assert run(["simulate", "--scheme", "full", "--out", tmp_path]) == 2


def test_seed_env_override(tmp_path, monkeypatch):
    assert run(["simulate", "--scheme", "sparse", "--length", 4,
                "--seed", 1, "--out", tmp_path / "explicit",
                "--no-timestamp"]) == 0
    monkeypatch.setenv("GFTREE_SEED", "1")
    assert run(["simulate", "--scheme", "sparse", "--length", 4,
                "--seed", 999, "--out", tmp_path / "env",
                "--no-timestamp"]) == 0
    assert ((tmp_path / "explicit" / "genealogy.csv").read_bytes()
            == (tmp_path / "env" / "genealogy.csv").read_bytes())


# JSON file: the optional manifest keys it carries, by command
JSON_FILES = {
    "simulate": {"manifest.json": {"model"}},
    "estimate": {"estimate.json": {"config"}, "cross_check.json": set()},
    "study": {"study.json": {"model", "config"}},
    "verify": {"verify.json": {"model"}},
    "pde-check": {"pde_check.json": set()},
    "ingest": {"ingest.json": {"config"}},
}


@pytest.mark.parametrize("command", sorted(JSON_FILES))
def test_every_json_opens_with_the_manifest(small_run, tmp_path, command):
    """Each JSON file names its command and seed; model and config appear
    where the command has them, and no timestamp under --no-timestamp."""
    assert small_run(command, tmp_path, "--no-timestamp") == 0
    written = {path.name: json.loads(path.read_text())
               for path in tmp_path.glob("*.json")}
    assert written.keys() == JSON_FILES[command].keys()
    for name, doc in written.items():
        assert doc["command"] == command and doc["seed"] == 3, name
        assert "timestamp" not in doc, name
        assert doc.keys() & {"model", "config"} == JSON_FILES[command][name]


@pytest.mark.parametrize("command", sorted(JSON_FILES))
def test_bad_seed_is_refused_before_out(small_run, tmp_path, monkeypatch,
                                        capsys, command):
    monkeypatch.setenv("GFTREE_SEED", "abc")
    out = tmp_path / "out"
    assert small_run(command, out) == 2
    assert "GFTREE_SEED 'abc'" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# estimate
# ---------------------------------------------------------------------------

@pytest.fixture()
def sparse_csv(tmp_path):
    out = tmp_path / "sim"
    assert run(["simulate", "--scheme", "sparse", "--length", 1024,
                "--rho", "dirac:1.0", "--seed", 3, "--out", out,
                "--no-timestamp"]) == 0
    return out / "genealogy.csv"


def test_estimate_grid_follows_sample_size(sparse_csv, tmp_path):
    out = tmp_path / "est"
    assert run(["estimate", "--input", sparse_csv, "--out", out,
                "--no-timestamp"]) == 0
    rows = (out / "estimate.tsv").read_text().splitlines()
    first = rows[1].split("\t")
    assert float(first[0]) == pytest.approx(1.0 / 32.0)  # 1024^-1/2
    report = json.loads((out / "estimate.json").read_text())
    assert report["n"] == 1024
    assert report["grid"]["dx"] == pytest.approx(0.03125)


def test_estimate_pooled_identical_for_dirac_data(sparse_csv, tmp_path):
    a, b = tmp_path / "aware", tmp_path / "pooled"
    assert run(["estimate", "--input", sparse_csv, "--out", a,
                "--no-timestamp"]) == 0
    assert run(["estimate", "--input", sparse_csv, "--pooled-tau",
                "--out", b, "--no-timestamp"]) == 0
    assert ((a / "estimate.tsv").read_bytes()
            == (b / "estimate.tsv").read_bytes())


def test_estimate_fixed_flags(sparse_csv, tmp_path):
    out = tmp_path / "fixed"
    assert run(["estimate", "--input", sparse_csv, "--bandwidth", 0.2,
                "--threshold", 0.05, "--grid-dx", 0.05, "--grid-xmax", 4.0,
                "--out", out, "--no-timestamp"]) == 0
    report = json.loads((out / "estimate.json").read_text())
    assert report["h"] == 0.2
    assert report["threshold"] == 0.05
    assert report["grid"]["dx"] == 0.05
    assert report["grid"]["points"] == 80


def test_estimate_cross_check(sparse_csv, tmp_path):
    out = tmp_path / "xc"
    assert run(["estimate", "--input", sparse_csv, "--cross-check",
                "--out", out, "--no-timestamp"]) == 0
    doc = json.loads((out / "cross_check.json").read_text())
    assert doc["relative"] < 0.05
    assert (out / "estimate_parent_indexed.tsv").exists()


def test_estimate_missing_input_is_usage_error(tmp_path, capsys):
    assert run(["estimate", "--input", tmp_path / "nope.csv",
                "--out", tmp_path]) == 2
    assert "nope.csv" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["missing", "directory"])
@pytest.mark.parametrize("command, flag", [
    (["simulate", "--scheme", "full", "--generations", 2], "--model"),
    (["estimate"], "--input"), (["ingest"], "--input")],
    ids=["simulate", "estimate", "ingest"])
def test_input_that_is_not_a_file_is_usage_error(tmp_path, capsys, command,
                                                 flag, kind):
    source = tmp_path / "nope.csv" if kind == "missing" else tmp_path
    out = tmp_path / "out"
    assert run([*command, flag, source, "--out", out]) == 2
    err = capsys.readouterr().err
    want = "not found" if kind == "missing" else "not a file"
    assert f"{flag} {want}: {source}" in err
    assert not out.exists()


# ---------------------------------------------------------------------------
# study / verify / pde-check / ingest
# ---------------------------------------------------------------------------

def test_study_outputs(tmp_path):
    assert run(["study", "--sizes", "5..7", "--replicates", 4,
                "--band-size", 0, "--seed", 2, "--workers", 2,
                "--out", tmp_path, "--no-timestamp"]) == 0
    table = (tmp_path / "table1.tsv").read_text().splitlines()
    assert len(table) == 1 + 3
    assert (tmp_path / "fig2_full.tsv").exists()
    assert (tmp_path / "fig2_sparse.tsv").exists()
    report = json.loads((tmp_path / "study.json").read_text())
    assert {r["n"] for r in report["full"]["rows"]} == {32, 64, 128}
    assert "slope" in report["full"]


@pytest.mark.parametrize("sizes", ["5..5", "5..6"])
def test_study_json_is_strict(tmp_path, sizes):
    # one size has no slope and two sizes no slope error: null, not NaN
    assert run(["study", "--sizes", sizes, "--replicates", 3, "--band-size",
                0, "--out", tmp_path, "--no-timestamp"]) == 0

    def refuse(name):
        raise ValueError(f"{name} is not JSON")

    doc = json.loads((tmp_path / "study.json").read_text(),
                     parse_constant=refuse)
    for scheme in ("full", "sparse"):
        assert doc[scheme]["slope_stderr"] is None
        assert (doc[scheme]["slope"] is None) == (sizes == "5..5")


def test_estimate_json_is_strict(sparse_csv, tmp_path):
    # estimate.json goes through the same strict writer as study.json
    def refuse(name):
        raise ValueError(f"{name} is not JSON")

    written = []
    for extra in ([], ["--pooled-tau"], ["--cross-check"]):
        out = tmp_path / f"est{len(written)}"
        assert run(["estimate", "--input", sparse_csv, *extra, "--out", out,
                    "--no-timestamp"]) == 0
        for path in sorted(out.glob("*.json")):
            assert json.loads(path.read_text(), parse_constant=refuse)
            written.append(path.name)
    assert sorted(written) == ["cross_check.json"] + ["estimate.json"] * 3


def test_study_counts_replicates_with_empty_conditioning(tmp_path):
    """Under variable growth at 2^5 some replicates keep no grid point above
    the floor: they are counted, and the summary is taken over the rest."""
    assert run(["study", "--rho", "uniform-increment:2.0,0.5", "--sizes",
                "5..5", "--replicates", 5, "--band-size", 0, "--full-only",
                "--out", tmp_path, "--no-timestamp"]) == 0
    row, = json.loads((tmp_path / "study.json").read_text())["full"]["rows"]
    assert 0 < row["empty_conditioning"] < 5
    assert len(row["per_replicate"]) == 5 - row["empty_conditioning"]
    assert row["mean_error"] == pytest.approx(
        sum(row["per_replicate"]) / len(row["per_replicate"]), rel=1e-15)


def test_study_reference_ladder_has_six_rows(tmp_path):
    assert run(["study", "--sizes", "5..10", "--replicates", 2,
                "--band-size", 0, "--seed", 1, "--workers", 4,
                "--out", tmp_path, "--no-timestamp"]) == 0
    table = (tmp_path / "table1.tsv").read_text().splitlines()
    assert len(table) == 1 + 6


def test_malformed_genealogy_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("path,size_birth,growth_rate,lifetime,birth_time\n"
                   ",1.0,1.0,0.5,0\n"
                   "01,0.9,1.0,0.5,0.5\n")
    out = tmp_path / "out"
    assert run(["estimate", "--input", bad, "--out", out]) == 2
    assert "neither a complete tree nor a single lineage" in \
        capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("lifetime", ["nan", "-1"])
def test_invalid_genealogy_value_is_usage_error(tmp_path, capsys, lifetime):
    bad = tmp_path / "bad.csv"
    bad.write_text("path,size_birth,growth_rate,lifetime,birth_time\n"
                   ",1.0,1.0,0.5,0\n"
                   f"0,0.9,1.0,{lifetime},0.5\n"
                   "1,0.9,1.0,0.5,0.5\n")
    out = tmp_path / "out"
    assert run(["estimate", "--input", bad, "--out", out]) == 2
    assert "lifetime entries must be finite and positive" in \
        capsys.readouterr().err
    assert not out.exists()


def test_estimate_refuses_a_row_of_four_cells(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("path,size_birth,growth_rate,lifetime,birth_time\n"
                   ",1.0,1.0,0.5,0\n"
                   "0,0.9,1.0,0.5\n"
                   "1,0.9,1.0,0.5,0.5\n")
    out = tmp_path / "out"
    assert run(["estimate", "--input", bad, "--out", out]) == 2
    assert "bad genealogy" in capsys.readouterr().err
    assert not out.exists()


def test_estimate_does_not_read_birth_time_values(sparse_csv, tmp_path):
    """``estimate`` parses size, growth rate and lifetime only: each row
    must hold a ``birth_time`` cell, whose text is never converted."""
    lines = sparse_csv.read_bytes().split(b"\r\n")
    edited = tmp_path / "edited.csv"
    edited.write_bytes(b"\r\n".join(
        [lines[0]] + [row.rsplit(b",", 1)[0] + b",not a time" if row else row
                      for row in lines[1:]]))
    for source, out in ((sparse_csv, "plain"), (edited, "edited")):
        assert run(["estimate", "--input", source, "--cross-check",
                    "--out", tmp_path / out, "--no-timestamp"]) == 0
    for name in ("estimate.tsv", "estimate.json",
                 "estimate_parent_indexed.tsv", "cross_check.json"):
        assert ((tmp_path / "plain" / name).read_bytes()
                == (tmp_path / "edited" / name).read_bytes()), name


def test_study_deterministic_across_workers(tmp_path):
    for sub, workers in (("w1", 1), ("w8", 8)):
        assert run(["study", "--sizes", "5..6", "--replicates", 4,
                    "--band-size", 0, "--seed", 2, "--workers", workers,
                    "--out", tmp_path / sub, "--no-timestamp"]) == 0
    assert ((tmp_path / "w1" / "study.json").read_bytes()
            == (tmp_path / "w8" / "study.json").read_bytes())


def test_verify_many_to_one(tmp_path):
    assert run(["verify", "--many-to-one", "--t", 0.8, "--replicates", 4000,
                "--seed", 31, "--out", tmp_path, "--no-timestamp"]) == 0
    doc = json.loads((tmp_path / "verify.json").read_text())
    assert doc["pass"] is True
    assert len(doc["verdicts"]["many_to_one"]["functions"]) >= 5


def test_verify_class_check(tmp_path):
    assert run(["verify", "--class-check", "--out", tmp_path,
                "--no-timestamp"]) == 0
    doc = json.loads((tmp_path / "verify.json").read_text())
    assert doc["verdicts"]["class_membership"]["pass"] is True
    assert doc["verdicts"]["class_membership"][
        "spectral_radius_verified"] is False


def test_verify_drift_reports_divergence_for_wide_band(tmp_path):
    # the reference band is too wide for the drift weight: fails with reason
    assert run(["verify", "--drift", "--out", tmp_path,
                "--no-timestamp"]) == 4
    doc = json.loads((tmp_path / "verify.json").read_text())
    assert doc["verdicts"]["drift"]["divergent"] is True


def test_verify_drift_contracts_for_scalar_band(tmp_path):
    assert run(["verify", "--drift", "--e-min", 1.0, "--e-max", 1.0,
                "--rho", "dirac:1.0", "--init-low", 1.0, "--init-high", 1.0,
                "--out", tmp_path, "--no-timestamp"]) == 0
    doc = json.loads((tmp_path / "verify.json").read_text())
    assert doc["verdicts"]["drift"]["pass"] is True


@pytest.mark.parametrize("value", [0, -3])
def test_study_without_replicates_is_usage_error(tmp_path, capsys, value):
    out = tmp_path / "out"
    assert run(["study", "--sizes", "5..6", "--replicates", value,
                "--out", out]) == 2
    assert "--replicates" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["estimate", "ingest", "study"])
@pytest.mark.parametrize("flag, value", [
    ("--bandwidth", "nan"), ("--bandwidth", "inf"), ("--bandwidth", -1),
    ("--bandwidth", 0), ("--threshold", -1), ("--threshold", "nan"),
    ("--grid-dx", "nan"), ("--grid-dx", 0), ("--grid-xmax", "inf"),
    ("--bandwidth-exponent", "nan"), ("--bandwidth-exponent", "inf")])
def test_bad_estimator_flags_are_usage_errors(tmp_path, capsys, command,
                                              flag, value):
    # refused before the input is read: the input does not exist
    source = [] if command == "study" else ["--input", tmp_path / "no.csv"]
    out = tmp_path / "out"
    assert run([command, *source, flag, value, "--out", out]) == 2
    assert flag in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["estimate", "ingest", "study"])
@pytest.mark.parametrize("dx, xmax", [(1, 0.5), (0.5, 0.5)])
def test_grid_step_beyond_its_end_is_usage_error(tmp_path, capsys, command,
                                                 dx, xmax):
    # refused before the input is read: the input does not exist
    source = [] if command == "study" else ["--input", tmp_path / "no.csv"]
    out = tmp_path / "out"
    assert run([command, *source, "--grid-dx", dx, "--grid-xmax", xmax,
                "--out", out]) == 2
    assert "--grid-dx < --grid-xmax" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, args, xmax", [
    ("estimate", [], 0.03), ("ingest", [], 0.03),  # 1024^-1/2 = 0.031
    ("study", ["--sizes", "5..6", "--band-size", 0], 0.15),  # 31^-1/2 = 0.18
    ("study", ["--sizes", "12", "--band-size", 3], 0.3)])  # 7^-1/2 = 0.38
def test_grid_end_below_the_default_step_is_usage_error(
        sparse_csv, tmp_path, capsys, command, args, xmax):
    """The default step n^-1/2 is known once n is: for the input's cells,
    or the smallest tree of a study's sizes and band."""
    source = (args + ["--replicates", 2] if command == "study"
              else ["--input", sparse_csv])
    out = tmp_path / "out"
    assert run([command, *source, "--grid-xmax", xmax, "--out", out]) == 2
    assert "--grid-xmax" in capsys.readouterr().err
    assert not out.exists()


def test_verify_without_flags_is_usage_error(tmp_path):
    assert run(["verify", "--out", tmp_path]) == 2


@pytest.mark.parametrize("flag,value", [
    ("--replicates", 0), ("--replicates", 1), ("--replicates", -5),
    ("--t", -1), ("--t", "nan"),
    ("--rho", "uniform-increment:nan,0.5"), ("--rho", "uniform-increment:2.0,inf"),
    ("--rho", "gaussian:nan"), ("--rho", "gaussian:inf")])
def test_verify_many_to_one_bad_input_is_usage_error(tmp_path, capsys, flag,
                                                     value):
    out = tmp_path / "out"
    assert run(["verify", "--many-to-one", flag, value, "--out", out]) == 2
    assert flag in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("rho", ["uniform-increment:2.0,0.5", "gaussian:0.5"])
def test_continuous_kernel_on_point_band_fails_fast(tmp_path, capsys, rho):
    # a continuous increment has no law on a single point: the model is
    # refused before anything is simulated
    out = tmp_path / "out"
    start = time.perf_counter()
    assert run(["simulate", "--scheme", "full", "--generations", 3,
                "--e-min", 1, "--e-max", 1, "--rho", rho, "--out", out]) == 2
    assert time.perf_counter() - start < 2.0
    assert "e_min < e_max" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("edit, message", [
    (lambda doc: doc["bounds"].update(e_min=1.0, e_max=1.0), "e_min < e_max"),
    (lambda doc: doc["division_rate"].update(form="cubic"),
     "unknown division rate form"),
    (lambda doc: doc.pop("bounds"), "bounds"),
    # a density without mass in the band has no quantile to invert
    (lambda doc: doc.update(growth_kernel={
        "form": "independent_resample", "grid": [5.0, 6.0],
        "density": [1.0, 1.0]}), "no mass in the band"),
    # a non-finite parameter would write nan lifetimes or rates
    (lambda doc: doc["division_rate"].update(coefficient=math.nan), "finite"),
    (lambda doc: doc["division_rate"].update(exponent=math.inf), "finite"),
    (lambda doc: doc.update(division_rate={
        "form": "tabulated", "grid": [0.5, math.nan], "values": [1.0, 1.0]}),
     "grid must be finite"),
    (lambda doc: doc.update(division_rate={
        "form": "tabulated", "grid": [0.5, 4.0], "values": [1.0, math.inf]}),
     "values must be finite"),
    (lambda doc: doc.update(growth_kernel={
        "form": "independent_resample", "grid": [0.2, 3.0],
        "density": [1.0, math.nan]}), "density must be finite"),
    (lambda doc: doc["growth_kernel"].update(form="laplace"),
     "unknown growth kernel form"),
    # every rate and growth-kernel form refuses a key it does not take
    *[(lambda doc, part=part, fields=fields: doc.update(
        {part: {**fields, "junk": 3}}), "junk") for part, fields in [
        ("division_rate", {"form": "power_law", "coefficient": 1.0,
                           "exponent": 2.0}),
        ("division_rate", {"form": "tabulated", "grid": [0.5, 4.0],
                           "values": [1.0, 2.0]}),
        ("growth_kernel", {"form": "dirac", "value": 1.0}),
        ("growth_kernel", {"form": "uniform_increment"}),
        ("growth_kernel", {"form": "gaussian_increment", "std": 0.5}),
        ("growth_kernel", {"form": "independent_resample",
                           "grid": [0.2, 3.0], "density": [1.0, 1.0]})]],
    # so does every level of the initial law and the file itself: a typo
    # in a form or a key is never read as a default
    (lambda doc: doc["initial"].update(growth={"form": "piont",
                                               "value": 1.0}), "'piont'"),
    *[(lambda doc, growth=growth: doc["initial"].update(
        growth={**growth, "junk": 3}), "'junk'") for growth in [
        {"form": "point", "value": 1.0}, {"form": "uniform"},
        {"form": "uniform", "low": 0.5, "high": 2.0}]],
    (lambda doc: doc["initial"]["size"].update(junk=3), "'junk'"),
    (lambda doc: doc["initial"].update(junk=3), "'junk'"),
    (lambda doc: doc.update(junk=3), "'junk'"),
], ids=["point-band", "unknown-rate", "missing-field",
        "resample-density-off-band", "nan-coefficient", "inf-exponent",
        "nan-grid", "inf-values", "nan-density", "unknown-kernel",
        "junk-power_law", "junk-tabulated", "junk-dirac",
        "junk-uniform_increment", "junk-gaussian_increment",
        "junk-independent_resample", "unknown-initial-growth",
        "junk-point", "junk-uniform", "junk-uniform-band",
        "junk-initial-size", "junk-initial", "junk-top-level"])
def test_bad_model_file_is_usage_error(tmp_path, capsys, edit, message):
    doc = json.loads(reference_model().to_json())
    edit(doc)
    model = tmp_path / "model.json"
    model.write_text(json.dumps(doc))
    out = tmp_path / "out"
    start = time.perf_counter()
    assert run(["simulate", "--scheme", "full", "--generations", 3,
                "--model", model, "--out", out]) == 2
    assert time.perf_counter() - start < 5.0
    err = capsys.readouterr().err
    assert "bad model file" in err and message in err
    assert not out.exists()


def test_invalid_json_model_file_is_usage_error(tmp_path, capsys):
    model = tmp_path / "model.json"
    model.write_text('{"bounds": {"e_min": 0.2,')
    out = tmp_path / "out"
    assert run(["simulate", "--scheme", "full", "--generations", 3,
                "--model", model, "--out", out]) == 2
    assert "bad model file" in capsys.readouterr().err
    assert not out.exists()


def test_pde_check(tmp_path):
    assert run(["pde-check", "--b", "x^2", "--tau", 1, "--grid-dx", 5e-3,
                "--out", tmp_path, "--no-timestamp"]) == 0
    doc = json.loads((tmp_path / "pde_check.json").read_text())
    assert doc["pass"] is True
    assert doc["verdicts"]["steady_state_relation_l2_error"]["value"] < 0.02
    for name in ("invariant_density.tsv", "pde_steady_state.tsv",
                 "reconstructed_rate.tsv"):
        assert (tmp_path / name).exists()


def test_pde_check_no_convergence_is_runtime_error(tmp_path, monkeypatch):
    def never_converges(*args, **kwargs):
        return solve_conservative_pde(*args, **kwargs, stop_rate=0.0)

    monkeypatch.setattr(gftree.cli, "solve_conservative_pde", never_converges)
    assert run(["pde-check", "--grid-dx", 1e-2, "--out", tmp_path,
                "--no-timestamp"]) == 3


def test_pde_check_march_reaches_the_direct_steady_state(tmp_path):
    # --t-end marches the matrix that the steady-state route factors
    codes, profiles = [], []
    for extra in ([], ["--t-end", 300]):
        out = tmp_path / f"run{len(codes)}"
        codes.append(run(["pde-check", "--grid-dx", 1e-2, *extra,
                          "--out", out, "--no-timestamp"]))
        doc = json.loads((out / "pde_check.json").read_text())
        assert doc["verdicts"]["pde_converged"]["pass"]
        profiles.append(np.loadtxt(out / "pde_steady_state.tsv",
                                   skiprows=1)[:, 1])
    assert codes[0] == codes[1]
    assert np.max(np.abs(profiles[0] - profiles[1])) <= 1e-8


@pytest.mark.parametrize("argv, flag", [
    (["pde-check", "--cfl", 0, "--t-end", 1], "--cfl"),
    (["pde-check", "--cfl", 1.5, "--t-end", 1], "--cfl"),
    (["pde-check", "--tau", 0], "--tau"),
    (["pde-check", "--tau", "nan"], "--tau"),
    (["pde-check", "--grid-dx", 0], "--grid-dx"),
    (["pde-check", "--grid-dx", -0.01], "--grid-dx"),
    (["pde-check", "--grid-dx", 5], "--grid-dx"),
    (["pde-check", "--grid-xmax", "inf"], "--grid-xmax"),
    (["pde-check", "--t-end", "nan"], "--t-end"),
    (["pde-check", "--t-end", -1], "--t-end"),
    (["pde-check", "--b", "x^-1"], "--b"),
    (["simulate", "--b", "x^-1", "--scheme", "full", "--generations", 2],
     "--b"),
    (["pde-check", "--check-lo", 3, "--check-hi", 1], "--check-hi"),
    (["pde-check", "--check-lo", 2, "--check-hi", 2], "--check-hi"),
    (["pde-check", "--check-lo", "nan"], "--check-lo"),
    (["pde-check", "--check-lo", -1], "--check-lo"),
    (["study", "--sizes", ","], "--sizes"),
    (["study", "--sizes=-1", "--bandwidth", 0.5, "--threshold", 0.1,
      "--grid-dx", 0.1], "--sizes"),
    (["study", "--band-size", -1], "--band-size"),
    # the bandwidth and threshold rules need n >= 2 cells
    (["study", "--sizes", 0], "--sizes"),
    (["study", "--sizes", 1], "--sizes"),
    (["study", "--band-size", 1], "--band-size"),
    (["simulate", "--scheme", "full", "--generations", -1], "--generations"),
    (["simulate", "--scheme", "sparse", "--length", 0], "--length"),
    (["verify", "--class-check", "--replicates", 1], "--replicates"),
    (["simulate", "--scheme", "full", "--generations", 1, "--workers", 0],
     "--workers"),
    (["study", "--workers", -3], "--workers"),
    (["simulate", "--scheme", "full"], "--generations"),
    # the model's growth band and initial sizes
    (["simulate", "--scheme", "full", "--generations", 2, "--e-min", 0],
     "--e-min"),
    (["study", "--e-min", 2, "--e-max", 1], "--e-min"),
    (["verify", "--class-check", "--e-min", "nan"], "--e-min"),
    (["verify", "--many-to-one", "--e-max", "inf"], "--e-max"),
    (["study", "--init-low", -1], "--init-low"),
    (["simulate", "--scheme", "sparse", "--length", 3, "--init-low", 3,
      "--init-high", 1], "--init-low"),
    # the size kernel diverges at the origin for an exponent below 1
    (["pde-check", "--b", "x^0.5"], "--b"),
    (["pde-check", "--b", "x^0.99"], "--b"),
    # a third number after ALPHA,RMS
    (["simulate", "--rho", "uniform-increment:2,0.5,9", "--scheme", "full",
      "--generations", 2], "--rho"),
    # the flux identity needs some y in [0.5, 2.5] with 2y on the grid
    (["pde-check", "--grid-xmax", 0.8, "--check-lo", 0.1, "--check-hi", 0.3],
     "--grid-xmax"),
    # a repeated size would be counted twice
    (["study", "--sizes", "5,5"], "--sizes"),
    (["study", "--sizes", "5,6,6"], "--sizes"),
])
def test_bad_pde_check_and_rate_flags_are_usage_errors(tmp_path, capsys,
                                                       argv, flag):
    out = tmp_path / "out"
    assert run([*argv, "--out", out]) == 2
    assert flag in capsys.readouterr().err
    assert not out.exists()


def _run_python(code, *args):
    src = str(Path(gftree.__file__).resolve().parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(
                   [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    subprocess.run([sys.executable, "-c", code, *map(str, args)], env=env,
                   check=True)


NO_SCIPY = "assert not [m for m in sys.modules if m.split('.')[0] == 'scipy']"


def test_cli_import_leaves_scipy_sparse_unloaded():
    # scipy is imported lazily, only by the Gaussian growth kernel
    # (scipy.special); loading it with the CLI would add 0.1-0.3 s to every
    # command's start-up.  The study process pool is imported only when
    # study runs with --workers > 1, which keeps about 2 MB of
    # multiprocessing out of every command.
    _run_python("import sys, gftree.cli; " + NO_SCIPY + "; "
                "assert 'multiprocessing' not in sys.modules; "
                "assert 'concurrent.futures.process' not in sys.modules")


def test_pde_check_leaves_scipy_unloaded(tmp_path):
    # the steady state is an O(m) numpy solve, so pde-check needs none of
    # scipy.sparse's 0.3 s and 31 MB of imports
    _run_python("import sys; from gftree import cli; "
                "assert cli.main(['pde-check', '--out', sys.argv[1]]) == 0; "
                + NO_SCIPY, tmp_path / "out")


def test_ingest_cli(tmp_path):
    src = tmp_path / "cells.csv"
    src.write_text("len_birth,alpha,dt,lineage_id\n"
                   + "\n".join(f"{1.0 + 0.01 * k},1.0,0.5,L{k % 3}"
                               for k in range(300)) + "\n")
    out = tmp_path / "out"
    assert run(["ingest", "--input", src,
                "--map", "size_birth=len_birth,growth_rate=alpha,lifetime=dt",
                "--drop-first", 1, "--out", out, "--no-timestamp"]) == 0
    doc = json.loads((out / "ingest.json").read_text())
    assert doc["ingest"]["accepted"] == 297
    assert doc["ingest"]["lineages"] == 3
    assert (out / "estimate.tsv").exists()
    assert (out / "density.tsv").exists()


def test_ingest_bad_map_is_usage_error(tmp_path):
    src = tmp_path / "cells.csv"
    src.write_text("a,b,c\n1,1,1\n")
    assert run(["ingest", "--input", src, "--map", "oops",
                "--out", tmp_path]) == 2


def test_ingest_missing_columns_is_usage_error(tmp_path, capsys):
    src = tmp_path / "cells.csv"
    src.write_text("size_birth,growth_rate\n1.0,1.0\n2.0,1.0\n")
    out = tmp_path / "out"
    assert run(["ingest", "--input", src, "--out", out]) == 2
    assert "missing columns" in capsys.readouterr().err
    assert not out.exists()


def test_ingest_unknown_map_field_is_usage_error(tmp_path, capsys):
    src = tmp_path / "cells.csv"
    src.write_text("size_birth,growth_rate,lifetime,birth_time\n"
                   "1.0,1.0,0.5,0.0\n2.0,1.0,0.5,0.5\n")
    out = tmp_path / "out"
    assert run(["ingest", "--input", src, "--map", "sizebirth=birth_time",
                "--out", out]) == 2
    err = capsys.readouterr().err
    assert "'sizebirth'" in err
    assert "size_birth, growth_rate, lifetime" in err
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--drop-first", "--drop-last"])
def test_ingest_negative_drop_is_usage_error(tmp_path, capsys, flag):
    src = tmp_path / "cells.csv"
    src.write_text("size_birth,growth_rate,lifetime\n"
                   + "".join(f"{1 + k},1.0,0.5\n" for k in range(4)))
    out = tmp_path / "out"
    assert run(["ingest", "--input", src, flag, "-1", "--out", out]) == 2
    assert flag in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# Exit codes of the typed errors
# ---------------------------------------------------------------------------

def _write(path, text):
    path.write_text(text)
    return path


def _schema_error(tmp_path, monkeypatch):
    return ["ingest", "--input", _write(tmp_path / "cells.csv",
                                        "size_birth,growth_rate\n1.0,1.0\n")]


def _empty_after_filtering(tmp_path, monkeypatch):
    return ["ingest", "--input", _write(
        tmp_path / "cells.csv",
        "size_birth,growth_rate,lifetime\n1.0,-1.0,0.5\n0.0,1.0,0.5\n")]


def _quadrature_overflow(tmp_path, monkeypatch):
    return ["verify", "--drift"]  # the reference band is too wide


def _non_divergent_hazard(tmp_path, monkeypatch):
    model = json.loads(reference_model("dirac").to_json())
    model["division_rate"] = {"form": "tabulated", "grid": [0.5, 4.0],
                              "values": [0.0, 0.0]}
    path = _write(tmp_path / "model.json", json.dumps(model))
    return ["simulate", "--model", path, "--scheme", "full",
            "--generations", 2]


def _no_convergence(tmp_path, monkeypatch):
    monkeypatch.setattr(gftree.cli, "solve_conservative_pde",
                        functools.partial(solve_conservative_pde,
                                          stop_rate=0.0))
    return ["pde-check", "--grid-dx", 1e-2]


def _size_kernel_overflow(tmp_path, monkeypatch):
    return ["pde-check", "--tau", 0.01]  # e^{Phi(x/2)} overflows on [0, 5]


def _degenerate_denominator(tmp_path, monkeypatch):
    # y = 12 lies beyond twice the grid's x_max = 5, where nu carries no mass
    return ["pde-check", "--grid-dx", 1e-2, "--check-hi", 12]


def _forest_too_large(tmp_path, monkeypatch):
    # 100 roots hold ~3,800 live cells at t = 2
    monkeypatch.setattr(gftree.trees, "_MAX_FOREST_CELLS", 1000)
    return ["verify", "--many-to-one", "--t", 2, "--replicates", 100]


def _empty_conditioning_set(tmp_path, monkeypatch):
    return ["study", "--sizes", "5..5", "--replicates", 2, "--band-size", 0,
            "--full-only", "--threshold", 100]


def _one_cell_genealogy(tmp_path, monkeypatch):
    return ["estimate", "--input", _write(
        tmp_path / "genealogy.csv",
        "path,size_birth,growth_rate,lifetime,birth_time\n,1.0,1.0,0.5,0\n")]


def _one_usable_row(tmp_path, monkeypatch):
    return ["ingest", "--input", _write(
        tmp_path / "cells.csv",
        "size_birth,growth_rate,lifetime\n1.0,1.0,0.5\n0.0,1.0,0.5\n")]


def _model_directory(tmp_path, monkeypatch):
    return ["simulate", "--scheme", "full", "--generations", 2,
            "--model", tmp_path]


def _estimate_directory(tmp_path, monkeypatch):
    return ["estimate", "--input", tmp_path]


def _ingest_directory(tmp_path, monkeypatch):
    return ["ingest", "--input", tmp_path]


def _lineage_not_utf8(tmp_path, monkeypatch):
    path = tmp_path / "cells.csv"
    path.write_bytes(b"size_birth,growth_rate,lifetime\n1.0,1.0,0.5\n"
                     b"\xff,1.0,0.5\n")
    return ["ingest", "--input", path]


# error -> (exit code, message fragment, arguments); README "Exit codes"
EXIT_CODES = {
    "SchemaError": (2, "missing columns", _schema_error),
    "QuadratureOverflow": (4, "drift: FAIL", _quadrature_overflow),
    "NonDivergentHazard": (3, "cumulative hazard", _non_divergent_hazard),
    "NoConvergence": (3, "last residual", _no_convergence),
    "NoConvergence-overflow": (3, "size kernel overflows",
                               _size_kernel_overflow),
    "DegenerateDenominator": (3, "invariant mass vanishes",
                              _degenerate_denominator),
    "EmptyConditioningSet": (3, "n = 32", _empty_conditioning_set),
    "EmptyAfterFiltering": (3, "no usable rows", _empty_after_filtering),
    "ForestTooLarge": (3, "lower --t", _forest_too_large),
    # the bandwidth and threshold rules need n >= 2 cells, as in study
    "UsageError-one-cell": (2, "--input at n = 1", _one_cell_genealogy),
    "UsageError-one-row": (2, "--input at n = 1", _one_usable_row),
    "UsageError-not-utf8": (2, "can't decode", _lineage_not_utf8),
    # a directory is not an input file: refused, naming its flag
    "UsageError-model-directory": (2, "--model not a file", _model_directory),
    "UsageError-estimate-directory": (2, "--input not a file",
                                      _estimate_directory),
    "UsageError-ingest-directory": (2, "--input not a file",
                                    _ingest_directory),
}


@pytest.mark.parametrize("error", list(EXIT_CODES))
def test_typed_errors_reach_their_exit_codes(tmp_path, monkeypatch, capsys,
                                             error):
    code, message, arguments = EXIT_CODES[error]
    argv = arguments(tmp_path, monkeypatch)
    assert run([*argv, "--out", tmp_path / "out", "--no-timestamp"]) == code
    assert message in "".join(capsys.readouterr())
