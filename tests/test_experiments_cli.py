"""Tests for the experiment harness and the command line front end."""

import csv
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import roma
import roma.experiments as ex
from roma.cli import main
from roma.data import Label, load_csv_matrix
from roma.errors import ValidationError
from roma.synth import (BoundedConeOutliers, ClusteredOutliers, SynthSpec,
                        UnstructuredOutliers, export_dataset, make_dataset,
                        spec_to_dict)


def tiny(experiment, **overrides):
    kw = dict(n=30, trials=3, seed=11)
    if experiment in ("validate-threshold", "oip-erp"):  # the ones that read them
        kw.update(rank=3, num_points=40)
    kw.update(overrides)
    return ex.default_config(experiment).replace(**kw)


def rows_sans_time(result):
    rows = []
    for row in ex.result_rows(result):
        row = dict(row)
        for key in ("wall_time_s", "gen_s", "detect_s"):
            row.pop(key, None)
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# the six runners


def test_validate_threshold_tiny():
    cfg = tiny("validate-threshold", gamma_grid=(0.2, 0.5))
    result = ex.run_experiment(cfg)
    assert ex.audit(result)
    assert len(result.records) == 2 * cfg.trials
    assert len(result.summary) == 2
    for row in result.summary:
        assert row["trials"] == cfg.trials
        assert 0.0 <= row["holds_fraction"] <= 1.0
        assert row["mean_min_outlier_q"] > 0.0
        assert 0.0 < row["zeta"] < np.pi / 2


@pytest.mark.filterwarnings("ignore:Gaussian angle surrogate")
def test_oip_erp_tiny():
    cfg = tiny("oip-erp", gamma_grid=(0.2,), snr_grid=(20.0,), trials=4)
    result = ex.run_experiment(cfg)
    assert ex.audit(result)
    (row,) = result.summary
    assert row["trials"] == 4
    assert 0.0 <= row["alpha_oip"] <= 1.0
    # the observed rate, and N_I times the pooled inlier exceedance rate
    trials = [rec.row() for rec in result.records]
    recovered = sum(t["erp_success"] for t in trials)
    assert row["alpha_erp"] == 1.0 - recovered / len(trials)
    exceed = sum(t["inlier_exceed"] for t in trials)
    seen = sum(t["num_true_inliers"] for t in trials)
    assert row["erp_union_alpha"] == trials[0]["num_true_inliers"] * (exceed / seen)
    assert row["theory_oip_alpha"] == 1.0 / cfg.num_points
    # the impossibility bound may be vacuous (negative) at tiny sizes
    assert row["theory_erp_alpha_lower"] <= 1.0


def test_phase_inliers_tiny():
    cfg = tiny("phase-inliers", num_points=50, ratio_grid=(0.1,),
               inlier_grid=(20, 40), trials=2)
    result = ex.run_experiment(cfg)
    assert ex.audit(result)
    assert [row["rank"] for row in result.summary] == [3, 3]
    for row in result.summary:
        assert 0.0 <= row["mean_inlier_recovery"] <= 1.0


def test_phase_inliers_guards():
    with pytest.raises(ValidationError):
        ex.run_experiment(tiny("phase-inliers", ratio_grid=(0.05,)))  # rank 2
    with pytest.raises(ValidationError):
        ex.run_experiment(tiny("phase-inliers", num_points=50,
                               ratio_grid=(0.1,), inlier_grid=(50,)))


def test_phase_recovery_tiny():
    cfg = tiny("phase-recovery", n=20, rank=4, inlier_grid=(30,),
               outlier_grid=(10,), trials=2)
    result = ex.run_experiment(cfg)
    assert ex.audit(result)
    (row,) = result.summary
    # noiseless, well separated: recovery is clean
    assert row["recovered_fraction"] == 1.0
    assert row["mean_lre"] < ex.RECOVERY_CUTOFF


def test_structured_tiny():
    cfg = tiny("structured", n=30, rank=4, mu_grid=(0.2,),
               split_grid=((40, 20),), trials=2, snr_db=None)
    result = ex.run_experiment(cfg)
    assert ex.audit(result)
    (row,) = result.summary
    assert row["recovered_fraction"] == 1.0
    assert row["exact_fraction"] == 1.0
    assert {"mu", "num_inliers", "num_structured"} <= set(row)


def test_mixed_tiny():
    cfg = tiny("mixed", n=30, rank=4, num_inliers=40, outlier_grid=(10,),
               trials=3)
    result = ex.run_experiment(cfg)
    assert ex.audit(result)
    for rec in result.records:
        assert 0 <= rec.metrics["num_structured"] <= 10
    (row,) = result.summary
    assert 0.0 <= row["recovered_fraction"] <= 1.0


def test_mixed_reads_snr_db(monkeypatch):
    built = []

    def recording(spec):
        built.append(make_dataset(spec))
        return built[-1]

    monkeypatch.setattr(ex, "make_dataset", recording)
    cfg = tiny("mixed", n=30, rank=4, num_inliers=40, outlier_grid=(10,),
               trials=1)
    ex.run_experiment(cfg)
    ex.run_experiment(cfg.replace(snr_db=0.0))
    clean, noisy = built
    assert clean.sigma is None and noisy.sigma > 0.0
    assert np.array_equal(noisy.matrix.labels, clean.matrix.labels)
    assert not np.array_equal(noisy.matrix.values, clean.matrix.values)


@pytest.mark.parametrize("experiment", ex.EXPERIMENTS)
@pytest.mark.parametrize("trials", [0, -1])
def test_runs_need_a_trial(experiment, trials):
    with pytest.raises(ValidationError, match="trials"):
        ex.run_experiment(tiny(experiment, trials=trials))


@pytest.mark.parametrize("experiment, field, value", [
    ("phase-recovery", "outlier_model", "clustered"),
    ("phase-recovery", "mu", 0.01),
    ("validate-threshold", "stage", "roma-n"),
    ("validate-threshold", "rank_disambiguate", True),
    ("oip-erp", "snr_db", None),
    ("mixed", "num_points", 40),
])
def test_fields_an_experiment_does_not_read_must_keep_its_defaults(
        experiment, field, value):
    with pytest.raises(ValidationError, match=field):
        ex.run_experiment(tiny(experiment, trials=1, **{field: value}))


# _outlier_model reads mu for clustered outliers and theta_max for a cone
_MODEL_FIELDS = pytest.mark.parametrize("experiment, fields, unread", [
    ("validate-threshold", {"mu": 0.7}, "mu"),
    ("oip-erp", {"theta_max": 0.5}, "theta_max"),
    ("oip-erp", {"outlier_model": "clustered", "theta_max": 0.5}, "theta_max"),
    ("validate-threshold", {"outlier_model": "clustered", "mu": 0.7}, None),
], ids=["threshold-mu", "erp-theta-max", "erp-clustered-theta-max", "clustered-mu"])


@_MODEL_FIELDS
def test_only_the_chosen_outlier_models_field_is_read(experiment, fields, unread):
    cfg = tiny(experiment, trials=1, **fields)
    if unread is None:
        assert ex.audit(ex.run_experiment(cfg))
        return
    with pytest.raises(ValidationError, match=f"does not read {unread};"):
        ex.run_experiment(cfg)


@_MODEL_FIELDS
def test_cli_exit_2_on_a_field_the_outlier_model_does_not_read(
        experiment, fields, unread, capsys):
    argv = ["--experiment", experiment, "--trials", "1", "--num-points", "200",
            "--gamma-grid", "0.15"]
    argv += ["--snr-grid", "20"] if experiment == "oip-erp" else []
    for key, value in fields.items():
        argv += [f"--{key.replace('_', '-')}", str(value)]
    assert main(argv) == (0 if unread is None else 2)
    if unread is not None:
        assert f"does not read {unread};" in capsys.readouterr().err


@pytest.mark.parametrize("experiment", ["structured", "mixed"])
def test_rank_disambiguate_is_unread_at_stage_roma(experiment):
    # _detect reads rank_disambiguate only for roma-n
    cfg = tiny(experiment, trials=1, stage="roma", rank_disambiguate=True)
    with pytest.raises(ValidationError, match="does not read rank_disambiguate"):
        ex.run_experiment(cfg)
    assert ex.audit(ex.run_experiment(cfg.replace(rank_disambiguate=False)))


def test_gamma_experiments_draw_clustered_outliers():
    cfg = tiny("validate-threshold", gamma_grid=(0.3,), trials=1,
               outlier_model="clustered", mu=0.05)
    (rec,) = ex.run_experiment(cfg).records
    spec = ex._gamma_spec(cfg, rec.cell, rec.seed)
    assert spec.outlier_model == ClusteredOutliers(mu=0.05)
    assert np.array_equal(rec.labels, make_dataset(spec).matrix.labels)


@pytest.mark.filterwarnings("ignore:Gaussian angle surrogate")
def test_unread_fields_at_their_defaults_are_accepted():
    # the oip-erp trial the benchmark runs sets stage to oip-erp's default
    cfg = tiny("oip-erp", gamma_grid=(0.2,), snr_grid=(20.0,), trials=1,
               stage="roma", mu=0.2, snr_db=20.0)
    assert ex.audit(ex.run_experiment(cfg))


def test_repeated_cells_get_their_own_summaries():
    cfg = tiny("validate-threshold", gamma_grid=(0.3, 0.3), trials=2)
    result = ex.run_experiment(cfg)
    assert [row["trials"] for row in result.summary] == [2, 2]
    assert result.summary[0] != result.summary[1]  # distinct trial seeds


def test_validate_threshold_gamma_guards():
    with pytest.raises(ValidationError):
        ex.run_experiment(tiny("validate-threshold", gamma_grid=(1.0,)))
    with pytest.raises(ValidationError, match="zero outliers"):
        ex.run_experiment(tiny("validate-threshold", gamma_grid=(0.005,),
                               trials=1))


# ---------------------------------------------------------------------------
# determinism


def test_runs_are_deterministic_up_to_wall_time():
    cfg = tiny("validate-threshold", gamma_grid=(0.3,), trials=3)
    assert rows_sans_time(ex.run_experiment(cfg)) == \
        rows_sans_time(ex.run_experiment(cfg))


def test_trial_rows_time_generation_and_detection():
    result = ex.run_experiment(tiny("validate-threshold", gamma_grid=(0.3,), trials=2))
    for row in (rec.row() for rec in result.records):
        assert 0.0 < row["gen_s"] and 0.0 < row["detect_s"]
        assert row["gen_s"] + row["detect_s"] <= row["wall_time_s"]


def test_trial_seeds_are_distinct_and_stable():
    seeds = {ex._trial_seed(1, ci, t) for ci in range(4) for t in range(25)}
    assert len(seeds) == 100
    assert ex._trial_seed(1, 2, 3) == ex._trial_seed(1, 2, 3)
    assert ex._trial_seed(1, 2, 3) != ex._trial_seed(2, 2, 3)


def test_audit_catches_tampered_metrics():
    result = ex.run_experiment(tiny("validate-threshold", gamma_grid=(0.3,),
                                    trials=1))
    result.records[0].metrics["oip_success"] = \
        not result.records[0].metrics["oip_success"]
    with pytest.raises(AssertionError, match="oip_success"):
        ex.audit(result)


# ---------------------------------------------------------------------------
# configs


def test_default_config_per_experiment():
    assert ex.default_config("phase-recovery").rank == 20
    assert ex.default_config("structured").stage == "roma-n"
    assert ex.default_config("validate-threshold").gamma_grid[0] == 0.05
    assert ex.default_config("phase-inliers").snr_db is None
    with pytest.raises(ValidationError):
        ex.default_config("nope")


def test_run_experiment_rejects_unknown_name():
    with pytest.raises(ValidationError):
        ex.run_experiment(ex.ExperimentConfig(experiment="nope"))


@pytest.mark.parametrize("experiment", ["validate-threshold", "oip-erp"])
def test_outlier_model_is_built_from_the_fields_of_its_names(experiment):
    base = ex.default_config(experiment)
    for fields, model in (({}, UnstructuredOutliers()),
                          ({"outlier_model": "clustered", "mu": 0.7},
                           ClusteredOutliers(mu=0.7)),
                          ({"outlier_model": "bounded-cone", "theta_max": 0.5},
                           BoundedConeOutliers(theta_max=0.5))):
        assert ex._outlier_model(base.replace(**fields)) == model
    # the mix of both kinds is the mixed experiment's, not a gamma cell's
    with pytest.raises(ValidationError, match="unknown outlier model 'mixed'"):
        ex._outlier_model(base.replace(outlier_model="mixed"))


def test_config_from_dict():
    cfg = ex.config_from_dict({"experiment": "phase-recovery", "trials": 2,
                               "inlier_grid": [30, 60],
                               "split_grid": [[10, 5], [20, 10]]})
    assert cfg.rank == 20            # experiment defaults applied first
    assert cfg.trials == 2
    assert cfg.inlier_grid == (30, 60)
    assert cfg.split_grid == ((10, 5), (20, 10))
    with pytest.raises(ValidationError, match="unknown config fields"):
        ex.config_from_dict({"experiment": "mixed", "bogus": 1})
    with pytest.raises(ValidationError, match="unknown config fields"):
        ex.config_from_dict({"experiment": "mixed", "workers": 2})
    for name in ({"a": 1}, ["x"], 5):  # not a string, so no experiment's name
        with pytest.raises(ValidationError, match="unknown experiment"):
            ex.config_from_dict({"experiment": name})


def test_config_from_dict_without_an_experiment_is_the_default_ones():
    # one source of defaults: leaving the name out is naming the default
    assert (ex.config_from_dict({"trials": 5})
            == ex.config_from_dict({"experiment": "validate-threshold", "trials": 5}))


# ---------------------------------------------------------------------------
# serialization


def test_result_rows_and_csv_round_trip():
    cfg = tiny("validate-threshold", gamma_grid=(0.3,), trials=2)
    result = ex.run_experiment(cfg)
    rows = ex.result_rows(result)
    kinds = [row["kind"] for row in rows]
    assert kinds == ["trial", "trial", "summary"]
    assert rows[0]["trial"] == 0 and rows[0]["seed"] == result.records[0].seed

    parsed = list(csv.DictReader(io.StringIO(ex.render_csv(result))))
    assert len(parsed) == 3
    assert parsed[0]["kind"] == "trial"
    assert parsed[2]["kind"] == "summary"
    assert parsed[2]["trial"] == ""  # summary rows leave trial fields blank
    assert float(parsed[2]["holds_fraction"]) == result.summary[0]["holds_fraction"]


def test_render_json_shape():
    cfg = tiny("mixed", n=30, rank=4, num_inliers=40, outlier_grid=(8,), trials=1)
    result = ex.run_experiment(cfg)
    payload = json.loads(ex.render_json(result))
    assert payload["experiment"] == "mixed"
    assert payload["config"]["num_inliers"] == 40
    assert len(payload["trials"]) == 1
    assert len(payload["summary"]) == 1


# ---------------------------------------------------------------------------
# command line


@pytest.fixture(scope="module")
def planted(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    ds = make_dataset(SynthSpec(n=40, num_points=60, rank=4, gamma=0.2, seed=3))
    csv_path = root / "pts.csv"
    export_dataset(ds, csv_path, "points-as-columns")
    names = ["outlier" if v == int(Label.OUTLIER) else "inlier"
             for v in ds.matrix.labels]
    labels_path = root / "labels.txt"
    labels_path.write_text("\n".join(names) + "\n")
    return csv_path, labels_path, ds


def test_cli_detect(planted, capsys):
    csv_path, labels_path, ds = planted
    assert main(["--input", str(csv_path), "--labels", str(labels_path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["stage"] == "roma"
    assert report["n"] == 40 and report["num_points"] == 60
    assert sorted(report["outliers"]) == sorted(ds.outlier_indices.tolist())
    assert report["truth"]["oip_success"] and report["truth"]["erp_success"]
    assert report["truth"]["num_true_outliers"] == 12
    assert len(report["scores"]["q"]) == 60
    assert report["scores"]["mean_theta"] is None  # read in the adapted mode only
    assert main(["--input", str(csv_path), "--mode", "adapted"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert 0.0 < report["scores"]["mean_theta"] < np.pi
    assert report["scores"]["mean_theta"] == report["threshold"]["center"]


def test_cli_detect_two_stage_and_recover(planted, capsys):
    csv_path, _, _ = planted
    code = main(["--input", str(csv_path), "--stage", "roma-n", "--recover"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["stage"] == "roma-n"
    stage2 = report["stage2"]
    assert stage2["inlier_head"] != stage2["outlier_head"]
    assert set(stage2) >= {"stage1_outliers", "survivors", "na_survivors",
                           "labels_swapped"}
    assert report["recovered"]["rank"] >= 1
    assert len(report["recovered"]["basis"]) == 40


def test_cli_detect_rows_orientation(tmp_path, capsys):
    ds = make_dataset(SynthSpec(n=40, num_points=60, rank=4, gamma=0.2, seed=3))
    path = tmp_path / "rows.csv"
    export_dataset(ds, path, "points-as-rows")
    assert main(["--input", str(path), "--orientation", "rows"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["num_points"] == 60
    assert sorted(report["outliers"]) == sorted(ds.outlier_indices.tolist())


def test_cli_detect_numeric_labels(planted, tmp_path, capsys):
    csv_path, _, ds = planted
    numeric = tmp_path / "numeric.txt"
    numeric.write_text(",".join(str(int(v)) for v in ds.matrix.labels))
    assert main(["--input", str(csv_path), "--labels", str(numeric)]) == 0
    assert json.loads(capsys.readouterr().out)["truth"]["erp_success"]


def test_cli_detect_labels_with_bom(planted, tmp_path, capsys):
    csv_path, labels_path, _ = planted
    bom = tmp_path / "bom.txt"
    bom.write_text(labels_path.read_text(), encoding="utf-8-sig")
    assert main(["--input", str(csv_path), "--labels", str(bom)]) == 0
    assert json.loads(capsys.readouterr().out)["truth"]["erp_success"]


def test_cli_detect_out_file(planted, tmp_path):
    csv_path, _, _ = planted
    out = tmp_path / "report.json"
    assert main(["--input", str(csv_path), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["num_outliers"] == 12


def test_cli_experiment_csv_and_json(capsys):
    argv = ["--experiment", "validate-threshold", "--gamma-grid", "0.3",
            "--trials", "2", "--n", "30", "--subspace-rank", "3",
            "--num-points", "40", "--seed", "11"]
    assert main(argv) == 0
    table = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert len(table) == 3

    assert main(argv + ["--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["experiment"] == "validate-threshold"
    assert payload["config"]["gamma_grid"] == [0.3]
    assert payload["config"]["trials"] == 2


def test_cli_config_file_and_overrides(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "experiment": "validate-threshold", "n": 30, "rank": 3,
        "num_points": 40, "gamma_grid": [0.3], "trials": 4, "seed": 11}))
    argv = ["--experiment", "validate-threshold", "--config", str(cfg_path),
            "--trials", "1", "--format", "json"]
    assert main(argv) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["config"]["trials"] == 1      # flag beats file
    assert payload["config"]["num_points"] == 40  # file beats default


def test_cli_config_file_with_bom(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "experiment": "validate-threshold", "n": 30, "rank": 3,
        "num_points": 40, "gamma_grid": [0.3], "trials": 1, "seed": 11}),
        encoding="utf-8-sig")
    argv = ["--experiment", "validate-threshold", "--config", str(cfg_path),
            "--format", "json"]
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["config"]["num_points"] == 40


def test_cli_noiseless_flag(capsys):
    argv = ["--experiment", "validate-threshold", "--gamma-grid", "0.3",
            "--trials", "1", "--n", "30", "--subspace-rank", "3",
            "--num-points", "40", "--noiseless", "--format", "json"]
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["config"]["snr_db"] is None


@pytest.mark.parametrize("argv", [
    [],                                            # detect without --input
    ["--input", "/no/such/file.csv"],
    ["--experiment", "mixed", "--config", "/no/such/cfg.json"],
    # noise sigmas of 0 and of infinity
    *(["--experiment", "validate-threshold", f"--snr-db={snr_db}", "--trials", "1",
       "--num-points", "50", "--gamma-grid", "0.2"] for snr_db in ("1e308", "-1e308")),
])
def test_cli_exit_2_on_bad_input(argv, capsys):
    assert main(argv) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("first", ["1", '"1"'])
def test_cli_exit_2_on_a_field_over_the_csv_limit(tmp_path, capsys, first):
    # a quote-free file is split by str.split, one with a '"' by csv.reader
    path = tmp_path / "long.csv"
    path.write_text(f"{first},2,3\n4,5,{'0' * 200000}1\n7,8,9\n")
    assert main(["--input", str(path)]) == 2
    err = capsys.readouterr().err
    assert "field larger than field limit" in err and "(row 2)" in err


def test_cli_exit_2_on_config_conflicts(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"experiment": "mixed"}))
    argv = ["--experiment", "structured", "--config", str(bad)]
    assert main(argv) == 2
    assert "conflicts" in capsys.readouterr().err

    bad.write_text(json.dumps([1, 2, 3]))
    assert main(["--experiment", "mixed", "--config", str(bad)]) == 2

    bad.write_text(json.dumps({"experiment": "mixed", "bogus": 1}))
    assert main(["--experiment", "mixed", "--config", str(bad)]) == 2


@pytest.mark.parametrize("experiment, fields, message", [
    ("validate-threshold", {"num_points": 40, "outlier_model": "bogus"},
     "unknown outlier model 'bogus'"),
    ("validate-threshold", {"num_points": 40, "outlier_model": "bounded-cone"},
     "theta_max must be a finite real, got None"),
    ("structured", {"split_grid": [[20, 10]], "stage": "bogus"},
     "stage must be 'roma' or 'roma-n', got 'bogus'"),
], ids=["outlier-model", "cone-without-theta-max", "stage"])
def test_cli_exit_2_on_a_bad_config_value(tmp_path, capsys, experiment, fields, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 30, "rank": 3, "trials": 1, **fields}))
    assert main(["--experiment", experiment, "--config", str(cfg)]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("experiment, field, value, message", [
    ("validate-threshold", "trials", "5", "trials must be an integer, got '5'"),
    ("validate-threshold", "trials", 2.5, "trials must be an integer, got 2.5"),
    ("validate-threshold", "trials", True, "trials must be an integer, got True"),
    ("validate-threshold", "gamma_grid", 0.3, "gamma_grid must be a list, got 0.3"),
    ("validate-threshold", "gamma_grid", ("a",),
     "gamma_grid[0] must be a finite real, got 'a'"),
    ("validate-threshold", "mu", math.inf, "mu must be a finite real, got inf"),
    ("validate-threshold", "theta_max", "1", "theta_max must be a finite real, got '1'"),
    ("validate-threshold", "mode", 1, "mode must be a str, got 1"),
    ("structured", "rank_disambiguate", "no", "rank_disambiguate must be a bool, got 'no'"),
    ("structured", "split_grid", ((20, 10, 5),),
     "split_grid[0] must hold 2 values, got (20, 10, 5)"),
    ("structured", "split_grid", ((20.5, 10),),
     "split_grid[0][0] must be an integer, got 20.5"),
    ("phase-recovery", "inlier_grid", (30.0,),
     "inlier_grid[0] must be an integer, got 30.0"),
    ("validate-threshold", "gamma_grid", (), "gamma_grid must not be empty"),
    ("oip-erp", "snr_grid", (), "snr_grid must not be empty"),
    ("structured", "split_grid", (), "split_grid must not be empty"),
], ids=["trials-str", "trials-real", "trials-bool", "grid-scalar", "grid-str", "mu-inf",
        "theta-max-str", "mode-int", "rank-disambiguate-str", "split-triple",
        "split-real", "inlier-grid-real", "gamma-grid-empty", "snr-grid-empty",
        "split-grid-empty"])
def test_a_config_field_of_the_wrong_type_is_refused(
        tmp_path, capsys, experiment, field, value, message):
    # JSON writes the tuples as lists, and the config reads them back
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({field: value}))
    assert main(["--experiment", experiment, "--config", str(cfg)]) == 2
    assert message in capsys.readouterr().err
    with pytest.raises(ValidationError, match=re.escape(message)):
        ex.run_experiment(ex.default_config(experiment).replace(**{field: value}))


@pytest.mark.parametrize("experiment", ex.EXPERIMENTS)
@pytest.mark.parametrize("seed", [-1, 2 ** 64])
def test_a_seed_out_of_range_is_refused_before_any_cell(experiment, seed, capsys, monkeypatch):
    message = f"seed must be a 64-bit unsigned integer, got {seed}"
    assert main(["--experiment", experiment, "--seed", str(seed), "--trials", "1"]) == 2
    assert message in capsys.readouterr().err
    monkeypatch.setattr(ex, "_run_cells", lambda cfg, exp: pytest.fail("ran cells"))
    with pytest.raises(ValidationError, match=re.escape(message)):
        ex.run_experiment(ex.default_config(experiment).replace(seed=seed))


@pytest.mark.parametrize("experiment, fields, message", [
    ("structured", {"stage": "x"}, "stage must be 'roma' or 'roma-n', got 'x'"),
    ("oip-erp", {"mode": "x"}, "mode must be one of ('theoretical', 'adapted'), got 'x'"),
    ("oip-erp", {"stage": "x"}, "oip-erp does not read stage"),
], ids=["stage", "mode", "unread-stage"])
def test_a_bad_mode_or_stage_is_refused_before_any_cell(experiment, fields, message,
                                                       monkeypatch):
    monkeypatch.setattr(ex, "_run_cells", lambda cfg, exp: pytest.fail("ran cells"))
    with pytest.raises(ValidationError, match=re.escape(message)):
        ex.run_experiment(ex.default_config(experiment).replace(**fields))


def test_cli_exit_2_on_bad_labels(planted, tmp_path, capsys):
    csv_path, labels_path, _ = planted
    bad = tmp_path / "labels.txt"
    bad.write_text(labels_path.read_text() + "inlier\n")
    assert main(["--input", str(csv_path), "--labels", str(bad)]) == 2
    assert "got 61 labels for 60 points" in capsys.readouterr().err
    bad.write_text(labels_path.read_text().replace("inlier", "maybe", 1))
    assert main(["--input", str(csv_path), "--labels", str(bad)]) == 2
    assert "unrecognized label 'maybe'" in capsys.readouterr().err


def test_cli_exit_2_on_a_file_that_is_not_utf8(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_bytes(b"1,2,3\n4,5,6\n7,\xff8,9\n")
    assert main(["--input", str(path)]) == 2
    assert "not UTF-8 text (row 3)" in capsys.readouterr().err


@pytest.mark.parametrize("experiment", ["oip-erp", "validate-threshold", "mixed"])
def test_cli_exit_2_on_zero_trials(experiment, capsys):
    assert main(["--experiment", experiment, "--trials", "0"]) == 2
    assert "trials must be at least 1" in capsys.readouterr().err


def test_cli_exit_2_on_a_field_the_experiment_does_not_read(capsys):
    argv = ["--experiment", "validate-threshold", "--stage", "roma-n",
            "--trials", "1"]
    assert main(argv) == 2
    assert "does not read stage" in capsys.readouterr().err


@pytest.mark.parametrize("argv, unread", [
    (["--experiment", "validate-threshold", "--rank", "7"], "--rank"),
    (["--experiment", "mixed", "--orientation", "rows"], "--orientation"),
    (["--input", "d.csv", "--n", "30", "--format", "json", "--trials", "5"],
     "--format, --trials, --n"),
    (["--input", "d.csv", "--noiseless"], "--noiseless"),
], ids=["experiment-rank", "experiment-orientation", "detect-n-format-trials",
        "detect-noiseless"])
def test_cli_exit_2_on_a_flag_the_job_does_not_read(argv, unread, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"does not read {unread}" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["--input", "d.csv", "--rank", "5"], "--rank needs --recover"),
    (["--input", "d.csv", "--rank-disambiguate"],
     "--rank-disambiguate needs --stage roma-n"),
    (["--input", "d.csv", "--stage", "roma", "--rank-disambiguate", "--recover"],
     "--rank-disambiguate needs --stage roma-n"),
], ids=["rank-without-recover", "disambiguate-default-stage",
        "disambiguate-stage-roma"])
def test_cli_exit_2_on_a_detect_flag_the_run_does_not_read(argv, message, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


def test_cli_exit_2_on_rank_disambiguate_when_an_experiment_runs_stage_roma(capsys):
    argv = ["--experiment", "structured", "--stage", "roma", "--rank-disambiguate",
            "--trials", "1"]
    assert main(argv) == 2
    assert "does not read rank_disambiguate" in capsys.readouterr().err


def test_cli_exit_3_on_infeasible_generator(capsys):
    argv = ["--experiment", "validate-threshold", "--gamma-grid", "0.5",
            "--trials", "1", "--num-points", "40", "--outlier-model",
            "bounded-cone", "--theta-max", "0.05"]
    assert main(argv) == 3
    assert "error:" in capsys.readouterr().err


def test_make_benchmark_script(tmp_path):
    script = Path(__file__).resolve().parents[1] / "scripts" / "make_benchmark.py"
    out = tmp_path / "bench.csv"
    src = os.path.dirname(os.path.dirname(roma.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    argv = [sys.executable, str(script), "--n", "12", "--rank", "3", "--num-points", "40",
            "--gamma", "0.25", "--snr-db", "30", "--seed", "4", "--out", str(out)]
    proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "subspace LRE" in proc.stdout
    with open(str(out) + ".json") as fh:
        side = json.load(fh)
    spec = SynthSpec(n=12, num_points=40, rank=3, gamma=0.25, seed=4, snr_db=30.0)
    assert side["spec"] == spec_to_dict(spec)
    ds = make_dataset(spec)
    assert side["labels"] == [Label(v).name.lower() for v in ds.matrix.labels]
    assert side["sigma"] == ds.sigma
    assert side["true_basis"] == ds.matrix.true_basis.tolist()
    loaded = load_csv_matrix(out, orientation="points-as-columns")
    assert np.array_equal(loaded.values, ds.matrix.values)
    # the CLI reads the file as written and flags the points the script scores
    report = tmp_path / "report.json"
    assert main(["--input", str(out), "--out", str(report)]) == 0
    flagged = json.loads(report.read_text())["outliers"]
    assert flagged == roma.roma(ds.matrix).partition.outliers.tolist()
