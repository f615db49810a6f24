"""Tests of the benchmark itself, at tiny sizes.

Run from the repository root:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run

run.load_roma()

import roma  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

TINY = {"detect-large": dict(n=20, num_points=300, rank=3),
        "mc-trials": dict(n=20, num_points=200, rank=5),
        "cli-csv": dict(n=20, num_points=300, rank=3)}
SECONDS = 0.3
SEED = 3


def tiny_run(name: str, trace: bool = False, seed: int = SEED) -> dict:
    return run.run(name, seed, SECONDS, trace, sizes=TINY[name])


def test_names_match_benchmark_json():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == list(run.PER_LAYER)
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert m["unit"] == run.unit(m["name"])
    assert workloads.McTrials.digest_ops <= run.MIN_OPS


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(TINY))
def test_every_metric_present_and_ops_correct(name, trace):
    result = tiny_run(name, trace)
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert set(result["metrics"]) == set(expected)
    assert all(math.isfinite(v) for v in result["metrics"].values())
    assert result["attempted"] >= run.MIN_OPS
    assert result["failed"] == 0


@pytest.mark.parametrize("name", sorted(TINY))
def test_digests_repeat_for_a_seed(name):
    first, again = tiny_run(name), tiny_run(name)
    assert first["digest"] == again["digest"]
    assert tiny_run(name, seed=SEED + 1)["digest"]["data"] != first["digest"]["data"]


@pytest.mark.parametrize("name", sorted(TINY))
def test_wrong_partition_counts_as_failed(name):
    original = roma.detector.roma

    def flip_one(*args, **kwargs):
        res = original(*args, **kwargs)
        p = res.partition
        part = roma.Partition(inliers=p.inliers[1:],
                              outliers=np.concatenate([p.outliers, p.inliers[:1]]),
                              num_points=p.num_points)
        return dataclasses.replace(res, partition=part)

    undo = tracer.rebind(original, flip_one)
    try:
        result = tiny_run(name)
    finally:
        for namespace, attr in undo:
            setattr(namespace, attr, original)
    assert result["failed"] > 0


@pytest.mark.parametrize("name", sorted(TINY))
def test_self_times_account_for_traced_wall(name):
    result = tiny_run(name, trace=True)
    acc = result["accounting"]
    assert acc["self_total_s"] <= acc["traced_wall_s"]
    assert acc["self_total_s"] >= 0.95 * acc["traced_wall_s"]
    for layer in run.LAYERS:
        assert result["metrics"][f"{layer}.self_s"] >= 0.0


def test_tracer_wraps_by_name_imports_and_restores_them():
    def bindings():
        return {(mod.__name__, attr): value for mod in tracer.package_modules()
                for attr, value in vars(mod).items() if callable(value)}

    matrix = roma.make_dataset(roma.SynthSpec(n=20, num_points=60, rank=3, gamma=0.2,
                                              seed=0)).matrix
    before = bindings()
    inits = {cls: cls.__init__ for cls in (roma.DataMatrix, roma.Partition)}
    tr = tracer.Tracer()
    tr.install()
    try:
        assert roma.detector.roma is not before[("roma.detector", "roma")]
        assert roma.cli.roma is roma.detector.roma is roma.experiments.roma
        assert roma.detector.acute_table_with_signs is roma.angles.acute_table_with_signs
        assert roma.threshold.normal_quantile is roma.statcore.normal_quantile
        roma.roma_n(matrix)
    finally:
        tr.uninstall()
    assert bindings() == before
    assert {cls: cls.__init__ for cls in inits} == inits
    spans = tr.take()
    names = {(r[tracer.LAYER], r[tracer.NAME]) for r in spans}
    assert {("detector", "roma_n"), ("detector", "roma"), ("angles", "acute_table_with_signs"),
            ("threshold", "zeta_with_center"), ("statcore", "normal_quantile"),
            ("data", "Partition")} <= names
    by_id = {r[tracer.ID]: r for r in spans}
    inner = next(r for r in spans if r[tracer.NAME] == "roma")
    assert by_id[inner[tracer.PARENT]][tracer.NAME] == "roma_n"


def test_runs_fail_without_the_program(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_out", "_work", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "mc-trials",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
