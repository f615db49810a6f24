"""The three benchmark workloads.

Each workload is a closed loop: one operation at a time, the next only
after the last has returned, no threads of the benchmark's own, BLAS at its
default thread count.  A workload object has

- ``setup()``: build the inputs from the seed and run one warm-up operation
  (timed as set-up, repeated by the runner);
- ``op(k)``: operation ``k`` of the timed loop, returning what ``check``
  needs;
- ``check(outputs)``: compare every output against the brute-force
  reference in ``reference.py``, outside the timed loop; returns the number
  of failed operations and a digest of the partitions and generated data;
- ``gram_shape``: the (n, N) of the Gram product the operation is built on.

Sizes default to the benchmark's; the tests pass tiny ones.
"""

from __future__ import annotations

import json
import os

import numpy as np

import reference

import roma
from roma import (ClusteredInliers, ClusteredOutliers, Label, SynthSpec, cli,
                  experiments)

# Library functions are called through the package attribute (roma.make_dataset,
# not a name imported here), so the tracer's and the tests' rebinding reaches
# the benchmark's own calls too.


class DetectLarge:
    """One ``roma(DataMatrix)`` call, theoretical mode, on pre-built data.

    N=5000 takes the full-table path and sets the memory peak; nearly all
    the time is the Gram/arccos kernel in ``angles``.
    """

    name = "detect-large"

    def __init__(self, seed: int, workdir: str, n: int = 100,
                 num_points: int = 5000, rank: int = 10):
        self.spec = SynthSpec(n=n, num_points=num_points, rank=rank, gamma=0.3,
                              seed=seed, snr_db=20.0)
        self.gram_shape = (n, num_points)

    def setup(self) -> None:
        self.matrix = roma.make_dataset(self.spec).matrix
        roma.roma(self.matrix)

    def op(self, k: int):
        return roma.roma(self.matrix).partition.outliers

    def check(self, outputs: list) -> tuple[int, dict]:
        expected = reference.stage1_outliers(self.matrix.values)
        failed = sum(out is None or not np.array_equal(out, expected)
                     for out in outputs)
        return failed, {"data": reference.digest(self.matrix.values, self.matrix.labels),
                        "partitions": reference.digest(
                            outputs[0] if outputs[0] is not None else "")}


class McTrials:
    """One trial of the oip-erp design through ``experiments.run_experiment``.

    The six (SNR, gamma) cells are visited in turn, so every run has the
    same mix; operation k gets its own master seed.  Generating the data is
    part of the trial, as it is for a user running the experiment.
    """

    name = "mc-trials"
    # The digest covers the first ops only, so it does not depend on how many
    # ops a run completes; the runner always completes at least MIN_OPS.
    digest_ops = 10

    def __init__(self, seed: int, workdir: str, n: int = 100,
                 num_points: int = 1000, rank: int = 10):
        self.seed = seed
        self.cells = [(s, g) for s in (20.0, 10.0) for g in (0.15, 0.55, 0.95)]
        self.shape = dict(n=n, num_points=num_points, rank=rank)
        self.gram_shape = (n, num_points)

    def _config(self, k: int):
        snr, gamma = self.cells[k % len(self.cells)]
        return self.base.replace(gamma_grid=(gamma,), snr_grid=(snr,), trials=1,
                                 seed=(self.seed << 32) | k)

    def setup(self) -> None:
        self.base = experiments.default_config("oip-erp").replace(
            stage="roma", **self.shape)
        for k in range(len(self.cells)):
            self.op(k)

    def op(self, k: int):
        return k, experiments.run_experiment(self._config(k))

    def check(self, outputs: list) -> tuple[int, dict]:
        failed = 0
        data, parts = [], []
        for out in outputs:
            if out is None:
                failed += 1
                continue
            k, result = out
            snr, gamma = self.cells[k % len(self.cells)]
            rec = result.records[0]
            matrix = roma.make_dataset(SynthSpec(gamma=gamma, seed=rec.seed,
                                                 snr_db=snr, **self.shape)).matrix
            expected = reference.stage1_outliers(matrix.values)
            try:
                audited = roma.audit(result)
            except AssertionError:
                audited = False
            ok = (audited and len(result.records) == 1
                  and np.array_equal(rec.labels, matrix.labels)
                  and np.array_equal(rec.partition.outliers, expected))
            failed += not ok
            if k < self.digest_ops:
                data.append(reference.digest(matrix.values, matrix.labels))
                parts.append(reference.digest(rec.partition.outliers))
        return failed, {"data": reference.digest(*data),
                        "partitions": reference.digest(*parts)}


class CliCsv:
    """One in-process ``roma.cli.main`` call on a CSV exported in set-up.

    Clustered inliers and clustered outliers: stage 1 keeps every point, so
    stage 2, the rank check and the recovery do real work on all N points.
    Interpreter start-up is left out on purpose.
    """

    name = "cli-csv"

    def __init__(self, seed: int, workdir: str, n: int = 100,
                 num_points: int = 2000, rank: int = 10):
        self.spec = SynthSpec(n=n, num_points=num_points, rank=rank, gamma=0.35,
                              seed=seed, inlier_model=ClusteredInliers(nu=0.1),
                              outlier_model=ClusteredOutliers(mu=0.2))
        self.workdir = workdir
        self.csv_path = os.path.join(workdir, "input.csv")
        self.labels_path = os.path.join(workdir, "labels.txt")
        self.gram_shape = (n, num_points)

    def _argv(self, out_path: str) -> list:
        return ["--input", self.csv_path, "--orientation", "columns",
                "--stage", "roma-n", "--rank-disambiguate", "--recover",
                "--rank", str(self.spec.rank), "--labels", self.labels_path,
                "--out", out_path]

    def _out_path(self, k: int) -> str:
        return os.path.join(self.workdir, f"report-{k}.json")

    def setup(self) -> None:
        dataset = roma.make_dataset(self.spec)
        self.matrix = dataset.matrix
        roma.export_dataset(dataset, self.csv_path, orientation="points-as-columns")
        with open(self.labels_path, "w") as fh:
            fh.writelines(Label(v).name.lower() + "\n" for v in self.matrix.labels)
        warm_up = self._out_path(-1)
        cli.main(self._argv(warm_up))
        os.remove(warm_up)

    def op(self, k: int):
        return k, cli.main(self._argv(self._out_path(k)))

    def check(self, outputs: list) -> tuple[int, dict]:
        expected = reference.stage2(self.matrix.values, rank_disambiguate=True)
        failed = 0
        first = None
        for out in outputs:
            if out is None or out[1] != 0:
                failed += 1
                continue
            path = self._out_path(out[0])
            try:
                with open(path) as fh:
                    report = json.load(fh)
            except (OSError, ValueError):
                failed += 1
                continue
            finally:
                if os.path.exists(path):
                    os.remove(path)
            stage2 = report.get("stage2", {})
            got = {"outliers": report.get("outliers"),
                   "survivors": stage2.get("survivors"),
                   "inlier_head": stage2.get("inlier_head"),
                   "outlier_head": stage2.get("outlier_head"),
                   "labels_swapped": stage2.get("labels_swapped")}
            failed += got != expected or "truth" not in report
            if first is None:
                first = got
        with open(self.csv_path, "rb") as fh:
            csv_bytes = np.frombuffer(fh.read(), dtype=np.uint8)
        return failed, {"data": reference.digest(csv_bytes, self.matrix.labels),
                        "partitions": reference.digest(json.dumps(first))}


WORKLOADS = {w.name: w for w in (DetectLarge, McTrials, CliCsv)}
