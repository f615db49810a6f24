"""Monte Carlo experiment harness.

Each experiment sweeps a grid of cells, runs seeded trials per cell, and
aggregates per-cell summaries.  Every trial owns a dataset seed derived from
(master seed, cell index, trial index) through numpy's SeedSequence, so a
trial's result does not depend on which other trials ran, and every emitted
record keeps its partition and labels so the success flags can be re-derived
after the fact (see ``audit``).

Experiments
-----------
validate-threshold : does every true outlier score above the threshold?
oip-erp            : failure rates of outlier identification (some outlier
                     kept) and exact inlier recovery (some inlier dropped)
phase-inliers      : mean inlier recovery over a (rank ratio, N_I) grid
phase-recovery     : subspace recovery rate over an (N_I, N_O) grid
structured         : two-stage detection on clustered outliers
mixed              : two-stage detection on a random structured/unstructured
                     outlier mix
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import time
from dataclasses import dataclass, field

import numpy as np

from .data import DataMatrix, Label, Partition
from .detector import roma, roma_n
from .errors import ValidationError
from .subspace import lre, recover_subspace
from .synth import (BoundedConeOutliers, ClusteredInliers, ClusteredOutliers,
                    ColumnStreams, SynthSpec, UniformInliers,
                    UnstructuredOutliers, make_dataset, random_subspace,
                    sample_clustered_inliers, sample_clustered_outliers,
                    sample_unstructured_outliers, shuffle_and_label)
from .theory import ErpTrialSummary, erp_alpha_estimate, erp_impossibility_alpha

__all__ = [
    "ExperimentConfig",
    "TrialRecord",
    "ExperimentResult",
    "EXPERIMENTS",
    "default_config",
    "run_experiment",
    "audit",
    "result_rows",
    "render_csv",
    "render_json",
    "RECOVERY_CUTOFF",
]

# A trial counts as having recovered the subspace when its log10 relative
# error falls below this.
RECOVERY_CUTOFF = -5.0

EXPERIMENTS = ("validate-threshold", "oip-erp", "phase-inliers",
               "phase-recovery", "structured", "mixed")


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs for every experiment; unused fields are ignored by a runner."""

    experiment: str = "validate-threshold"
    n: int = 100
    rank: int = 10
    num_points: int = 1000
    gamma_grid: tuple = (0.15, 0.55, 0.95)
    snr_db: float | None = 20.0          # validate-threshold / phase noise
    snr_grid: tuple = (20.0, 10.0)       # oip-erp
    trials: int = 100
    seed: int = 1
    mode: str = "theoretical"
    stage: str = "roma"
    rank_disambiguate: bool = False
    outlier_model: str = "unstructured"  # unstructured | clustered | bounded-cone
    mu: float = 0.2
    theta_max: float | None = None
    nu: float = 0.1
    mu_grid: tuple = (0.2, 5.0)
    split_grid: tuple = ((300, 700), (900, 100))   # (N_I, N_Os) pairs
    ratio_grid: tuple = (0.05, 0.1, 0.2, 0.3, 0.4)
    inlier_grid: tuple = (100, 400, 700, 1000)
    outlier_grid: tuple = (100, 400, 700, 1000)
    num_inliers: int = 400               # mixed

    def replace(self, **kw) -> "ExperimentConfig":
        return dataclasses.replace(self, **kw)


_DEFAULTS = {
    "validate-threshold": dict(
        gamma_grid=tuple(round(0.05 + 0.1 * k, 2) for k in range(10)),
        trials=200, snr_db=20.0),
    "oip-erp": dict(gamma_grid=(0.15, 0.55, 0.95), snr_grid=(20.0, 10.0),
                    trials=1000),
    "phase-inliers": dict(num_points=2000, trials=20, snr_db=None,
                          inlier_grid=(100, 400, 700, 1000, 1300, 1600, 1900)),
    "phase-recovery": dict(n=100, rank=20, trials=20, snr_db=None,
                           inlier_grid=(25, 100, 400, 700, 1000),
                           outlier_grid=(100, 400, 700, 1000)),
    "structured": dict(n=200, rank=10, trials=20, stage="roma-n", snr_db=None),
    "mixed": dict(n=200, rank=10, trials=20, stage="roma-n", mu=0.2, snr_db=None,
                  num_inliers=400, outlier_grid=(100, 400, 800)),
}


def default_config(experiment: str) -> ExperimentConfig:
    if experiment not in EXPERIMENTS:
        raise ValidationError(
            f"unknown experiment {experiment!r}; choose from {EXPERIMENTS}")
    return ExperimentConfig(experiment=experiment, **_DEFAULTS[experiment])


def config_from_dict(d: dict) -> ExperimentConfig:
    known = {f.name for f in dataclasses.fields(ExperimentConfig)}
    unknown = set(d) - known
    if unknown:
        raise ValidationError(f"unknown config fields: {sorted(unknown)}")
    base = default_config(d["experiment"]) if "experiment" in d else ExperimentConfig()
    clean = {}
    for key, value in d.items():
        if isinstance(value, list):
            value = tuple(tuple(v) if isinstance(v, list) else v for v in value)
        clean[key] = value
    return base.replace(**clean)


@dataclass
class TrialRecord:
    cell: dict
    trial: int
    seed: int
    metrics: dict
    wall_time_s: float
    partition: Partition = field(repr=False)
    labels: np.ndarray = field(repr=False)

    def row(self) -> dict:
        return {**self.cell, "trial": self.trial, "seed": self.seed,
                **self.metrics, "wall_time_s": self.wall_time_s}


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    records: list
    summary: list


def _trial_seed(master: int, cell_index: int, trial: int) -> int:
    seq = np.random.SeedSequence(entropy=int(master), spawn_key=(cell_index, trial))
    return int(seq.generate_state(1, np.uint64)[0])


def _truth_flags(partition: Partition, labels: np.ndarray) -> dict:
    true_out = labels == int(Label.OUTLIER)
    true_in = ~true_out
    est_out = partition.outlier_mask()
    est_in = ~est_out
    n_in = int(true_in.sum())
    return {
        "oip_success": bool(est_out[true_out].all()) if true_out.any() else True,
        "erp_success": bool((est_in == true_in).all()),
        "inlier_recovery": float((est_in & true_in).sum() / n_in) if n_in else 1.0,
        "false_inliers": int((est_in & true_out).sum()),
    }


def audit(result: ExperimentResult) -> bool:
    """Re-derive every success flag from the stored partition and labels."""
    for rec in result.records:
        flags = _truth_flags(rec.partition, rec.labels)
        for key, value in flags.items():
            if key in rec.metrics and rec.metrics[key] != value:
                raise AssertionError(
                    f"metric {key} = {rec.metrics[key]!r} disagrees with "
                    f"recomputed {value!r} (cell {rec.cell}, trial {rec.trial})")
    return True


def _outlier_model(cfg: ExperimentConfig):
    if cfg.outlier_model == "unstructured":
        return UnstructuredOutliers()
    if cfg.outlier_model == "clustered":
        return ClusteredOutliers(mu=cfg.mu)
    if cfg.outlier_model == "bounded-cone":
        if cfg.theta_max is None:
            raise ValidationError("bounded-cone outliers need theta_max")
        return BoundedConeOutliers(theta_max=cfg.theta_max)
    raise ValidationError(f"unknown outlier model {cfg.outlier_model!r}")


def _detect(cfg: ExperimentConfig, matrix: DataMatrix):
    if cfg.stage == "roma":
        return roma(matrix, cfg.mode)
    if cfg.stage == "roma-n":
        return roma_n(matrix, cfg.mode, rank_disambiguate=cfg.rank_disambiguate)
    raise ValidationError(f"stage must be 'roma' or 'roma-n', got {cfg.stage!r}")


def _recovery_lre(matrix: DataMatrix, partition: Partition) -> float:
    # An empty inlier estimate recovers nothing: the projector is zero and
    # the relative residual is exactly 1.
    if partition.inliers.size == 0:
        return 0.0
    basis = recover_subspace(matrix, partition.inliers, rank="auto")
    return lre(matrix.true_basis, basis)


def _run_cells(cfg: ExperimentConfig, cells: list, trial_fn) -> list:
    records = []
    for ci, cell in enumerate(cells):
        for trial in range(cfg.trials):
            seed = _trial_seed(cfg.seed, ci, trial)
            start = time.perf_counter()
            metrics, partition, labels = trial_fn(cell, seed)
            elapsed = time.perf_counter() - start
            records.append(TrialRecord(cell=dict(cell), trial=trial, seed=seed,
                                       metrics=metrics, wall_time_s=elapsed,
                                       partition=partition, labels=labels))
    return records


def _cell_records(records: list, cell: dict) -> list:
    return [r for r in records if r.cell == cell]


def _mean(records, key):
    return float(np.mean([r.metrics[key] for r in records]))


def _frac(records, key):
    return float(np.mean([bool(r.metrics[key]) for r in records]))


# --- validate-threshold ----------------------------------------------------

def run_validate_threshold(cfg: ExperimentConfig) -> ExperimentResult:
    for g in cfg.gamma_grid:
        if not 0.0 < g < 1.0:
            raise ValidationError(f"gamma grid values must lie in (0, 1), got {g}")
    cells = [{"gamma": g, "snr_db": cfg.snr_db} for g in cfg.gamma_grid]
    out_model = _outlier_model(cfg)

    def trial(cell, seed):
        spec = SynthSpec(n=cfg.n, num_points=cfg.num_points, rank=cfg.rank,
                         gamma=cell["gamma"], seed=seed, snr_db=cell["snr_db"],
                         outlier_model=out_model)
        ds = make_dataset(spec)
        res = roma(ds.matrix, cfg.mode)
        true_out = ds.outlier_indices
        if true_out.size == 0:
            raise ValidationError(
                f"gamma {cell['gamma']} rounds to zero outliers at N={cfg.num_points}")
        min_q = float(res.scores.q[true_out].min())
        metrics = {
            **_truth_flags(res.partition, ds.matrix.labels),
            "min_outlier_q": min_q,
            "zeta": res.threshold.zeta,
            "threshold_holds": bool(min_q > res.threshold.zeta),
        }
        return metrics, res.partition, ds.matrix.labels

    records = _run_cells(cfg, cells, trial)
    summary = []
    for cell in cells:
        rs = _cell_records(records, cell)
        summary.append({**cell,
                        "trials": len(rs),
                        "holds_fraction": _frac(rs, "threshold_holds"),
                        "mean_min_outlier_q": _mean(rs, "min_outlier_q"),
                        "zeta": rs[0].metrics["zeta"]})
    return ExperimentResult(cfg, records, summary)


# --- oip-erp ---------------------------------------------------------------

def run_oip_erp(cfg: ExperimentConfig) -> ExperimentResult:
    cells = [{"snr_db": s, "gamma": g} for s in cfg.snr_grid for g in cfg.gamma_grid]
    out_model = _outlier_model(cfg)

    def trial(cell, seed):
        spec = SynthSpec(n=cfg.n, num_points=cfg.num_points, rank=cfg.rank,
                         gamma=cell["gamma"], seed=seed, snr_db=cell["snr_db"],
                         outlier_model=out_model)
        ds = make_dataset(spec)
        res = roma(ds.matrix, cfg.mode)
        true_in = ds.inlier_indices
        exceed = int((res.scores.q[true_in] > res.threshold.zeta).sum())
        metrics = {
            **_truth_flags(res.partition, ds.matrix.labels),
            "inlier_exceed": exceed,
            "num_true_inliers": int(true_in.size),
        }
        return metrics, res.partition, ds.matrix.labels

    records = _run_cells(cfg, cells, trial)
    summary = []
    for cell in cells:
        rs = _cell_records(records, cell)
        n_inliers = rs[0].metrics["num_true_inliers"]
        pooled = ErpTrialSummary(
            all_inliers_recovered=tuple(bool(r.metrics["erp_success"]) for r in rs),
            inlier_exceed_count=sum(r.metrics["inlier_exceed"] for r in rs),
            inlier_total=sum(r.metrics["num_true_inliers"] for r in rs),
            num_inliers=n_inliers)
        est = erp_alpha_estimate(pooled)
        row = {**cell,
               "trials": len(rs),
               "alpha_oip": 1.0 - _frac(rs, "oip_success"),
               "alpha_erp": est.empirical_alpha,
               "erp_union_alpha": est.union_alpha,
               "theory_oip_alpha": 1.0 / cfg.num_points}
        if n_inliers >= 3:
            row["theory_erp_alpha_lower"] = erp_impossibility_alpha(
                cfg.n, cfg.rank, cfg.num_points, n_inliers)
        summary.append(row)
    return ExperimentResult(cfg, records, summary)


# --- phase maps ------------------------------------------------------------

def run_phase_inliers(cfg: ExperimentConfig) -> ExperimentResult:
    cells = []
    for ratio in cfg.ratio_grid:
        rank = int(round(ratio * cfg.n))
        if rank < 3:
            raise ValidationError(f"ratio {ratio} gives rank {rank} < 3")
        for ni in cfg.inlier_grid:
            if not 1 <= ni < cfg.num_points:
                raise ValidationError(f"num_inliers {ni} incompatible with N={cfg.num_points}")
            cells.append({"ratio": ratio, "rank": rank, "num_inliers": ni})

    def trial(cell, seed):
        n_out = cfg.num_points - cell["num_inliers"]
        spec = SynthSpec(n=cfg.n, num_points=cfg.num_points, rank=cell["rank"],
                         gamma=n_out / cfg.num_points, seed=seed, snr_db=cfg.snr_db)
        ds = make_dataset(spec)
        res = roma(ds.matrix, cfg.mode)
        return _truth_flags(res.partition, ds.matrix.labels), res.partition, ds.matrix.labels

    records = _run_cells(cfg, cells, trial)
    summary = [{**cell,
                "trials": cfg.trials,
                "mean_inlier_recovery": _mean(_cell_records(records, cell),
                                              "inlier_recovery")}
               for cell in cells]
    return ExperimentResult(cfg, records, summary)


def run_phase_recovery(cfg: ExperimentConfig) -> ExperimentResult:
    cells = [{"num_inliers": ni, "num_outliers": no}
             for ni in cfg.inlier_grid for no in cfg.outlier_grid]

    def trial(cell, seed):
        total = cell["num_inliers"] + cell["num_outliers"]
        spec = SynthSpec(n=cfg.n, num_points=total, rank=cfg.rank,
                         gamma=cell["num_outliers"] / total, seed=seed,
                         snr_db=cfg.snr_db)
        ds = make_dataset(spec)
        res = roma(ds.matrix, cfg.mode)
        value = _recovery_lre(ds.matrix, res.partition)
        metrics = {**_truth_flags(res.partition, ds.matrix.labels),
                   "lre": value, "recovered": bool(value < RECOVERY_CUTOFF)}
        return metrics, res.partition, ds.matrix.labels

    records = _run_cells(cfg, cells, trial)
    summary = [{**cell,
                "trials": cfg.trials,
                "recovered_fraction": _frac(_cell_records(records, cell), "recovered"),
                "mean_lre": _mean(_cell_records(records, cell), "lre")}
               for cell in cells]
    return ExperimentResult(cfg, records, summary)


# --- structured and mixed outliers ----------------------------------------

def run_structured(cfg: ExperimentConfig) -> ExperimentResult:
    cells = [{"mu": m, "num_inliers": ni, "num_structured": nos}
             for m in cfg.mu_grid for ni, nos in cfg.split_grid]

    def trial(cell, seed):
        total = cell["num_inliers"] + cell["num_structured"]
        spec = SynthSpec(n=cfg.n, num_points=total, rank=cfg.rank,
                         gamma=cell["num_structured"] / total, seed=seed,
                         inlier_model=ClusteredInliers(nu=cfg.nu),
                         outlier_model=ClusteredOutliers(mu=cell["mu"]),
                         snr_db=cfg.snr_db)
        ds = make_dataset(spec)
        res = _detect(cfg, ds.matrix)
        value = _recovery_lre(ds.matrix, res.partition)
        metrics = {**_truth_flags(res.partition, ds.matrix.labels),
                   "lre": value, "recovered": bool(value < RECOVERY_CUTOFF)}
        return metrics, res.partition, ds.matrix.labels

    records = _run_cells(cfg, cells, trial)
    summary = [{**cell,
                "trials": cfg.trials,
                "recovered_fraction": _frac(_cell_records(records, cell), "recovered"),
                "mean_lre": _mean(_cell_records(records, cell), "lre"),
                "exact_fraction": _frac(_cell_records(records, cell), "erp_success")}
               for cell in cells]
    return ExperimentResult(cfg, records, summary)


def run_mixed(cfg: ExperimentConfig) -> ExperimentResult:
    cells = [{"num_outliers": no} for no in cfg.outlier_grid]

    def trial(cell, seed):
        n_out = cell["num_outliers"]
        streams = ColumnStreams(seed)
        basis = random_subspace(cfg.n, cfg.rank, streams.subspace())
        inlier_cols = sample_clustered_inliers(basis, cfg.num_inliers, cfg.nu, streams)
        n_struct = int(streams.aux(0).integers(0, n_out + 1))
        parts = []
        if n_struct:
            parts.append(sample_clustered_outliers(cfg.n, n_struct, cfg.mu, streams))
        if n_out - n_struct:
            parts.append(sample_unstructured_outliers(cfg.n, n_out - n_struct,
                                                      streams, index_offset=n_struct))
        outlier_cols = np.hstack(parts) if parts else None
        matrix = shuffle_and_label(inlier_cols, outlier_cols, basis, streams)
        res = _detect(cfg, matrix)
        value = _recovery_lre(matrix, res.partition)
        metrics = {**_truth_flags(res.partition, matrix.labels),
                   "num_structured": n_struct,
                   "lre": value, "recovered": bool(value < RECOVERY_CUTOFF)}
        return metrics, res.partition, matrix.labels

    records = _run_cells(cfg, cells, trial)
    summary = [{**cell,
                "trials": cfg.trials,
                "recovered_fraction": _frac(_cell_records(records, cell), "recovered"),
                "mean_lre": _mean(_cell_records(records, cell), "lre")}
               for cell in cells]
    return ExperimentResult(cfg, records, summary)


_RUNNERS = {
    "validate-threshold": run_validate_threshold,
    "oip-erp": run_oip_erp,
    "phase-inliers": run_phase_inliers,
    "phase-recovery": run_phase_recovery,
    "structured": run_structured,
    "mixed": run_mixed,
}


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    if cfg.experiment not in _RUNNERS:
        raise ValidationError(
            f"unknown experiment {cfg.experiment!r}; choose from {EXPERIMENTS}")
    return _RUNNERS[cfg.experiment](cfg)


# --- serialization ----------------------------------------------------------

def result_rows(result: ExperimentResult) -> list:
    rows = [{"kind": "trial", **rec.row()} for rec in result.records]
    rows += [{"kind": "summary", **row} for row in result.summary]
    return rows


def render_csv(result: ExperimentResult) -> str:
    rows = result_rows(result)
    fields: list = []
    for row in rows:
        for key in row:
            if key not in fields:
                fields.append(key)
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=fields, restval="")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


def render_json(result: ExperimentResult) -> str:
    payload = {
        "experiment": result.config.experiment,
        "config": dataclasses.asdict(result.config),
        "summary": result.summary,
        "trials": [rec.row() for rec in result.records],
    }
    return json.dumps(payload, indent=1)
