"""Monte Carlo experiment harness.

Each experiment sweeps a grid of cells, runs seeded trials per cell, and
aggregates per-cell summaries.  Every trial owns a dataset seed derived from
(master seed, cell index, trial index) through numpy's SeedSequence, so a
trial's result does not depend on which other trials ran, and every emitted
record keeps its partition and labels so the success flags can be re-derived
after the fact (see ``audit``).

An experiment is a row of data in ``_EXPERIMENTS``: its default config,
the config fields it reads, its cells, a trial's ``SynthSpec``, its metrics
beyond the truth flags (subspace recovery among them) and its summary
columns.  One pipeline, ``_run_cells``, runs every row: ``make_dataset``,
detection, truth flags, extra metrics, and one summary row per cell.  A
config that sets a field its experiment does not read to anything but that
experiment's default is refused, so no setting is silently ignored, and so
is a field whose value does not have the type of its default.

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
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .data import DataMatrix, Label, Partition, _check_int, _check_real
from .detector import roma, roma_n
from .errors import ValidationError
from .subspace import lre, recover_subspace
from .synth import (_OUTLIER_MODELS, ClusteredInliers, ClusteredOutliers,
                    ColumnStreams, MixedOutliers, SynthSpec, _check_seed,
                    make_dataset)
from .theory import erp_impossibility_alpha
from .threshold import MODES

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

# The detection a trial runs: ``roma`` alone, or ``roma_n`` (``_detect``).
_STAGES = ("roma", "roma-n")


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs for every experiment.

    Each experiment reads only some fields (``_Experiment.reads``); the
    others must keep the values of its ``default_config``.
    """

    experiment: str = "validate-threshold"
    n: int = 100
    rank: int = 10
    num_points: int = 1000
    gamma_grid: tuple = (0.15, 0.55, 0.95)
    snr_db: float | None = 20.0          # every experiment but oip-erp
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


def _experiment(name: str) -> "_Experiment":
    if not isinstance(name, str) or name not in _EXPERIMENTS:
        raise ValidationError(f"unknown experiment {name!r}; choose from {EXPERIMENTS}")
    return _EXPERIMENTS[name]


def default_config(experiment: str) -> ExperimentConfig:
    return ExperimentConfig(experiment=experiment, **_experiment(experiment).defaults)


def config_from_dict(d: dict) -> ExperimentConfig:
    known = {f.name for f in dataclasses.fields(ExperimentConfig)}
    unknown = set(d) - known
    if unknown:
        raise ValidationError(f"unknown config fields: {sorted(unknown)}")
    base = default_config(d.get("experiment", ExperimentConfig.experiment))
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
    wall_time_s: float           # the whole trial; gen_s and detect_s are parts
    gen_s: float                 # make_dataset
    detect_s: float              # _detect
    partition: Partition = field(repr=False)
    labels: np.ndarray = field(repr=False)

    def row(self) -> dict:
        return {**self.cell, "trial": self.trial, "seed": self.seed,
                **self.metrics, "wall_time_s": self.wall_time_s,
                "gen_s": self.gen_s, "detect_s": self.detect_s}


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
    """The named model, built from the config fields of the same names: the
    fields ``run_experiment`` counts as read.  "mixed" is its own experiment."""
    cls = None if cfg.outlier_model == "mixed" else _OUTLIER_MODELS.get(cfg.outlier_model)
    if cls is None:
        raise ValidationError(f"unknown outlier model {cfg.outlier_model!r}")
    return cls(**{f.name: getattr(cfg, f.name) for f in dataclasses.fields(cls)})


def _detect(cfg: ExperimentConfig, matrix: DataMatrix):
    if cfg.stage == "roma":
        return roma(matrix, cfg.mode)
    return roma_n(matrix, cfg.mode, rank_disambiguate=cfg.rank_disambiguate)


def _recovery_metrics(ds, res) -> dict:
    # An empty inlier estimate recovers nothing: the projector is zero and
    # the relative residual is exactly 1.
    value = 0.0
    if res.partition.inliers.size:
        basis = recover_subspace(ds.matrix, res.partition.inliers, rank="auto")
        value = lre(ds.matrix.true_basis, basis)
    return {"lre": value, "recovered": bool(value < RECOVERY_CUTOFF)}


@dataclass(frozen=True)
class _Experiment:
    """One experiment as data: a row of the table ``_run_cells`` reads."""

    defaults: dict               # ExperimentConfig fields of default_config
    reads: frozenset             # fields read past those every experiment reads
    cells: Callable              # cfg -> list of cell dicts
    spec: Callable               # (cfg, cell, seed) -> SynthSpec
    summary: Callable            # (cfg, one cell's records) -> summary columns
    metrics: tuple = ()          # each (dataset, result) -> metrics past the flags


def _run_cells(cfg: ExperimentConfig, exp: _Experiment) -> ExperimentResult:
    """The one trial pipeline: dataset, detection, metrics, cell summary."""
    records, summary = [], []
    for ci, cell in enumerate(exp.cells(cfg)):
        rs = []
        for trial in range(cfg.trials):
            seed = _trial_seed(cfg.seed, ci, trial)
            start = time.perf_counter()
            ds = make_dataset(exp.spec(cfg, cell, seed))
            generated = time.perf_counter()
            res = _detect(cfg, ds.matrix)
            detected = time.perf_counter()
            metrics = _truth_flags(res.partition, ds.matrix.labels)
            for extra in exp.metrics:
                metrics.update(extra(ds, res))
            rs.append(TrialRecord(cell=dict(cell), trial=trial, seed=seed, metrics=metrics,
                                  wall_time_s=time.perf_counter() - start,
                                  gen_s=generated - start, detect_s=detected - generated,
                                  partition=res.partition, labels=ds.matrix.labels))
        records += rs
        summary.append({**cell, "trials": len(rs), **exp.summary(cfg, rs)})
    return ExperimentResult(cfg, records, summary)


def _mean(records, key):
    # flags are bools, so their mean is the fraction of trials that set them
    return float(np.mean([r.metrics[key] for r in records]))


def _gamma_spec(cfg: ExperimentConfig, cell: dict, seed: int) -> SynthSpec:
    return SynthSpec(n=cfg.n, num_points=cfg.num_points, rank=cfg.rank,
                     gamma=cell["gamma"], seed=seed, snr_db=cell["snr_db"],
                     outlier_model=_outlier_model(cfg))


def _split_spec(cfg: ExperimentConfig, seed: int, num_inliers: int,
                num_outliers: int, **kw) -> SynthSpec:
    """A spec with these point counts; ``kw`` overrides the config's fields."""
    total = num_inliers + num_outliers
    kw = {"rank": cfg.rank, "snr_db": cfg.snr_db, **kw}
    return SynthSpec(n=cfg.n, num_points=total, gamma=num_outliers / total,
                     seed=seed, **kw)


def _threshold_cells(cfg: ExperimentConfig) -> list:
    cells = [{"gamma": g, "snr_db": cfg.snr_db} for g in cfg.gamma_grid]
    for cell in cells:  # SynthSpec checks the range of gamma
        if _gamma_spec(cfg, cell, cfg.seed).num_outliers == 0:
            raise ValidationError(
                f"gamma {cell['gamma']} rounds to zero outliers at N={cfg.num_points}")
    return cells


def _threshold_metrics(ds, res) -> dict:
    min_q = float(res.scores.q[ds.outlier_indices].min())
    return {"min_outlier_q": min_q, "zeta": res.threshold.zeta,
            "threshold_holds": bool(min_q > res.threshold.zeta)}


def _erp_metrics(ds, res) -> dict:
    true_in = ds.inlier_indices
    exceed = int((res.scores.q[true_in] > res.threshold.zeta).sum())
    return {"inlier_exceed": exceed, "num_true_inliers": int(true_in.size)}


def _erp_summary(cfg: ExperimentConfig, rs: list) -> dict:
    # The union bound's rate: N_I times the pooled fraction of true inliers
    # that scored q above the threshold.
    n_inliers = rs[0].metrics["num_true_inliers"]
    exceed = sum(r.metrics["inlier_exceed"] for r in rs)
    total = sum(r.metrics["num_true_inliers"] for r in rs)
    row = {"alpha_oip": 1.0 - _mean(rs, "oip_success"),
           "alpha_erp": 1.0 - _mean(rs, "erp_success"),
           "erp_union_alpha": n_inliers * (exceed / total),
           "theory_oip_alpha": 1.0 / cfg.num_points}
    if n_inliers >= 3:
        row["theory_erp_alpha_lower"] = erp_impossibility_alpha(
            cfg.n, cfg.rank, cfg.num_points, n_inliers)
    return row


def _phase_inlier_cells(cfg: ExperimentConfig) -> list:
    cells = []
    for ratio in cfg.ratio_grid:
        rank = int(round(ratio * cfg.n))
        if rank < 3:
            raise ValidationError(f"ratio {ratio} gives rank {rank} < 3")
        for ni in cfg.inlier_grid:
            if not 1 <= ni < cfg.num_points:
                raise ValidationError(f"num_inliers {ni} incompatible with N={cfg.num_points}")
            cells.append({"ratio": ratio, "rank": rank, "num_inliers": ni})
    return cells


def _mixed_metrics(ds, res) -> dict:
    # the same draw that sized the dataset's cluster
    spec = ds.spec
    k = spec.outlier_model.num_clustered(ColumnStreams(spec.seed), spec.num_outliers)
    return {"num_structured": k}


def _recovery_summary(cfg: ExperimentConfig, rs: list) -> dict:
    return {"recovered_fraction": _mean(rs, "recovered"), "mean_lre": _mean(rs, "lre")}


# Fields every experiment reads: ``_run_cells`` and the specs read these.
_ALWAYS_READ = frozenset({"experiment", "n", "trials", "seed", "mode"})
# The gamma-grid experiments, through ``_gamma_spec`` and ``_outlier_model``.
_GAMMA_FIELDS = frozenset({"rank", "num_points", "gamma_grid", "outlier_model",
                           "mu", "theta_max"})
# The two-stage experiments, through ``_detect``.
_STAGE_FIELDS = frozenset({"stage", "rank_disambiguate"})

_EXPERIMENTS = {
    "validate-threshold": _Experiment(
        defaults=dict(gamma_grid=tuple(round(0.05 + 0.1 * k, 2) for k in range(10)),
                      trials=200, snr_db=20.0),
        reads=_GAMMA_FIELDS | {"snr_db"},
        cells=_threshold_cells, spec=_gamma_spec, metrics=(_threshold_metrics,),
        summary=lambda cfg, rs: {"holds_fraction": _mean(rs, "threshold_holds"),
                                 "mean_min_outlier_q": _mean(rs, "min_outlier_q"),
                                 "zeta": rs[0].metrics["zeta"]}),
    "oip-erp": _Experiment(
        defaults=dict(gamma_grid=(0.15, 0.55, 0.95), snr_grid=(20.0, 10.0), trials=1000),
        reads=_GAMMA_FIELDS | {"snr_grid"},
        cells=lambda cfg: [{"snr_db": s, "gamma": g}
                           for s in cfg.snr_grid for g in cfg.gamma_grid],
        spec=_gamma_spec, metrics=(_erp_metrics,), summary=_erp_summary),
    "phase-inliers": _Experiment(
        defaults=dict(num_points=2000, trials=20, snr_db=None,
                      inlier_grid=(100, 400, 700, 1000, 1300, 1600, 1900)),
        reads=frozenset({"num_points", "snr_db", "ratio_grid", "inlier_grid"}),
        cells=_phase_inlier_cells,
        spec=lambda cfg, cell, seed: _split_spec(
            cfg, seed, cell["num_inliers"], cfg.num_points - cell["num_inliers"],
            rank=cell["rank"]),
        summary=lambda cfg, rs: {"mean_inlier_recovery": _mean(rs, "inlier_recovery")}),
    "phase-recovery": _Experiment(
        defaults=dict(n=100, rank=20, trials=20, snr_db=None,
                      inlier_grid=(25, 100, 400, 700, 1000),
                      outlier_grid=(100, 400, 700, 1000)),
        reads=frozenset({"rank", "snr_db", "inlier_grid", "outlier_grid"}),
        cells=lambda cfg: [{"num_inliers": ni, "num_outliers": no}
                           for ni in cfg.inlier_grid for no in cfg.outlier_grid],
        spec=lambda cfg, cell, seed: _split_spec(
            cfg, seed, cell["num_inliers"], cell["num_outliers"]),
        metrics=(_recovery_metrics,), summary=_recovery_summary),
    "structured": _Experiment(
        defaults=dict(n=200, rank=10, trials=20, stage="roma-n", snr_db=None),
        reads=_STAGE_FIELDS | {"rank", "snr_db", "nu", "mu_grid", "split_grid"},
        cells=lambda cfg: [{"mu": m, "num_inliers": ni, "num_structured": nos}
                           for m in cfg.mu_grid for ni, nos in cfg.split_grid],
        spec=lambda cfg, cell, seed: _split_spec(
            cfg, seed, cell["num_inliers"], cell["num_structured"],
            inlier_model=ClusteredInliers(nu=cfg.nu),
            outlier_model=ClusteredOutliers(mu=cell["mu"])),
        metrics=(_recovery_metrics,),
        summary=lambda cfg, rs: {**_recovery_summary(cfg, rs),
                                 "exact_fraction": _mean(rs, "erp_success")}),
    "mixed": _Experiment(
        defaults=dict(n=200, rank=10, trials=20, stage="roma-n", mu=0.2, snr_db=None,
                      num_inliers=400, outlier_grid=(100, 400, 800)),
        reads=_STAGE_FIELDS | {"rank", "snr_db", "nu", "mu", "num_inliers",
                               "outlier_grid"},
        cells=lambda cfg: [{"num_outliers": no} for no in cfg.outlier_grid],
        spec=lambda cfg, cell, seed: _split_spec(
            cfg, seed, cfg.num_inliers, cell["num_outliers"],
            inlier_model=ClusteredInliers(nu=cfg.nu),
            outlier_model=MixedOutliers(mu=cfg.mu)),
        metrics=(_mixed_metrics, _recovery_metrics),
        summary=_recovery_summary),
}

EXPERIMENTS = tuple(_EXPERIMENTS)


def _check_field(name: str, value, like) -> None:
    """Raise ValidationError unless ``value`` has the type of the default
    ``like``: an integer that is not a bool, a bool, a finite real, a string
    or a tuple.  A tuple is non-empty, its items have the type of ``like``'s
    first item, and an item that is itself a tuple has its length."""
    if isinstance(like, tuple):
        if not isinstance(value, tuple):
            raise ValidationError(f"{name} must be a list, got {value!r}")
        if not value:  # an empty grid would run no cells
            raise ValidationError(f"{name} must not be empty")
        for i, item in enumerate(value):
            _check_field(f"{name}[{i}]", item, like[0])
            if isinstance(like[0], tuple) and len(item) != len(like[0]):
                raise ValidationError(
                    f"{name}[{i}] must hold {len(like[0])} values, got {item!r}")
    elif isinstance(like, (bool, str)):
        if not isinstance(value, type(like)):
            raise ValidationError(
                f"{name} must be a {type(like).__name__}, got {value!r}")
    elif isinstance(like, int):
        _check_int(name, value)
    else:
        _check_real(name, value)


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    # Each field has the type of its default; None stands for a real where
    # the annotation allows it.
    for f in dataclasses.fields(cfg):
        value = getattr(cfg, f.name)
        if not (value is None and "None" in str(f.type)):
            _check_field(f.name, value, 0.0 if f.default is None else f.default)
    _check_seed(cfg.seed)
    exp = _experiment(cfg.experiment)
    if cfg.trials < 1:
        raise ValidationError(f"trials must be at least 1, got {cfg.trials}")
    default = default_config(cfg.experiment)
    reads = _ALWAYS_READ | exp.reads
    if cfg.stage == "roma":  # ``_detect`` reads rank_disambiguate for roma-n only
        reads -= {"rank_disambiguate"}
    model = _OUTLIER_MODELS.get(cfg.outlier_model)
    if "outlier_model" in reads and model:  # the chosen model's field alone is read
        reads -= {"mu", "theta_max"} - {f.name for f in dataclasses.fields(model)}
    ignored = sorted(f.name for f in dataclasses.fields(cfg)
                     if f.name not in reads
                     and getattr(cfg, f.name) != getattr(default, f.name))
    if ignored:
        raise ValidationError(
            f"{cfg.experiment} does not read {', '.join(ignored)}; "
            "leave them at its defaults")
    if cfg.mode not in MODES:
        raise ValidationError(f"mode must be one of {MODES}, got {cfg.mode!r}")
    if cfg.stage not in _STAGES:
        raise ValidationError(
            f"stage must be {' or '.join(map(repr, _STAGES))}, got {cfg.stage!r}")
    return _run_cells(cfg, exp)


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
