"""Parameter-free angle-based outlier detection for subspace recovery.

The detector scores each unit-normalized data point by its smallest acute
angle to any other point and removes those whose score exceeds a closed-form
threshold; a second stage splits clustered outliers from inliers by counting
large angles.  Companion modules provide the threshold's distribution theory,
synthetic inlier/outlier generators, subspace recovery via SVD, and a seeded
Monte Carlo experiment harness.
"""

from .angles import AngleScores
from .data import (DataMatrix, Label, NormalizedMatrix, Partition,
                   SubspaceBasis, load_csv_matrix, normalize_columns,
                   write_csv)
from .detector import RomaNResult, RomaResult, roma, roma_n
from .errors import (DegenerateRegimeError, DimensionError, FeasibilityError,
                     ParseError, RomaError, ValidationError)
from .experiments import (EXPERIMENTS, RECOVERY_CUTOFF, ExperimentConfig,
                          ExperimentResult, TrialRecord, audit,
                          default_config, render_csv, render_json,
                          run_experiment)
from .statcore import angle_sigma, normal_cdf, normal_quantile
from .subspace import LRE_FLOOR, lre, recover_subspace
from .synth import (BoundedConeOutliers, ClusteredInliers, ClusteredOutliers,
                    ColumnStreams, MixedOutliers, SynthDataset, SynthSpec,
                    UniformInliers, UnstructuredOutliers, export_dataset,
                    make_dataset, random_subspace, spec_to_dict)
from .theory import erp_impossibility_alpha, p_inlier
from .threshold import ThresholdSpec, compute_cn, compute_zeta

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # detection
    "roma", "roma_n", "RomaResult", "RomaNResult",
    "AngleScores", "ThresholdSpec", "compute_cn", "compute_zeta",
    # data containers and IO
    "DataMatrix", "NormalizedMatrix", "Partition", "SubspaceBasis", "Label",
    "load_csv_matrix", "write_csv", "normalize_columns",
    # numerics and theory
    "normal_cdf", "normal_quantile", "angle_sigma",
    "p_inlier", "erp_impossibility_alpha",
    # subspace recovery
    "recover_subspace", "lre", "LRE_FLOOR",
    # synthetic data
    "SynthSpec", "SynthDataset", "make_dataset",
    "random_subspace", "ColumnStreams",
    "UniformInliers", "ClusteredInliers", "UnstructuredOutliers",
    "ClusteredOutliers", "BoundedConeOutliers", "MixedOutliers",
    "export_dataset", "spec_to_dict",
    # experiments
    "ExperimentConfig", "ExperimentResult", "TrialRecord", "EXPERIMENTS",
    "RECOVERY_CUTOFF", "default_config", "run_experiment", "audit",
    "render_csv", "render_json",
    # errors
    "RomaError", "ParseError", "ValidationError", "DimensionError",
    "DegenerateRegimeError", "FeasibilityError",
]
