"""The public API: every exported name resolves, and deleted names stay gone."""

import dataclasses
import importlib
import pkgutil

import pytest

import roma

MODULES = sorted(m.name for m in pkgutil.iter_modules(roma.__path__))

# Removed public names and the module that used to export each one.
DELETED = {
    "angles": ["pairwise_acute_angles", "pairwise_principal_angles",
               "min_angle_scores", "count_above_threshold",
               "mean_principal_angle", "min_pair", "angle_scores",
               "GramScan"],
    "threshold": ["compute_zeta_adapted"],
    "synth": ["assemble", "shuffle_and_label", "add_noise_snr",
              "sample_uniform_inliers", "sample_clustered_inliers",
              "sample_unstructured_outliers", "sample_clustered_outliers",
              "sample_bounded_cone", "NOISE_TARGETS"],
    "theory": ["TheoryReport", "theory_report", "NOISE_SHIFT_BOTH_ENDS_FACTOR",
               "ErpTrialSummary", "ErpAlphaEstimate", "erp_alpha_estimate"],
}

# Removed attributes, by the public class that used to have them.
DELETED_ATTRS = {
    ("synth", "ColumnStreams"): ["inlier", "outlier", "noise"],
    ("synth", "SynthDataset"): ["point_snr"],
    ("angles", "AngleScores"): ["mean_theta", "zeta"],
    ("data", "Label"): ["UNKNOWN"],
    ("theory", "ErpAlphaEstimate"): ["trials"],
}


@pytest.mark.parametrize("name", ["roma"] + [f"roma.{m}" for m in MODULES])
def test_every_export_resolves(name):
    module = importlib.import_module(name)
    exports = getattr(module, "__all__", [])
    assert len(exports) == len(set(exports))
    missing = [n for n in exports if not hasattr(module, n)]
    assert not missing


@pytest.mark.parametrize("module", sorted(DELETED))
def test_deleted_names_are_gone(module):
    mod = importlib.import_module(f"roma.{module}")
    for name in DELETED[module]:
        assert name not in mod.__all__
        assert not hasattr(mod, name)
        assert name not in roma.__all__
        assert not hasattr(roma, name)


@pytest.mark.parametrize("module, cls", sorted(DELETED_ATTRS))
def test_deleted_attributes_are_gone(module, cls):
    mod = importlib.import_module(f"roma.{module}")
    if cls in DELETED.get(module, []):
        # the whole class is gone, and its attributes with it
        assert not hasattr(mod, cls)
        return
    owner = getattr(mod, cls)
    fields = ({f.name for f in dataclasses.fields(owner)}
              if dataclasses.is_dataclass(owner) else set())
    for name in DELETED_ATTRS[module, cls]:
        assert not hasattr(owner, name)
        assert name not in fields
