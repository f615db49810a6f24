"""The public API: every exported name resolves, and deleted names stay gone."""

import ast
import dataclasses
import importlib
import inspect
import pkgutil
import tokenize
from pathlib import Path

import pytest

import roma
from roma import theory

MODULES = sorted(m.name for m in pkgutil.iter_modules(roma.__path__))
ROOT = Path(__file__).resolve().parents[1]

# Removed public names and the module that used to export each one.
DELETED = {
    "angles": ["pairwise_acute_angles", "pairwise_principal_angles",
               "min_angle_scores", "count_above_threshold",
               "mean_principal_angle", "min_pair", "angle_scores",
               "GramScan", "acute_row"],
    "statcore": ["normal_sf", "angle_pdf", "folded_gaussian_moments"],
    "threshold": ["compute_zeta_adapted"],
    "synth": ["assemble", "shuffle_and_label", "add_noise_snr",
              "sample_uniform_inliers", "sample_clustered_inliers",
              "sample_unstructured_outliers", "sample_clustered_outliers",
              "sample_bounded_cone", "NOISE_TARGETS", "load_sidecar",
              "spec_from_dict"],
    "theory": ["TheoryReport", "theory_report", "NOISE_SHIFT_BOTH_ENDS_FACTOR",
               "ErpTrialSummary", "ErpAlphaEstimate", "erp_alpha_estimate",
               "noise_shift_bound", "max_rank_sizable_noisy",
               "sizable_cluster_gap_condition"],
}

# Removed attributes, by the public class that used to have them.
DELETED_ATTRS = {
    ("synth", "ColumnStreams"): ["inlier", "outlier", "noise", "inlier_center",
                                 "outlier_center"],
    ("synth", "SynthDataset"): ["point_snr"],
    ("angles", "AngleScores"): ["mean_theta", "zeta"],
    ("data", "Label"): ["UNKNOWN"],
    ("data", "SubspaceBasis"): ["n"],
    ("detector", "RomaNResult"): ["survivors"],
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


def test_export_dataset_takes_no_sidecar_path():
    # the sidecar is always written beside the CSV, at <csv>.json
    from roma.synth import export_dataset
    assert list(inspect.signature(export_dataset).parameters) == [
        "dataset", "csv_path", "orientation"]


def _used_names(path: Path) -> set:
    """The identifiers that ``path`` uses: every name token but those that a
    ``def`` or ``class`` introduces.  Strings and comments are not names."""
    used, previous = set(), None
    with tokenize.open(path) as fh:
        for tok in tokenize.generate_tokens(fh.readline):
            if tok.type == tokenize.NAME and previous not in ("def", "class"):
                used.add(tok.string)
            previous = tok.string
    return used


def test_every_export_has_a_caller_outside_the_tests():
    # what the package, its scripts or its benchmark call; __init__.py only
    # re-exports, and __version__ is package metadata rather than a helper
    files = [p for p in (ROOT / "src" / "roma").glob("*.py") if p.name != "__init__.py"]
    files += [*(ROOT / "scripts").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]
    used = set().union(*map(_used_names, files))
    assert [n for n in roma.__all__ if n not in used and n != "__version__"] == []


@pytest.mark.parametrize("name", MODULES + ["__init__"])
def test_every_import_is_used_or_exported(name):
    path = ROOT / "src" / "roma" / f"{name}.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {(alias.asname or alias.name).split(".")[0]
                for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__"
                for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = getattr(importlib.import_module(f"roma.{name}".removesuffix(".__init__")),
                       "__all__", [])
    assert sorted(imported - used - set(exported)) == []


@pytest.mark.parametrize("call, match", [
    (lambda: roma.compute_cn(2.7), "num_points must be an integer, got 2.7"),
    (lambda: roma.compute_cn(True), "num_points must be an integer, got True"),
    (lambda: roma.compute_cn(1), "need at least 2 points"),
    (lambda: roma.compute_zeta(100.9, 1000), "n must be an integer, got 100.9"),
    (lambda: roma.compute_zeta(100, 1000.0), "num_points must be an integer, got 1000.0"),
    (lambda: roma.compute_zeta(2, 1000), "dimension must be at least 3"),
    (lambda: roma.angle_sigma(102.0), "dim must be an integer, got 102.0"),
    (lambda: roma.angle_sigma(False), "dim must be an integer, got False"),
    (lambda: roma.normal_quantile(1.0), "p must lie strictly between 0 and 1"),
    (lambda: roma.p_inlier(100.5, 10, 1000), "n must be an integer, got 100.5"),
    (lambda: roma.p_inlier(100, 10.0, 1000), "r must be an integer, got 10.0"),
    (lambda: roma.p_inlier(100, 10, True), "num_points must be an integer, got True"),
    (lambda: roma.p_inlier(100, 10, 1), "need at least 2 points"),
    (lambda: roma.erp_impossibility_alpha(100, 20, "1000", 100),
     "num_points must be an integer, got '1000'"),
    (lambda: roma.erp_impossibility_alpha(100, 20, 1000, 100.0),
     "num_inliers must be an integer, got 100.0"),
    (lambda: roma.normal_quantile("0.5"), "p must be a finite real, got '0.5'"),
    (lambda: roma.ColumnStreams(2.7), "seed must be an integer, got 2.7"),
    (lambda: roma.ColumnStreams("5"), "seed must be an integer, got '5'"),
    (lambda: roma.random_subspace(5.0, 2, roma.ColumnStreams(1).subspace()),
     "n must be an integer, got 5.0"),
    # counts whose float arithmetic would overflow
    (lambda: roma.compute_cn(10 ** 103), "num_points must lie below 2\\^340"),
    (lambda: roma.compute_cn(10 ** 200), "num_points must lie below 2\\^340"),
    (lambda: roma.p_inlier(100, 10, 10 ** 200), "num_points must lie below 2\\^340"),
    (lambda: theory.max_rank_sizable(100, 10 ** 200), "num_points must lie below 2\\^340"),
    (lambda: theory.na_bound_prob(10 ** 200, 10, 10), "num_points must lie below 2\\^340"),
    (lambda: roma.angle_sigma(10 ** 400), "dim must lie below 2\\^1023"),
], ids=["cn-float", "cn-bool", "cn-one", "zeta-float-n", "zeta-float-N", "zeta-n-2",
        "sigma-float", "sigma-bool", "quantile-p", "p-float-n", "p-float-r", "p-bool-N",
        "p-N-1", "erp-str-N", "erp-float-inliers", "quantile-str-p", "seed-float",
        "seed-str", "subspace-float-n", "cn-huge-N", "cn-huger-N", "p-huge-N",
        "rank-cap-huge-N", "na-bound-huge-N", "sigma-huge-dim"])
def test_a_bad_count_to_an_export_is_a_roma_error(call, match):
    # refused, never truncated, and a RomaError that is also a ValueError
    with pytest.raises(roma.ValidationError, match=match) as info:
        call()
    assert isinstance(info.value, roma.RomaError) and isinstance(info.value, ValueError)


def test_the_cli_offers_the_outlier_models_an_experiment_builds():
    from roma import synth
    from roma.cli import build_parser

    action = next(a for a in build_parser()._actions if a.dest == "outlier_model")
    assert list(action.choices) == ["unstructured", "clustered", "bounded-cone"]
    assert list(action.choices) == [m for m in synth._OUTLIER_MODELS if m != "mixed"]
