"""Command line front end.

Two jobs: run the detector on a CSV matrix (``--experiment detect``, the
default) and run the Monte Carlo experiment suites.  Results go to --out or
stdout; --format picks csv or json for experiment tables.  A flag of the
job that does not run is refused, and so are --rank without --recover and
--rank-disambiguate without --stage roma-n.  Exit codes: 0 success, 2 bad
input, flags or config, 3 infeasible generator.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import numpy as np

from . import experiments, synth
from .data import Label, load_csv_matrix
from .detector import _stage1, roma_n
from .errors import FeasibilityError, RomaError
from .experiments import ExperimentConfig, config_from_dict
from .subspace import recover_subspace
from .threshold import MODES

__all__ = ["main", "build_parser"]

_CHOICES = ("detect",) + experiments.EXPERIMENTS


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="roma",
        description="Angle-based outlier detection for subspace recovery.")
    p.add_argument("--experiment", choices=_CHOICES, default="detect",
                   help="what to run (default: detect on --input)")
    p.add_argument("--out", metavar="FILE", help="write results here instead of stdout")
    p.add_argument("--mode", choices=MODES, default=None,
                   help="threshold center: pi/2 (theoretical, the default) or "
                        "the sample mean angle (adapted)")
    p.add_argument("--stage", choices=experiments._STAGES, default=None,
                   help="one-stage or two-stage detection (default: roma, or "
                        "the experiment's)")
    p.add_argument("--rank-disambiguate", action="store_true",
                   help="let stage two swap cluster labels by comparing "
                        "rank-to-size ratios")

    # Both jobs read the flags above; each refuses those of the other's
    # group (``_refuse_unread``).
    d = p.add_argument_group("detect")
    d.add_argument("--input", metavar="CSV", help="data matrix, one point per column")
    d.add_argument("--labels", metavar="FILE",
                   help="true labels (inlier/outlier or 0/1, one per point) "
                        "for scoring the detection")
    d.add_argument("--orientation", choices=("columns", "rows"), default="columns",
                   help="whether points are columns or rows of --input")
    d.add_argument("--recover", action="store_true",
                   help="also compute an orthonormal basis from the estimated inliers")
    d.add_argument("--rank", dest="basis_rank", metavar="RANK", type=int,
                   default=None, help="basis rank for --recover (default: auto)")

    # A flag whose dest names an ExperimentConfig field sets that field;
    # --noiseless sets snr_db to None.
    e = p.add_argument_group("experiments")
    e.add_argument("--config", metavar="FILE",
                   help="JSON config for experiments; explicit flags override it")
    e.add_argument("--format", choices=("csv", "json"), default="csv",
                   help="experiment output format (detect always emits json)")
    e.add_argument("--trials", type=int, default=None, help="trials per grid cell")
    e.add_argument("--seed", type=int, default=None, help="master seed")
    e.add_argument("--n", metavar="DIM", type=int, default=None,
                   help="ambient dimension")
    e.add_argument("--subspace-rank", dest="rank", metavar="SUBSPACE_RANK",
                   type=int, default=None, help="true subspace dimension")
    e.add_argument("--num-points", type=int, default=None, help="total points N")
    e.add_argument("--num-inliers", type=int, default=None,
                   help="inlier count (mixed experiment)")
    e.add_argument("--snr-db", type=float, default=None,
                   help="additive noise level; omit for the config default")
    e.add_argument("--noiseless", action="store_true", help="force snr_db = None")
    e.add_argument("--gamma-grid", type=float, nargs="+", default=None,
                   help="outlier fractions to sweep")
    e.add_argument("--snr-grid", type=float, nargs="+", default=None,
                   help="SNR values to sweep (oip-erp)")
    e.add_argument("--mu-grid", type=float, nargs="+", default=None,
                   help="outlier cluster spreads to sweep (structured)")
    e.add_argument("--inlier-grid", type=int, nargs="+", default=None,
                   help="inlier counts to sweep (phase maps)")
    e.add_argument("--outlier-grid", type=int, nargs="+", default=None,
                   help="outlier counts to sweep (phase-recovery, mixed)")
    e.add_argument("--ratio-grid", type=float, nargs="+", default=None,
                   help="rank/dimension ratios to sweep (phase-inliers)")
    e.add_argument("--outlier-model",
                   choices=[m for m in synth._OUTLIER_MODELS if m != "mixed"], default=None)
    e.add_argument("--mu", type=float, default=None, help="outlier cluster spread")
    e.add_argument("--nu", type=float, default=None, help="inlier cluster spread")
    e.add_argument("--theta-max", type=float, default=None,
                   help="cone half-angle for bounded-cone outliers")
    return p


def _read_labels(path, num_points: int) -> np.ndarray:
    names = {"inlier": int(Label.INLIER), "outlier": int(Label.OUTLIER),
             "0": int(Label.INLIER), "1": int(Label.OUTLIER)}
    tokens = []
    with open(path, newline="", encoding="utf-8-sig") as fh:
        for line in fh:
            tokens.extend(t.strip().lower() for t in line.replace(",", " ").split())
    if len(tokens) != num_points:
        raise RomaError(f"{path}: got {len(tokens)} labels for {num_points} points")
    try:
        values = [names[t] for t in tokens]
    except KeyError as bad:
        raise RomaError(f"{path}: unrecognized label {bad.args[0]!r}") from None
    return np.asarray(values, dtype=np.int8)


def _detect_report(args) -> dict:
    if not args.input:
        raise RomaError("detect needs --input")
    mode = args.mode or "theoretical"
    stage = args.stage or "roma"
    orientation = f"points-as-{args.orientation}"
    matrix = load_csv_matrix(args.input, orientation=orientation)
    if stage == "roma":
        res = _stage1(matrix, mode, count_na=True)  # the report prints na
        stage2 = None
    else:
        res2 = roma_n(matrix, mode, rank_disambiguate=args.rank_disambiguate)
        res = res2.stage1
        stage2 = res2
    final = res.partition if stage2 is None else stage2.partition
    report = {
        "input": args.input,
        "n": matrix.n,
        "num_points": matrix.num_points,
        "stage": stage,
        "threshold": dataclasses.asdict(res.threshold),
        "outliers": final.outliers.tolist(),
        "num_outliers": int(final.outliers.size),
        "scores": {"q": res.scores.q.tolist(),
                   "na": res.scores.na.tolist(),
                   "mean_theta": (res.threshold.center if mode == "adapted"
                                  else None)},
    }
    if stage2 is not None:
        report["stage2"] = {
            "stage1_outliers": res.partition.outliers.tolist(),
            "survivors": res.partition.inliers.tolist(),
            "na_survivors": stage2.na_survivors.tolist(),
            "inlier_head": stage2.inlier_head,
            "outlier_head": stage2.outlier_head,
            "labels_swapped": stage2.labels_swapped,
        }
    if args.recover:
        rank = "auto" if args.basis_rank is None else args.basis_rank
        basis = recover_subspace(matrix, final.inliers, rank=rank)
        report["recovered"] = {"rank": basis.rank,
                               "basis": basis.values.tolist()}
    if args.labels:
        truth = _read_labels(args.labels, matrix.num_points)
        report["truth"] = {**experiments._truth_flags(final, truth),
                           "num_true_outliers": int((truth == int(Label.OUTLIER)).sum())}
    return report


def _experiment_config(args) -> ExperimentConfig:
    """The --config file's fields, then each flag that is set, then --noiseless."""
    d = {}
    if args.config:
        with open(args.config, encoding="utf-8-sig") as fh:
            d = json.load(fh)
        if not isinstance(d, dict):
            raise RomaError(f"{args.config}: expected a JSON object")
        if d.get("experiment", args.experiment) != args.experiment:
            raise RomaError(
                f"--experiment {args.experiment} conflicts with config file "
                f"experiment {d['experiment']!r}")
    for field in dataclasses.fields(ExperimentConfig):
        value = getattr(args, field.name, None)
        # unset flags, store_true ones included, leave the config alone
        if value is not None and value is not False:
            d[field.name] = value
    if args.noiseless:
        d["snr_db"] = None
    return config_from_dict(d)


def _emit(text: str, out) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _refuse_unread(parser: argparse.ArgumentParser, args) -> None:
    """Exit 2 naming each set flag of the job that does not run, and each
    detect flag that the rest of the detect run would not read.

    A flag counts as set when its value differs from its default.
    """
    other = "experiments" if args.experiment == "detect" else "detect"
    (group,) = [g for g in parser._action_groups if g.title == other]
    unread = [a.option_strings[0] for a in group._group_actions
              if getattr(args, a.dest) != a.default]
    if unread:
        parser.error(f"--experiment {args.experiment} does not read "
                     f"{', '.join(unread)}")
    if args.experiment != "detect":
        return  # run_experiment refuses the config fields a run does not read
    if args.basis_rank is not None and not args.recover:
        parser.error("--rank needs --recover")
    if args.rank_disambiguate and args.stage != "roma-n":
        parser.error("--rank-disambiguate needs --stage roma-n")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _refuse_unread(parser, args)
    try:
        if args.experiment == "detect":
            report = _detect_report(args)
            _emit(json.dumps(report, indent=1), args.out)
            return 0
        cfg = _experiment_config(args)
        result = experiments.run_experiment(cfg)
        if args.format == "json":
            _emit(experiments.render_json(result), args.out)
        else:
            _emit(experiments.render_csv(result), args.out)
        return 0
    except FeasibilityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (RomaError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
