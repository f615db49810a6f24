"""Generate a labeled benchmark dataset and score the detector on it.

Writes the matrix as CSV, one point per column as ``roma --input`` reads by
default, plus a JSON sidecar (generator settings, labels, planted basis),
then runs detection and reports how it did.
"""

import argparse

from roma import SynthSpec, lre, make_dataset, recover_subspace, roma
from roma.synth import export_dataset


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--n", type=int, default=100)
    ap.add_argument("--rank", type=int, default=10)
    ap.add_argument("--num-points", type=int, default=1000)
    ap.add_argument("--gamma", type=float, default=0.5)
    ap.add_argument("--snr-db", type=float, default=None)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--out", default="benchmark.csv")
    args = ap.parse_args()

    spec = SynthSpec(n=args.n, num_points=args.num_points, rank=args.rank,
                     gamma=args.gamma, seed=args.seed, snr_db=args.snr_db)
    ds = make_dataset(spec)
    sidecar = export_dataset(ds, args.out, orientation="points-as-columns")
    print(f"wrote {args.out} and {sidecar}")

    res = roma(ds.matrix)
    true_out = set(ds.outlier_indices.tolist())
    est_out = set(res.partition.outliers.tolist())
    print(f"outliers: {len(true_out)} planted, {len(est_out)} flagged, "
          f"{len(true_out & est_out)} overlap")
    basis = recover_subspace(ds.matrix, res.partition.inliers,
                             rank="auto" if args.snr_db is None else args.rank)
    print(f"subspace LRE: {lre(ds.matrix.true_basis, basis):.2f}")


if __name__ == "__main__":
    main()
