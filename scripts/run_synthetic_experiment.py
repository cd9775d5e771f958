"""Run the full pipeline on synthetic blobs and print a retrieval summary.

Generates well-separated Gaussian blobs, trains the hash head against
Hadamard centers, and reports mAP, P@H=2, the mean distance of each code
to its own center, and the diagonal/off-diagonal contrast of the
center-distance matrix.
"""

import argparse
from pathlib import Path

import numpy as np

from centerhash import hamming, synthetic
from centerhash.config import build_run_config
from centerhash.data_io import save_features, save_labels
from centerhash.pipeline import run_pipeline


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--classes", type=int, default=8)
    ap.add_argument("--per-class", type=int, default=100)
    ap.add_argument("--query-per-class", type=int, default=10)
    ap.add_argument("--dim", type=int, default=32)
    ap.add_argument("--spread", type=float, default=0.1)
    ap.add_argument("--k", type=int, default=16)
    ap.add_argument("--epochs", type=int, default=100)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out-dir", default="synthetic_run")
    args = ap.parse_args()

    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    train = synthetic.make_synthetic_blobs(
        args.classes, args.per_class, args.dim, args.spread, args.seed, split="train"
    )
    query = synthetic.make_synthetic_blobs(
        args.classes, args.query_per_class, args.dim, args.spread, args.seed, split="query"
    )
    save_features(out / "train.csqf", train.features)
    save_labels(out / "train.csql", train.labels)
    save_features(out / "query.csqf", query.features)
    save_labels(out / "query.csql", query.labels)

    cfg = build_run_config(
        {
            "train_features": str(out / "train.csqf"),
            "train_labels": str(out / "train.csql"),
            "query_features": str(out / "query.csqf"),
            "query_labels": str(out / "query.csql"),
            "out_dir": str(out),
            "k": args.k,
            "epochs": args.epochs,
            "map_n": args.per_class,
            "seed": args.seed,
        }
    )
    result = run_pipeline(cfg)

    db_words, _ = hamming.load_codes(result.paths["db_codes"])
    assigned, _ = hamming.load_codes(result.paths["assignments"])
    own = np.bitwise_count(db_words ^ assigned).sum(axis=1)

    print(f"mAP@{cfg.map_n}      {result.report.map_at_n:.4f}")
    print(f"P@H=2        {result.report.p_at_h2:.4f}")
    print(f"mean D_H(code, own center)  {own.mean():.3f} bits")
    matrix = result.report.center_distances
    if matrix is not None:
        diag = np.diag(matrix).mean()
        off = matrix[~np.eye(matrix.shape[0], dtype=bool)].mean()
        print(f"distance matrix: diagonal mean {diag:.3f}, off-diagonal mean {off:.3f}")
    print(f"report: {result.paths['report']}")


if __name__ == "__main__":
    main()
