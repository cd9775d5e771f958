"""Train the three loss-term variants on synthetic blobs through the whole pipeline.

Writes the blob splits with the `synth` command, runs `run`'s pipeline once
per variant (both loss terms, the center term only, the quantization term
only) into <out-dir>/<variant>/, and prints one row per variant: mAP, P@H=2,
the mean distance from each database code to its own center, and the mean
diagonal and off-diagonal entries of the center-distance matrix.
"""

import argparse
import sys
from pathlib import Path

import numpy as np

from centerhash import cli, hamming
from centerhash.config import build_run_config
from centerhash.errors import CenterHashError
from centerhash.pipeline import run_pipeline

VARIANTS = {"center+quant": {}, "center": {"lambda1": 0.0}, "quant": {"use_lc": False}}


def main(argv=None) -> int:
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
    args = ap.parse_args(argv)

    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    blobs = str(out / "blobs")
    if cli.main(["synth", "--classes", str(args.classes), "--per-class", str(args.per_class),
                 "--query-per-class", str(args.query_per_class), "--dim", str(args.dim),
                 "--spread", str(args.spread), "--seed", str(args.seed),
                 "--out-prefix", blobs]) != 0:
        return 1
    splits = {f"{split}_{kind}": f"{blobs}.{split}.csq{kind[0]}"
              for split in ("train", "query") for kind in ("features", "labels")}

    print(f"{'variant':<14}{f'mAP@{args.per_class}':>8}{'P@H=2':>8}"
          f"{'own':>8}{'diag':>8}{'off':>8}")
    for name, loss_terms in VARIANTS.items():
        try:
            result = run_pipeline(build_run_config({
                **splits, **loss_terms, "out_dir": str(out / name), "k": args.k,
                "epochs": args.epochs, "map_n": args.per_class, "seed": args.seed}))
        except (CenterHashError, ValueError) as exc:
            print(f"error {exc}", file=sys.stderr)
            return 1
        db_words, _ = hamming.load_codes(result.paths["db_codes"])
        assigned, _ = hamming.load_codes(result.paths["assignments"])
        own = np.bitwise_count(db_words ^ assigned).sum(axis=1).mean()
        matrix = result.report.center_distances
        off = matrix[~np.eye(len(matrix), dtype=bool)].mean()
        print(f"{name:<14}{result.report.map_at_n:>8.4f}{result.report.p_at_h2:>8.4f}"
              f"{own:>8.3f}{np.diag(matrix).mean():>8.3f}{off:>8.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
