"""The benchmark's workloads: generated input sizes and the CLI commands timed on them.

Every command runs with its working directory set to the workload's work
directory, so paths here are relative to it. Inputs are written there by
gen.py during set-up; each timed repetition writes its outputs under OUT.
"""

import hashlib
from dataclasses import dataclass

OUT = "out"


def sha256(path) -> str:
    """Hex digest of a file: inputs and artifacts must repeat byte for byte."""
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    inputs: dict  # generator parameters, read by gen.py
    map_n: int
    commands: tuple  # (label, argv after "centerhash"), run in order; labels may repeat
    setup_repeats: int


def _run_then_serve(run_flags, map_n):
    """`run` on train/query files, then `encode` + `eval` of its trained model.

    The serving pair re-derives the database codes and the report from the
    run's checkpoint, so encode and eval throughput are measured on every
    workload and the re-derived files must match the run's own. Encode
    lasts under a second here, mostly interpreter start-up, so it runs
    three times per repetition to give its median more samples.
    """
    run = (
        "run",
        "--train-features", "train.csqf", "--train-labels", "train.csql",
        "--query-features", "query.csqf", "--query-labels", "query.csql",
        "--map-n", str(map_n), "--seed", "0", "--out-dir", OUT, *run_flags,
    )
    encode = (
        "encode", "--model", f"{OUT}/model.csqm", "--features", "train.csqf",
        "--out-codes", f"{OUT}/encoded.csqc",
    )
    evaluate = (
        "eval", "--db-codes", f"{OUT}/encoded.csqc", "--db-labels", "train.csql",
        "--query-codes", f"{OUT}/query_codes.csqc", "--query-labels", "query.csql",
        "--map-n", str(map_n), "--out-report", f"{OUT}/eval_report.csv",
    )
    return (("run", run), *(("encode", encode),) * 3, ("eval", evaluate))


TRAIN_MEDIUM = Workload(
    name="train-medium",
    why=(
        "small-batch SGD (32x300 blobs, d=256, k=64 Hadamard, batch 16, 10 epochs; 960 queries) "
        "is per-step overhead bound and the only center-distance-matrix run"
    ),
    inputs={"kind": "blobs", "classes": 32, "per_class": 300, "query_per_class": 30,
            "d": 256, "spread": 0.1},
    map_n=100,
    commands=_run_then_serve(
        ("--k", "64", "--method", "hadamard", "--batch", "16", "--epochs", "10"), 100
    ),
    setup_repeats=9,
)

SEARCH_LARGE = Workload(
    name="search-large",
    why=(
        "encode 100k rows (d=256, k=64) with a checkpoint trained in set-up, then eval 100 "
        "multi-label queries (q=80, mAP@1000): retrieval and hamming bound"
    ),
    # the checkpoint is a fixed model: its training split and the category means
    # come from seed 0, and --seed draws the database and queries around them
    inputs={"kind": "multilabel", "q": 80, "d": 256, "spread": 0.1, "max_labels": 3,
            "train": 8000, "database": 100_000, "query": 100, "fixed_train": True,
            "k": 64, "lr": 0.5, "batch": 128, "epochs": 8},
    map_n=1000,
    commands=(
        ("encode", ("encode", "--model", "model.csqm", "--features", "database.csqf",
                    "--out-codes", f"{OUT}/db_codes.csqc")),
        ("eval", ("eval", "--db-codes", f"{OUT}/db_codes.csqc", "--db-labels", "database.csql",
                  "--query-codes", "query_codes.csqc", "--query-labels", "query.csql",
                  "--map-n", "1000", "--out-report", f"{OUT}/report.csv")),
    ),
    setup_repeats=3,
)

MULTILABEL_RUN = Workload(
    name="multilabel-run",
    why=(
        "run on 50k multi-label items (q=21, d=128, k=48 balanced centers, batch 256, 5 epochs; "
        "200 queries): matmul-bound training and majority-vote assign"
    ),
    inputs={"kind": "multilabel", "q": 21, "d": 128, "spread": 0.1, "max_labels": 3,
            "train": 50_000, "query": 200},
    map_n=5000,
    commands=_run_then_serve(
        ("--k", "48", "--method", "hadamard", "--batch", "256", "--lr", "0.16", "--epochs", "5"),
        5000,
    ),
    setup_repeats=7,
)

WORKLOADS = {w.name: w for w in (TRAIN_MEDIUM, SEARCH_LARGE, MULTILABEL_RUN)}
