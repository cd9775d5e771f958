"""Seeded input generation for one workload (the benchmark's set-up).

    python3 perfbench/gen.py --workload NAME --seed N --dir WORKDIR --repeats R

Writes the workload's CSQF/CSQL input files into WORKDIR through the
package's own writers; for search-large it also trains the checkpoint and
encodes the queries. Set-up runs R times; the last line of stdout is a
JSON object with each repetition's time and the sha256 of every file.
The same seed gives byte-identical files, which the driver checks.
"""

import argparse
import json
import os
import platform
import sys
import time
import zlib

import numpy as np

from centerhash import centers, data_io, hamming, model, synthetic
from workloads import WORKLOADS, sha256


def _rng(seed: int, stream: str) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(stream.encode())])


def make_multilabel(q, n, d, spread, max_labels, seed, split, means_seed=None):
    """Multi-hot items with 1..max_labels categories each.

    Class means lie on the unit sphere and depend only on (q, d, means_seed),
    which defaults to seed; an item's feature is the mean of its categories'
    means plus Gaussian noise, drawn afresh for every split.
    """
    raw = _rng(seed if means_seed is None else means_seed, "multilabel-means").standard_normal((q, d))
    means = (raw / np.linalg.norm(raw, axis=1, keepdims=True)).astype(np.float32)
    rng = _rng(seed, f"multilabel-{split}")
    count = rng.integers(1, max_labels + 1, size=n)
    picks = rng.random((n, q)).argsort(axis=1)[:, :max_labels]
    labels = np.zeros((n, q), dtype=np.uint8)
    for j in range(max_labels):
        take = count > j
        labels[np.flatnonzero(take), picks[take, j]] = 1
    features = (labels.astype(np.float32) @ means) / count[:, None].astype(np.float32)
    features += np.float32(spread) * rng.standard_normal((n, d), dtype=np.float32)
    return features, labels


def _save(stem, features, labels):
    data_io.save_features(f"{stem}.csqf", features)
    data_io.save_labels(f"{stem}.csql", labels)


def _train_checkpoint(spec):
    """Train search-large's model on its train split and encode the queries."""
    cs = centers.generate_centers(spec["q"], spec["k"], seed=0)
    labels = data_io.load_labels("train.csql")
    assignment = centers.assign_multi_label(cs, labels, seed=0)
    cfg = model.TrainConfig(
        learning_rate=spec["lr"], batch_size=spec["batch"], epochs=spec["epochs"], seed=0
    )
    net, _ = model.train(data_io.load_features("train.csqf"), assignment.vectors, cfg)
    model.save_model("model.csqm", net)
    query_codes = model.encode(net, data_io.load_features("query.csqf"))
    hamming.save_codes("query_codes.csqc", query_codes, net.k)


def generate(spec: dict, seed: int) -> None:
    if spec["kind"] == "blobs":
        for split, per_class in (("train", spec["per_class"]), ("query", spec["query_per_class"])):
            ds = synthetic.make_synthetic_blobs(
                spec["classes"], per_class, spec["d"], spec["spread"], seed, split=split
            )
            _save(split, ds.features, ds.labels)
        return
    fixed = spec.get("fixed_train", False)
    for split in ("train", "database", "query"):
        if split in spec:
            _save(split, *make_multilabel(
                spec["q"], spec[split], spec["d"], spec["spread"], spec["max_labels"],
                0 if fixed and split == "train" else seed, split, means_seed=0 if fixed else None,
            ))
    if "k" in spec:
        _train_checkpoint(spec)


def machine() -> dict:
    """The library versions the timings depend on."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--repeats", type=int, default=1)
    args = parser.parse_args(argv)
    spec = WORKLOADS[args.workload].inputs
    os.makedirs(args.dir, exist_ok=True)
    os.chdir(args.dir)

    times, hashes, identical = [], None, True
    for _ in range(args.repeats):
        for name in os.listdir("."):
            if os.path.isfile(name):
                os.remove(name)
        t0 = time.perf_counter()
        generate(spec, args.seed)
        times.append(time.perf_counter() - t0)
        current = {name: sha256(name) for name in sorted(os.listdir(".")) if os.path.isfile(name)}
        identical &= hashes is None or current == hashes
        hashes = current
    print(json.dumps({"times": times, "hashes": hashes, "identical": identical,
                      "machine": machine()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
