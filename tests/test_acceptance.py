"""The acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

import oracle
from centerhash import centers as C
from centerhash import hamming, model as M, retrieval as R, synthetic
from centerhash.cli import main as cli_main
from centerhash.config import build_run_config
from centerhash.data_io import save_features, save_labels
from centerhash.pipeline import run_pipeline
from test_model import gradient_relative_error


@contextmanager
def criterion(num: int, name: str, budget_s: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {num}: {name}")
        raise
    elapsed = time.perf_counter() - start
    status = "PASS" if elapsed <= budget_s else "FAIL"
    print(f"[{status}] criterion {num}: {name} ({elapsed:.2f}s, budget {budget_s:g}s)")
    assert elapsed <= budget_s, f"time budget exceeded: {elapsed:.2f}s > {budget_s}s"


def pairwise(cs):
    packed = cs.packed()
    return hamming.pairwise_distances(packed, packed)[np.triu_indices(cs.m, 1)]


def test_criterion_1_hadamard_separation():
    with criterion(1, "Hadamard center separation", budget_s=1.0):
        for k in (4, 8, 16, 32, 64):
            cs = C.generate_centers(k, k, seed=0)
            assert np.array_equal(pairwise(cs), np.full(k * (k - 1) // 2, k // 2))
            doubled = C.validate_centers(C.generate_centers(2 * k, k, seed=0))
            assert doubled.valid and doubled.mean_distance >= k / 2


def test_criterion_2_bernoulli_mean_distance():
    with criterion(2, "Bernoulli centers mean distance", budget_s=5.0):
        cs = C.generate_centers_bernoulli(500, 64, seed=123)
        mean = float(pairwise(cs).mean())
        assert 31.0 <= mean <= 33.0


def test_criterion_3_multi_label_centroids():
    with criterion(3, "multi-label centroids and tie sampling", budget_s=5.0):
        # odd membership: the vote is forced, bit by bit
        cs = C.CenterSet(np.array([[1, 1, 0, 0], [1, 0, 1, 0], [1, 0, 0, 1]], np.uint8), None)
        labels = np.array([[1, 1, 1]], dtype=np.uint8)
        smap = C.assign_multi_label(cs, labels, seed=0)
        assert np.array_equal(smap.vectors[0], [1, 0, 0, 0])

        five = C.CenterSet(np.array(
            [[1, 1, 0, 0, 1], [0, 1, 1, 0, 1], [1, 0, 1, 0, 0], [1, 1, 1, 1, 0], [0, 0, 1, 1, 0]],
            np.uint8), None)
        smap = C.assign_multi_label(five, np.ones((1, 5), dtype=np.uint8), seed=7)
        assert np.array_equal(smap.vectors[0], [1, 1, 1, 0, 0])

        # two complementary centers tie on every bit; 10^4 tie draws
        k = 10_000
        pattern = np.arange(k) % 2
        tied = C.CenterSet(np.array([pattern, 1 - pattern], np.uint8), None)
        draws = C.assign_multi_label(tied, np.ones((1, 2), dtype=np.uint8), seed=11)
        p_one = draws.vectors[0].mean()
        assert 0.48 <= p_one <= 0.52


def test_criterion_4_gradient_check():
    with criterion(4, "analytic gradients vs finite differences", budget_s=10.0):
        rng = np.random.default_rng(2024)
        cfg = M.TrainConfig(lambda1=1e-4, use_lc=True)
        for trial in range(20):
            d = int(rng.integers(2, 9))
            hidden = (int(rng.integers(2, 11)), int(rng.integers(2, 11)))
            k = int(rng.integers(2, 9))
            batch = int(rng.integers(1, 5))
            net = M.init_model(d, k, hidden=hidden, seed=trial)
            x = rng.normal(size=(batch, d))
            c = rng.integers(0, 2, size=(batch, k)).astype(float)
            err = gradient_relative_error(net, x, c, cfg)
            assert err <= 1e-4, f"trial {trial}: relative error {err}"


def test_criterion_5_loss_identities():
    with criterion(5, "loss identities", budget_s=1.0):
        rng = np.random.default_rng(5)
        c = rng.integers(0, 2, size=(4, 32)).astype(float)
        assert M.central_loss(c, c) <= 1e-6
        assert M.quantization_loss(c) == 0.0
        assert abs(M.quantization_loss([[0.5]]) - math.log(math.cosh(1.0))) <= 1e-9


def test_criterion_6_metric_oracle_equivalence():
    with criterion(6, "metrics match the brute-force oracle exactly", budget_s=30.0):
        rng = np.random.default_rng(66)
        for _ in range(50):
            n = int(rng.integers(5, 201))
            q = int(rng.integers(1, 11))
            k = int(rng.integers(2, 17))
            nq = int(rng.integers(1, 5))
            map_n = int(rng.integers(1, n + 1))

            def multihot(count):
                rows = rng.integers(0, 2, size=(count, q), dtype=np.uint8)
                for row in rows[rows.sum(axis=1) == 0]:
                    row[rng.integers(0, q)] = 1
                return rows

            db_bits = rng.integers(0, 2, size=(n, k), dtype=np.uint8)
            db_labels = multihot(n)
            q_bits = rng.integers(0, 2, size=(nq, k), dtype=np.uint8)
            q_labels = multihot(nq)

            index = R.CodeIndex.from_labels(hamming.pack_matrix(db_bits), db_labels, k)
            q_words = hamming.pack_matrix(q_bits)
            db_list = [list(map(int, row)) for row in db_bits]
            q_list = [list(map(int, row)) for row in q_bits]
            db_cats = [set(np.flatnonzero(row)) for row in db_labels]
            q_cats = [set(np.flatnonzero(row)) for row in q_labels]

            assert R.mean_average_precision(index, q_words, q_labels, map_n) == (
                oracle.mean_average_precision(db_list, db_cats, q_list, q_cats, map_n)
            )
            assert R.precision_at_n_curve(index, q_words, q_labels, map_n) == (
                oracle.precision_at_n_curve(db_list, db_cats, q_list, q_cats, map_n)
            )
            assert R.precision_within_radius(index, q_words, q_labels) == (
                oracle.precision_within_radius(db_list, db_cats, q_list, q_cats, 2)
            )
            assert R.pr_curve(index, q_words, q_labels) == (
                oracle.pr_curve(db_list, db_cats, q_list, q_cats)
            )


def synthetic_experiment_files(tmp_path, seed=2026):
    train = synthetic.make_synthetic_blobs(8, 100, 32, 0.1, seed=seed, split="train")
    query = synthetic.make_synthetic_blobs(8, 10, 32, 0.1, seed=seed, split="query")
    paths = {
        "train_features": tmp_path / "train.csqf",
        "train_labels": tmp_path / "train.csql",
        "query_features": tmp_path / "query.csqf",
        "query_labels": tmp_path / "query.csql",
    }
    save_features(paths["train_features"], train.features)
    save_labels(paths["train_labels"], train.labels)
    save_features(paths["query_features"], query.features)
    save_labels(paths["query_labels"], query.labels)
    return {key: str(value) for key, value in paths.items()}


def test_criterion_7_end_to_end_synthetic_run(tmp_path):
    with criterion(7, "desk-scale end-to-end retrieval", budget_s=120.0):
        seed = 2026
        cfg = build_run_config(
            {
                **synthetic_experiment_files(tmp_path, seed),
                "out_dir": str(tmp_path / "out"),
                "k": 16,
                "method": "hadamard",
                "epochs": 100,
                "map_n": 100,
                "seed": seed,
            }
        )
        result = run_pipeline(cfg)
        assert result.report.map_at_n >= 0.95

        db_words, k = hamming.load_codes(result.paths["db_codes"])
        assigned_words, _ = hamming.load_codes(result.paths["assignments"])
        own = np.bitwise_count(db_words ^ assigned_words).sum(axis=1)
        assert own.mean() <= 2.0

        matrix = result.report.center_distances
        assert matrix is not None and np.isfinite(matrix).all()
        diag = np.diag(matrix).mean()
        off = matrix[~np.eye(matrix.shape[0], dtype=bool)].mean()
        assert diag < off


def test_criterion_8_ablation_direction(tmp_path):
    with criterion(8, "loss-term ablation ordering", budget_s=120.0):
        seed = 2026
        train = synthetic.make_synthetic_blobs(8, 100, 32, 0.1, seed=seed, split="train")
        query = synthetic.make_synthetic_blobs(8, 10, 32, 0.1, seed=seed, split="query")
        cs = C.generate_centers(8, 16, seed=seed)
        smap = C.assign_multi_label(cs, train.labels, seed=seed)

        def run(**loss_terms):
            cfg = M.TrainConfig(seed=seed, **loss_terms)
            net, _ = M.train(train.features, smap.vectors, cfg)
            index = R.CodeIndex.from_labels(M.encode(net, train.features), train.labels, net.k)
            return R.mean_average_precision(index, M.encode(net, query.features), query.labels, 100)

        map_full = run()
        map_lc = run(lambda1=0.0)
        map_lq = run(use_lc=False)
        assert abs(map_lc - map_full) <= 0.05
        assert map_lq < map_lc and map_lq < map_full


def test_criterion_9_reproducibility(tmp_path):
    with criterion(9, "byte-identical reruns", budget_s=120.0):
        seed = 7
        files = synthetic_experiment_files(tmp_path, seed)
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(
            "\n".join(
                [
                    f"train_features = {files['train_features']}",
                    f"train_labels = {files['train_labels']}",
                    f"query_features = {files['query_features']}",
                    f"query_labels = {files['query_labels']}",
                    "k = 16",
                    "epochs = 10",
                    "map_n = 100",
                    f"seed = {seed}",
                ]
            )
        )
        artifacts = ("centers.csqh", "assignments.csqc", "model.csqm",
                     "db_codes.csqc", "query_codes.csqc", "report.csv")
        snapshots = []
        for attempt in range(2):
            out_dir = tmp_path / f"out{attempt}"
            rc = cli_main(["run", "--config", str(cfg_path), "--out-dir", str(out_dir)])
            assert rc == 0
            snapshots.append({name: (out_dir / name).read_bytes() for name in artifacts})
        assert snapshots[0] == snapshots[1]
