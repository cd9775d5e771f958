"""The experiment's stages: centers -> assignment -> training -> codes -> report.

Each stage function reads its input files, checks them, computes and writes
its artifact; the subcommands and `run_pipeline` call the same functions.
Every stage failure is re-raised as a StageError carrying the stage tag, and
the same config and seed reproduce every artifact byte for byte.
"""

from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import centers as centers_mod
from . import data_io, hamming, model as model_mod, retrieval
from .config import RunConfig
from .errors import CenterHashError, DimensionError, InvalidLabelError, StageError

# each artifact `run_pipeline` writes, and its file name under the config's out_dir
ARTIFACTS = {"centers": "centers.csqh", "assignments": "assignments.csqc", "model": "model.csqm",
             "db_codes": "db_codes.csqc", "query_codes": "query_codes.csqc",
             "report": "report.csv"}


@dataclass
class PipelineResult:
    report: retrieval.EvalReport
    epoch_log: list
    paths: dict  # stage artifact name -> written path


@contextmanager
def _stage(name: str):
    try:
        yield
    except StageError:
        raise
    except (CenterHashError, OSError, ValueError) as exc:
        raise StageError(name, str(exc)) from exc


def gen_centers(method: str, m: int, k: int, seed: int, out) -> centers_mod.CenterSet:
    """Generate m centers of k bits and save them to `out`."""
    cs = centers_mod.generate(method, m, k, seed)
    centers_mod.save_centers(out, cs)
    return cs


def assign(centers, labels, seed: int, out) -> centers_mod.SemanticCenterMap:
    """Give every labeled sample its semantic center; save them to `out` as codes."""
    cs = centers_mod.load_centers(centers)
    assignment = centers_mod.assign_multi_label(cs, data_io.load_labels(labels), seed)
    hamming.save_codes(out, assignment.packed(), cs.k)
    return assignment


def train(features, centers_map, cfg: model_mod.TrainConfig, out_model):
    """Train the hash head toward each row's assigned center; returns (model, epoch log).
    The map gives k, and must have one row per feature row; its centers stay packed,
    and training unpacks each batch's rows. The features stay in their file, which
    model.train checks in full before its first step."""
    net, log = model_mod.train(data_io.open_features(features),
                               hamming.PackedRows(*hamming.load_codes(centers_map)), cfg)
    model_mod.save_model(out_model, net)
    return net, log


def encode(model, features, out_codes) -> tuple[np.ndarray, int]:
    """Binarize a feature file, streamed block by block; returns (codes, k)."""
    net = model_mod.load_model(model)
    words = model_mod.encode(net, data_io.open_features(features))
    hamming.save_codes(out_codes, words, net.k)
    return words, net.k


def evaluate(db_codes, db_labels, query_codes, query_labels, map_n: int,
             centers=None) -> retrieval.EvalReport:
    """The query codes' retrieval metrics against the database codes. Given a `centers`
    file, a single-label database's report also holds the distmat of its codes."""
    db_words, db_k = hamming.load_codes(db_codes)
    db_bitsets, db_n = data_io.load_label_bitsets(db_labels)
    query_words, query_k = hamming.load_codes(query_codes)
    query_y = data_io.load_labels(query_labels)[:]
    if db_k != query_k:
        raise DimensionError(f"database codes have k={db_k}, queries k={query_k}")
    report = retrieval.evaluate(retrieval.CodeIndex(db_words, db_bitsets, db_n, db_k),
                                query_words, query_y, map_n)
    if centers:
        report.center_distances = _center_distances(db_words, db_k, db_bitsets, db_n, centers)
    return report


def distmat(codes, assignments, centers) -> np.ndarray:
    """The (m, m) mean code-to-center distances, each code grouped under the
    one center its row of the `assignments` label file names."""
    words, k = hamming.load_codes(codes)
    matrix = _center_distances(words, k, *data_io.load_label_bitsets(assignments), centers)
    if matrix is None:
        raise InvalidLabelError("assignments must name exactly one center per code")
    return matrix


def _center_distances(words, k: int, bitsets, n: int, centers) -> np.ndarray | None:
    """The (m, m) mean code-to-center distances, each of the n codes grouped under the
    one category its row has in the per-category bitsets; None unless every row has
    exactly one. Every row has a category, so n set bits in all means exactly one each."""
    if int(np.bitwise_count(bitsets).sum()) != n:
        return None
    cs = centers_mod.load_centers(centers)
    if cs.k != k:
        raise DimensionError(f"codes have k={k}, centers k={cs.k}")
    groups = np.unpackbits(bitsets, axis=1, count=n, bitorder="little").argmax(axis=0)
    return retrieval.center_distance_matrix(words, groups, cs)


def _load(cfg: RunConfig) -> int:
    """Check every input before any artifact is written: that every split's files
    are set (before any is opened), each feature and label file's header and length
    (the stage that reads its rows checks them), that a split's two files agree on
    n, every split has the train split's d and the query labels the database
    labels' q. Returns the train labels' q."""
    splits = [("train", cfg.train_features, cfg.train_labels),
              ("query", cfg.query_features, cfg.query_labels)]
    if (cfg.db_features, cfg.db_labels) != (cfg.train_features, cfg.train_labels):
        splits.insert(1, ("database", cfg.db_features, cfg.db_labels))
    for name, *files in splits:
        unset = [kind for kind, path in zip(("features", "labels"), files) if not path]
        if unset:
            raise ValueError(f"{name} {' and '.join(unset)} are not set")
    shapes = []  # (d, q) of each split; the database split is the second to last
    for name, features, label_file in splits:
        n, d = data_io.open_features(features).shape
        label_n, q = data_io.label_shape(label_file)
        if label_n != n:
            raise DimensionError(f"{n} feature rows, {label_n} label rows")
        shapes.append((d, q))
        if d != shapes[0][0]:
            raise DimensionError(f"{name} features have dim {d}, "
                                 f"train features dim {shapes[0][0]}")
    (_, q), (_, db_q), (_, query_q) = shapes[0], shapes[-2], shapes[-1]
    if query_q != db_q:
        raise DimensionError(f"query labels have {query_q} categories, database labels {db_q}")
    return q


def run_pipeline(cfg: RunConfig) -> PipelineResult:
    """Every stage in order, each reading the artifacts the stages before it wrote.
    The centers are one per category of the training labels."""
    paths = {name: str(Path(cfg.out_dir) / file) for name, file in ARTIFACTS.items()}

    with _stage("train"):
        train_cfg = cfg.train_config()  # a bad setting fails before any artifact is written
    with _stage("load"):
        q = _load(cfg)
        Path(cfg.out_dir).mkdir(parents=True, exist_ok=True)
    with _stage("gen-centers"):
        gen_centers(cfg.method, q, cfg.k, cfg.seed, paths["centers"])
    with _stage("assign"):
        assign(paths["centers"], cfg.train_labels, cfg.seed, paths["assignments"])
    with _stage("train"):
        _, epoch_log = train(cfg.train_features, paths["assignments"], train_cfg, paths["model"])
    with _stage("encode"):
        encode(paths["model"], cfg.db_features, paths["db_codes"])
        encode(paths["model"], cfg.query_features, paths["query_codes"])
    with _stage("eval"):
        report = evaluate(paths["db_codes"], cfg.db_labels, paths["query_codes"],
                          cfg.query_labels, cfg.map_n, centers=paths["centers"])
    with _stage("report"):
        retrieval.write_report(paths["report"], report)

    return PipelineResult(report=report, epoch_log=epoch_log, paths=paths)
