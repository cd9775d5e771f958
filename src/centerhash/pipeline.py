"""The end-to-end experiment: centers -> assignment -> training -> codes -> report.

Every stage failure is re-raised as a StageError carrying the stage tag,
and all artifacts are written deterministically: rerunning with the same
config and seed reproduces every output file byte for byte.
"""

from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import centers as centers_mod
from . import data_io, hamming, model as model_mod, retrieval
from .config import RunConfig
from .errors import CenterHashError, StageError


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


def run_pipeline(cfg: RunConfig) -> PipelineResult:
    paths = {}

    with _stage("train"):
        train_cfg = cfg.train_config()  # a bad setting fails before any artifact is written

    with _stage("load"):
        train = data_io.load_dataset(cfg.train_features, cfg.train_labels, "train")
        if (cfg.db_features, cfg.db_labels) == (cfg.train_features, cfg.train_labels):
            db = replace(train, split="database")  # shares the train arrays, no second copy
        else:
            db = data_io.load_dataset(cfg.db_features, cfg.db_labels, "database")
        query = data_io.load_dataset(cfg.query_features, cfg.query_labels, "query")
        Path(cfg.out_dir).mkdir(parents=True, exist_ok=True)

    with _stage("gen-centers"):
        m = cfg.m if cfg.m else train.q
        center_set = centers_mod.generate(cfg.method, m, cfg.k, cfg.seed)
        paths["centers"] = cfg.resolve_out(cfg.centers_out)
        centers_mod.save_centers(paths["centers"], center_set)

    with _stage("assign"):
        assignment = centers_mod.assign_multi_label(center_set, train.labels, cfg.seed)
        paths["assignments"] = cfg.resolve_out(cfg.assignments_out)
        hamming.save_codes(paths["assignments"], assignment.packed(), center_set.k)

    with _stage("train"):
        net, epoch_log = model_mod.train(train.features, assignment.vectors, train_cfg)
        paths["model"] = cfg.resolve_out(cfg.model_out)
        model_mod.save_model(paths["model"], net)

    with _stage("encode"):
        db_words = model_mod.encode(net, db.features)
        query_words = model_mod.encode(net, query.features)
        paths["db_codes"] = cfg.resolve_out(cfg.db_codes_out)
        paths["query_codes"] = cfg.resolve_out(cfg.query_codes_out)
        hamming.save_codes(paths["db_codes"], db_words, net.k)
        hamming.save_codes(paths["query_codes"], query_words, net.k)

    # eval and report need only the labels and the codes: free the feature matrices
    db_labels, query_labels = db.labels, query.labels
    del train, db, query

    with _stage("eval"):
        index = retrieval.CodeIndex(k=net.k, codes=db_words, labels=db_labels)
        distances = None
        if (db_labels.sum(axis=1) == 1).all():
            # single-label database: group each code under its category's center
            groups = db_labels.argmax(axis=1)
            distances = retrieval.center_distance_matrix(db_words, groups, center_set)
        report = retrieval.evaluate(
            index,
            query_words,
            query_labels,
            map_n=cfg.map_n,
            center_distances=distances,
        )

    with _stage("report"):
        paths["report"] = cfg.resolve_out(cfg.report_out)
        retrieval.write_report(paths["report"], report)

    return PipelineResult(report=report, epoch_log=epoch_log, paths=paths)
