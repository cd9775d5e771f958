"""The package's layers as the traced run sees them.

`install` wraps the calls into each layer module; `layer_metrics` turns
the recorded spans and counts into the per-layer metrics. Both name the
wrapped functions as "module.function". Importing this module does not
import the package, so the driver can use it without numpy.
"""

import importlib
import os
from dataclasses import dataclass

PACKAGE = "centerhash"


def _add_file_size(counter, param):
    def hook(counts, args, result):
        counts[counter] += os.path.getsize(args[param])
    return hook


def _count_queries(counts, args, result):
    counts["retrieval.queries"] += len(args["query_words"])


def _count_assignment(counts, args, result):
    counts["centers.assign_rows"] += result.n
    counts["centers.label_sets"] += len(result.by_label)


def _count_encoded(counts, args, result):
    counts["model.encode_rows"] += result.shape[0]


def _count_epochs(counts, args, result):
    counts["model.epochs"] += args["cfg"].epochs


# (module, function, count hook or None); spans are named "module.function"
FUNCTIONS = (
    ("cli", "_cmd_run", None),
    ("cli", "_cmd_encode", None),
    ("cli", "_cmd_eval", None),
    ("data_io", "load_features", _add_file_size("data_io.bytes_read", "path")),
    ("data_io", "load_labels", _add_file_size("data_io.bytes_read", "path")),
    ("centers", "generate_centers", None),
    ("centers", "generate_centers_balanced", None),
    ("centers", "generate_centers_bernoulli", None),
    ("centers", "validate_centers", None),
    ("centers", "assign_multi_label", _count_assignment),
    ("model", "train", _count_epochs),
    ("model", "forward", None),
    ("model", "_forward_cached", None),
    ("model", "backward", None),
    ("model", "central_loss", None),
    ("model", "quantization_loss", None),
    ("model", "encode", _count_encoded),
    ("model", "save_model", None),
    ("hamming", "distances_to", None),
    ("hamming", "pairwise_distances", None),
    ("hamming", "binarize_matrix", None),
    ("hamming", "save_codes", _add_file_size("hamming.bytes_written", "path")),
    ("hamming", "load_codes", None),
    ("retrieval", "evaluate", _count_queries),
    ("retrieval", "mean_average_precision", None),
    ("retrieval", "precision_at_n_curve", None),
    ("retrieval", "precision_within_radius", None),
    ("retrieval", "pr_curve", None),
    ("retrieval", "center_distance_matrix", None),
    ("retrieval", "write_report", _add_file_size("retrieval.report_bytes", "path")),
)

# context managers whose first argument names the span: pipeline._stage("train")
# records "stage.train"; cli binds the same object by `from .pipeline import _stage`
CONTEXTS = (("pipeline", "_stage", "stage."),)

STAGES = ("load", "gen-centers", "assign", "train", "encode", "eval", "report")


def install(tracer) -> None:
    for module in {m for m, _, _ in FUNCTIONS + CONTEXTS}:
        try:
            importlib.import_module(f"{PACKAGE}.{module}")
        except ModuleNotFoundError:
            pass  # its names are then recorded as absent
    for module, attr, hook in FUNCTIONS:
        name = f"{module}.{attr}"
        tracer.instrument(PACKAGE, module, attr,
                          lambda fn, name=name, hook=hook: tracer.wrap(name, fn, hook))
    for module, attr, prefix in CONTEXTS:
        tracer.instrument(PACKAGE, module, attr,
                          lambda fn, prefix=prefix: tracer.wrap_context(prefix, fn))


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    better: str
    needs: tuple = ()  # wrapped names; if one is absent, so is the metric
    value: object = None  # Trace -> number; None: measured by the driver
    exact: bool = False  # a count that must repeat exactly across traced runs


def _ratio(num, den) -> float:
    # a layer the workload never enters has no work to divide: report 0
    return num / den if den else 0.0


TRAIN = ("model.train",)
GENERATE = ("centers.generate_centers", "centers.generate_centers_balanced",
            "centers.generate_centers_bernoulli")
ASSIGN = ("centers.assign_multi_label",)
FORWARD = ("model.forward", "model._forward_cached")
BACKWARD = ("model.backward",)
LOSS = ("model.central_loss", "model.quantization_loss")
LOADS = ("data_io.load_features", "data_io.load_labels")
DISTANCE = ("hamming.distances_to",)
EVALUATE = ("retrieval.evaluate",)


def _timed(name, *wrapped):
    return LayerMetric(name, "s", "lower", wrapped, lambda t: t.total(wrapped))


METRICS = (
    *(LayerMetric(f"pipeline.{stage}_s", "s", "lower", ("pipeline._stage",),
                  lambda t, stage=stage: t.total([f"stage.{stage}"])) for stage in STAGES),
    _timed("data_io.load_s", *LOADS),
    LayerMetric("data_io.bytes_read", "bytes", "lower", LOADS,
                lambda t: t.counts.get("data_io.bytes_read", 0), exact=True),
    LayerMetric("data_io.load_mb_per_s", "MB/s", "higher", LOADS,
                lambda t: _ratio(t.counts.get("data_io.bytes_read", 0) / 1e6, t.total(LOADS))),
    _timed("centers.generate_s", *GENERATE),
    LayerMetric("centers.sets_drawn", "count", "lower", GENERATE + ("centers.validate_centers",),
                lambda t: t.count(["centers.validate_centers"], GENERATE), exact=True),
    _timed("centers.assign_s", *ASSIGN),
    LayerMetric("centers.assign_rows_per_s", "rows/s", "higher", ASSIGN,
                lambda t: _ratio(t.counts.get("centers.assign_rows", 0), t.total(ASSIGN))),
    LayerMetric("centers.label_set_hit_ratio", "ratio", "higher", ASSIGN,
                lambda t: _ratio(t.counts.get("centers.assign_rows", 0)
                                 - t.counts.get("centers.label_sets", 0),
                                 t.counts.get("centers.assign_rows", 0))),
    LayerMetric("model.epoch_s", "s", "lower", TRAIN,
                lambda t: _ratio(t.total(TRAIN), t.counts.get("model.epochs", 0))),
    LayerMetric("model.batches", "count", "lower", TRAIN + BACKWARD,
                lambda t: t.count(BACKWARD, TRAIN), exact=True),
    LayerMetric("model.forward_s", "s", "lower", TRAIN + FORWARD,
                lambda t: t.total(FORWARD, TRAIN)),
    LayerMetric("model.forward_passes_per_batch", "passes/batch", "lower",
                TRAIN + FORWARD + BACKWARD,
                lambda t: _ratio(t.count(FORWARD, TRAIN), t.count(BACKWARD, TRAIN)), exact=True),
    LayerMetric("model.backward_s", "s", "lower", TRAIN + BACKWARD,
                lambda t: t.total(BACKWARD, TRAIN)),
    LayerMetric("model.loss_s", "s", "lower", TRAIN + LOSS, lambda t: t.total(LOSS, TRAIN)),
    LayerMetric("model.train_self_s", "s", "lower", TRAIN, lambda t: t.self_time(TRAIN)),
    _timed("model.encode_s", "model.encode"),
    LayerMetric("model.encode_rows_per_s", "rows/s", "higher", ("model.encode",),
                lambda t: _ratio(t.counts.get("model.encode_rows", 0), t.total(["model.encode"]))),
    _timed("model.save_s", "model.save_model"),
    _timed("hamming.distance_s", *DISTANCE),
    LayerMetric("hamming.distance_calls_per_query", "calls/query", "lower", DISTANCE + EVALUATE,
                lambda t: _ratio(t.count(DISTANCE, EVALUATE),
                                 t.counts.get("retrieval.queries", 0)), exact=True),
    _timed("hamming.pairwise_s", "hamming.pairwise_distances"),
    _timed("hamming.binarize_s", "hamming.binarize_matrix"),
    _timed("hamming.save_codes_s", "hamming.save_codes"),
    _timed("hamming.load_codes_s", "hamming.load_codes"),
    LayerMetric("hamming.bytes_written", "bytes", "lower", ("hamming.save_codes",),
                lambda t: t.counts.get("hamming.bytes_written", 0), exact=True),
    _timed("retrieval.evaluate_s", *EVALUATE),
    _timed("retrieval.map_s", "retrieval.mean_average_precision"),
    _timed("retrieval.p_at_n_s", "retrieval.precision_at_n_curve"),
    _timed("retrieval.p_at_h2_s", "retrieval.precision_within_radius"),
    _timed("retrieval.pr_s", "retrieval.pr_curve"),
    _timed("retrieval.distmat_s", "retrieval.center_distance_matrix"),
    _timed("retrieval.write_report_s", "retrieval.write_report"),
    LayerMetric("retrieval.report_bytes", "bytes", "lower", ("retrieval.write_report",),
                lambda t: t.counts.get("retrieval.report_bytes", 0), exact=True),
    LayerMetric("cli.import_s", "s", "lower"),
    LayerMetric("trace.overhead_s", "s", "lower"),
)


def layer_metrics(trace) -> tuple:
    """({metric: value}, {metric: reason absent}) from one traced run."""
    values, absent = {}, {}
    for m in METRICS:
        if m.value is None:
            continue
        missing = [trace.absent[n] for n in m.needs if n in trace.absent]
        if missing:
            absent[m.name] = "; ".join(missing)
        else:
            values[m.name] = m.value(trace)
    return values, absent
