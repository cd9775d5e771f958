"""Command-line front end.

One subcommand per pipeline stage plus `synth` for dataset generation
and `run` for the whole experiment driven by a key=value config file.
Exits 0 on success; on failure prints `error [stage] ...` to stderr and
exits 1. main is the one error boundary: each command runs inside a
pipeline stage named after it, and `run`'s own stages keep their tags.
"""

import argparse
import functools
import sys
from dataclasses import fields

from . import centers as centers_mod
from . import binfmt, data_io, retrieval, synthetic
from .config import TRAIN_FIELDS, RunConfig, load_run_config
from .errors import StageError
from .pipeline import _stage, assign, distmat, encode, evaluate, gen_centers, run_pipeline, train


def _cmd_gen_centers(args):
    cs = gen_centers(args.method, args.m, args.k, args.seed, args.out)
    report = centers_mod.validate_centers(cs)
    print(
        f"wrote {args.out}: m={cs.m} k={cs.k} method={cs.method} "
        f"mean_distance={report.mean_distance:.3f} valid={report.valid}"
    )


def _cmd_assign(args):
    assignment = assign(args.centers, args.labels, args.seed, args.out)
    print(f"wrote {args.out}: {assignment.n} samples, {len(assignment.by_label)} distinct label sets")


def _given(args, config_fields) -> dict:
    """The config flags set on the command line: an unset flag reads None."""
    values = vars(args)
    return {f.name: values[f.name] for f in config_fields if values[f.name] is not None}


def _cmd_train(args):
    cfg = RunConfig(**_given(args, TRAIN_FIELDS)).train_config()
    net, log = train(args.features, args.centers_map, cfg, args.out_model)
    final = f", final loss {log[-1].total:.6f}" if log else ""
    print(f"wrote {args.out_model}: layers {net.layer_sizes}, {len(log)} epochs{final}")


def _cmd_encode(args):
    words, k = encode(args.model, args.features, args.out_codes)
    print(f"wrote {args.out_codes}: {words.shape[0]} codes of {k} bits")


def _cmd_eval(args):
    RunConfig(map_n=args.map_n)  # a bad cutoff fails before any file is read
    report = evaluate(args.db_codes, args.db_labels, args.query_codes, args.query_labels,
                      args.map_n)
    retrieval.write_report(args.out_report, report)
    print(
        f"wrote {args.out_report}: map@{args.map_n}={report.map_at_n:.6f} "
        f"p@h2={report.p_at_h2:.6f}"
    )


def _cmd_distmat(args):
    matrix = distmat(args.codes, args.assignments, args.centers)
    with binfmt.atomic_write(args.out) as f:
        f.write(("\n".join(retrieval.center_distance_lines(matrix)) + "\n").encode())
    print(f"wrote {args.out}: {len(matrix)}x{len(matrix)} mean-distance matrix")


def _cmd_synth(args):
    query_per_class = args.query_per_class
    if query_per_class is None:
        query_per_class = max(1, args.per_class // 10)
    splits = [(split, synthetic.make_synthetic_blobs(
                   args.classes, per_class, args.dim, args.spread, args.seed, split=split))
              for split, per_class in (("train", args.per_class), ("query", query_per_class))]
    written = []  # both splits are generated before either is written
    for split, ds in splits:
        fpath = f"{args.out_prefix}.{split}.csqf"
        lpath = f"{args.out_prefix}.{split}.csql"
        data_io.save_features(fpath, ds.features)
        data_io.save_labels(lpath, ds.labels)
        written += [fpath, lpath]
    for path in written:
        print(f"wrote {path}")


def _cmd_run(args):
    with _stage("config"):
        cfg = load_run_config(args.config, _given(args, fields(RunConfig)))
    result = run_pipeline(cfg)
    print(f"wrote {result.paths['report']}")
    print(f"map@{cfg.map_n}={result.report.map_at_n:.6f} p@h2={result.report.p_at_h2:.6f}")


_METHOD_HELP = (
    "hadamard (the default) is automatic: Hadamard rows when k is a power of two "
    "and there are at most 2k centers, otherwise balanced"
)

_FLAG_HELP = {
    "method": _METHOD_HELP,
    "use_lc": "drop the center-similarity loss",
    "lambda1": "weight of the quantization loss; 0 drops the quantization loss",
}


def _add_config_flags(p, config_fields) -> None:
    """--no-<x> for a bool field use_<x>, else --<field-name>. An unset flag reads
    None, so it leaves the config file's value, or else RunConfig's default, alone."""
    for f in config_fields:
        help_text = _FLAG_HELP.get(f.name)
        if f.type is bool:
            p.add_argument(f"--no-{f.name.removeprefix('use_')}", dest=f.name,
                           action="store_false", default=None, help=help_text)
        else:
            choices = centers_mod.METHODS if f.name == "method" else None
            p.add_argument(f"--{f.name.replace('_', '-')}", type=f.type, choices=choices,
                           help=help_text)


def build_parser() -> argparse.ArgumentParser:
    # flags are spelled in full: what a prefix would match changes as flags come and go
    strict_parser = functools.partial(argparse.ArgumentParser, allow_abbrev=False)
    parser = strict_parser(
        prog="centerhash",
        description="Hash centers, central-similarity training, and Hamming retrieval evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=strict_parser)

    p = sub.add_parser("gen-centers", help="generate and save a hash center set")
    p.add_argument("--k", type=int, required=True, help="code length in bits")
    p.add_argument("--m", type=int, required=True, help="number of centers")
    p.add_argument("--method", choices=centers_mod.METHODS, default=RunConfig.method,
                   help=_METHOD_HELP)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen_centers)

    p = sub.add_parser("assign", help="assign a semantic center to every labeled sample")
    p.add_argument("--centers", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_assign)

    p = sub.add_parser("train", help="train the hash head on features and assigned centers")
    p.add_argument("--features", required=True)
    p.add_argument("--centers-map", required=True, dest="centers_map")
    _add_config_flags(p, TRAIN_FIELDS)
    p.add_argument("--out-model", required=True, dest="out_model")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("encode", help="binarize features through a trained model")
    p.add_argument("--model", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--out-codes", required=True, dest="out_codes")
    p.set_defaults(func=_cmd_encode)

    p = sub.add_parser("eval", help="retrieval metrics for query codes against a database")
    p.add_argument("--db-codes", required=True, dest="db_codes")
    p.add_argument("--db-labels", required=True, dest="db_labels")
    p.add_argument("--query-codes", required=True, dest="query_codes")
    p.add_argument("--query-labels", required=True, dest="query_labels")
    p.add_argument("--map-n", type=int, default=RunConfig.map_n, dest="map_n")
    p.add_argument("--out-report", required=True, dest="out_report")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("distmat", help="mean code-to-center distance matrix")
    p.add_argument("--codes", required=True)
    p.add_argument("--assignments", required=True, help="label file naming one center per code")
    p.add_argument("--centers", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_distmat)

    p = sub.add_parser("synth", help="generate deterministic blob train/query splits")
    p.add_argument("--classes", type=int, required=True)
    p.add_argument("--per-class", type=int, required=True, dest="per_class")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--spread", type=float, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--query-per-class", type=int, default=None, dest="query_per_class",
                   help="queries per class (default: per-class // 10, at least 1)")
    p.add_argument("--out-prefix", required=True, dest="out_prefix")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("run", help="run the full pipeline from a config file")
    p.add_argument("--config", default=None, help="key = value file; flags override it")
    _add_config_flags(p, fields(RunConfig))
    p.set_defaults(func=_cmd_run)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with _stage(args.command):  # a stage inside the command keeps its own tag
            args.func(args)
    except StageError as exc:
        print(f"error {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
