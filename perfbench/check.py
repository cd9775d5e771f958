"""Output check for one timed repetition of a workload.

    python3 perfbench/check.py --workload NAME --dir WORKDIR

Runs outside the timed region. Every artifact must load with the
package's own loaders, and the mAP@N and P@H<=2 written to each report
must equal a brute-force reference recomputed here from the written code
and label files, which this module parses itself. The last line of
stdout is a JSON object naming the commands whose outputs failed, the
checked metric values, the row counts, and the artifacts that must repeat
byte for byte, with the command that writes each and its sha256.
Later repetitions and traced runs are checked against these hashes.
"""

import argparse
import json
import os
import struct
import sys

import numpy as np

from centerhash import centers, data_io, hamming, model
from workloads import OUT, WORKLOADS, sha256

RADIUS = 2


def read_bit_rows(path, magic: bytes) -> np.ndarray:
    """(n, k) uint8 bits of a CSQC code file or CSQL label file."""
    with open(path, "rb") as f:
        raw = f.read()
    if raw[:4] != magic or struct.unpack_from("<I", raw, 4)[0] != 1:
        raise ValueError(f"{path}: not a version-1 {magic!r} file")
    n, k = struct.unpack_from("<QI", raw, 8)
    row_bytes = (k + 7) // 8
    if len(raw) != 20 + n * row_bytes:
        raise ValueError(f"{path}: {len(raw)} bytes for n={n}, k={k}")
    rows = np.frombuffer(raw, dtype=np.uint8, offset=20).reshape(n, row_bytes)
    return np.unpackbits(rows, axis=1, count=k, bitorder="little")


def reference_metrics(db_codes, db_labels, query_codes, query_labels, map_n):
    """mAP@map_n and P@H<=2 by brute force over unpacked bits.

    Ranks sort by distance, ties by database index. Per-query values
    accumulate in rank order and the means in query order, as the
    metric definitions require, so the result is exact.
    """
    db = read_bit_rows(db_codes, b"CSQC").astype(np.float64)
    qb = read_bit_rows(query_codes, b"CSQC").astype(np.float64)
    dl = read_bit_rows(db_labels, b"CSQL").astype(np.float64)
    ql = read_bit_rows(query_labels, b"CSQL").astype(np.float64)
    k = db.shape[1]
    ap_total = ball_total = 0.0
    for start in range(0, qb.shape[0], 32):
        q = qb[start : start + 32]
        # agreements counted by matrix products are small exact integers
        dist = k - (q @ db.T + (1.0 - q) @ (1.0 - db).T)
        relevant = (ql[start : start + 32] @ dl.T) > 0
        for d, rel in zip(dist, relevant):
            flags = rel[np.argsort(d, kind="stable")[:map_n]]
            hits = np.cumsum(flags)
            ranks = np.flatnonzero(flags) + 1
            if ranks.size:
                ap_total += float(np.cumsum(hits[ranks - 1] / ranks)[-1]) / ranks.size
            inside = d <= RADIUS
            ball = int(inside.sum())
            if ball:
                ball_total += int(rel[inside].sum()) / ball
    return ap_total / qb.shape[0], ball_total / qb.shape[0]


def read_report(path) -> tuple:
    """(scalars, lines) of a report.csv; scalars maps metric -> float."""
    with open(path, newline="") as f:
        lines = f.read().split("\n")
    if lines[0] != "metric,value":
        raise ValueError(f"{path}: unexpected header {lines[0]!r}")
    scalars = {}
    for line in lines[1:]:
        if not line:
            break
        name, value = line.split(",")
        scalars[name] = float(value)
    return scalars, lines


class Checker:
    def __init__(self):
        self.failed = {}  # command label -> first error

    def check(self, label, fn):
        try:
            return fn()
        except Exception as exc:  # any fault in one command's outputs marks that command
            self.failed.setdefault(label, f"{type(exc).__name__}: {exc}")
            return None


def _expect(condition, message):
    if not condition:
        raise ValueError(message)


def _check_report(report, db_codes, db_labels, query_codes, query_labels, map_n):
    scalars, lines = read_report(report)
    ref_map, ref_ball = reference_metrics(db_codes, db_labels, query_codes, query_labels, map_n)
    _expect(scalars["map_at_n"] == ref_map,
            f"{report}: map_at_n {scalars['map_at_n']!r} != reference {ref_map!r}")
    _expect(scalars["p_at_h2"] == ref_ball,
            f"{report}: p_at_h2 {scalars['p_at_h2']!r} != reference {ref_ball!r}")
    return scalars, lines


def check_run_workload(w, c: Checker) -> dict:
    """run + encode + eval: the run's artifacts, then the serving pair's."""
    def run_outputs():
        centers.load_centers(f"{OUT}/centers.csqh")
        hamming.load_codes(f"{OUT}/assignments.csqc")
        net = model.load_model(f"{OUT}/model.csqm")
        words, k = hamming.load_codes(f"{OUT}/db_codes.csqc")
        queries, _ = hamming.load_codes(f"{OUT}/query_codes.csqc")
        _expect(k == net.k, f"db codes have k={k}, model k={net.k}")
        _expect(words.shape[0] == data_io.load_labels("train.csql").shape[0],
                "one database code per training row")
        scalars, lines = _check_report(f"{OUT}/report.csv", f"{OUT}/db_codes.csqc",
                                       "train.csql", f"{OUT}/query_codes.csqc",
                                       "query.csql", w.map_n)
        return scalars, lines, words.shape[0], queries.shape[0]

    run = c.check("run", run_outputs)

    def encode_outputs():
        hamming.load_codes(f"{OUT}/encoded.csqc")
        _expect(sha256(f"{OUT}/encoded.csqc") == sha256(f"{OUT}/db_codes.csqc"),
                "encode wrote other codes than run")

    c.check("encode", encode_outputs)

    def eval_outputs():
        _, lines = _check_report(f"{OUT}/eval_report.csv", f"{OUT}/encoded.csqc", "train.csql",
                                 f"{OUT}/query_codes.csqc", "query.csql", w.map_n)
        # eval's report is run's without the center-distance section
        _expect(run is not None and run[1][: len(lines) - 1] == lines[:-1],
                "eval report differs from run's")

    c.check("eval", eval_outputs)
    scalars, _, rows, queries = run if run else ({}, None, 0, 0)
    return {
        "map_at_n": scalars.get("map_at_n"),
        "p_at_h2": scalars.get("p_at_h2"),
        "rows": rows,
        "queries": queries,
        "artifacts": {f"{OUT}/db_codes.csqc": "run", f"{OUT}/model.csqm": "run",
                      f"{OUT}/report.csv": "run", f"{OUT}/encoded.csqc": "encode",
                      f"{OUT}/eval_report.csv": "eval"},
    }


def check_search_workload(w, c: Checker) -> dict:
    """encode + eval against the set-up checkpoint and query codes."""
    def encode_outputs():
        net = model.load_model("model.csqm")
        words, k = hamming.load_codes(f"{OUT}/db_codes.csqc")
        _expect(k == net.k, f"db codes have k={k}, model k={net.k}")
        _expect(words.shape[0] == data_io.load_labels("database.csql").shape[0],
                "one code per database row")
        return words.shape[0]

    rows = c.check("encode", encode_outputs)

    def eval_outputs():
        queries, _ = hamming.load_codes("query_codes.csqc")
        scalars, _ = _check_report(f"{OUT}/report.csv", f"{OUT}/db_codes.csqc", "database.csql",
                                   "query_codes.csqc", "query.csql", w.map_n)
        return scalars, queries.shape[0]

    evaluated = c.check("eval", eval_outputs)
    scalars, queries = evaluated if evaluated else ({}, 0)
    return {
        "map_at_n": scalars.get("map_at_n"),
        "p_at_h2": scalars.get("p_at_h2"),
        "rows": rows or 0,
        "queries": queries,
        # the checkpoint is a set-up input here; set-up checks its bytes
        "artifacts": {f"{OUT}/db_codes.csqc": "encode", f"{OUT}/report.csv": "eval"},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--dir", required=True)
    args = parser.parse_args(argv)
    w = WORKLOADS[args.workload]
    os.chdir(args.dir)
    c = Checker()
    if w.commands[0][0] == "run":
        result = check_run_workload(w, c)
    else:
        result = check_search_workload(w, c)
    result["failed"] = c.failed
    result["hashes"] = {p: sha256(p) if os.path.isfile(p) else None for p in result["artifacts"]}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
