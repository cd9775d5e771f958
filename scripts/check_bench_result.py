"""Check the result line of one end-to-end benchmark run.

    python3 perfbench/run.py --workload W --seed 0 --seconds 1 --trace 0 > run.txt
    python3 scripts/check_bench_result.py < run.txt
    python3 perfbench/run.py --workload W --seed 0 --seconds 1 --trace 1 > traced.txt
    python3 scripts/check_bench_result.py --trace < traced.txt

Reads the run's stdout and checks its last line: it must be strict JSON (no
NaN or Infinity), with "correct" true, "failed" 0, and a positive finite
value for every end-to-end metric that BENCHMARK.json declares. With
--trace, the result is a traced run's, and every declared per-layer metric
must be present with a finite value of any sign: a layer the workload never
enters reads 0, and trace.overhead_s can fall below 0. A traced run that
trained (model.epoch_s above 0) must also show that the training layers saw
model.backward: model.batches above 0 and model.forward_passes_per_batch
exactly 1.0, since model.train runs one backward call, with one forward
pass, per batch; and model.loss_s above 0, since each step computes its loss
terms with model.central_loss and model.quantization_loss. A traced run that
evaluated (retrieval.evaluate_s above 0) must show
hamming.distance_calls_per_query exactly 1.0, since retrieval.evaluate
computes each query's distances once and reads every metric off them. A
traced run that assigned (centers.assign_s above 0) must show
data_io.bytes_read of at least its assigned rows, since every label row is
at least one byte. The rows are centers.assign_rows_per_s times
centers.assign_s; each is the median, here the mean, of two traced runs, so
the product reads at or above the true count when the two timings differ.
Exits 0, or prints what is wrong and exits 1.
"""

import argparse
import json
import math
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def _reject_constant(name):
    raise ValueError(f"{name} is not strict JSON")


def problems(stdout: str, declared: list, positive: bool = True) -> list:
    """What is wrong with the last line of `stdout`; empty when it is a good result.
    Each declared metric must be finite, and also above 0 if `positive`."""
    lines = stdout.strip().splitlines()
    if not lines:
        return ["no output"]
    try:
        result = json.loads(lines[-1], parse_constant=_reject_constant)
    except ValueError as exc:
        return [f"last line is not a JSON result: {exc}"]
    if not isinstance(result, dict):
        return ["last line is not a JSON object"]
    found = []
    if result.get("correct") is not True:
        found.append(f"correct is {result.get('correct')!r}")
    if result.get("failed") != 0:
        found.append(f"failed is {result.get('failed')!r}")
    metrics = result.get("metrics")
    if not isinstance(metrics, dict):
        return found + ["no metrics object"]
    values = {}
    for name in declared:
        entry = metrics.get(name)
        value = entry.get("value") if isinstance(entry, dict) else None
        number = isinstance(value, (int, float)) and not isinstance(value, bool)
        if number and math.isfinite(value) and (value > 0 or not positive):
            values[name] = value
        else:
            found.append(f"metric {name} is {value!r}")
    # a workload that never enters model.train (search-large) reads 0 for all four
    if values.get("model.epoch_s", 0) > 0:
        passes = values.get("model.forward_passes_per_batch", 1.0)
        for name in ("model.batches", "model.loss_s"):
            if values.get(name, 1) <= 0:
                found.append(f"metric {name} is {values[name]!r}, a run that trained needs above 0")
        if passes != 1.0:
            found.append(f"metric model.forward_passes_per_batch is {passes!r}, "
                         "a run that trained needs 1.0")
    if values.get("retrieval.evaluate_s", 0) > 0:
        calls = values.get("hamming.distance_calls_per_query", 1.0)
        if calls != 1.0:
            found.append(f"metric hamming.distance_calls_per_query is {calls!r}, "
                         "a run that evaluated needs 1.0")
    if values.get("centers.assign_s", 0) > 0:
        rows = round(values.get("centers.assign_rows_per_s", 0) * values["centers.assign_s"])
        read = values.get("data_io.bytes_read", rows)
        if read < rows:
            found.append(f"metric data_io.bytes_read is {read!r}, a run that assigned "
                         f"needs at least a byte per row ({rows})")
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace", action="store_true", help="check a --trace 1 run's result")
    args = parser.parse_args(argv)
    kind = "per_layer" if args.trace else "end_to_end"
    declared = [m["name"] for m in json.loads(BENCHMARK.read_text())[kind]]
    found = problems(sys.stdin.read(), declared, positive=not args.trace)
    for problem in found:
        print(f"problem: {problem}")
    if not found:
        print(f"ok: correct, 0 failed, {len(declared)} {kind.replace('_', '-')} metrics")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
