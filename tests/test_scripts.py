"""Smoke runs of the experiment scripts, which drive the public API end to end."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_experiment_prints_one_row_per_variant(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "experiment.py"), "--per-class", "10",
         "--query-per-class", "2", "--epochs", "2", "--out-dir", "run"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    header = lines.index("variant         mAP@10   P@H=2     own    diag     off")
    rows = [line.split() for line in lines[header + 1 :]]
    assert [row[0] for row in rows] == ["center+quant", "center", "quant"]
    assert all(len(row) == 6 for row in rows)
    report = (tmp_path / "run" / "center+quant" / "report.csv").read_text()
    map_at_n = next(line for line in report.splitlines() if line.startswith("map_at_n,"))
    assert rows[0][1] == f"{float(map_at_n.split(',')[1]):.4f}"


def bench_result(**overrides):
    """A result line as perfbench/run.py prints it, for the six end-to-end metrics."""
    result = {
        "correct": True,
        "attempted": 5,
        "failed": 0,
        "metrics": {name: {"value": 1.5, "unit": "s"} for name in END_TO_END},
    }
    result.update(overrides)
    return "machine: ...\nwall_s 1.5 s\n" + json.dumps(result) + "\n"


BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = [m["name"] for m in BENCHMARK["end_to_end"]]
PER_LAYER = [m["name"] for m in BENCHMARK["per_layer"]]


def traced_result(values):
    """A --trace 1 result line: its metrics are the per-layer ones."""
    metrics = {name: {"value": value, "unit": "s"} for name, value in values.items()}
    return bench_result(metrics=metrics)


def check_bench_result(stdout, *flags):
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "check_bench_result.py"), *flags],
        input=stdout, capture_output=True, text=True, timeout=60,
    )


def test_check_bench_result_accepts_a_good_run():
    proc = check_bench_result(bench_result())
    assert proc.returncode == 0, proc.stdout
    assert proc.stdout == f"ok: correct, 0 failed, {len(END_TO_END)} end-to-end metrics\n"


@pytest.mark.parametrize(
    "stdout, problem",
    [
        ("", "no output"),
        (bench_result() + "traceback\n", "not a JSON result"),
        (bench_result().replace('"value": 1.5', '"value": NaN', 1), "NaN is not strict JSON"),
        (bench_result(correct=False), "correct is False"),
        (bench_result(failed=1), "failed is 1"),
        (bench_result(metrics={}), f"metric {END_TO_END[0]} is None"),
        (bench_result(metrics={n: {"value": 0} for n in END_TO_END}), "is 0"),
    ],
    ids=["empty", "last_line_not_json", "nan", "incorrect", "failed", "missing", "zero"],
)
def test_check_bench_result_rejects(stdout, problem):
    proc = check_bench_result(stdout)
    assert proc.returncode == 1
    assert problem in proc.stdout


def test_check_bench_result_accepts_a_good_traced_run():
    # a layer the workload never enters reads 0, and the trace overhead can be negative
    values = {name: 0.25 for name in PER_LAYER}
    values.update({PER_LAYER[0]: 0, "trace.overhead_s": -1.02, "model.batches": 600})
    proc = check_bench_result(traced_result(values), "--trace")
    assert proc.returncode == 0, proc.stdout
    assert proc.stdout == f"ok: correct, 0 failed, {len(PER_LAYER)} per-layer metrics\n"


@pytest.mark.parametrize("value, shown", [(None, "None"), ("0.5", "'0.5'"), (True, "True")])
def test_check_bench_result_rejects_a_traced_run_without_a_layer_metric(value, shown):
    values = {name: 0.25 for name in PER_LAYER}
    values["retrieval.pr_s"] = value
    if value is None:
        del values["retrieval.pr_s"]
    proc = check_bench_result(traced_result(values), "--trace")
    assert proc.returncode == 1
    assert proc.stdout == f"problem: metric retrieval.pr_s is {shown}\n"


def test_check_bench_result_rejects_an_untraced_run_as_traced():
    proc = check_bench_result(bench_result(), "--trace")
    assert proc.returncode == 1
    assert f"problem: metric {PER_LAYER[0]} is None" in proc.stdout


def git_head():
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                          text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


needs_git = pytest.mark.skipif(git_head() is None, reason="not a git checkout with a commit")


@needs_git
def test_bench_record_writes_a_run_of_head(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "bench_record.py"), "--tag", "smoke",
         "--seeds", "1", "--workload", "train-medium", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    record = json.loads((tmp_path / "BENCH_smoke.json").read_text())
    assert (record["head"], record["parent"], record["seeds"]) == (git_head(), None, [1])
    assert record["machine"].startswith("machine: ")
    [workload] = record["workloads"].items()
    assert workload[0] == "train-medium" and list(workload[1]) == ["head"]
    [run] = workload[1]["head"]["runs"]
    assert (run["seed"], run["correct"], run["failed"]) == (1, True, 0)
    assert list(run["metrics"]) == END_TO_END
    for name, value in run["metrics"].items():
        assert workload[1]["head"]["summary"][name] == {"median": value, "q1": value, "q3": value}


@needs_git
@pytest.mark.parametrize(
    "bad, problem",
    [
        ((0, bench_result(correct=False), ""), "correct is False"),
        ((0, bench_result(failed=1), ""), "failed is 1"),
        ((1, "", "error: set-up failed"), "exited 1: error: set-up failed"),
    ],
    ids=["incorrect", "failed", "crashed"],
)
def test_bench_record_refuses_to_write_after_a_bad_run(tmp_path, monkeypatch, capsys, bad,
                                                       problem):
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    import bench_record

    # seed 1 runs HEAD then the parent, seed 2 the parent then HEAD: the bad run is the last
    results = [(0, bench_result(), "")] * 3 + [bad]
    calls = []

    def run_once(checkout, workload, seed, seconds):
        calls.append((os.path.basename(checkout), seed))
        return subprocess.CompletedProcess([], *results[len(calls) - 1])

    monkeypatch.setattr(bench_record, "run_once", run_once)
    monkeypatch.chdir(tmp_path)
    argv = ["--tag", "t", "--seeds", "1-2", "--workload", "search-large", "--parent", "HEAD"]
    assert bench_record.main(argv) == 1
    assert calls == [("head", 1), ("parent", 1), ("parent", 2), ("head", 2)]
    assert f"refused: search-large seed 2 on head ({git_head()[:12]}): {problem}" in (
        capsys.readouterr().err)
    assert list(tmp_path.iterdir()) == []
