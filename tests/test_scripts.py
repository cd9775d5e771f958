"""Smoke runs of the experiment scripts, which drive the public API end to end."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "script, args",
    [
        ("ablation.py", ["--per-class", "10", "--epochs", "2"]),
        ("run_synthetic_experiment.py",
         ["--per-class", "10", "--query-per-class", "2", "--epochs", "2", "--out-dir", "run"]),
    ],
)
def test_script_runs(tmp_path, script, args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "mAP" in proc.stdout


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


END_TO_END = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]


def check_bench_result(stdout):
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "check_bench_result.py")],
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
