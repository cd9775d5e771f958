"""Smoke runs of the experiment scripts, which drive the public API end to end."""

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
