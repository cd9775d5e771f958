"""Which artifacts stay byte-identical when OpenBLAS runs another kernel.

OpenBLAS picks its matmul kernel for the CPU it runs on, and an FMA kernel
rounds differently from one without FMA, so trained parameters can differ
in their last bits between machines. The codes are taken at h > 0.5, so
they, and every report computed from them, stay equal as long as no output
lies closer to 0.5 than that drift reaches. This test forces the SSE3
kernel (Prescott), which every x86-64 CPU runs, against the default one.
"""

import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from centerhash import data_io, pipeline
from centerhash import model as M

SRC = Path(M.__file__).parents[1]

# a 64x257 @ 257x65 matmul: shapes that no kernel handles without a remainder
PROBE = """
import hashlib, numpy as np
rng = np.random.default_rng(0)
a, b = rng.standard_normal((64, 257)), rng.standard_normal((257, 65))
print(hashlib.sha256((a @ b).tobytes()).hexdigest())
"""

# the largest parameter difference allowed, relative to the largest parameter
PARAM_RELATIVE_BOUND = 1e-12
# the smallest |h - 0.5| over the encoded outputs must exceed the bound this many times
MARGIN_FACTOR = 1e6


def kernel_env(coretype):
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["OPENBLAS_NUM_THREADS"] = "1"
    if coretype is not None:
        env["OPENBLAS_CORETYPE"] = coretype
    return env


def python(args, coretype, cwd):
    proc = subprocess.run([sys.executable, *args], env=kernel_env(coretype), cwd=cwd,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"),
                    reason="OPENBLAS_CORETYPE=Prescott names an x86-64 kernel")
def test_codes_and_report_are_equal_across_blas_kernels(tmp_path):
    if python(["-c", PROBE], None, tmp_path) == python(["-c", PROBE], "Prescott", tmp_path):
        pytest.skip("the probe matmul gives the same bytes with OPENBLAS_CORETYPE=Prescott: "
                    "the BLAS in use ignores it, or runs that kernel already")
    python(["-m", "centerhash.cli", "synth", "--classes", "4", "--per-class", "40", "--dim",
            "32", "--spread", "0.3", "--seed", "2", "--out-prefix", "blob"], None, tmp_path)
    run = ["-m", "centerhash.cli", "run", "--train-features", "blob.train.csqf",
           "--train-labels", "blob.train.csql", "--query-features", "blob.query.csqf",
           "--query-labels", "blob.query.csql", "--k", "32", "--epochs", "5", "--map-n", "20",
           "--seed", "2"]
    for side in ("default", "Prescott"):
        (tmp_path / side).mkdir()
        python([*run, "--out-dir", side], None if side == "default" else "Prescott", tmp_path)

    def artifact(side, name):
        return (tmp_path / side / pipeline.ARTIFACTS[name]).read_bytes()

    for name in ("centers", "assignments", "db_codes", "query_codes", "report"):
        assert artifact("default", name) == artifact("Prescott", name), name
    nets = [M.load_model(tmp_path / side / pipeline.ARTIFACTS["model"])
            for side in ("default", "Prescott")]
    params = [net.weights + net.biases for net in nets]
    drift = max(np.abs(a - b).max() / np.abs(a).max() for a, b in zip(*params))
    assert drift <= PARAM_RELATIVE_BOUND
    margin = min(np.abs(M.forward(nets[0], data_io.load_features(tmp_path / f)) - 0.5).min()
                 for f in ("blob.train.csqf", "blob.query.csqf"))
    assert margin > MARGIN_FACTOR * PARAM_RELATIVE_BOUND
