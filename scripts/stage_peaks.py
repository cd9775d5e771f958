"""Peak RSS of one workload's `run` command, stage by stage.

    python3 scripts/stage_peaks.py --workload multilabel-run --seed 1

Writes the workload's inputs with perfbench/gen.py into a temporary directory,
then runs the workload's `run` command in one fresh child process with one
BLAS thread, as the benchmark runs it, and with each pipeline stage wrapped.
For each stage, in the order the run enters it, it prints the child's peak RSS
(ru_maxrss, in MB of 2^20 bytes, the benchmark's `peak_rss_mb` unit) on entry
and on exit. The child imports more than the `centerhash` command does, so the
peaks read 1-2 MB above the benchmark's; the rises are the stages' own. The
last line names the stage that raised the peak last, and the stage that
raised it most, with its rise: a stage can add a little on top of a peak an
earlier stage set. The command's own output is not shown; a run that fails
prints its error and exits 1.
"""

import argparse
import contextlib
import io
import multiprocessing
import os
import resource
import subprocess
import sys
import tempfile
from concurrent.futures import ProcessPoolExecutor

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
from perfbench.workloads import WORKLOADS  # noqa: E402  (no numpy; measure loads the package)

RUNS = {name: argv for name, w in WORKLOADS.items() for label, argv in w.commands
        if label == "run"}


def peak_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def measure(workload: str, work: str) -> tuple[int, list]:
    """Run the workload's `run` in `work`, each pipeline stage wrapped; returns the exit
    code and (stage, peak on entry, peak on exit) in the order the stages ran."""
    from centerhash import cli, pipeline

    stages = []
    stage = pipeline._stage

    @contextlib.contextmanager
    def measured(name):
        entry = peak_mb()
        try:
            with stage(name):
                yield
        finally:
            stages.append((name, entry, peak_mb()))

    pipeline._stage = measured
    os.chdir(work)
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(list(RUNS[workload])), stages


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(RUNS))
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    os.environ.update({var: "1" for var in BLAS_ENV})
    with tempfile.TemporaryDirectory() as work:
        env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
        subprocess.run([sys.executable, os.path.join(ROOT, "perfbench", "gen.py"),
                        "--workload", args.workload, "--seed", str(args.seed), "--dir", work],
                       env=env, check=True, stdout=subprocess.DEVNULL)
        # a fresh process started from this small one: Linux keeps a process's peak RSS
        # across exec, so one started by a large process (a test runner) would begin at
        # that process's size
        with ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("spawn")) as pool:
            code, stages = pool.submit(measure, args.workload, work).result()
    if code != 0:
        return 1
    print(f"{'stage':<12} {'entry_mb':>9} {'exit_mb':>9}")
    for name, entry, exit_ in stages:
        print(f"{name:<12} {entry:9.2f} {exit_:9.2f}")
    rises = [(exit_ - entry, name) for name, entry, exit_ in stages if exit_ > entry]
    if rises:  # a stage can add a little on top of a peak an earlier one set
        reached, largest = rises[-1][1], max(rises)
        print(f"peak {stages[-1][2]:.2f} MB, reached in {reached}; "
              f"largest rise in {largest[1]} (+{largest[0]:.2f} MB)")
    else:
        print(f"peak {stages[-1][2]:.2f} MB, reached before the first stage")
    return 0


if __name__ == "__main__":
    sys.exit(main())
