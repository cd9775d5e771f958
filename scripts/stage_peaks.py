"""Peak RSS of each of one workload's commands, and of its `run` command stage by stage.

    python3 scripts/stage_peaks.py --workload multilabel-run --seed 1

Writes the workload's inputs with perfbench/gen.py into a temporary directory.
If the workload has a `run` command, it first runs it in one fresh child
process with one BLAS thread, as the benchmark runs it, and with each pipeline
stage wrapped. For each stage, in the order the run enters it, it prints the
child's peak RSS (ru_maxrss, in MB of 2^20 bytes, the benchmark's `peak_rss_mb`
unit) on entry and on exit, and the minor page faults the stage took (the
ru_minflt delta): a stage that frees memory and faults it back in, step after
step, shows there even when its peak does not move. The child imports more
than the `centerhash` command does (the multiprocessing modules that start
it), so the peaks read about 2 MB above the command's own, which the command
table below shows; the rises are the stages' own. The stage table's last line
names the stage that raised the peak last, and the stage that raised it most,
with its rise: a stage can add a little on top of a peak an earlier stage set.

Then it runs every command of the workload in order, each in a fresh child
started as perfbench/run.py starts it, and prints each one's peak as run.py
reads it (ru_maxrss through os.wait4), the command that sets the workload's
`peak_rss_mb`, and the launcher's own peak RSS. Linux starts a child's
ru_maxrss at the RSS of the process that started it (at its peak RSS, when
started with vfork, as Python's subprocess does), so a command's peak is its
own only where it lies above the launcher's. The launcher is a fork of the
script's process, so that its peak is small even where a large process (a
test runner) started the script. The commands' own output is not shown; a
command that fails prints its error and exits 1.
"""

import argparse
import contextlib
import io
import multiprocessing
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import traceback
from concurrent.futures import ProcessPoolExecutor

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]


def usage() -> tuple[float, int]:
    """The process's peak RSS in MB and its minor page faults so far."""
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_maxrss / 1024, ru.ru_minflt


def measure(argv: list, work: str) -> tuple[int, list]:
    """Run the `run` command `argv` in `work`, each pipeline stage wrapped; returns the
    exit code and (stage, peak on entry, peak on exit, minor faults) in the order the
    stages ran."""
    from centerhash import cli, pipeline

    stages = []
    stage = pipeline._stage

    @contextlib.contextmanager
    def measured(name):
        entry, faults = usage()
        try:
            with stage(name):
                yield
        finally:
            exit_, faults_after = usage()
            stages.append((name, entry, exit_, faults_after - faults))

    pipeline._stage = measured
    os.chdir(work)
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv), stages


def command_peaks(commands: list, work: str, env: dict) -> list:
    """(label, peak MB) of each command, run in order in `work`, each in a fresh child of
    this process whose peak is read as perfbench/run.py reads it; None if one fails."""
    peaks = []
    for label, argv in commands:
        proc = subprocess.Popen([sys.executable, "-m", "centerhash.cli", *argv], cwd=work,
                                env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        with proc.stderr:
            error = proc.stderr.read().decode(errors="replace")
        _, status, ru = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)  # reaped: Popen must not wait
        if proc.returncode != 0:
            print(f"{label} exited {proc.returncode}: {error.strip()}", file=sys.stderr)
            return None
        peaks.append((label, ru.ru_maxrss / 1024))
    return peaks


def print_stages(stages: list) -> None:
    print(f"{'stage':<12} {'entry_mb':>9} {'exit_mb':>9} {'minflt':>9}")
    for name, entry, exit_, faults in stages:
        print(f"{name:<12} {entry:9.2f} {exit_:9.2f} {faults:9d}")
    rises = [(exit_ - entry, name) for name, entry, exit_, _ in stages if exit_ > entry]
    if rises:  # a stage can add a little on top of a peak an earlier one set
        reached, largest = rises[-1][1], max(rises)
        print(f"peak {stages[-1][2]:.2f} MB, reached in {reached}; "
              f"largest rise in {largest[1]} (+{largest[0]:.2f} MB)")
    else:
        print(f"peak {stages[-1][2]:.2f} MB, reached before the first stage")


def launch(workload: str, seed: int, commands: list, out: str) -> int:
    """Write the inputs, run the stage table if the workload has a `run` command, then
    the command peaks; returns the exit code."""
    run = next((argv for label, argv in commands if label == "run"), None)
    with tempfile.TemporaryDirectory() as work:
        env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
        subprocess.run([sys.executable, os.path.join(ROOT, "perfbench", "gen.py"),
                        "--workload", workload, "--seed", str(seed), "--dir", work],
                       env=env, check=True, stdout=subprocess.DEVNULL)
        if run is not None:
            with ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("spawn")) as pool:
                code, stages = pool.submit(measure, run, work).result()
            if code != 0:
                return 1
            print_stages(stages)
            shutil.rmtree(os.path.join(work, out))
        os.makedirs(os.path.join(work, out))
        peaks = command_peaks(commands, work, env)
    launcher = usage()[0]  # a high-water mark: what every child started at, or less
    if peaks is None:
        return 1
    print(f"{'command':<12} {'peak_mb':>9}")
    for label, peak in peaks:
        print(f"{label:<12} {peak:9.2f}")
    top = max(peaks, key=lambda p: p[1])
    below = "below" if launcher < min(peak for _, peak in peaks) else "not below"
    print(f"peak {top[1]:.2f} MB, set by {top[0]}; the launcher's {launcher:.2f} MB is "
          f"{below} every command's peak")
    return 0


def main(argv=None) -> int:
    # imported here, not at the top: the spawn child imports this script again, and
    # perfbench.workloads imports hashlib, which would load OpenSSL before any stage
    from perfbench.workloads import OUT, WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    commands = [(label, list(argv)) for label, argv in WORKLOADS[args.workload].commands]
    os.environ.update({var: "1" for var in BLAS_ENV})
    # Every child here is started with vfork (subprocess, the spawn pool), and a vfork
    # child's ru_maxrss starts at its parent's peak RSS; this process's peak starts at
    # that of whatever started it (a test runner, say). A fork child's starts at this
    # process's current RSS, which is small: so the launcher is a fork of this process.
    sys.stdout.flush()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            code = launch(args.workload, args.seed, commands, OUT)
        except Exception:  # os._exit below would drop the traceback
            traceback.print_exc()
        finally:
            sys.stdout.flush()
            sys.stderr.flush()
            os._exit(code)
    return os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])


if __name__ == "__main__":
    sys.exit(main())
