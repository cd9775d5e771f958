"""Peak RSS of each of one workload's commands, and of its `run` command stage by stage.

    python3 scripts/stage_peaks.py --workload multilabel-run --seed 1

Writes the workload's inputs with perfbench/gen.py into a temporary directory.
If the workload has a `run` command, it first runs it in one fresh child
(`python -c STAGE_HOOK run ...`) whose hook wraps each pipeline stage, then
calls the CLI's main. For each stage, in the order the run enters it, it
prints the child's peak RSS (ru_maxrss, in MB of 2^20 bytes, the benchmark's
`peak_rss_mb` unit) on entry and on exit, and the minor page faults the stage
took (the ru_minflt delta): a stage that frees memory and faults it back in,
step after step, shows there even when its peak does not move. The hook child
reads within about 0.1 MB of the plain command, which the command table below
shows. The stage table's last line names the stage that raised the peak
last, and the stage that raised it most, with its rise: a stage can add a
little on top of a peak an earlier stage set.

Then it runs every command of the workload in order, and prints each one's
peak, the command that sets the workload's `peak_rss_mb`, and the launcher's
own peak RSS. Every child is started by `run_child`, as perfbench/run.py
starts its commands: a fresh `python` with one BLAS thread, its peak read
through os.wait4. Linux starts a child's ru_maxrss at the RSS of the process
that started it (at its peak RSS, when started with vfork, as Python's
subprocess does), so a command's peak is its own only where it lies above the
launcher's. The launcher is a fork of the script's process, so that its peak
is small even where a large process (a test runner) started the script. The
commands' own output is not shown; a command that fails prints its error and
exits 1.
"""

import argparse
import ast
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

sys.path.insert(0, ROOT)
from perfbench.workloads import OUT, WORKLOADS  # noqa: E402

# run as `python -c STAGE_HOOK <command> ...`: the CLI with each pipeline stage wrapped;
# its last stderr line lists (stage, peak MB on entry, on exit, minor faults) in stage order
STAGE_HOOK = """
import contextlib, resource, sys
from centerhash import cli, pipeline
stages, stage = [], pipeline._stage

@contextlib.contextmanager
def measured(name):
    entry = resource.getrusage(resource.RUSAGE_SELF)
    try:
        with stage(name):
            yield
    finally:
        exit_ = resource.getrusage(resource.RUSAGE_SELF)
        stages.append((name, entry.ru_maxrss / 1024, exit_.ru_maxrss / 1024,
                       exit_.ru_minflt - entry.ru_minflt))

pipeline._stage = measured
code = cli.main(sys.argv[1:])
if code == 0:
    print(repr(stages), file=sys.stderr)
sys.exit(code)
"""


def child_env(tree: str) -> dict:
    """The environment of a child that runs `tree`'s centerhash on one BLAS thread."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    env.update({var: "1" for var in BLAS_ENV})
    return env


def run_child(argv: list, cwd: str, env: dict, stem: str) -> tuple[int, float]:
    """Run `python argv` in `cwd` to completion, its stdout, stderr and exit code going
    to stem.stdout, stem.stderr and stem.exit; returns the exit code and the child's
    peak RSS in MB, read through os.wait4 as perfbench/run.py reads it."""
    with open(f"{stem}.stdout", "wb") as out, open(f"{stem}.stderr", "wb") as err:
        proc = subprocess.Popen([sys.executable, *argv], cwd=cwd, env=env, stdout=out,
                                stderr=err)
        _, status, ru = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped: Popen must not wait
    with open(f"{stem}.exit", "w") as f:
        f.write(f"{proc.returncode}\n")
    return proc.returncode, ru.ru_maxrss / 1024


def output(stem: str, stream: str = "stderr") -> str:
    with open(f"{stem}.{stream}", "rb") as f:
        return f.read().decode(errors="replace").strip()


def run_measured(label: str, argv: list, cwd: str, stem: str) -> float | None:
    """run_child with this tree's centerhash; the child's peak, or None once a failed
    child's label, exit code and stderr are printed."""
    code, peak = run_child(argv, cwd, child_env(ROOT), stem)
    if code != 0:
        print(f"{label} exited {code}: {output(stem)}", file=sys.stderr)
        return None
    return peak


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


def launch(workload: str, seed: int, commands: list) -> int:
    """Write the inputs, run the stage table if the workload has a `run` command, then
    the command peaks; returns the exit code."""
    run = next((argv for label, argv in commands if label == "run"), None)
    with tempfile.TemporaryDirectory() as tmp:
        work, streams = os.path.join(tmp, "work"), os.path.join(tmp, "streams")
        os.makedirs(os.path.join(work, OUT))
        os.makedirs(streams)
        gen = [os.path.join(ROOT, "perfbench", "gen.py"), "--workload", workload,
               "--seed", str(seed), "--dir", work]
        if run_measured("gen.py", gen, work, os.path.join(streams, "gen")) is None:
            return 1
        if run is not None:
            stem = os.path.join(streams, "stages")
            if run_measured("run", ["-c", STAGE_HOOK, *run], work, stem) is None:
                return 1
            print_stages(ast.literal_eval(output(stem).splitlines()[-1]))
            shutil.rmtree(os.path.join(work, OUT))
            os.makedirs(os.path.join(work, OUT))
        peaks = []
        for n, (label, argv) in enumerate(commands, start=1):
            stem = os.path.join(streams, f"{n}-{label}")
            peak = run_measured(label, ["-m", "centerhash.cli", *argv], work, stem)
            if peak is None:
                return 1
            peaks.append((label, peak))
    # a high-water mark: what every child started at, or less
    launcher = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"{'command':<12} {'peak_mb':>9}")
    for label, peak in peaks:
        print(f"{label:<12} {peak:9.2f}")
    top = max(peaks, key=lambda p: p[1])
    below = "below" if launcher < min(peak for _, peak in peaks) else "not below"
    print(f"peak {top[1]:.2f} MB, set by {top[0]}; the launcher's {launcher:.2f} MB is "
          f"{below} every command's peak")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    commands = [(label, list(argv)) for label, argv in WORKLOADS[args.workload].commands]
    # Every child is started with vfork (subprocess), and a vfork child's ru_maxrss
    # starts at its parent's peak RSS; this process's peak starts at that of whatever
    # started it (a test runner, say). A fork child's starts at this process's current
    # RSS, which is small: so the launcher is a fork of this process.
    sys.stdout.flush()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            code = launch(args.workload, args.seed, commands)
        except Exception:  # os._exit below would drop the traceback
            traceback.print_exc()
        finally:
            sys.stdout.flush()
            sys.stderr.flush()
            os._exit(code)
    return os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])


if __name__ == "__main__":
    sys.exit(main())
