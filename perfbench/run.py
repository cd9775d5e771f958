"""centerhash benchmark: seeded workloads timed through the real CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
src/ and nothing is installed. One run:

1. set-up: gen.py writes the workload's inputs from the seed (and, for
   search-large, trains its checkpoint) several times; setup_s is the
   median time of one set-up;
2. timed repetitions: the workload's `centerhash` commands run as
   subprocesses, one at a time, until S seconds of command time are
   measured; outside the timed region check.py checks the first
   repetition's outputs, and every later repetition must write the same
   bytes;
3. with --trace 1, also two traced in-process runs (traced.py) of the
   same commands, from which the per-layer metrics come.

Every child gets the same pinned BLAS thread count. Human-readable lines
come first; the last line of stdout is the JSON result. Work files live
under .perfbench_work/ (deleted at the end) and traces under
.perfbench_traces/, both in the checkout.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

from layers import METRICS as LAYER_METRICS
from layers import layer_metrics
from tracer import Trace
from workloads import OUT, WORKLOADS, sha256

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")
WORK = os.path.join(ROOT, ".perfbench_work")
TRACES = os.path.join(ROOT, ".perfbench_traces")

# one BLAS thread: no higher than nproc on any machine, and steadier than two
# on a shared one; both sides of a comparison must use the same count
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
RUN_BUDGET_S = 170  # a run must end within 180 s
TRACE_RESERVE_S = 60  # no timed repetition starts later than this before the budget ends
TRACED_RUNS = 2  # count metrics must repeat exactly between them
IMPORT_SAMPLES = 5
IMPORT_PROBE = ("import time; t = time.perf_counter(); import centerhash.cli; "
                "print(time.perf_counter() - t)")


class BenchmarkError(Exception):
    """The benchmark itself cannot run: no result is printed."""


END_TO_END = ("setup_s", "wall_s", "peak_rss_mb", "encode_rows_per_s", "eval_queries_per_s",
              "map_at_n")


@dataclass
class Child:
    """A finished child process; `label` names the workload command it ran."""

    seconds: float
    exit_code: int
    rss_mb: float = 0.0
    log: str = ""
    label: str = ""


@dataclass
class Repetition:
    """One pass over a workload's commands, and why any of them failed."""

    commands: list  # [Child] in order
    reasons: dict = field(default_factory=dict)  # index into commands -> reason

    def __post_init__(self):
        for i, c in enumerate(self.commands):
            if c.exit_code != 0:
                self.reasons[i] = f"{c.label} exited {c.exit_code}"

    @property
    def wall(self) -> float:
        return sum(c.seconds for c in self.commands)

    def seconds(self, label) -> list:
        return [c.seconds for c in self.commands if c.label == label]

    def fail(self, label, reason) -> None:
        """A faulty output fails every run of the command that writes it."""
        for i, c in enumerate(self.commands):
            if c.label == label:
                self.reasons.setdefault(i, f"{label}: {reason}")

    def judge(self, reference: dict) -> None:
        """Check against the first repetition's checked outputs by their bytes.

        Identical bytes share the verdict the full check gave the first
        repetition; different bytes fail their command.
        """
        for label, reason in reference["failed"].items():
            self.fail(label, reason)
        for path, label in reference["artifacts"].items():
            full = os.path.join(reference["dir"], path)
            digest = sha256(full) if os.path.isfile(full) else None
            if digest != reference["hashes"][path]:
                self.fail(label, f"{path} differs from the checked repetition's")


class Driver:
    def __init__(self, workload, seed: int):
        self.w = workload
        self.seed = seed
        self.dir = os.path.join(WORK, workload.name)
        os.makedirs(self.dir)
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
        self.env.update({var: str(BLAS_THREADS) for var in BLAS_ENV})
        self.logs = 0

    def spawn(self, argv, cwd=None, label="") -> Child:
        """Run one child to completion; peak RSS is read for it alone."""
        self.logs += 1
        log = os.path.join(WORK, f"{self.w.name}-{self.logs}.log")
        lock, reaped = threading.Lock(), []

        with open(log, "wb") as out:
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *argv], cwd=cwd or self.dir,
                                    env=self.env, stdout=out, stderr=subprocess.STDOUT)

            def kill():
                with lock:
                    if not reaped:
                        os.kill(proc.pid, signal.SIGKILL)

            timer = threading.Timer(max(1.0, self.deadline - time.monotonic()), kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                with lock:
                    reaped.append(True)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            seconds = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Child(seconds, proc.returncode, usage.ru_maxrss / 1024, log, label)

    def child_json(self, argv) -> dict:
        """Run a benchmark helper and parse the JSON on its last line."""
        run = self.spawn(argv)
        if run.exit_code != 0:
            raise BenchmarkError(f"{argv[0]} exited {run.exit_code}:\n{_tail(run.log)}")
        return json.loads(_tail(run.log, 1))

    def setup(self) -> dict:
        result = self.child_json([os.path.join(HERE, "gen.py"), "--workload", self.w.name,
                                  "--seed", str(self.seed), "--dir", self.dir,
                                  "--repeats", str(self.w.setup_repeats)])
        os.sync()  # write the inputs back now, not during the timed commands
        return result

    def check(self) -> dict:
        result = self.child_json([os.path.join(HERE, "check.py"), "--workload", self.w.name,
                                  "--dir", self.dir])
        result["dir"] = self.dir
        return result

    def _fresh_out(self):
        shutil.rmtree(os.path.join(self.dir, OUT), ignore_errors=True)
        os.makedirs(os.path.join(self.dir, OUT))

    def repetition(self) -> Repetition:
        self._fresh_out()
        return Repetition([self.spawn(["-m", "centerhash.cli", *argv], label=label)
                           for label, argv in self.w.commands])

    def timed(self, seconds: float) -> tuple:
        """Repetitions until `seconds` of command time; the first is fully checked."""
        reps = [self.repetition()]
        reference = self.check()
        for label, reason in reference["failed"].items():
            reps[0].fail(label, reason)
        measured = reps[0].wall
        while measured < seconds and time.monotonic() < self.deadline - TRACE_RESERVE_S:
            reps.append(self.repetition())
            reps[-1].judge(reference)
            measured += reps[-1].wall
        return reps, reference

    def traced(self, n: int, reference: dict) -> tuple:
        """(driver-measured wall, trace data, judged repetition) of one traced run."""
        self._fresh_out()
        os.makedirs(TRACES, exist_ok=True)
        path = os.path.join(TRACES, f"{self.w.name}-seed{self.seed}-{n}.json")
        run_id = f"{self.w.name}-seed{self.seed}-{n}"
        run = self.spawn([os.path.join(HERE, "traced.py"), "--workload", self.w.name,
                          "--dir", self.dir, "--out", path, "--run-id", run_id])
        if run.exit_code != 0:
            raise BenchmarkError(f"traced run exited {run.exit_code}:\n{_tail(run.log)}")
        with open(path) as f:
            data = json.load(f)
        rep = Repetition([Child(0.0, code, label=label) for label, code in data["exit_codes"]])
        rep.judge(reference)
        return run.seconds, data, rep

    def import_seconds(self) -> list:
        return [float(_tail(self.spawn(["-c", IMPORT_PROBE], cwd=ROOT).log, 1))
                for _ in range(IMPORT_SAMPLES)]


def _tail(path, lines=8) -> str:
    with open(path) as f:
        return "\n".join(f.read().strip().splitlines()[-lines:])


def _median(values):
    return statistics.median(values) if values else 0.0


def end_to_end(setup: dict, reps: list, reference: dict) -> tuple:
    """({metric: value}, {metric: sample count}) for END_TO_END."""
    encode = [t for r in reps for t in r.seconds("encode")]
    evaluate = [t for r in reps for t in r.seconds("eval")]
    values = {
        "setup_s": _median(setup["times"]),
        "wall_s": _median([r.wall for r in reps]),
        "peak_rss_mb": max(c.rss_mb for r in reps for c in r.commands),
        "encode_rows_per_s": reference["rows"] / _median(encode),
        "eval_queries_per_s": reference["queries"] / _median(evaluate),
        "map_at_n": reference["map_at_n"] or 0.0,
    }
    samples = {"setup_s": len(setup["times"]), "wall_s": len(reps),
               "peak_rss_mb": sum(len(r.commands) for r in reps),
               "encode_rows_per_s": len(encode), "eval_queries_per_s": len(evaluate),
               "map_at_n": 1}
    return values, samples


def trace_phase(driver: Driver, reps: list, reference: dict) -> tuple:
    """(per-layer values, absent metrics, traced repetitions, problems)."""
    walls, runs, traced, problems = [], [], [], []
    for n in range(1, TRACED_RUNS + 1):
        wall, data, rep = driver.traced(n, reference)
        walls.append(wall)
        traced.append(rep)
        runs.append(layer_metrics(Trace(data)))

    values, absent = runs[0]
    for m in LAYER_METRICS:
        if m.name not in values:
            continue
        samples = [r[0][m.name] for r in runs]
        if m.exact and len(set(samples)) > 1:
            problems.append(f"{m.name} differs between traced runs: {samples}")
        values[m.name] = samples[0] if m.exact else _median(samples)
    values["cli.import_s"] = _median(driver.import_seconds())
    values["trace.overhead_s"] = _median(walls) - _median([r.wall for r in reps])
    return values, absent, traced, problems


def load_spec() -> dict:
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        raise BenchmarkError("BENCHMARK.json not found next to perfbench/")
    with open(path) as f:
        spec = json.load(f)
    if [m["name"] for m in spec["end_to_end"]] != list(END_TO_END):
        raise BenchmarkError("BENCHMARK.json end_to_end does not match perfbench/run.py")
    if [m["name"] for m in spec["per_layer"]] != [m.name for m in LAYER_METRICS]:
        raise BenchmarkError("BENCHMARK.json per_layer does not match perfbench/layers.py")
    return spec


def measure(args) -> dict:
    spec = load_spec()
    driver = Driver(WORKLOADS[args.workload], args.seed)
    setup = driver.setup()
    problems = [] if setup["identical"] else ["set-up wrote other bytes on a repeat"]
    facts = dict(setup["machine"], nproc=os.cpu_count(), blas_threads=BLAS_THREADS)
    print("machine: " + " ".join(f"{k}={v}" for k, v in facts.items()))

    reps, reference = driver.timed(args.seconds)
    for i, rep in enumerate(reps, start=1):
        print(f"repetition {i}: " + ", ".join(f"{c.label} {c.seconds:.3f} s" for c in rep.commands))
    values, samples = end_to_end(setup, reps, reference)
    for m in spec["end_to_end"]:
        print(f"{m['name']:<20} {values[m['name']]:>14.6g} {m['unit']:<10} "
              f"{m['better']} is better, median of {samples[m['name']]}")
    # checked like map_at_n, but not bounded: its spread across seeds is too wide
    print(f"p_at_h2 {reference['p_at_h2']!r} (checked, not bounded)")

    declared = spec["end_to_end"]
    if args.trace:
        values, absent, traced, trace_problems = trace_phase(driver, reps, reference)
        reps += traced
        problems += trace_problems
        declared = spec["per_layer"]
        for m in declared:
            if m["name"] in values:
                print(f"{m['name']:<34} {values[m['name']]:>14.6g} {m['unit']}")
        for name, reason in absent.items():
            print(f"{name:<34} absent: {reason}")

    attempted = sum(len(r.commands) for r in reps)
    failed = sum(len(r.reasons) for r in reps)
    problems += [reason for r in reps for reason in r.reasons.values()]
    print(f"ops_failed_ratio {failed}/{attempted} = {failed / attempted:.6g}")
    for problem in problems:
        print(f"problem: {problem}")
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in declared if m["name"] in values},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not os.path.isfile(os.path.join(ROOT, "src", "centerhash", "cli.py")):
        print("error: src/centerhash not found; run from the root of a centerhash checkout",
              file=sys.stderr)
        return 2
    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(WORK)
    try:
        result = measure(args)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
