"""Record end-to-end benchmark runs of HEAD, and optionally of a parent, in BENCH_<tag>.json.

    python3 scripts/bench_record.py --tag baseline --seeds 2-11
    python3 scripts/bench_record.py --tag T --seeds 2-11 --workload search-large --parent HEAD~1

For each workload and seed it runs `python3 perfbench/run.py --workload W
--seed N --seconds S --trace 0` in a fresh export of the committed files of
HEAD (`git archive`), and with --parent in one of REV too, so both sides run
their own benchmark code as committed. With --parent the two sides alternate:
HEAD runs first on the first seed, REV on the next, and so on. An export
leaves nothing registered in the repository, whatever ends the run.

BENCH_<tag>.json, written in the current directory, holds per workload and
side each end-to-end metric's median and quartiles and every run's values,
correct flag and failed count, and with --parent how many seeds HEAD read
better on; and the seeds, the machine line and both commits. If any run
is not correct, fails an operation or prints no result, nothing is written
and the script exits 1.
"""

import argparse
import io
import json
import os
import re
import statistics
import subprocess
import sys
import tarfile
import tempfile

from check_bench_result import BENCHMARK, problems

ROOT = os.path.dirname(BENCHMARK)
RUN_TIMEOUT_S = 300  # perfbench/run.py ends a run within 180 s


def git(*argv) -> str:
    return subprocess.run(["git", "-C", ROOT, *argv], capture_output=True, text=True,
                          check=True).stdout.strip()


def export(rev: str, into: str) -> str:
    """Write the committed files of rev under `into`; return the directory."""
    data = subprocess.run(["git", "-C", ROOT, "archive", "--format=tar", rev],
                          capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(data)) as tar:
        tar.extractall(into, filter="data")
    return into


def run_once(checkout: str, workload: str, seed: int, seconds: float):
    """One untraced perfbench run in `checkout`, as a finished CompletedProcess."""
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
    )


def summary(runs: list, names: list) -> dict:
    """Median and quartiles ('inclusive' method) of each metric over the runs."""
    out = {}
    for name in names:
        values = [r["metrics"][name] for r in runs]
        q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                          if len(values) > 1 else values * 3)
        out[name] = {"median": median, "q1": q1, "q3": q3}
    return out


def seed_range(text: str) -> list:
    match = re.fullmatch(r"(\d+)(?:-(\d+))?", text)
    if not match or int(match[2] or match[1]) < int(match[1]):
        raise argparse.ArgumentTypeError(f"expected A-B with A <= B, got {text!r}")
    return list(range(int(match[1]), int(match[2] or match[1]) + 1))


def main(argv=None) -> int:
    spec = json.loads(BENCHMARK.read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tag", required=True, help="the file is BENCH_<tag>.json")
    parser.add_argument("--seeds", required=True, type=seed_range, help="A-B, both included")
    parser.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]],
                        help="one workload (default: every workload)")
    parser.add_argument("--parent", metavar="REV", help="also run REV, alternating with HEAD")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = parser.parse_args(argv)
    metrics = {m["name"]: m["better"] for m in spec["end_to_end"]}
    workloads = [args.workload] if args.workload else [w["name"] for w in spec["workloads"]]
    revs = {"head": git("rev-parse", "HEAD")}
    if args.parent:
        revs["parent"] = git("rev-parse", "--verify", f"{args.parent}^{{commit}}")

    runs = {w: {side: [] for side in revs} for w in workloads}
    machines = set()
    with tempfile.TemporaryDirectory(prefix="bench_record-") as tmp:
        dirs = {side: export(rev, os.path.join(tmp, side)) for side, rev in revs.items()}
        for w in workloads:
            for i, seed in enumerate(args.seeds):
                for side in list(revs) if i % 2 == 0 else list(revs)[::-1]:
                    proc = run_once(dirs[side], w, seed, args.seconds)
                    found = (problems(proc.stdout, list(metrics)) if proc.returncode == 0 else
                             [f"exited {proc.returncode}: {proc.stderr.strip()[-500:]}"])
                    if found:
                        print(f"refused: {w} seed {seed} on {side} ({revs[side][:12]}): "
                              + "; ".join(found), file=sys.stderr)
                        return 1
                    lines = proc.stdout.strip().splitlines()
                    result = json.loads(lines[-1])
                    machines.update(line for line in lines if line.startswith("machine: "))
                    runs[w][side].append({
                        "seed": seed, "correct": result["correct"], "failed": result["failed"],
                        "attempted": result["attempted"],
                        "metrics": {m: result["metrics"][m]["value"] for m in metrics},
                    })
                    print(f"{w} seed {seed} {side}: " + " ".join(
                        f"{m}={v:.6g}" for m, v in runs[w][side][-1]["metrics"].items()))
    if len(machines) != 1:
        print(f"refused: the runs printed {len(machines)} different machine lines",
              file=sys.stderr)
        return 1

    record = {"tag": args.tag, "head": revs["head"], "parent": revs.get("parent"),
              "machine": machines.pop(), "seeds": args.seeds, "seconds": args.seconds,
              "workloads": {}}
    for w in workloads:
        entry = {side: {"summary": summary(r, list(metrics)), "runs": r}
                 for side, r in runs[w].items()}
        if args.parent:
            pairs = list(zip(runs[w]["head"], runs[w]["parent"]))
            entry["pairs_head_better"] = {
                m: sum(h["metrics"][m] < p["metrics"][m] if better == "lower"
                       else h["metrics"][m] > p["metrics"][m] for h, p in pairs)
                for m, better in metrics.items()}
        record["workloads"][w] = entry
    path = f"BENCH_{args.tag}.json"
    with open(path, "w") as f:
        json.dump(record, f, indent=1)
        f.write("\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
