"""Check that HEAD writes the same bytes as a parent commit on every workload.

    python3 scripts/identity_check.py --parent REV [--seeds A-B] [--declared FILE ...]

Exports the committed files of HEAD and of REV (`git archive`). For each
workload of HEAD's perfbench/workloads.py and each seed, each tree writes its
own inputs with its own perfbench/gen.py, then runs the workload's commands
from its own perfbench/workloads.py through its own `centerhash` CLI, one
fresh process each with one BLAS thread, as the benchmark runs them. Then it
compares, byte for byte, every file in the two work directories (the inputs
and every file the commands wrote) and each command's stdout, stderr and exit
code, which are named `<n>-<command>.stdout`, `.stderr` and `.exit` (n counts
the workload's commands from 1).

Each difference prints one line, with the first differing byte offset and the
BLAS core the commands ran on: `model.csqm` and the codes are byte-identical
only within one OpenBLAS kernel, so both trees run on this host's. A
difference in a file that --declared names (a path relative to the work
directory, or a stream name such as 1-run.stdout) is marked declared. The
exit code is 1 if any difference is not declared, or if a tree cannot set up
a workload (it has no such workload, or its gen.py fails); else 0.
"""

import argparse
import os
import runpy
import shutil
import sys
import tempfile

from bench_record import export, git, seed_range
from stage_peaks import child_env, output, run_child

CHUNK = 1 << 20
CORE_PROBE = """
import ctypes, numpy
# OpenBLAS names the kernel it picked for this CPU; the symbol's prefix and suffix vary by build
path = next((line.split()[-1] for line in open("/proc/self/maps") if "openblas" in line), None)
lib = ctypes.CDLL(path) if path else None
for name in ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename",
             "openblas_get_corename64_", "openblas_get_corename"):
    get = getattr(lib, name, None)
    if get is not None:
        get.argtypes, get.restype = [], ctypes.c_char_p
        print(get().decode())
        break
else:
    print("unknown")
"""


def blas_core(tree: str, tmp: str) -> str:
    stem = os.path.join(tmp, "core")
    run_child(["-c", CORE_PROBE], tmp, child_env(tree), stem)
    return output(stem, "stdout") or "unknown"


def run_workload(tree: str, workload: str, seed: int, side: str) -> None:
    """Write the workload's inputs in side/work with the tree's own gen.py, then run its
    commands there, each command's streams and exit code going to side/streams."""
    workloads = runpy.run_path(os.path.join(tree, "perfbench", "workloads.py"))
    if workload not in workloads["WORKLOADS"]:
        raise RuntimeError(f"its perfbench/workloads.py has no workload {workload}")
    work, streams = os.path.join(side, "work"), os.path.join(side, "streams")
    os.makedirs(os.path.join(work, workloads["OUT"]))
    os.makedirs(streams)
    env, gen = child_env(tree), os.path.join(side, "gen")
    code, _ = run_child([os.path.join(tree, "perfbench", "gen.py"), "--workload", workload,
                         "--seed", str(seed), "--dir", work], work, env, gen)
    if code != 0:
        raise RuntimeError(f"gen.py exited {code}: {output(gen)[-500:]}")
    for n, (label, argv) in enumerate(workloads["WORKLOADS"][workload].commands, start=1):
        run_child(["-m", "centerhash.cli", *argv], work, env, os.path.join(streams, f"{n}-{label}"))


def first_difference(a: str, b: str) -> int | None:
    """The offset of the first byte at which two files differ (the shorter one's length
    if one is a prefix of the other), or None if they are equal."""
    with open(a, "rb") as fa, open(b, "rb") as fb:
        offset = 0
        while True:
            ca, cb = fa.read(CHUNK), fb.read(CHUNK)
            if ca != cb:
                return offset + next((i for i, (x, y) in enumerate(zip(ca, cb)) if x != y),
                                     min(len(ca), len(cb)))
            if not ca:
                return None
            offset += len(ca)


def files(root: str) -> set:
    return {os.path.relpath(os.path.join(d, name), root)
            for d, _, names in os.walk(root) for name in names}


def differences(head: str, parent: str) -> tuple:
    """(name, what differs) for every file under head or parent that is not the same in
    both, and how many files were compared."""
    found = []
    head_files, parent_files = files(head), files(parent)
    names = sorted(head_files | parent_files)
    for name in names:
        if name not in parent_files:
            found.append((name, "only in HEAD"))
        elif name not in head_files:
            found.append((name, "only in the parent"))
        else:
            offset = first_difference(os.path.join(head, name), os.path.join(parent, name))
            if offset is not None:
                found.append((name, f"differs at byte {offset}"))
    return found, len(names)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, metavar="REV")
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-3"),
                        help="A-B, both included (default 1-3)")
    parser.add_argument("--declared", nargs="*", default=[], metavar="FILE",
                        help="files whose bytes the change is declared to change")
    args = parser.parse_args(argv)
    revs = {"head": git("rev-parse", "HEAD"),
            "parent": git("rev-parse", "--verify", f"{args.parent}^{{commit}}")}
    declared = set(args.declared)
    undeclared = total = compared = 0
    with tempfile.TemporaryDirectory(prefix="identity_check-") as tmp:
        trees = {side: export(rev, os.path.join(tmp, side)) for side, rev in revs.items()}
        core = blas_core(trees["head"], tmp)
        workloads = runpy.run_path(os.path.join(trees["head"], "perfbench", "workloads.py"))
        for workload in workloads["WORKLOADS"]:
            for seed in args.seeds:
                sides = {side: os.path.join(tmp, f"run-{side}") for side in trees}
                try:
                    for side, tree in trees.items():
                        run_workload(tree, workload, seed, sides[side])
                except RuntimeError as exc:
                    print(f"error: {workload} seed {seed} on {side} ({revs[side][:12]}): {exc}",
                          file=sys.stderr)
                    return 1
                for part in ("work", "streams"):
                    found, count = differences(*(os.path.join(sides[side], part) for side in trees))
                    compared += count
                    total += len(found)
                    for name, what in found:
                        mark = " (declared)" if name in declared else ""
                        undeclared += not mark
                        print(f"{workload} seed {seed}: {name} {what} (BLAS core {core}){mark}")
                for side in sides.values():
                    shutil.rmtree(side)
    print(f"{total} differences in {compared} files, {undeclared} not declared: "
          f"HEAD {revs['head'][:12]} against {revs['parent'][:12]}, "
          f"{len(workloads['WORKLOADS'])} workloads, seeds {args.seeds[0]}-{args.seeds[-1]}, "
          f"BLAS core {core}")
    return 1 if undeclared else 0


if __name__ == "__main__":
    sys.exit(main())
