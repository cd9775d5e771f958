"""Traced in-process run of one workload's CLI commands.

    python3 perfbench/traced.py --workload NAME --dir WORKDIR --out TRACE.json --run-id ID

Wraps the package's layer functions (see layers.py), then calls
`centerhash.cli.main` once per command of the workload, in this one
process and in WORKDIR. Writes the spans, counts, absent names, exit
codes and the traced wall time to TRACE.json.
"""

import argparse
import os
import sys
import time

from layers import install
from tracer import Tracer
from workloads import WORKLOADS


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--dir", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--run-id", required=True, dest="run_id")
    args = parser.parse_args(argv)
    out = os.path.abspath(args.out)

    from centerhash import cli

    tracer = Tracer(args.run_id)
    install(tracer)
    os.chdir(args.dir)
    exit_codes = []
    t0 = time.perf_counter()
    for label, command in WORKLOADS[args.workload].commands:
        with tracer.span(f"command.{label}"):
            exit_codes.append((label, cli.main(list(command))))
    wall = time.perf_counter() - t0
    tracer.dump(out, wall_s=wall, exit_codes=exit_codes)
    return 0


if __name__ == "__main__":
    sys.exit(main())
