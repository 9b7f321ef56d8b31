"""Benchmark of the deladas engine: cold solves, failover repair and protocol
round trips.

    python3 perfbench/run.py --workload {randc-scale,failover,serve} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a source tree (it needs src/deladas and samples/).
With --trace 0 it measures the workload untraced and reports the end-to-end
metrics; with --trace 1 it runs the traced run (see traced.py) and reports
the per-layer metrics. Every output is checked. The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOAD_NAMES = ("randc-scale", "failover", "serve")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "deladas" / "__init__.py").is_file() \
            or not (ROOT / "samples").is_dir():
        print(f"error: {ROOT} holds no deladas source tree "
              "(src/deladas and samples/ are needed)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    os.chdir(ROOT)
    # On SIGTERM, unwind so that the finally blocks stop the server process.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    import core
    import traced
    import workloads

    golden = core.load_golden()
    if args.trace:
        metrics, tally, notes = traced.traced(args.workload, args.seed, golden)
    else:
        run = workloads.measure(args.workload, args.seed, args.seconds,
                                golden)
        metrics, tally, notes = run.metrics(), run.tally, run.notes

    for note in notes:
        print(note)
    for problem in tally.unexpected[:20]:
        print(f"CHECK FAILED: {problem}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": not tally.unexpected,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
