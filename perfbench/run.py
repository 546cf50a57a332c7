#!/usr/bin/env python3
"""Wall-time benchmark for logbel.

Run from the root of a checkout (the package is imported from ./src):

    python3 perfbench/run.py --workload star-read --seed 1 --seconds 10 --trace 0

One process per run, one caller in a closed loop: each op starts when the
previous one returns.  The run builds the workload's engine several times
(set-up time is their median), replays a fixed prefix of the op stream on
the spare engines to record deterministic operation counts, then drives the
last engine with the seeded op stream for --seconds of op time.  Sampled
query answers are checked against the benchmark's own exact reference.
End-to-end times are wall times scaled to a nominal machine speed measured
around every timed window (see speed.py); the report also prints them raw.

The report goes to stdout; its last line is one JSON object with the keys
correct, attempted, failed and metrics.  `failed` counts ops that raised or
whose answer missed the reference; `correct` is false when any checked
answer was wrong, the operation counts did not repeat, or `logbel run`
disagreed with the library.  An op that raises is a failure, not a wrong
answer.  --trace 0 reports the end-to-end metrics with tracing off.
--trace 1 reports the per-layer metrics (raw wall times): spans around every
call into the package, a capped `lazy`/`full` baseline and a `logbel run`
replay.  Files (counts, trace, CLI inputs) go to perfbench/out/.

Exit code 0 when the run completed (its correctness is in the JSON), 2 when
the checkout holds no package to benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

# BLAS threads pinned to one, and a fixed string-hash seed so set iteration
# order (and with it the clique search) repeats from run to run.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["star-read", "balanced-k8-write", "polytree-build"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args()


def main() -> int:
    args = parse_args()
    root = os.getcwd()
    package = os.path.join(root, "src", "logbel", "__init__.py")
    if not os.path.isfile(package):
        print(f"error: no src/logbel under {root}; run from the root of a logbel checkout",
              file=sys.stderr)
        return 2
    if any(os.environ.get(k) != v for k, v in PINNED_ENV.items()):
        # exec keeps this process (same pid); numpy has not been imported yet
        os.execve(sys.executable, [sys.executable, os.path.abspath(__file__), *sys.argv[1:]],
                  {**os.environ, **PINNED_ENV})
    sys.path.insert(0, os.path.join(root, "src"))
    import logbel
    if os.path.realpath(logbel.__file__) != os.path.realpath(package):
        print(f"error: imported logbel from {logbel.__file__}, not {package}", file=sys.stderr)
        return 2
    from bench import run_benchmark
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    here = os.path.dirname(os.path.abspath(__file__))
    lines, result = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace),
                                  {m["name"]: m["unit"] for m in declared},
                                  out_dir=os.path.join(here, "out"),
                                  source_dirs=[os.path.dirname(package), here])
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
