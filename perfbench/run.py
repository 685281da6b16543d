"""Benchmark of the tweetxfer pipeline: three closed-loop batch workloads.

    python3 perfbench/run.py --workload transfer --seed 1 --seconds 20 --trace 0

Run from the repository root.  The package is imported from ``src/``;
work files and results go to ``.perfbench/`` under the current
directory.  ``--trace 0`` reports the end-to-end metrics of the named
workload; ``--workload all`` runs the three in turn and prints every
metric by name.  ``--trace 1`` reports the per-layer metrics from a
traced run that covers all three workloads.  The last line of standard
output is one JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

# Measured at paper sizes on 2 cores: two OpenBLAS threads were no faster
# than one, and one thread keeps runs steady and reruns byte-identical.
BLAS_THREADS = "1"
NAMES = ("transfer", "topics", "classify")


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds positive")
    return args


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    # The pin only holds if it precedes the first numpy import.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    here = os.path.dirname(os.path.abspath(__file__))
    src = os.path.join(os.path.dirname(here), "src")
    if not os.path.isfile(os.path.join(src, "tweetxfer", "__init__.py")):
        print(f"error: no tweetxfer package under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [src, here]
    import harness
    from workloads import WORKLOADS

    out_dir = os.path.join(os.getcwd(), ".perfbench")
    work, results = os.path.join(out_dir, "work"), os.path.join(out_dir, "results")
    os.makedirs(results, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    meta = harness.metadata(args.workload, args.seed, args.seconds, bool(args.trace))

    if args.trace:
        outcomes = {"traced": harness.measure_traced(
            args.seed, args.seconds, work, os.path.join(results, f"spans-{tag}.jsonl")
        )}
    else:
        names = NAMES if args.workload == "all" else (args.workload,)
        outcomes = {
            n: harness.measure(WORKLOADS[n], args.seed, args.seconds, work) for n in names
        }

    for name, out in outcomes.items():
        for metric, (value, unit) in out.metrics.items():
            print(f"{name:<9} {metric:<44} {value:>14.6g} {unit}")
        for slot, readable, value, unit in out.readable:
            print(f"{name:<9} {slot} is {readable:<24} {value:>14.6g} {unit}")
        print(f"{name:<9} failed {out.failed} of {out.attempted} jobs")
        for failure in out.failures:
            print(f"{name:<9} FAILED {failure}")
    if len(outcomes) == 1:
        (out,) = outcomes.values()
        line = out.result_line()
    else:
        lines = {n: o.result_line() for n, o in outcomes.items()}
        line = {
            "correct": all(x["correct"] for x in lines.values()),
            "attempted": sum(x["attempted"] for x in lines.values()),
            "failed": sum(x["failed"] for x in lines.values()),
            "metrics": {f"{n}.{k}": v for n, x in lines.items() for k, v in x["metrics"].items()},
        }
    record = {
        "meta": meta,
        "digests": {n: o.digests for n, o in outcomes.items()},
        "digests_same_every_job": {n: o.digests_repeat for n, o in outcomes.items()},
        "failures": [f for o in outcomes.values() for f in o.failures],
        "jobs": [j for o in outcomes.values() for j in o.jobs],
        "setups_s": {n: o.setups for n, o in outcomes.items()},
        "result": line,
    }
    with open(os.path.join(results, f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    shown = ("meta", "digests", "digests_same_every_job")
    print("meta " + json.dumps({k: record[k] for k in shown}))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
