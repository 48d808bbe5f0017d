"""One repetition of one workload, in a process of its own.

Run from the root of a checkout, with that checkout's ``src`` on
PYTHONPATH (``run.py`` starts it so).  Prints one JSON object as the last
line of standard output: set-up and run time, peak RSS, the outcome of
every declared operation, and, when traced, the per-layer metrics.

    python3 perfbench/worker.py --workload picard-zeta --seed 1 --size default
"""

import time

T0 = time.perf_counter()  # set-up time counts from here: bsvie is not imported yet

import argparse
import json
import os
import resource
import sys
import traceback

import spans
from workloads import SIZES, WORKLOADS, Ops


def _check_source() -> None:
    import bsvie

    src = os.path.realpath(os.path.join(os.getcwd(), "src"))
    if not os.path.realpath(bsvie.__file__).startswith(src + os.sep):
        raise SystemExit(f"bsvie imported from {bsvie.__file__}, not from {src}")


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--size", default="default", choices=("default", "pinned", "smoke"))
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--spans", default="", help="file to write the recorded spans to")
    parser.add_argument("--scratch", required=True, help="directory for the run's files")
    args = parser.parse_args()

    workload = WORKLOADS[args.workload]
    steps, paths = SIZES[args.workload][args.size]
    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        spans.install(tracer)
    inputs = workload.setup(steps, paths, args.seed, args.scratch)
    setup_s = time.perf_counter() - T0
    _check_source()
    result = {"setup_s": setup_s}
    if not args.setup_only:
        ops = Ops(workload.ops)
        t1 = time.perf_counter()
        try:
            out = workload.run(inputs, ops)
        except Exception:
            traceback.print_exc()
            out = {}
        result["run_s"] = time.perf_counter() - t1
        result["ops"] = ops.rows()
        result["quality"] = out.get("quality", {})
        result["checksums"] = out.get("checksums", {})
        if tracer is not None:
            layers = spans.layer_metrics(tracer)
            layers.update({"cli.rows_written": 0, "cli.bytes_written": 0})
            layers.update(out.get("written", {}))
            result["layers"] = layers
            if args.spans:
                with open(args.spans, "w", encoding="utf-8") as fh:
                    json.dump({"fields": ["name", "layer", "start", "end", "parent"],
                               "spans": tracer.spans}, fh)
    workload.teardown(inputs)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
