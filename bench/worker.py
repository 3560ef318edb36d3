"""One iteration of one workload, in the fresh interpreter run.py starts.

    PYTHONPATH=src python3 bench/worker.py --setup-only
    PYTHONPATH=src python3 bench/worker.py --workload NAME --seed N [--trace]
        [--size small] [--wrong-pin] [--spans FILE]

The package is imported before anything else, so the CLOCK_MONOTONIC reading
taken right after it (``imported``) lets run.py compute set-up time from the
moment it started this interpreter.  The last line of stdout is one JSON
object with the iteration's measurements.
"""

import time

import simplexcut  # noqa: F401  (the import is what set-up time measures)

IMPORTED = time.monotonic()
CPU_AT_IMPORT = time.process_time()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workload", choices=tuple(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--size", choices=("full", "small"), default="full")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--wrong-pin", action="store_true")
    parser.add_argument("--spans", help="write the traced spans to this JSONL file")
    args = parser.parse_args(argv)
    if args.setup_only:
        print(json.dumps({"imported": IMPORTED}))
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    pins = workloads.PINS[args.workload][args.size]
    if args.wrong_pin:
        pins = workloads.wrong_pins(pins)
    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        spans.install(tracer)
    ops = workloads.Ops()
    workloads.WORKLOADS[args.workload](pins, args.seed, ops)
    done = time.monotonic()
    cpu_done = time.process_time()

    sample = {
        "imported": IMPORTED,
        "run_s": done - IMPORTED,
        "cpu_s": cpu_done - CPU_AT_IMPORT,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "failures": ops.failures,
    }
    if tracer is not None:
        sample["layers"] = {
            name: value for name, (value, _unit) in spans.layer_metrics(tracer.spans).items()
        }
        if args.spans:
            keys = ("name", "start", "end", "parent", "attrs")
            with open(args.spans, "w") as out:
                for span in tracer.spans:
                    out.write(json.dumps(dict(zip(keys, span))) + "\n")
    print(json.dumps(sample))
    return 0


if __name__ == "__main__":
    sys.exit(main())
