"""Benchmark of the simplexcut certificate engine.

    python3 bench/run.py --workload {reproduce-all,limits-n78,bnb-certify}
        --seed N --seconds S --trace {0,1}

Run from the repository root; the package is imported from ``src/`` (no
install).  Each iteration of a workload runs in a fresh interpreter
(worker.py), one at a time, so caches never carry over and peak RSS belongs
to that iteration alone.  Iterations repeat until the next one would end
after ``--seconds`` (at least MIN_ITERATIONS untraced, or one traced pair).

--trace 0 reports the end-to-end metrics: set-up time (interpreter start
to ``import simplexcut`` returning, also sampled by SETUP_PROBES
import-only interpreters), run and CPU time from set-up to the last
verified output, and peak RSS, each the median of the run's samples.  The
times are scaled to a reference host speed: run.py times a fixed loop
(calibrate.py) between the interpreters it starts, and multiplies each
median time by CALIBRATION_REFERENCE_S over the loop's median time in this
run.  On a shared host, other tenants slow every workload by the same
factor for minutes at a time, and the scale takes that factor out (see
README.md).  The unscaled samples are printed and recorded too.  --trace 1
alternates untraced and traced iterations and reports the per-layer
metrics (unscaled medians over the traced iterations), the host scale, and
the tracing overhead: traced minus untraced median run time.

The last stdout line is the JSON result; the lines before it give the run
environment and every metric with its unit.  The same record, with the
per-iteration samples, goes to .bench_out/.  Exits 1 if an output was
wrong, 2 if the package cannot be found.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
from calibrate import calibrate

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKER = BENCH_DIR / "worker.py"
OUT_DIR = ROOT / ".bench_out"

SETUP_PROBES = 15
CALIBRATION_PASSES = 2
# median seconds of one calibrate() pass on a quiet 2-vCPU Xeon host
CALIBRATION_REFERENCE_S = 0.025
MIN_ITERATIONS = 2
CHILD_TIMEOUT_S = 150

# the keys of workloads.WORKLOADS; run.py itself never imports the package
WORKLOADS = ("reproduce-all", "limits-n78", "bnb-certify")
END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


class ChildFailed(Exception):
    pass


def _spawn(args: list[str], env: dict) -> tuple[float, dict]:
    """Run worker.py in a fresh interpreter; return its start time and result."""
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(WORKER), *args],
        env=env,
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise ChildFailed(f"worker {' '.join(args)} exited with {proc.returncode}")
    return started, json.loads(proc.stdout.strip().splitlines()[-1])


def _git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(args) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "mem_total_mb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") // 2**20,
        "machine": os.uname().machine,
        "git_commit": _git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
    }


def _tag(args) -> str:
    size = "" if args.size == "full" else f"-{args.size}"
    return f"{args.workload}{size}-seed{args.seed}"


def measure(args, env: dict) -> dict:
    """Run the iterations and return their samples."""
    worker_args = ["--workload", args.workload, "--seed", str(args.seed), "--size", args.size]
    if args.wrong_pin:
        worker_args.append("--wrong-pin")
    # one untimed interpreter first, so bytecode is compiled before any timing
    _spawn(["--setup-only"], env)
    began = time.monotonic()
    deadline = began + args.seconds
    setup, calibration = [], []

    def gauge():
        calibration.extend(calibrate() for _ in range(CALIBRATION_PASSES))

    for _ in range(SETUP_PROBES):
        gauge()
        started, out = _spawn(["--setup-only"], env)
        setup.append(out["imported"] - started)

    untraced, traced = [], []
    spans_file = OUT_DIR / f"spans-{_tag(args)}.jsonl"
    while True:
        round_began = time.monotonic()
        gauge()
        started, out = _spawn(worker_args, env)
        setup.append(out["imported"] - started)
        untraced.append(out)
        failed = out["failed"]
        if args.trace:
            _started, out = _spawn(worker_args + ["--trace", "--spans", str(spans_file)], env)
            traced.append(out)
            failed += out["failed"]
        if failed:
            break
        now = time.monotonic()
        enough = args.trace or len(untraced) >= MIN_ITERATIONS
        if enough and now + (now - round_began) > deadline:
            break
    gauge()
    return {"setup": setup, "calibration": calibration, "untraced": untraced, "traced": traced}


def _values(samples: list[dict], key: str) -> list[float]:
    return [s[key] for s in samples]


def end_to_end(samples: dict) -> dict[str, list[float]]:
    return {
        "setup_s": samples["setup"],
        "run_s": _values(samples["untraced"], "run_s"),
        "cpu_s": _values(samples["untraced"], "cpu_s"),
        "peak_rss_mb": _values(samples["untraced"], "peak_rss_mb"),
    }


def host_scale(samples: dict) -> float:
    """How much faster the host ran than the reference, over this run."""
    return CALIBRATION_REFERENCE_S / statistics.median(samples["calibration"])


def metrics_of(samples: dict, trace: bool) -> dict[str, dict]:
    scale = host_scale(samples)
    if not trace:
        out = {}
        for name, values in end_to_end(samples).items():
            unit = END_TO_END_UNITS[name]
            value = statistics.median(values)
            out[name] = {"value": value * scale if unit == "s" else value, "unit": unit}
        return out
    units = {name: unit for name, (_value, unit) in spans.layer_metrics([]).items()}
    traced = samples["traced"]
    out = {
        name: {"value": statistics.median(s["layers"][name] for s in traced), "unit": unit}
        for name, unit in units.items()
    }
    untraced_s = statistics.median(_values(samples["untraced"], "run_s"))
    overhead = statistics.median(_values(traced, "run_s")) - untraced_s
    out["trace.overhead_s"] = {"value": overhead * scale, "unit": "s"}
    out["trace.overhead_share"] = {"value": overhead / untraced_s, "unit": "ratio"}
    out["trace.host_scale"] = {"value": scale, "unit": "ratio"}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size",
        choices=("full", "small"),
        default="full",
        help="small: the reduced workloads the self-test runs",
    )
    parser.add_argument(
        "--wrong-pin",
        action="store_true",
        help="offset one pinned value, to show that a wrong output is counted",
    )
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "simplexcut" / "__init__.py").is_file():
        print(f"run.py: no simplexcut package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    OUT_DIR.mkdir(exist_ok=True)

    try:
        samples = measure(args, env)
    except (ChildFailed, subprocess.TimeoutExpired) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    every = samples["untraced"] + samples["traced"]
    attempted = sum(s["attempted"] for s in every)
    failed = sum(s["failed"] for s in every)
    metrics = metrics_of(samples, bool(args.trace))
    env_record = environment(args)

    record = {"environment": env_record, "metrics": metrics, "samples": samples}
    record_file = OUT_DIR / f"{_tag(args)}-trace{args.trace}.json"
    record_file.write_text(json.dumps(record, indent=1) + "\n")
    print("environment " + json.dumps(env_record))
    print(f"iterations {len(samples['untraced'])} untraced, {len(samples['traced'])} traced")
    for failure in sorted({f for s in every for f in s["failures"]}):
        print("FAILED " + failure.replace("\n", " | "))
    for key, m in metrics.items():
        print(f"{key} {m['value']:.6g} {m['unit']}")
    print(f"host scale {host_scale(samples):.4g} (unscaled samples below)")
    for key, values in end_to_end(samples).items():
        median = statistics.median(values)
        print(f"samples {key}: n={len(values)} min {min(values):.6g} median {median:.6g}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
