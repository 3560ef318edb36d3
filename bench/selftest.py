"""Self-test of the benchmark, at reduced size.

    python3 bench/selftest.py

For every workload in BENCHMARK.json it runs run.py at --size small, with
and without tracing, and asserts that every metric BENCHMARK.json names is
emitted with its unit and that all outputs verify.  It then offsets one
pinned value per workload and asserts that the run still completes and
counts the wrong output in ``failed``.  Last, it asserts that run.py exits
non-zero without a result where the package sources are missing.
Exits 0 when every assertion holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN = BENCH_DIR / "run.py"


def run(args: list[str], cwd: Path = ROOT, script: Path = RUN) -> tuple[int, dict | None, str]:
    proc = subprocess.run(
        [sys.executable, str(script), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result, proc.stderr


def check_metrics(result: dict, declared: list[dict], where: str) -> None:
    for metric in declared:
        got = result["metrics"].get(metric["name"])
        assert got is not None, f"{where}: {metric['name']} not emitted"
        assert got["unit"] == metric["unit"], f"{where}: {metric['name']} unit {got['unit']}"
        assert isinstance(got["value"], (int, float)), f"{where}: {metric['name']} not a number"


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    common = ["--seed", "1", "--seconds", "1", "--size", "small"]
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, declared in (("0", spec["end_to_end"]), ("1", spec["per_layer"])):
            where = f"{workload} trace {trace}"
            code, result, stderr = run(["--workload", workload, "--trace", trace, *common])
            assert code == 0 and result is not None, f"{where}: exit {code}\n{stderr}"
            assert result["correct"] and result["failed"] == 0, f"{where}: {result}"
            assert result["attempted"] >= 1, where
            check_metrics(result, declared, where)
            if trace == "0":
                zero = [n for n, m in result["metrics"].items() if not m["value"] > 0]
                assert not zero, f"{where}: end-to-end metrics not positive: {zero}"
            print(f"ok  {where}: {result['attempted']} outputs verified")

        where = f"{workload} wrong pin"
        code, result, stderr = run(["--workload", workload, "--trace", "0", "--wrong-pin", *common])
        assert result is not None, f"{where}: no result printed (exit {code})\n{stderr}"
        assert code == 1 and not result["correct"], f"{where}: {result}"
        assert result["failed"] >= 1, f"{where}: wrong pin not counted"
        assert result["attempted"] > result["failed"], f"{where}: the run stopped early"
        print(f"ok  {where}: {result['failed']} of {result['attempted']} counted as failed")

    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(
                ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__")
            )
        args = ["--workload", spec["workloads"][0]["name"], "--trace", "0", *common]
        code, result, _stderr = run(args, cwd=bare, script=bare / RUN.relative_to(ROOT))
        assert code != 0 and result is None, f"bare checkout: exit {code}, result {result}"
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok  without the package sources: non-zero exit, no result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
