"""Paired benchmark runs of a parent commit against the working tree.

    python3 tools/bench_pairs.py --parent REV --workload W [W ...]
        --seeds S [S ...] --pairs N --label L [--what TEXT] [--note TEXT ...]

Run from anywhere inside the repository.  For every workload and seed it
runs N pairs of

    python3 bench/run.py --workload W --seed S --seconds 30 --trace 0

once on the committed files of REV and once on the working tree.  Odd
pairs run the parent first, even pairs the change first, so a slow spell
of a shared host falls on both sides.  Both sides run from temporary
directories, so neither is measured in a different place: the parent's
files are extracted with ``git archive``, and the change side is a copy of
the working tree's tracked files and untracked, non-ignored files.  Every
pair gets fresh copies of both sides, so a metric that depends on the run
directory varies between pairs instead of splitting the sides.  The
copies are removed after their pair, also when the script is stopped by
SIGTERM or Ctrl-C, which kill the running bench/run.py and its worker;
unlike a worktree, an interrupted run leaves nothing behind in the
repository's git metadata.

Writes BENCH_<label>.json at the repository root: label, what, command,
parent_commit, host, rule, notes, a summary per workload and seed (for each
end-to-end metric of BENCHMARK.json: each side's median, quartiles, min and
max over the pairs, how many pairs the change won and tied, the ratio of
the medians, the parent's interquartile range, and "gain": whether the
change won at least 9 of every 10 pairs, ties counting for neither side,
and its median is better than the parent's by more than that range; and
the failed operations of each side), and every pair with both sides'
run.py records.  Times are
run.py's host-scaled medians.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from contextlib import contextmanager, suppress
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SECONDS = 30
RULE = (
    "odd pairs run the parent first, even pairs the change first; "
    "times are run.py's host-scaled medians; a metric's gain holds when the "
    "change wins at least 9/10 of the pairs (ties count for neither side) and "
    "the medians differ in its favour by more than the parent's IQR"
)
HOST_KEYS = ("python", "implementation", "nproc", "mem_total_mb", "machine")


def _git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, capture_output=True, text=True, check=True
    ).stdout.strip()


def _extract(root: Path, commit: str, dest: Path) -> None:
    archive = subprocess.Popen(["git", "archive", commit], cwd=root, stdout=subprocess.PIPE)
    try:
        subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout, check=True)
    finally:
        archive.stdout.close()
        if archive.wait() != 0:
            raise RuntimeError(f"git archive {commit} failed")


def _copy_worktree(root: Path, dest: Path) -> None:
    """Copy the working-tree bytes of root's tracked files (those not
    deleted) and untracked, non-ignored files into dest."""
    listed = subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
        cwd=root,
        capture_output=True,
        check=True,
    ).stdout
    for name in filter(None, listed.decode().split("\0")):
        source = root / name
        if source.is_file():
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, dest / name)


@contextmanager
def sides(root: Path, commit: str):
    """{"parent": dir, "change": dir}: temporary copies of commit's files
    and of root's working tree, both removed on exit."""
    with (
        tempfile.TemporaryDirectory(prefix="bench-parent-") as parent,
        tempfile.TemporaryDirectory(prefix="bench-change-") as change,
    ):
        _extract(root, commit, Path(parent))
        _copy_worktree(root, Path(change))
        yield {"parent": Path(parent), "change": Path(change)}


def _run(root: Path, command: list[str], workload: str, seed: int) -> dict:
    """One bench/run.py run in root: its record file plus result and exit code."""
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"]
    # in a session of its own, so that an interrupted run can end the
    # process group of run.py and its worker
    proc = subprocess.Popen(
        [*command, *args],
        cwd=root,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate()
    except BaseException:
        with suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    lines = stdout.strip().splitlines()
    # exit 1 with a result line: a pinned output was wrong, which is still a
    # run; without one, a worker failed and no record was written
    if proc.returncode not in (0, 1) or not lines:
        sys.stderr.write(stderr)
        raise RuntimeError(f"{' '.join(command + args)} in {root} exited {proc.returncode}")
    record = json.loads((root / ".bench_out" / f"{workload}-seed{seed}-trace0.json").read_text())
    record["result"] = json.loads(lines[-1])
    record["exit"] = proc.returncode
    return record


def _spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "min": min(values), "max": max(values)}


def summarize(pairs: list[dict], metrics: list[dict]) -> dict:
    """Per-metric comparison of the pairs of one workload and seed."""
    out: dict = {"pairs": len(pairs)}
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        parent = [p["parent"]["metrics"][name]["value"] for p in pairs]
        change = [p["change"]["metrics"][name]["value"] for p in pairs]
        wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
        ties = sum(c == p for p, c in zip(parent, change))
        before, after = _spread(parent), _spread(change)
        iqr = before["q3"] - before["q1"]
        gained = (before["median"] - after["median"]) * (1 if lower else -1)
        out[name] = {
            "parent": before,
            "change": after,
            "change_wins": wins,
            "ties": ties,
            "median_ratio": after["median"] / before["median"],
            "parent_iqr": iqr,
            "gain": 10 * wins >= 9 * len(pairs) and gained > iqr,
        }
    out["failed"] = {
        side: sum(p[side]["result"]["failed"] for p in pairs) for side in ("parent", "change")
    }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="the commit to compare against")
    parser.add_argument("--workload", required=True, nargs="+")
    parser.add_argument("--seeds", required=True, nargs="+", type=int)
    parser.add_argument("--pairs", required=True, type=int)
    parser.add_argument("--label", required=True)
    parser.add_argument("--what", default="", help="one line: what the change does")
    parser.add_argument("--note", action="append", default=[], help="a line for notes")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2, to give quartiles")
    # SIGTERM unwinds like Ctrl-C, so the temporary copies are removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    command = benchmark["command"]
    commit = _git("rev-parse", "--verify", f"{args.parent}^{{commit}}")
    runs = []
    for workload in args.workload:
        for seed in args.seeds:
            for pair in range(1, args.pairs + 1):
                order = ("parent", "change") if pair % 2 else ("change", "parent")
                entry = {"workload": workload, "seed": seed, "pair": pair, "first": order[0]}
                with sides(ROOT, commit) as roots:
                    for side in order:
                        entry[side] = _run(roots[side], command, workload, seed)
                runs.append(entry)
                shown = {
                    side: {k: round(m["value"], 3) for k, m in entry[side]["metrics"].items()}
                    for side in ("parent", "change")
                }
                print(f"{workload} seed {seed} pair {pair}: {json.dumps(shown)}", file=sys.stderr)

    summary = {}
    for workload in args.workload:
        for seed in args.seeds:
            mine = [r for r in runs if r["workload"] == workload and r["seed"] == seed]
            summary[f"{workload}/seed{seed}"] = summarize(mine, benchmark["end_to_end"])
    environment = runs[0]["change"]["environment"]
    doc = {
        "label": args.label,
        "what": args.what,
        "command": " ".join(command)
        + f" --workload WORKLOAD --seed SEED --seconds {SECONDS} --trace 0",
        "parent_commit": commit,
        "host": {key: environment[key] for key in HOST_KEYS},
        "rule": RULE,
        "notes": args.note,
        "summary": summary,
        "pairs": runs,
    }
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
