"""tools/bench_pairs.py: the summary of paired benchmark runs, and the copies they run in."""

import importlib.util
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def _side(rss, nodes, failed=0):
    return {
        "metrics": {"peak_rss_mb": {"value": rss}, "nodes_per_s": {"value": nodes}},
        "result": {"failed": failed},
    }


def test_summary_counts_wins_by_direction():
    metrics = [
        {"name": "peak_rss_mb", "better": "lower"},
        {"name": "nodes_per_s", "better": "higher"},
    ]
    pairs = [
        {"parent": _side(200, 10), "change": _side(140, 10)},
        {"parent": _side(204, 12), "change": _side(141, 11, failed=1)},
        {"parent": _side(206, 14), "change": _side(206, 15)},
        {"parent": _side(210, 16), "change": _side(150, 17)},
    ]
    s = bench_pairs.summarize(pairs, metrics)
    assert s["pairs"] == 4
    rss = s["peak_rss_mb"]
    assert (rss["change_wins"], rss["ties"]) == (3, 1)
    assert rss["parent"] == {"median": 205, "q1": 203, "q3": 207, "min": 200, "max": 210}
    assert rss["parent_iqr"] == 4
    assert rss["median_ratio"] == pytest.approx(145.5 / 205)
    assert (s["nodes_per_s"]["change_wins"], s["nodes_per_s"]["ties"]) == (2, 1)
    assert s["failed"] == {"parent": 0, "change": 1}
    # 3 wins of 4 pairs is below 9/10
    assert rss["gain"] is False and s["nodes_per_s"]["gain"] is False


@pytest.mark.parametrize(
    "parent,change,gain",
    [
        # 10 of 10 wins, medians 104.5 -> 94.5, parent IQR 4.5
        (range(100, 110), range(90, 100), True),
        # 9 of 10 wins (one tie): still a gain
        (range(100, 110), [*range(90, 99), 109], True),
        # 8 of 10 wins and two ties: ties count for neither side
        (range(100, 110), [*range(90, 98), 108, 109], False),
        # every pair won, but by less than the parent's IQR
        (range(100, 110), [x - 0.5 for x in range(100, 110)], False),
        # the medians differ by exactly the IQR: not more than it
        (range(100, 110), [x - 4.5 for x in range(100, 110)], False),
    ],
)
def test_gain_rule(parent, change, gain):
    metrics = [
        {"name": "peak_rss_mb", "better": "lower"},
        {"name": "nodes_per_s", "better": "higher"},
    ]
    pairs = [
        {"parent": _side(p, -p), "change": _side(c, -c)} for p, c in zip(parent, change)
    ]
    s = bench_pairs.summarize(pairs, metrics)
    # nodes_per_s mirrors peak_rss_mb with the sign flipped and "higher" better
    assert s["peak_rss_mb"]["gain"] is gain
    assert s["nodes_per_s"]["gain"] is gain


def _git(repo, *args):
    subprocess.run(
        ["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
        cwd=repo,
        check=True,
        capture_output=True,
    )


def test_both_sides_run_from_copies_outside_the_repository(tmp_path):
    repo = tmp_path / "repo"
    (repo / "pkg").mkdir(parents=True)
    (repo / "pkg" / "mod.py").write_text("old\n")
    (repo / ".gitignore").write_text("ignored.txt\n")
    _git(repo, "init", "-q")
    _git(repo, "add", "-A")
    _git(repo, "commit", "-q", "-m", "parent")
    (repo / "pkg" / "mod.py").write_text("edited\n")
    (repo / "new.py").write_text("untracked\n")
    (repo / "ignored.txt").write_text("build output\n")

    with bench_pairs.sides(repo, "HEAD") as roots:
        parent, change = roots["parent"], roots["change"]
        assert (parent / "pkg" / "mod.py").read_bytes() == b"old\n"
        assert (change / "pkg" / "mod.py").read_bytes() == b"edited\n"
        assert (change / "new.py").read_bytes() == b"untracked\n"
        assert not (change / "ignored.txt").exists()
        assert not (parent / "new.py").exists()
        for side in (parent, change):
            assert not side.resolve().is_relative_to(repo.resolve())
    assert not parent.exists() and not change.exists()


def _driver(tmp_path, repo, pairs, label):
    """A script that runs bench_pairs.main on repo, in a process of its own,
    since main installs a SIGTERM handler."""
    driver = tmp_path / "driver.py"
    driver.write_text(
        "import importlib.util, sys\n"
        "from pathlib import Path\n"
        f"spec = importlib.util.spec_from_file_location('bench_pairs', {_SPEC.origin!r})\n"
        "bench_pairs = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(bench_pairs)\n"
        f"bench_pairs.ROOT = Path({str(repo)!r})\n"
        "sys.exit(bench_pairs.main(['--parent', 'HEAD', '--workload', 'w', '--seeds', '1',"
        f" '--pairs', '{pairs}', '--label', '{label}']))\n"
    )
    return driver


def test_every_pair_runs_in_fresh_copies_of_both_sides(tmp_path):
    repo, temp, log = tmp_path / "repo", tmp_path / "tmp", tmp_path / "cwds"
    repo.mkdir()
    temp.mkdir()
    # stands in for bench/run.py: records its working directory, then
    # writes a record and a result line as run.py does
    (repo / "stand_in.py").write_text(
        "import json, os, sys\n"
        "args = sys.argv[1:]\n"
        "workload, seed = args[args.index('--workload') + 1], args[args.index('--seed') + 1]\n"
        f"with open({str(log)!r}, 'a') as f:\n"
        "    f.write(os.getcwd() + '\\n')\n"
        "os.makedirs('.bench_out', exist_ok=True)\n"
        "record = {'metrics': {'run_s': {'value': 1.0}},"
        f" 'environment': dict.fromkeys({bench_pairs.HOST_KEYS!r}, 'x')}}\n"
        "with open(f'.bench_out/{workload}-seed{seed}-trace0.json', 'w') as f:\n"
        "    json.dump(record, f)\n"
        "print(json.dumps({'failed': 0}))\n"
    )
    (repo / "BENCHMARK.json").write_text(
        json.dumps(
            {
                "command": [sys.executable, "stand_in.py"],
                "end_to_end": [{"name": "run_s", "better": "lower"}],
            }
        )
    )
    _git(repo, "init", "-q")
    _git(repo, "add", "-A")
    _git(repo, "commit", "-q", "-m", "parent")
    driver = _driver(tmp_path, repo, pairs=3, label="fresh")

    proc = subprocess.run(
        [sys.executable, str(driver)],
        env={**os.environ, "TMPDIR": str(temp)},
        capture_output=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    cwds = [Path(line) for line in log.read_text().splitlines()]
    # three pairs of two sides, each run in a directory of its own
    assert len(cwds) == 6 and len(set(cwds)) == 6
    assert [cwd.parent for cwd in cwds] == [temp.resolve()] * 6
    sides_run = [cwd.name.split("-")[1] for cwd in cwds]
    assert sides_run == ["parent", "change", "change", "parent", "parent", "change"]
    assert list(temp.iterdir()) == []
    doc = json.loads((repo / "BENCH_fresh.json").read_text())
    assert doc["summary"]["w/seed1"]["pairs"] == 3


def _alive(pid):
    # a zombie has exited; it waits only for its parent to reap it
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def _poll(condition, seconds=30):
    deadline = time.monotonic() + seconds
    while not condition():
        assert time.monotonic() < deadline
        time.sleep(0.05)


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads process states from /proc")
def test_sigterm_stops_the_run_and_removes_both_copies(tmp_path):
    repo, temp, pids = tmp_path / "repo", tmp_path / "tmp", tmp_path / "pids"
    repo.mkdir()
    temp.mkdir()
    # stands in for bench/run.py: starts one sleeping child, like run.py
    # its worker, then reports both pids and sleeps
    (repo / "stand_in.py").write_text(
        "import os, subprocess, sys, time\n"
        "child = subprocess.Popen([sys.executable, '-c', 'import time; time.sleep(60)'])\n"
        f"with open({str(pids) + '.part'!r}, 'w') as f:\n"
        "    f.write(f'{os.getpid()} {child.pid}')\n"
        f"os.replace({str(pids) + '.part'!r}, {str(pids)!r})\n"
        "time.sleep(60)\n"
    )
    (repo / "BENCHMARK.json").write_text(
        json.dumps({"command": [sys.executable, "stand_in.py"], "end_to_end": []})
    )
    _git(repo, "init", "-q")
    _git(repo, "add", "-A")
    _git(repo, "commit", "-q", "-m", "parent")
    driver = _driver(tmp_path, repo, pairs=2, label="sigterm")

    proc = subprocess.Popen([sys.executable, str(driver)], env={**os.environ, "TMPDIR": str(temp)})
    started = []
    try:
        _poll(lambda: pids.exists() or proc.poll() is not None)
        assert proc.poll() is None
        started = [int(pid) for pid in pids.read_text().split()]
        assert sorted(path.name.split("-")[1] for path in temp.iterdir()) == ["change", "parent"]
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=30) == 128 + signal.SIGTERM
        _poll(lambda: not any(map(_alive, started)))
        assert list(temp.iterdir()) == []
        assert not (repo / "BENCH_sigterm.json").exists()
    finally:
        for pid in [proc.pid, *started]:
            if _alive(pid):
                os.kill(pid, signal.SIGKILL)
        proc.wait()
