"""tools/bench_pairs.py: the summary of paired benchmark runs, and the copies they run in."""

import importlib.util
import subprocess
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
