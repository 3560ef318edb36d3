"""tools/bench_pairs.py: the summary of paired benchmark runs."""

import importlib.util
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
