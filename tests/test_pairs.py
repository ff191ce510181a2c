"""The pair runner's summary against the recorded benchmark comparisons, and
its speed-mode split and record layout."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("pairs", ROOT / "tools" / "pairs.py")
pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(pairs)


def test_every_recorded_mesh_400_summary_recomputes_from_its_runs():
    bench = json.loads((ROOT / "BENCH_mesh-400.json").read_text())
    metrics = pairs.end_to_end_metrics()
    checked = 0
    for comparison in bench["comparisons"]:
        for key, recorded in comparison["summary"].items():
            # A key is a seed, or "SEED, pairs A-B" for a later batch of it.
            seed, _, batch = key.partition(", pairs ")
            low, high = map(int, batch.split("-")) if batch else (0, recorded["pairs"] - 1)
            runs = [
                run for run in comparison["runs"]
                if run["seed"] == int(seed) and low <= run["pair"] <= high
            ]
            # The oldest records summarize four of the metrics.
            summary = pairs.summarize(runs, metrics)
            assert {k: summary[k] for k in recorded} == recorded, (comparison["change_commit"], key)
            checked += 1
    assert checked >= 7


def test_wins_follow_each_metric_direction():
    def run(pair, side, ops, rss):
        metrics = {"ops_per_s": {"value": ops}, "peak_rss_mb": {"value": rss}}
        return {"pair": pair, "side": side, "result": json.dumps({"metrics": metrics})}

    runs = [run(0, "parent", 10, 50), run(0, "change", 12, 50), run(1, "change", 9, 40), run(1, "parent", 10, 45)]
    summary = pairs.summarize(runs, [("ops_per_s", "higher"), ("peak_rss_mb", "lower")])
    assert summary["pairs"] == 2
    assert summary["ops_per_s_change_wins"] == 1
    assert summary["peak_rss_mb_change_wins"] == 1  # a tie is no win
    assert summary["peak_rss_mb_parent"] == {"q1": 46.25, "median": 47.5, "q3": 48.75}


def test_speed_modes_split_at_the_largest_ratio():
    split, low, high = pairs.speed_modes([56.0, 41.0, 60.0, 40.0, 44.0])
    assert (low, high) == ([40.0, 41.0, 44.0], [56.0, 60.0])
    assert split == 50.0
    assert pairs.speed_modes([7.0]) == (float("inf"), [7.0], [])


def test_a_later_batch_of_the_same_commits_joins_their_comparison():
    bench = {"comparisons": [{"parent_commit": "a", "change_commit": "b", "summary": {}, "runs": []}]}
    assert pairs.comparison_for(bench, "a", "b") is bench["comparisons"][0]
    assert len(bench["comparisons"]) == 1
