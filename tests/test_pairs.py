"""The pair runner's summary against the recorded benchmark comparisons, and
its speed-mode split and record layout."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("pairs", ROOT / "tools" / "pairs.py")
pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(pairs)


def _written_by_pairs(summary):
    """Whether a recorded summary has the layout pairs.py writes: a win count
    beside every metric. Older hand-made he-2048 and corpus-mixed records
    count wins on fewer metrics, under other names."""
    metrics = [k.removesuffix("_parent") for k in summary if k.endswith("_parent")]
    return all(f"{m}_change_wins" in summary for m in metrics)


def _checked_summaries(workload):
    """Recomputes each summary pairs.py wrote in BENCH_<workload>.json from
    its runs, and returns how many it checked."""
    checked = 0
    for comparison in json.loads((ROOT / f"BENCH_{workload}.json").read_text())["comparisons"]:
        for key, recorded in comparison["summary"].items():
            if not _written_by_pairs(recorded):
                continue
            # A key is a seed, or "SEED traced" for traced runs, and either
            # one then ", pairs A-B" for a later batch of it.
            seed, _, batch = key.partition(", pairs ")
            seed, traced = seed.removesuffix(" traced"), int(seed.endswith(" traced"))
            low, high = map(int, batch.split("-")) if batch else (0, recorded["pairs"] - 1)
            runs = [
                run for run in comparison["runs"]
                if run["seed"] == int(seed) and run.get("trace", 0) == traced
                and low <= run["pair"] <= high
            ]
            # The oldest mesh-400 records summarize four of the metrics.
            summary = pairs.summarize(runs, pairs.declared_metrics(traced))
            assert {k: summary[k] for k in recorded} == recorded, (workload, key)
            checked += 1
    return checked


def test_every_recorded_mesh_400_summary_recomputes_from_its_runs():
    assert _checked_summaries("mesh-400") >= 7


def test_every_summary_of_the_other_workloads_recomputes_from_its_runs():
    checked = {w: _checked_summaries(w) for w in ("corpus-mixed", "games", "he-2048")}
    assert sum(checked.values()) >= 8, checked


def test_every_recorded_speed_mode_count_recomputes_from_its_runs():
    checked = 0
    for workload in ("corpus-mixed", "games", "he-2048", "mesh-400"):
        for comparison in json.loads((ROOT / f"BENCH_{workload}.json").read_text())["comparisons"]:
            for key, recorded in comparison.get("speed_modes", {}).items():
                seed, _, batch = key.partition(", pairs ")
                low, high = map(int, batch.split("-")) if batch else (0, comparison["summary"][key]["pairs"] - 1)
                runs = [run for run in comparison["runs"] if run["seed"] == int(seed)
                        and not run.get("trace") and low <= run["pair"] <= high]
                assert pairs.side_modes(runs) == recorded, (workload, key)
                assert sum(n for n, _, _ in recorded["parent"]["modes"]) == len(runs) // 2
                checked += 1
    assert checked >= 5


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
