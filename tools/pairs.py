"""Alternating parent/change pairs of one benchmark workload.

    python3 tools/pairs.py PARENT CHANGE --workload mesh-400 --seed 400 --pairs 10 --seconds 15
    python3 tools/pairs.py PARENT CHANGE --workload he-2048 --seed 2048 --pairs 1 --trace 1

Run from a git checkout; stdlib only. PARENT and CHANGE are any git
revisions. Each side is extracted from its own `git archive` into a
temporary directory, and `perfbench/run.py` runs there, one process at a
time; pair k runs the parent first when k is even and the change first when
it is odd. The comparison is appended to `BENCH_<workload>.json` at the root
of the checkout: the two commits, every raw result line, and per seed and
end-to-end metric each side's quartiles and the number of pairs the change
won. Pairs of a commit pair already recorded continue its numbering. The
script then prints the summary and, per side, the speed modes its runs fell
in: `op_p50_ms` split at its largest ratio between consecutive runs. Those
modes are recorded too, under "speed_modes" beside the summary.

With `--trace 1` every run is a traced one, and the summary is of the
per-layer metrics; those runs are recorded with `"trace": 1` under the key
"SEED traced", and number their pairs apart from the untraced ones.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
METHOD = (
    "each side run from its own git archive; pairs alternate which side runs first;"
    " every run single-threaded, one at a time"
)


def declared_metrics(trace: int = 0) -> list[tuple[str, str]]:
    """(name, better) of each end-to-end metric, or with trace of each
    per-layer one, in BENCHMARK.json's order."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(m["name"], m["better"]) for m in spec["per_layer" if trace else "end_to_end"]]


def quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": round(q1, 4), "median": round(median, 4), "q3": round(q3, 4)}


def summarize(runs: list[dict], metrics: list[tuple[str, str]]) -> dict:
    """One seed's pairs: each side's quartiles per metric, and the number of
    pairs in which the change was strictly better."""
    by_pair: dict = {}
    for run in runs:
        by_pair.setdefault(run["pair"], {})[run["side"]] = json.loads(run["result"])["metrics"]
    pairs = [by_pair[p] for p in sorted(by_pair)]
    summary: dict = {"pairs": len(pairs)}
    for name, better in metrics:
        parent = [pair["parent"][name]["value"] for pair in pairs]
        change = [pair["change"][name]["value"] for pair in pairs]
        sign = 1 if better == "higher" else -1
        summary[f"{name}_parent"] = quartiles(parent)
        summary[f"{name}_change"] = quartiles(change)
        summary[f"{name}_change_wins"] = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    return summary


def speed_modes(values: list[float]) -> tuple[float, list[float], list[float]]:
    """values split at the largest ratio between two consecutive sorted
    values: the split point, and the values below and above it."""
    v = sorted(values)
    if len(v) < 2:
        return float("inf"), v, []
    i = max(range(1, len(v)), key=lambda k: v[k] / v[k - 1])
    return (v[i - 1] + v[i]) / 2, v[:i], v[i:]


def side_modes(runs: list[dict]) -> dict:
    """Per side, its runs' speed modes by op_p50_ms: the split point and,
    per mode, the number of runs and their lowest and highest op_p50_ms."""
    modes = {}
    for side in ("parent", "change"):
        p50 = [json.loads(r["result"])["metrics"]["op_p50_ms"]["value"] for r in runs if r["side"] == side]
        split, low, high = speed_modes(p50)
        modes[side] = {"split_ms": split, "modes": [[len(v), v[0], v[-1]] for v in (low, high) if v]}
    return modes


def git(*args: str) -> str:
    return subprocess.run(
        ["git", "-C", str(ROOT), *args], check=True, capture_output=True, text=True
    ).stdout.strip()


def extract(commit: str, into: Path) -> None:
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", commit],
        check=True, capture_output=True,
    ).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)


def run_once(checkout: Path, workload: str, seed: int, seconds: str, trace: int) -> str:
    """The result line of one benchmark run in `checkout`."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", seconds, "--trace", str(trace)]
    done = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode or not lines:
        sys.exit(f"{' '.join(command)} in {checkout} exited {done.returncode}:\n{done.stderr}")
    return lines[-1]


def comparison_for(bench: dict, parent: str, change: str) -> dict:
    """The record's last comparison where it is of these two commits, else
    a new one appended to it."""
    if bench["comparisons"]:
        last = bench["comparisons"][-1]
        if (last["parent_commit"], last["change_commit"]) == (parent, change):
            return last
    comparison = {
        "parent_commit": parent,
        "change_commit": change,
        "change": git("log", "-1", "--format=%s", change),
        "summary": {},
        "runs": [],
    }
    bench["comparisons"].append(comparison)
    return comparison


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    seconds = f"{args.seconds:g}"
    commits = {"parent": git("rev-parse", args.parent), "change": git("rev-parse", args.change)}

    path = ROOT / f"BENCH_{args.workload}.json"
    if path.exists():
        bench = json.loads(path.read_text())
    else:
        bench = {
            "workload": args.workload,
            "command": f"python3 perfbench/run.py --workload {args.workload} --seed SEED --seconds {seconds}",
            "host": {"cpus": os.cpu_count(), "os": platform.platform(), "python": platform.python_version()},
            "method": METHOD,
            "comparisons": [],
        }
    comparison = comparison_for(bench, commits["parent"], commits["change"])
    first = len({run["pair"] for run in comparison["runs"]
                 if run["seed"] == args.seed and run.get("trace", 0) == args.trace})

    runs = []
    with tempfile.TemporaryDirectory() as tmp:
        checkouts = {}
        for side, commit in commits.items():
            checkouts[side] = Path(tmp) / side
            checkouts[side].mkdir()
            extract(commit, checkouts[side])
        for pair in range(first, first + args.pairs):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for side in order:
                result = run_once(checkouts[side], args.workload, args.seed, seconds, args.trace)
                run = {"seed": args.seed, "pair": pair, "side": side, "first": order[0], "result": result}
                runs.append({**run, "trace": 1} if args.trace else run)
                print(f"pair {pair} {side}: {result}", flush=True)

    key = f"{args.seed} traced" if args.trace else str(args.seed)
    if first:
        key += f", pairs {first}-{first + args.pairs - 1}"
    metrics = declared_metrics(args.trace)
    summary = summarize(runs, metrics)
    comparison["summary"][key] = summary
    if not args.trace:  # a traced run reads no op_p50_ms, so it shows no speed mode
        modes = comparison.setdefault("speed_modes", {})[key] = side_modes(runs)
    comparison["runs"] += runs
    path.write_text(json.dumps(bench, indent=1) + "\n")

    print(f"{args.workload} seed {key}, {args.pairs} pairs (median [q1, q3]), appended to {path.name}:")
    for name, _ in metrics:
        p, c = summary[f"{name}_parent"], summary[f"{name}_change"]
        print(
            f"  {name}: {p['median']} [{p['q1']}, {p['q3']}] -> {c['median']} [{c['q1']}, {c['q3']}],"
            f" change won {summary[f'{name}_change_wins']}"
        )
    incorrect = [run for run in runs if json.loads(run["result"])["correct"] is not True]
    print(f"  runs not correct: {len(incorrect)}")
    if args.trace:
        return
    for side, mode in modes.items():
        text = [f"{count} at {lo:.3g}-{hi:.3g} ms" for count, lo, hi in mode["modes"]]
        print(f"  {side} speed modes by op_p50_ms (split at {mode['split_ms']:.3g} ms): {', '.join(text)}")


if __name__ == "__main__":
    main()
