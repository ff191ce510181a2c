"""Self-check of the benchmark harness. Run from the repository root:

    python3 perfbench/selfcheck.py

It checks that
1. the harness plays the same games as the program's own driver: per family,
   its win and abort counts over the first trials equal
   `empirical_unlinkability(family, trials, family_seed)`;
2. the corpus-mixed op check passes on real rounds and fails on a round whose
   aggregate is off by one, so the walker comparison is not vacuous;
3. a short run of every workload, untraced and traced, is correct and prints
   every metric BENCHMARK.json names, plus the details the harness promises.
   The untraced run uses a seed with no pinned digest, so it checks the
   default seed's digest; the traced run uses the default seed, whose short
   untraced share makes it compute its own digest apart from the loop.
It takes about three minutes. Exit code 0 means every check passed.
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from ftagg import empirical_unlinkability  # noqa: E402
from tracing import NULL_TRACER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 3
GAME_TRIALS = 40
CORPUS_OPS = 400
DETAILS = ("python", "nproc", "samples", "failed_ratio", "digest_seed", "digest", "digest_ok")


def check_games() -> list[str]:
    w = WORKLOADS["games"]
    counts = {f: [0, 0] for f in w.families}
    for item in w.inputs(SEED, GAME_TRIALS):
        for family, (trial, guess) in zip(w.families, w.op(item, NULL_TRACER)):
            if trial.abort_reason is not None:
                counts[family][1] += 1
            elif guess == trial.secret_bit:
                counts[family][0] += 1
    errors = []
    for family, (wins, aborts) in counts.items():
        stats = empirical_unlinkability(
            family, GAME_TRIALS, w.family_seed(SEED, family), n_sm=w.n_sm
        )
        if (wins, aborts) != (stats.wins, stats.aborts):
            errors.append(
                f"games/{family}: harness {wins} wins {aborts} aborts, "
                f"driver {stats.wins} wins {stats.aborts} aborts"
            )
    return errors


def check_corpus() -> list[str]:
    w = WORKLOADS["corpus-mixed"]
    errors = []
    mutated = 0
    for item in w.inputs(SEED, CORPUS_OPS):
        result = w.op(item, NULL_TRACER)
        if not w.check(item, result, NULL_TRACER).ok:
            errors.append("corpus-mixed: an aggregate disagrees with the walker")
        outcome = result[1]
        if outcome.aggregate is not None:
            wrong = dataclasses.replace(outcome, aggregate=outcome.aggregate + 1)
            if w.check(item, (result[0], wrong) + result[2:], NULL_TRACER).ok:
                errors.append("corpus-mixed: the check accepted a wrong aggregate")
            mutated += 1
    if mutated == 0:
        errors.append("corpus-mixed: no round met its quorum")
    return errors


def check_outputs() -> list[str]:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    config = json.loads((HERE / "workloads.json").read_text(encoding="utf-8"))
    errors = []
    for workload in WORKLOADS:
        runs = ((0, "end_to_end", SEED), (1, "per_layer", config[workload]["default_seed"]))
        for trace, key, seed in runs:
            out = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
                stdout=subprocess.PIPE, text=True, check=False,
            )
            lines = out.stdout.strip().splitlines()
            if out.returncode != 0 or len(lines) < 2:
                errors.append(f"{workload} trace={trace}: exit {out.returncode}")
                continue
            details, result = json.loads(lines[-2]), json.loads(lines[-1])
            if not result["correct"]:
                errors.append(f"{workload} trace={trace}: not correct")
            names = {m["name"] for m in spec[key]}
            if set(result["metrics"]) != names:
                errors.append(
                    f"{workload} trace={trace}: metrics differ from {key}: "
                    f"{sorted(set(result['metrics']) ^ names)}"
                )
            missing = [d for d in DETAILS if d not in details]
            if missing:
                errors.append(f"{workload} trace={trace}: details lack {missing}")
    return errors


def main() -> int:
    errors = check_games() + check_corpus() + check_outputs()
    for e in errors:
        print(f"FAIL {e}")
    print("self-check passed" if not errors else f"self-check failed: {len(errors)} problems")
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
