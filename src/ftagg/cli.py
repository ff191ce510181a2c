"""Command line front end.

Three subcommands: ``run`` executes an aggregation round from each scenario
file in turn, ``baseline`` races the retry-chain protocol against the fault-tolerant
one on the same scenario, and ``game`` estimates an unlinkability win rate
from a small config file. Reports are JSON on stdout; errors go to stderr
with exit code 2 for bad input and 3 for filesystem trouble.
"""

import argparse
import json
import sys
from collections import Counter
from dataclasses import asdict, replace
from typing import Optional, Sequence

from .baseline import run_baseline_round
from .game import FAMILIES, STRATEGIES, empirical_unlinkability
from .model import (
    SPECS,
    Scenario,
    ScenarioError,
    check_keys,
    load_json,
    scenario_digest,
    scenario_from_json,
    trace_to_jsonl,
    validate_scenario,
)
from .model import _backend_to_dict
from .netsim import SimNetwork
from .protocol import make_backend, proof_case_histogram, run_round

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_IO = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ftagg",
        description="fault-tolerant private aggregation over a simulated network",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def scenario_args(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--backend",
            choices=list(SPECS),
            help="override the scenario's computation backend",
        )
        p.add_argument("--seed", type=int, help="override the scenario seed")
        p.add_argument(
            "--trace-out",
            metavar="PATH",
            help="also write the message trace as JSON lines",
        )
        p.add_argument("--pretty", action="store_true", help="indent the report")

    run_p = sub.add_parser("run", help="run an aggregation round from each file in turn")
    run_p.add_argument(
        "paths",
        nargs="+",
        metavar="path",
        help="scenario JSON file; several are the rounds of one process, a report each",
    )
    scenario_args(run_p)

    base_p = sub.add_parser(
        "baseline", help="run the retry-chain protocol beside the fault-tolerant one"
    )
    base_p.add_argument("path", help="scenario JSON file")
    scenario_args(base_p)

    game_p = sub.add_parser(
        "game", help="play an unlinkability game family and report the win rate"
    )
    game_p.add_argument("path", help="game config JSON file")
    game_p.add_argument("--pretty", action="store_true", help="indent the report")
    return parser


def _load_scenario(args: argparse.Namespace) -> Scenario:
    with open(args.path, encoding="utf-8") as fh:
        scenario = scenario_from_json(fh.read())
    if args.backend is not None:
        scenario = replace(scenario, backend=SPECS[args.backend]())
    if args.seed is not None:
        scenario = replace(scenario, seed=args.seed)
    # overrides can break constraints the file satisfied, so recheck
    return validate_scenario(scenario)


def _write_trace(path: Optional[str], trace) -> None:
    if path is None:
        return
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(trace_to_jsonl(trace))


def _message_counts(trace) -> dict:
    delivered: Counter = Counter()
    failed: Counter = Counter()
    for r in trace:
        (delivered if r.delivered else failed)[r.message.kind] += 1
    return {
        "total": len(trace),
        "delivered": dict(sorted(delivered.items())),
        "failed": dict(sorted(failed.items())),
    }


def _cmd_run(args: argparse.Namespace) -> dict:
    scenario = _load_scenario(args)
    net = SimNetwork.for_scenario(scenario)
    outcome = run_round(scenario, make_backend(scenario), net)
    _write_trace(args.trace_out, outcome.trace)
    return {
        "scenario_digest": scenario_digest(scenario),
        "backend": _backend_to_dict(scenario.backend),
        "aggregate": outcome.aggregate,
        "quorum_met": outcome.aggregate is not None,
        "active": list(outcome.active),
        "remaining_at_init": list(outcome.remaining_at_init),
        "steps": len(outcome.trace),
        "elapsed_ticks": net.clock,
        "messages": _message_counts(outcome.trace),
        "proof_cases": proof_case_histogram(outcome),
    }


def _cmd_baseline(args: argparse.Namespace) -> dict:
    scenario = _load_scenario(args)
    outcome = run_round(scenario, make_backend(scenario), SimNetwork.for_scenario(scenario))
    result = run_baseline_round(scenario)
    _write_trace(args.trace_out, result.trace)
    return {
        "scenario_digest": scenario_digest(scenario),
        "protocol": {
            "aggregate": outcome.aggregate,
            "active": list(outcome.active),
            "steps": len(outcome.trace),
            "proof_cases": proof_case_histogram(outcome),
        },
        "baseline": {
            "status": result.status.value,
            "aggregate": result.aggregate,
            "active": list(result.active),
            "steps": len(result.trace),
            "reason": result.reason,
            "share_check": result.share_check,
            "report_checks": {str(i): ok for i, ok in sorted(result.report_checks.items())},
        },
        "aggregates_equal": (
            outcome.aggregate is not None and outcome.aggregate == result.aggregate
        ),
    }


def _require(config: dict, key: str, kind: type, default=None):
    if key not in config:
        if default is not None:
            return default
        raise ScenarioError(f"game config is missing {key!r}")
    value = config[key]
    if not isinstance(value, kind) or isinstance(value, bool):
        noun = "an integer" if kind is int else "a string"
        raise ScenarioError(
            f"game config field {key!r} must be {noun}, got {type(value).__name__}"
        )
    return value


def _cmd_game(args: argparse.Namespace) -> dict:
    with open(args.path, encoding="utf-8") as fh:
        config = load_json(fh.read())
    if not isinstance(config, dict):
        raise ScenarioError("game config must be a JSON object")
    family = _require(config, "family", str)
    if family not in FAMILIES:
        raise ScenarioError(f"unknown family {family!r}; choose from {sorted(FAMILIES)}")
    strategy = _require(config, "strategy", str) if "strategy" in config else None
    if strategy is not None and strategy not in STRATEGIES:
        raise ScenarioError(
            f"unknown strategy {strategy!r}; choose from {sorted(STRATEGIES)}"
        )
    trials = _require(config, "trials", int)
    seed = _require(config, "seed", int)
    n_sm = _require(config, "n_sm", int, default=5)
    check_keys(config, {"family", "strategy", "trials", "seed", "n_sm"}, "game config")
    return asdict(empirical_unlinkability(family, trials, seed, strategy=strategy, n_sm=n_sm))


COMMANDS = {"run": _cmd_run, "baseline": _cmd_baseline, "game": _cmd_game}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Runs the command once per file, printing each report as it comes; the
    first file that fails ends the run with its exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    paths = args.paths if args.command == "run" else [args.path]
    if len(paths) > 1 and args.trace_out is not None:
        parser.error("--trace-out writes one round's trace; give one scenario file")
    for path in paths:
        args.path = path
        try:
            report = COMMANDS[args.command](args)
        except json.JSONDecodeError as exc:
            print(f"error: invalid JSON in {args.path}: {exc}", file=sys.stderr)
            return EXIT_INVALID
        except RecursionError:
            # json's decoder recurses once per nesting level of arrays and objects.
            print(f"error: invalid JSON in {args.path}: nested too deeply", file=sys.stderr)
            return EXIT_INVALID
        except (ScenarioError, KeyError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_INVALID
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_IO
        print(json.dumps(report, indent=2 if args.pretty else None, sort_keys=True))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
