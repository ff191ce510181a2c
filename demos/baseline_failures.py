"""Why the retry-chain protocol needed replacing.

The older design chains every meter in a fixed order and retries past dead
links. Three things can happen to it, and all three are reproduced here on
small constructed topologies:

  completed               everything delivered, aggregate checks out
  stuck                   the share sum dead-ends and the round just stops
  detected_inconsistency  a report is lost, the hash check catches it, and
                          the whole round is discarded

The fault-tolerant round runs beside it on the same scenarios. It only fails
to aggregate when turnout is genuinely below quorum, never because one link
happened to sit in the wrong place.

The last section shows the older design's deeper problem: its masked report
reuses one static share per meter forever, so an eavesdropper who records
two rounds learns the exact difference of every meter's measurements.

Run:  python3 demos/baseline_failures.py
"""

import itertools

from ftagg import SimNetwork, make_backend, run_round
from ftagg.baseline import eavesdropper_delta, run_baseline_round
from ftagg.model import (
    FailureGraph,
    MaskingSpec,
    Scenario,
    scenario_from_json,
    validate_scenario,
)


def load(name):
    with open(f"scenarios/{name}.json", encoding="utf-8") as fh:
        return scenario_from_json(fh.read())


def three_meter_mesh() -> Scenario:
    edges = list(itertools.combinations(range(4), 2))
    return validate_scenario(
        Scenario(
            n_sm=3,
            graph=FailureGraph.build(3, edges, edges),
            sending_list=(1, 2, 3),
            n_min=2,
            round=0,
            measurements={1: 0, 2: 0, 3: 0},
            backend=MaskingSpec(),
            seed=9,
        )
    )


def main() -> None:
    print("retry-chain outcomes vs the fault-tolerant round")
    print("-" * 60)
    for name in ("fullmesh6", "ring4", "dc_gap3"):
        scenario = load(name)
        old = run_baseline_round(scenario)
        new = run_round(scenario, make_backend(scenario), SimNetwork.for_scenario(scenario))
        print(f"{name:>10}: retry-chain {old.status.value:<24} "
              f"aggregate {str(old.aggregate):<6} {old.reason}")
        print(f"{'':>10}  fault-tolerant                       "
              f"aggregate {new.aggregate} from {new.active}")
        print()

    print("two-round eavesdropper on the retry chain")
    print("-" * 60)
    # one healthy 3-meter deployment, recorded on two consecutive rounds
    k = 1 << 64
    import dataclasses

    base = three_meter_mesh()
    round_0 = dataclasses.replace(base, round=0, measurements={1: 500, 2: 22, 3: 33})
    round_1 = dataclasses.replace(base, round=1, measurements={1: 321, 2: 22, 3: 90})
    a = run_baseline_round(round_0)
    b = run_baseline_round(round_1)
    for i in (1, 2, 3):
        delta = eavesdropper_delta(a.trace, b.trace, i, k)
        signed = delta if delta < k // 2 else delta - k
        m0, m1 = round_0.measurements[i], round_1.measurements[i]
        print(f"meter {i}: wire delta {signed:>5}   actual change {m0 - m1:>5}")
    print()
    print("the fault-tolerant round swaps the static share for a fresh keyed")
    print("value every round, so consecutive transcripts stop subtracting.")


if __name__ == "__main__":
    main()
