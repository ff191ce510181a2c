"""Walk one aggregation round message by message.

The 4-meter golden scenario has meters 2 and 4 cut off from the concentrator
and the 1-2 link down. Watch the round route around the damage: the opening
report collects {1, 3}, the share visits them in list order, and meter 3
closes the round. Meters that never reach the concentrator simply never
enter the candidate list; nothing retries, nothing stalls.

Run:  python3 demos/ring_walkthrough.py
"""

from ftagg import SimNetwork, classify_steps, make_backend, proof_case_histogram, run_round
from ftagg.model import party_name, scenario_from_json
from ftagg.netsim import DELTA_T


def main() -> None:
    with open("scenarios/ring4.json", encoding="utf-8") as fh:
        scenario = scenario_from_json(fh.read())

    net = SimNetwork.for_scenario(scenario)
    outcome = run_round(scenario, make_backend(scenario), net)

    print(f"{scenario.n_sm} meters, quorum {scenario.n_min}, "
          f"measurements {dict(scenario.measurements)}")
    print()
    print("tick  message")
    for record in outcome.trace:
        status = "ok  " if record.delivered else "LOST"
        print(f"{record.tick:>4}  {status} {party_name(record.sender):>3} -> "
              f"{party_name(record.receiver):<3} {record.message.kind}")
    print()

    print(f"candidates after the opening reports: {outcome.remaining_at_init}")
    print(f"contributors:                         {outcome.active}")
    print(f"aggregate:                            {outcome.aggregate}")
    expected = sum(scenario.measurements[i] for i in outcome.active)
    print(f"plain sum over contributors:          {expected}")
    print()

    # every share movement falls into one of the termination-proof cases
    print(f"step classes: {classify_steps(outcome)}")
    print(f"histogram:    {proof_case_histogram(outcome)}")
    print(f"steps {len(outcome.trace)}, elapsed {net.clock} ticks "
          f"(timeouts cost {DELTA_T} ticks each)")


if __name__ == "__main__":
    main()
