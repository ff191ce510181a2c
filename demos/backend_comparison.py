"""Same round, two ways of hiding the numbers.

The protocol engine never looks inside the running share; it only folds
contributions in and finalizes at the concentrator. That makes the hiding
scheme a plug: additive masking keeps the share a number mod k, the Paillier
backend keeps it a ciphertext. Both must walk the same path and land on the
same aggregate, and here they do, on the 5-meter golden scenario.

Run:  python3 demos/backend_comparison.py
"""

from dataclasses import replace

from ftagg import PaillierSpec, SimNetwork, make_backend, run_round
from ftagg.model import KIND_ACTIVATION, scenario_from_json


def first_share_on_the_wire(outcome):
    for record in outcome.trace:
        if record.delivered and record.message.kind == KIND_ACTIVATION:
            share = record.message.share
            if share is not None:
                return share
    return None


def main() -> None:
    with open("scenarios/ring5.json", encoding="utf-8") as fh:
        scenario = scenario_from_json(fh.read())

    results = {}
    for label, s in [
        ("masking", scenario),
        ("paillier", replace(scenario, backend=PaillierSpec(key_bits=256))),
    ]:
        outcome = run_round(s, make_backend(s), SimNetwork.for_scenario(s))
        results[label] = outcome
        share = first_share_on_the_wire(outcome)
        shown = repr(share)
        if len(shown) > 60:
            shown = shown[:57] + "..."
        print(f"{label:>9}: active {outcome.active}, aggregate {outcome.aggregate}")
        print(f"{'':>9}  first share on the wire: {shown}")
        print()

    a, b = results["masking"], results["paillier"]
    assert a.active == b.active
    assert a.aggregate == b.aggregate
    assert len(a.trace) == len(b.trace)
    print("identical walk, identical aggregate, different wire payloads.")


if __name__ == "__main__":
    main()
