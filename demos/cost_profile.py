"""Message and time cost against the advertised bounds.

On a healthy network every meter sends its opening report plus exactly two
more messages: the acknowledgment it owes its activator and one forward
(the last meter's forward is the round closer, so it amortizes to the same
two). On any topology a round takes at most max(N dt, N + 2 + (N-1) dt)
ticks, which is max(5N, 6N-3) at dt = 5: either every report times out, or
every meter reports and the first holder's every handoff times out. Each
failure burns one timeout but also permanently removes a candidate.

Run:  python3 demos/cost_profile.py
"""

import itertools
import random
from collections import Counter

from ftagg import SimNetwork, make_backend, run_round
from ftagg.model import (
    DC,
    KIND_INITIAL_DATA,
    FailureGraph,
    MaskingSpec,
    Scenario,
    validate_scenario,
)
from ftagg.netsim import DELTA_T


def full_edges(n):
    return list(itertools.combinations(range(n + 1), 2))


def build(n, edges, working, n_min, seed):
    return validate_scenario(
        Scenario(
            n_sm=n,
            graph=FailureGraph.build(n, edges, working),
            sending_list=tuple(range(1, n + 1)),
            n_min=n_min,
            round=0,
            measurements={i: i for i in range(1, n + 1)},
            backend=MaskingSpec(),
            seed=seed,
        )
    )


def tick_bound(n):
    """n reports, the opening handoff, n-1 timed-out handoffs and the final
    message, or n timed-out reports, whichever is longer."""
    return max(n * DELTA_T, n + 1 + (n - 1) * DELTA_T + 1)


def zero_failure_mesh(n):
    edges = full_edges(n)
    return build(n, edges, edges, n_min=2, seed=3)


def random_broken_scenario(rng):
    n = rng.randint(1, 12)
    edges = [e for e in full_edges(n) if rng.random() < 0.85]
    working = [e for e in edges if rng.random() < rng.uniform(0.2, 1.0)]
    return build(n, edges, working, n_min=rng.randint(1, n), seed=rng.getrandbits(64))


def main() -> None:
    print("zero-failure meshes: per-meter messages after the opening report")
    print(f"{'N':>4} {'per-meter sends':>16} {'elapsed':>8} {'3N+1 records':>13}")
    for n in (2, 4, 8, 16, 32):
        scenario = zero_failure_mesh(n)
        net = SimNetwork.for_scenario(scenario)
        outcome = run_round(scenario, make_backend(scenario), net)
        sends = Counter(
            r.sender for r in outcome.trace
            if r.sender != DC and r.message.kind != KIND_INITIAL_DATA
        )
        counts = sorted(set(sends.values()))
        print(f"{n:>4} {str(counts):>16} {net.clock:>8} {len(outcome.trace):>13}")
    print()

    print("random broken topologies: elapsed ticks vs the proven max(5N, 6N-3)")
    rng = random.Random(5)
    at_bound = 0
    for _ in range(2000):
        scenario = random_broken_scenario(rng)
        net = SimNetwork.for_scenario(scenario)
        outcome = run_round(scenario, make_backend(scenario), net)
        bound = tick_bound(scenario.n_sm)
        assert net.clock <= bound, (net.clock, bound)
        assert len(outcome.trace) <= 3 * scenario.n_sm + 1
        at_bound += net.clock == bound
    print(f"2000 rounds, all within the bound; {at_bound} of them reach it exactly")


if __name__ == "__main__":
    main()
