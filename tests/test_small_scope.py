"""Exhaustive small-scope check of the round engine.

Every working-link set of a full mesh, every offline set and every n_min for
n <= 3 meters, and every working-link set and n_min for n = 4 with all meters
online: 5,700 rounds. The sending list is fixed to 1..n, since relabelling the
meters covers every other order, and meter i measures 10^(i-1), so each sum
names its contributor set. On every round the engine must match the
reference walker, and its trace must classify; the longest trace for n
meters is 3n+1 records.
"""

import itertools

import pytest
from ftagg.model import FailureGraph, MaskingSpec, Scenario, full_mesh, validate_scenario
from ftagg.netsim import SimNetwork
from ftagg.protocol import classify_steps, make_backend, run_round
from ftagg.walker import predict_aggregate, reachable_active


def rounds(n: int, all_online: bool):
    """Every scenario of n meters in the enumerated scope."""
    edges = full_mesh(n).edges
    pairs = list(itertools.combinations(range(n + 1), 2))
    offline_sets = [()] if all_online else [
        c for k in range(n + 1) for c in itertools.combinations(range(1, n + 1), k)
    ]
    for on in itertools.product((False, True), repeat=len(pairs)):
        working = FailureGraph.build(n, [], itertools.compress(pairs, on)).working
        graph = FailureGraph(edges, working)
        for offline, n_min in itertools.product(offline_sets, range(1, n + 1)):
            yield validate_scenario(
                Scenario(
                    n_sm=n,
                    graph=graph,
                    sending_list=tuple(range(1, n + 1)),
                    n_min=n_min,
                    round=0,
                    measurements={i: 10 ** (i - 1) for i in range(1, n + 1)},
                    backend=MaskingSpec(),
                    seed=1,
                    sm_online={i: False for i in offline},
                )
            )


@pytest.mark.parametrize(
    "n, all_online, count", [(1, False, 4), (2, False, 64), (3, False, 1536), (4, True, 4096)]
)
def test_every_small_round_matches_the_walker(n, all_online, count):
    seen = 0
    longest = 0
    for s in rounds(n, all_online):
        outcome = run_round(s, make_backend(s), SimNetwork.for_scenario(s))
        assert outcome.aggregate == predict_aggregate(s), s
        if outcome.aggregate is not None:
            assert list(outcome.active) == reachable_active(s), s
        classify_steps(outcome)
        longest = max(longest, len(outcome.trace))
        seen += 1
    assert seen == count
    assert longest == 3 * n + 1
