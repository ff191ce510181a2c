"""Exhaustive small-scope check of the round engines.

Every working-link set of a full mesh, every offline set and every n_min for
n <= 3 meters, and every working-link set and n_min for n = 4 with all meters
online: 5,700 rounds. The sending list is fixed to 1..n, since relabelling the
meters covers every other order, and meter i measures 10^(i-1), so each sum
names its contributor set. On every round the engine must match the
reference walker, and its trace must classify. The worst cases are exact:
for n meters the longest trace is 3n+1 records, the longest round takes
max(5n, 6n-3) ticks, and the baseline's longest trace is 3n+2 records. The
same scope is run again with sums at the modulus edge of each backend.

The same pass measures the paper's gain over its predecessor. Wherever the
baseline completes with at least n_min contributors, the protocol returns
the same sum from the same contributors, so no round has the baseline
aggregating while the protocol fails. Over the scope 1,173 rounds aggregate
in both engines, and 687 in the protocol alone, where the baseline does not
complete.

Run as a script for the wide scope, 229,376 rounds: every working-link,
offline and n_min set at n = 4, and every working-link set and n_min at
n = 5 with all meters online.

    PYTHONPATH=src python tests/test_small_scope.py
"""

import itertools
import time

import pytest
from ftagg.baseline import BaselineStatus, run_baseline_round
from ftagg.model import (
    FailureGraph,
    MaskingSpec,
    PaillierSpec,
    Scenario,
    full_mesh,
    validate_scenario,
)
from ftagg.netsim import SimNetwork
from ftagg.protocol import classify_steps, make_backend, run_round
from ftagg.walker import predict_aggregate, reachable_active

SCOPE = [(1, False, 4), (2, False, 64), (3, False, 1536), (4, True, 4096)]
# Per n in SCOPE: rounds both engines aggregate, rounds only the protocol does.
GAIN = {1: (1, 0), 2: (14, 1), 3: (294, 46), 4: (864, 640)}
WIDE_SCOPE = [(4, False, 65536), (5, True, 163840)]


def rounds(n: int, all_online: bool, backend=MaskingSpec(), measurements=None):
    """Every scenario of n meters in the enumerated scope."""
    edges = full_mesh(n).edges
    pairs = list(itertools.combinations(range(n + 1), 2))
    offline_sets = [()] if all_online else [
        c for k in range(n + 1) for c in itertools.combinations(range(1, n + 1), k)
    ]
    measurements = measurements or {i: 10 ** (i - 1) for i in range(1, n + 1)}
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
                    measurements=measurements,
                    backend=backend,
                    seed=1,
                    sm_online={i: False for i in offline},
                )
            )


def at_the_edge(n: int, top: int) -> dict[int, int]:
    """Measurements 2^(i-1) for i < n, with the last meter's filling the sum
    up to top; while top >= 2^n - 1, every subset sum stays distinct."""
    m = {i: 1 << (i - 1) for i in range(1, n)}
    m[n] = top - sum(m.values())
    return m


def sweep(scenarios):
    """Check every round against the walker and the baseline. Returns the
    number of rounds, the longest trace, the longest clock and the
    baseline's longest trace; then the number of rounds both engines
    aggregate and the number only the protocol aggregates."""
    seen = longest = slowest = baseline_longest = both = protocol_only = 0
    for s in scenarios:
        net = SimNetwork.for_scenario(s)
        outcome = run_round(s, make_backend(s), net)
        assert outcome.aggregate == predict_aggregate(s), s
        if outcome.aggregate is not None:
            assert list(outcome.active) == reachable_active(s), s
        classify_steps(outcome)
        baseline = run_baseline_round(s)
        completed = baseline.status is BaselineStatus.COMPLETED
        if completed and len(baseline.active) >= s.n_min:
            assert (outcome.aggregate, outcome.active) == (baseline.aggregate, baseline.active), s
            both += 1
        elif outcome.aggregate is not None and not completed:
            protocol_only += 1
        longest = max(longest, len(outcome.trace))
        slowest = max(slowest, net.clock)
        baseline_longest = max(baseline_longest, len(baseline.trace))
        seen += 1
    return (seen, longest, slowest, baseline_longest), (both, protocol_only)


def worst_case(n: int, count: int) -> tuple[int, int, int, int]:
    return count, 3 * n + 1, max(5 * n, 6 * n - 3), 3 * n + 2


@pytest.mark.parametrize("n, all_online, count", SCOPE)
def test_every_small_round_matches_the_walker(n, all_online, count):
    assert sweep(rounds(n, all_online)) == (worst_case(n, count), GAIN[n])


@pytest.mark.parametrize(
    "backend, top",
    [(MaskingSpec(), (1 << 64) - 1), (PaillierSpec(key_bits=64), (1 << 63) - 1)],
    ids=["masking", "paillier-64"],
)
@pytest.mark.parametrize("n, all_online, count", SCOPE)
def test_sums_at_the_modulus_edge(n, all_online, count, backend, top):
    scenarios = rounds(n, all_online, backend, at_the_edge(n, top))
    assert sweep(scenarios) == (worst_case(n, count), GAIN[n])


if __name__ == "__main__":
    for n, all_online, count in WIDE_SCOPE:
        t0 = time.perf_counter()
        found, (both, protocol_only) = sweep(rounds(n, all_online))
        print(
            f"n={n} {'all online' if all_online else 'every offline set'}: "
            f"{found[0]} rounds, longest trace {found[1]}, longest clock {found[2]}, "
            f"baseline's longest trace {found[3]}; aggregated by both engines {both}, "
            f"by the protocol alone {protocol_only}, {time.perf_counter() - t0:.1f}s"
        )
        assert found == worst_case(n, count), found
