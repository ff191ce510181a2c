"""The engine against the reference walker on 300-meter full meshes.

The corpus sweeps stop at 12 meters; these rounds run the same oracle at a
size where the activation chain is hundreds of hops long, and check the
scenario digest against its plain `json.dumps` reference at that size.
"""

import random

import pytest
from conftest import full_edges, make_scenario, reference_digest
from ftagg.model import scenario_digest
from ftagg.netsim import SimNetwork
from ftagg.protocol import make_backend, run_round
from ftagg.walker import predict_aggregate, reachable_active

N_SM = 300


@pytest.mark.parametrize("p_fail", [0.0, 0.1])
@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_engine_matches_walker_at_300_meters(seed, p_fail):
    rng = random.Random(seed)
    edges = full_edges(N_SM)
    order = list(range(1, N_SM + 1))
    rng.shuffle(order)
    s = make_scenario(
        N_SM,
        edges=edges,
        working=[e for e in edges if rng.random() >= p_fail],
        order=order,
        n_min=N_SM // 2,
        measurements={i: rng.randrange(1000) for i in range(1, N_SM + 1)},
        seed=seed,
        round_index=seed,
    )
    assert scenario_digest(s) == reference_digest(s)
    outcome = run_round(s, make_backend(s), SimNetwork.for_scenario(s))
    assert outcome.aggregate == predict_aggregate(s)
    assert outcome.aggregate is not None
    assert list(outcome.active) == reachable_active(s)
    if p_fail == 0.0:
        assert list(outcome.active) == order
