"""The engine against the reference walker on 300-meter graphs.

The corpus sweeps stop at 12 meters; these rounds run the same oracles at a
size where the activation chain is hundreds of hops long. Full meshes check
the scenario digest against its plain `json.dumps` reference at that size.
Sparse graphs (the ring the sending list implies, alone and with random
chords) run under masking-64 and Paillier-128 with the sum of the
measurements within n of the backend's bound, and under Paillier-128 again
with the sum within n of 2^64, the baseline's modulus, so that the baseline
runs beside Paillier rounds too. On each sparse round the trace and the
clock stay within their proven bounds, and wherever the baseline completes
with at least n_min contributors the protocol returns the same sum from the
same contributors, so no round aggregates in the baseline alone.

Run as a script for the wide draw: more seeds, and up to 1000 meters on the
sparse graphs.

    PYTHONPATH=src python tests/test_scale.py
"""

import random
import time

import pytest
from conftest import full_edges, make_scenario, reference_digest
from ftagg.baseline import BaselineStatus, baseline_modulus, run_baseline_round
from ftagg.model import DC, MaskingSpec, PaillierSpec, ScenarioError, scenario_digest
from ftagg.netsim import SimNetwork
from ftagg.protocol import make_backend, run_round
from ftagg.walker import predict_aggregate, reachable_active

N_SM = 300
# Each backend with the bound its sums lie within n of: its own, or 2^64,
# below which the baseline, which masks modulo 2^64, runs too.
BACKENDS = {
    "masking-64": (MaskingSpec(k_bits=64), 1 << 64),
    "paillier-128": (PaillierSpec(key_bits=128), 1 << 127),
    "paillier-128-below-2^64": (PaillierSpec(key_bits=128), 1 << 64),
}
# Per sparse test: its seed and the share of links that are off.
DRAWS = [(1, 0.0), (2, 0.01), (3, 0.1)]


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


def sparse_scenario(n, chords, backend, bound, seed, p_fail):
    """The ring a shuffled sending list implies (every DC link and the link
    between each pair of list neighbours) plus `chords` links between random
    meters, each link off with probability p_fail. The measurements sum to
    within n of bound."""
    rng = random.Random(seed)
    order = rng.sample(range(1, n + 1), n)
    edges = [(DC, i) for i in order] + list(zip(order, order[1:]))
    edges += [tuple(rng.sample(order, 2)) for _ in range(chords)]
    total = bound - 1 - rng.randrange(n)
    cuts = sorted(rng.randrange(total + 1) for _ in range(n - 1))
    return make_scenario(
        n,
        edges=edges,
        working=[e for e in edges if rng.random() >= p_fail],
        order=order,
        n_min=rng.randint(1, 10),
        measurements={i: b - a for i, (a, b) in enumerate(zip([0] + cuts, cuts + [total]), 1)},
        backend=backend,
        seed=seed,
        round_index=seed,
    )


def check_round(s):
    """Every oracle on one round. Returns whether the protocol aggregated and
    whether the baseline did, or None where the baseline's modulus cannot
    hold the sum and it is skipped."""
    n = s.n_sm
    assert scenario_digest(s) == reference_digest(s)
    net = SimNetwork.for_scenario(s)
    outcome = run_round(s, make_backend(s), net)
    assert outcome.aggregate == predict_aggregate(s)
    if outcome.aggregate is not None:
        assert list(outcome.active) == reachable_active(s)
    assert len(outcome.trace) <= 3 * n + 1
    assert net.clock <= max(5 * n, 6 * n - 3)
    try:
        baseline_modulus(s)
    except ScenarioError:
        return outcome.aggregate is not None, None
    baseline = run_baseline_round(s)
    completed = baseline.status is BaselineStatus.COMPLETED
    if completed and len(baseline.active) >= s.n_min:
        assert (outcome.aggregate, outcome.active) == (baseline.aggregate, baseline.active)
        return True, True
    return outcome.aggregate is not None, False


@pytest.mark.parametrize("seed, p_fail", DRAWS)
@pytest.mark.parametrize("chords", [0, N_SM // 10], ids=["ring", "ring-with-chords"])
@pytest.mark.parametrize("backend, bound", BACKENDS.values(), ids=BACKENDS.keys())
def test_sparse_graphs_at_300_meters(backend, bound, chords, seed, p_fail):
    s = sparse_scenario(N_SM, chords, backend, bound, seed, p_fail)
    aggregated, in_baseline = check_round(s)
    if p_fail == 0.0:
        assert aggregated
    assert (in_baseline is None) == (bound > 1 << 64)


if __name__ == "__main__":
    for n in (300, 600, 1000):
        for name, (backend, bound) in BACKENDS.items():
            for chords in (0, n // 10, n):
                t0 = time.perf_counter()
                protocol = both = skipped = 0
                for seed in range(1, 21):
                    p_fail = (0.0, 0.001, 0.01, 0.1)[seed % 4]
                    aggregated, in_baseline = check_round(
                        sparse_scenario(n, chords, backend, bound, seed, p_fail)
                    )
                    assert (in_baseline is None) == (bound > 1 << 64)
                    protocol += aggregated
                    both += bool(in_baseline)
                    skipped += in_baseline is None
                print(
                    f"n={n} {name} ring with {chords} chords: 20 rounds, aggregated by "
                    f"the protocol {protocol}, by both engines {both}, baseline skipped "
                    f"{skipped}, {time.perf_counter() - t0:.1f}s"
                )
