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
same contributors, so no round aggregates in the baseline alone. Full
meshes with 30 % of their links off, with and without offline meters, run
the same checks; they are built as JSON text, so that they also go through
the value-by-value parse of large scenario files. The digest is checked on a
1000-meter ring, and on rows just either side of the bit count below which
the writer lists a row's set bits instead of its full-width bit string. A
round on a 4000-meter ring stays within a fixed allocation per meter, since
a handoff carries only the running share.

Run as a script for the wide draw: more seeds, up to 1000 meters on the
sparse graphs and up to 600 on the meshes with links off.

    PYTHONPATH=src python tests/test_scale.py
"""

import itertools
import json
import random
import time
import tracemalloc

import pytest
from conftest import full_edges, make_scenario, reference_digest
from ftagg import model
from ftagg.baseline import BaselineStatus, baseline_modulus, run_baseline_round
from ftagg.model import (
    DC,
    MaskingSpec,
    PaillierSpec,
    ScenarioError,
    party_name,
    scenario_digest,
    scenario_from_json,
    validate_scenario,
)
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


def measurements_near(rng, n, bound):
    """Measurements of meters 1..n that sum to within n of bound."""
    total = bound - 1 - rng.randrange(n)
    cuts = sorted(rng.randrange(total + 1) for _ in range(n - 1))
    return {i: b - a for i, (a, b) in enumerate(zip([0] + cuts, cuts + [total]), 1)}


def sparse_scenario(n, chords, backend, bound, seed, p_fail):
    """The ring a shuffled sending list implies (every DC link and the link
    between each pair of list neighbours) plus `chords` links between random
    meters, each link off with probability p_fail. The measurements sum to
    within n of bound."""
    rng = random.Random(seed)
    order = rng.sample(range(1, n + 1), n)
    edges = [(DC, i) for i in order] + list(zip(order, order[1:]))
    edges += [tuple(rng.sample(order, 2)) for _ in range(chords)]
    measurements = measurements_near(rng, n, bound)
    return make_scenario(
        n,
        edges=edges,
        working=[e for e in edges if rng.random() >= p_fail],
        order=order,
        n_min=rng.randint(1, 10),
        measurements=measurements,
        backend=backend,
        seed=seed,
        round_index=seed,
    )


def mesh_text(n, p_off, offline, backend, bound, seed):
    """Scenario JSON of the full mesh over DC and n meters, each link off
    with probability p_off and `offline` random meters offline, with a
    shuffled sending list and measurements that sum to within n of bound."""
    rng = random.Random(seed)
    order = rng.sample(range(1, n + 1), n)
    links = [list(pair) for pair in itertools.combinations(map(party_name, range(n + 1)), 2)]
    return json.dumps({
        "n_sm": n,
        "edges": links,
        "working_edges": [link for link in links if rng.random() >= p_off],
        "sending_list": order,
        "n_min": rng.randint(1, n // 2),
        "round": seed,
        "measurements": {str(i): m for i, m in measurements_near(rng, n, bound).items()},
        "backend": {"type": backend.type, **vars(backend)},
        "seed": seed,
        "sm_online": {str(i): False for i in rng.sample(order, offline)},
    })


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


@pytest.mark.parametrize("chords", [0, 100], ids=["ring", "ring-with-chords"])
def test_digest_of_a_1000_meter_ring(chords):
    s = sparse_scenario(1000, chords, MaskingSpec(), 1 << 64, 8, 0.1)
    assert scenario_digest(s) == reference_digest(s)


@pytest.mark.parametrize("width", [128, 200, 401, 640])
def test_digest_either_side_of_the_sparse_rows_threshold(width):
    # A row with bits * 16 < width lists its set bits; one bit more and it
    # takes the full-width bit string. Rows of both kinds from parties
    # whose names sort apart from their indices (SM10 < SM9).
    k = (width - 1) // 16
    assert k * 16 < width <= (k + 1) * 16
    n = width - 1
    rng = random.Random(width)
    edges = [(DC, i) for i in range(1, n + 1)]
    for a, bits in ((1, k), (9, k), (10, k + 1), (100, k), (101, k + 1), (n - k - 2, k + 1)):
        edges += [(a, b) for b in rng.sample(range(a + 1, n + 1), bits)]
    s = make_scenario(n, edges=edges, working=edges[::2])
    assert {k, k + 1} <= {row.bit_count() for row in s.graph.edges}
    assert scenario_digest(s) == reference_digest(s)


def test_round_memory_is_linear_in_n():
    # The trace keeps every message, so a handoff that also carried its
    # candidate and contributor lists made a round hold about n^2 ints:
    # 125.6 MiB of peak at 4000 meters, against about 3.2 MiB with the
    # share alone.
    n = 4000
    s = sparse_scenario(n, 0, MaskingSpec(), 1 << 64, 7, 0.0)
    backend, net = make_backend(s), SimNetwork.for_scenario(s)
    with model._gc_paused():
        tracemalloc.start()
        try:
            outcome = run_round(s, backend, net)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert len(outcome.trace) == 3 * n + 1
    assert peak <= 2048 * n


# Per mesh topology: the share of links that are off, and the share of
# meters that are offline. The baseline completes only on the third.
MESHES = {"links-off": (0.3, 0), "links-off-and-offline": (0.3, 0.1), "offline": (0.0, 0.1)}


@pytest.mark.parametrize("p_off, offline", MESHES.values(), ids=MESHES.keys())
@pytest.mark.parametrize("name", ["masking-64", "paillier-128-below-2^64"])
def test_meshes_at_300_meters(name, p_off, offline):
    backend, bound = BACKENDS[name]
    text = mesh_text(N_SM, p_off, int(offline * N_SM), backend, bound, 4)
    assert len(text) >= model._BY_VALUE_FROM_CHARS
    aggregated, in_baseline = check_round(validate_scenario(scenario_from_json(text)))
    assert aggregated
    assert in_baseline == (p_off == 0.0)


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
    for n, seeds in ((300, 20), (600, 5)):
        for name, (backend, bound) in BACKENDS.items():
            for topology, (p_off, offline) in MESHES.items():
                t0 = time.perf_counter()
                protocol = both = skipped = 0
                for seed in range(1, seeds + 1):
                    text = mesh_text(n, p_off, int(offline * n), backend, bound, seed)
                    assert len(text) >= model._BY_VALUE_FROM_CHARS
                    aggregated, in_baseline = check_round(
                        validate_scenario(scenario_from_json(text))
                    )
                    assert (in_baseline is None) == (bound > 1 << 64)
                    protocol += aggregated
                    both += bool(in_baseline)
                    skipped += in_baseline is None
                print(
                    f"n={n} {name} mesh, {topology}: {seeds} rounds, aggregated by the "
                    f"protocol {protocol}, by both engines {both}, baseline skipped "
                    f"{skipped}, {time.perf_counter() - t0:.1f}s"
                )
