"""Property tests: the protocol invariants under generated scenarios.

These complement the bulk random sweeps with shrinking, so a violated
invariant comes back as a minimal topology instead of a 12-meter blob.
"""

import itertools
from collections import Counter

from conftest import masking_backend
from ftagg.model import (
    DC,
    FailureGraph,
    MaskingSpec,
    Scenario,
    validate_scenario,
)
from ftagg.netsim import SimNetwork
from ftagg.paillier import decrypt_aggregate, encrypt, keygen, randomness_stream
from ftagg.protocol import classify_steps, make_backend, proof_case_histogram, run_round
from ftagg.walker import predict_aggregate, reachable_active
from hypothesis import given, settings
from hypothesis import strategies as st

KEYS_128 = keygen(128, 7)


@st.composite
def scenarios(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    all_edges = list(itertools.combinations(range(n + 1), 2))
    edges = [e for e in all_edges if draw(st.booleans(), label=f"edge {e}")]
    working = [e for e in edges if draw(st.booleans(), label=f"working {e}")]
    order = draw(st.permutations(list(range(1, n + 1))))
    return validate_scenario(
        Scenario(
            n_sm=n,
            graph=FailureGraph.build(n, edges, working),
            sending_list=tuple(order),
            n_min=draw(st.integers(min_value=1, max_value=n)),
            round=draw(st.integers(min_value=0, max_value=999)),
            measurements={
                i: draw(st.integers(min_value=0, max_value=1000)) for i in range(1, n + 1)
            },
            backend=MaskingSpec(),
            seed=draw(st.integers(min_value=0, max_value=(1 << 64) - 1)),
        )
    )


@settings(max_examples=150, derandomize=True)
@given(scenarios())
def test_round_terminates_with_wellformed_trace(scenario):
    outcome = run_round(scenario, make_backend(scenario), SimNetwork.for_scenario(scenario))
    assert len(outcome.trace) <= 3 * scenario.n_sm + 1
    labels = classify_steps(outcome)
    assert set(labels) <= {"C1", "C2", "C3_1", "C3_2"}
    assert proof_case_histogram(outcome) == {
        c: labels.count(c) for c in ("C1", "C2", "C3_1", "C3_2")
    }


@settings(max_examples=150, derandomize=True)
@given(scenarios())
def test_each_meter_activated_at_most_once(scenario):
    outcome = run_round(scenario, make_backend(scenario), SimNetwork.for_scenario(scenario))
    assert len(set(outcome.active)) == len(outcome.active)
    delivered_activations = Counter(
        r.receiver for r in outcome.trace if r.delivered and r.message.kind == "activation"
    )
    assert all(n == 1 for n in delivered_activations.values())


@settings(max_examples=150, derandomize=True)
@given(scenarios())
def test_concentrator_never_closes_its_own_round(scenario):
    outcome = run_round(scenario, make_backend(scenario), SimNetwork.for_scenario(scenario))
    assert all(
        r.sender != DC for r in outcome.trace if r.message.kind == "end_of_round"
    )


@settings(max_examples=150, derandomize=True)
@given(scenarios())
def test_aggregate_matches_reference_walker(scenario):
    outcome = run_round(scenario, make_backend(scenario), SimNetwork.for_scenario(scenario))
    assert outcome.aggregate == predict_aggregate(scenario)
    if outcome.aggregate is not None:
        assert outcome.active == tuple(reachable_active(scenario))
        total = sum(scenario.measurements[i] for i in outcome.active)
        assert outcome.aggregate == total % scenario.backend.k


@settings(max_examples=200, derandomize=True)
@given(
    k_bits=st.sampled_from([8, 16, 32, 64]),
    seed=st.integers(min_value=0, max_value=(1 << 64) - 1),
    t=st.integers(min_value=0, max_value=999),
    s_0=st.integers(min_value=0),
    ms=st.dictionaries(
        st.integers(min_value=1, max_value=10), st.integers(min_value=0, max_value=255),
        min_size=1, max_size=10,
    ),
)
def test_masking_pipeline_cancels(k_bits, seed, t, s_0, ms):
    k = 1 << k_bits
    s_0 %= k
    backend = masking_backend(max(ms), k_bits, seed, t, {i: m % k for i, m in ms.items()})
    collected = {i: backend.initial_payload(i, t) for i in ms}
    running = s_0
    for i in ms:
        running = backend.fold_measurement(running, i)
    expected = sum(m % k for m in ms.values()) % k
    assert backend.finalize(running, list(ms), collected, s_0) == expected


@settings(max_examples=200, derandomize=True, deadline=None)
@given(m=st.integers(min_value=0), a=st.integers(min_value=0), b=st.integers(min_value=0))
def test_paillier_roundtrip_and_sum_law(m, a, b):
    n = KEYS_128.n
    units = randomness_stream(KEYS_128, seed=(m ^ a ^ b) & ((1 << 64) - 1), t=0)
    assert decrypt_aggregate(KEYS_128, encrypt(KEYS_128, m % n, next(units))) == m % n
    total = (
        encrypt(KEYS_128, a % n, next(units)) * encrypt(KEYS_128, b % n, next(units))
        % KEYS_128.n_sq
    )
    assert decrypt_aggregate(KEYS_128, total) == (a + b) % n
