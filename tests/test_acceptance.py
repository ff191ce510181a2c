"""Shipping gate: one test per release criterion, run in order.

Each test checks one numbered criterion at its stated tolerance and prints a
single line with the headline numbers, so `pytest -v -s tests/test_acceptance.py`
reads as a checklist. The 10,000-scenario corpus is built once and shared by
the criteria that sweep it.
"""

import random
import time
from collections import Counter
from dataclasses import replace

import pytest
from conftest import (
    full_edges,
    golden_ring4,
    golden_ring5,
    make_scenario,
    masking_backend,
    random_scenario,
    zero_failure_scenario,
)
from ftagg.baseline import BaselineStatus, eavesdropper_delta, run_baseline_round
from ftagg.game import (
    GameSetup,
    STRATEGIES,
    attack_dc_plus_neighbor,
    empirical_unlinkability,
    play_game,
    run_trial,
)
from ftagg.model import (
    DC,
    KIND_END_OF_ROUND,
    KIND_INITIAL_DATA,
    FailureGraph,
    MaskingSpec,
    PaillierSpec,
    Scenario,
    full_mesh,
    party_name,
)
from ftagg.netsim import DELTA_T, SimNetwork
from ftagg.paillier import decrypt_aggregate, encrypt, keygen, randomness_stream
from ftagg.protocol import classify_steps, make_backend, run_round
from ftagg.walker import predict_aggregate, reachable_active

CORPUS_SIZE = 10_000


def run_with_clock(scenario):
    net = SimNetwork.for_scenario(scenario)
    outcome = run_round(scenario, make_backend(scenario), net)
    return outcome, net.clock


@pytest.fixture(scope="session")
def corpus():
    rng = random.Random(0xACC3)
    t0 = time.perf_counter()
    items = []
    for _ in range(CORPUS_SIZE):
        scenario = random_scenario(rng)
        items.append((scenario, *run_with_clock(scenario)))
    return items, time.perf_counter() - t0


def test_criterion_1_golden_4sm_figure():
    t0 = time.perf_counter()
    scenario = golden_ring4()
    outcome, _ = run_with_clock(scenario)
    assert outcome.remaining_at_init == (1, 3)
    assert outcome.active == (1, 3)
    assert outcome.aggregate == 30
    last = outcome.trace[-1]
    assert last.message.kind == KIND_END_OF_ROUND
    assert last.sender == 3 and last.receiver == DC

    baseline = run_baseline_round(scenario)
    assert baseline.status is BaselineStatus.STUCK
    assert baseline.active == (1, 3, 4)
    assert "SM4" in baseline.reason
    dt = time.perf_counter() - t0
    assert dt < 1.0
    print(f"criterion 1 PASS: 4-SM figure exact, baseline stuck at SM4, {dt:.3f}s")


def test_criterion_2_golden_5sm_figure():
    t0 = time.perf_counter()
    outcome, _ = run_with_clock(golden_ring5())
    assert outcome.active == (1, 3, 5)
    assert classify_steps(outcome) == ["C2", "C3_2", "C2", "C1"]

    enumeration = [
        (r.message.kind, party_name(r.sender), party_name(r.receiver), r.delivered)
        for r in outcome.trace
    ]
    assert enumeration == [
        ("initial_data", "SM1", "DC", True),
        ("initial_data", "SM2", "DC", False),
        ("initial_data", "SM3", "DC", True),
        ("initial_data", "SM4", "DC", True),
        ("initial_data", "SM5", "DC", True),
        ("activation", "DC", "SM1", True),
        ("ack_s", "SM1", "DC", True),
        ("activation", "SM1", "SM3", True),
        ("ack_s", "SM3", "SM1", True),
        ("activation", "SM3", "SM4", False),
        ("activation", "SM3", "SM5", True),
        ("ack_s", "SM5", "SM3", True),
        ("end_of_round", "SM5", "DC", True),
    ]
    protocol_msgs = [
        r for r in outcome.trace if r.delivered and r.message.kind != "ack_s"
    ]
    assert len(protocol_msgs) == 8
    dt = time.perf_counter() - t0
    assert dt < 1.0
    print(f"criterion 2 PASS: 5-SM figure enumeration exact, 8 protocol messages, {dt:.3f}s")


def test_criterion_3_invariants_over_corpus(corpus):
    items, build_seconds = corpus
    t0 = time.perf_counter()
    max_steps_margin = None
    for scenario, outcome, _elapsed in items:
        assert len(set(outcome.active)) == len(outcome.active)
        activations = Counter(
            r.receiver
            for r in outcome.trace
            if r.delivered and r.message.kind == "activation"
        )
        assert all(count == 1 for count in activations.values())
        eors = [r for r in outcome.trace if r.message.kind == KIND_END_OF_ROUND]
        assert all(r.sender != DC for r in eors)
        expected_eors = 1 if len(outcome.remaining_at_init) >= scenario.n_min else 0
        assert len(eors) == expected_eors
        classify_steps(outcome)
        bound = 3 * scenario.n_sm + 1
        assert len(outcome.trace) <= bound
        margin = bound - len(outcome.trace)
        if max_steps_margin is None or margin < max_steps_margin:
            max_steps_margin = margin
    dt = build_seconds + (time.perf_counter() - t0)
    assert dt < 60.0
    print(
        f"criterion 3 PASS: {len(items)} scenarios, 0 violations, "
        f"tightest step margin {max_steps_margin}, {dt:.1f}s"
    )


def test_criterion_4_walker_oracle_over_corpus(corpus):
    items, _ = corpus
    for scenario, outcome, _elapsed in items:
        assert outcome.aggregate == predict_aggregate(scenario)
        if outcome.aggregate is not None:
            assert outcome.active == tuple(reachable_active(scenario))
    print(f"criterion 4 PASS: {len(items)} scenarios, aggregate == walker prediction on all")


def test_criterion_5_backend_equivalence():
    rng = random.Random(0xE0)
    for _ in range(1000):
        masked = random_scenario(rng, backend="masking")
        encrypted = replace(masked, backend=PaillierSpec(key_bits=128))
        out_m, _ = run_with_clock(masked)
        out_p, _ = run_with_clock(encrypted)
        assert out_m.active == out_p.active
        assert out_m.aggregate == out_p.aggregate
    print("criterion 5 PASS: 1000 shared scenarios, identical actives and aggregates")


def test_criterion_6_cost_claims(corpus):
    rng = random.Random(0xC057)
    per_sm_counts = []
    for _ in range(100):
        scenario = zero_failure_scenario(rng)
        outcome, _ = run_with_clock(scenario)
        sends = Counter(
            r.sender
            for r in outcome.trace
            if r.sender != DC and r.message.kind != KIND_INITIAL_DATA
        )
        assert set(sends) == set(range(1, scenario.n_sm + 1))
        assert all(count == 2 for count in sends.values())
        per_sm_counts.extend(sends.values())
    average = sum(per_sm_counts) / len(per_sm_counts)
    assert average == 2.0

    items, _ = corpus
    for scenario, _outcome, elapsed in items:
        # Every report times out, or the first holder's every handoff does:
        # max(5N, 6N-3) at dt = 5.
        n = scenario.n_sm
        assert elapsed <= max(n * DELTA_T, n + 2 + (n - 1) * DELTA_T)
    print(
        "criterion 6 PASS: zero-failure non-initial messages per SM average exactly "
        f"2.0, elapsed <= max(5N, 6N-3) ticks (the proven bound at dt = 5, within "
        f"the claimed 4*N*dt) on all {len(items)} scenarios"
    )


def test_criterion_7_backend_algebra():
    t0 = time.perf_counter()
    rng = random.Random(0xA16EBA)
    for _ in range(1000):
        k = 1 << rng.choice([8, 16, 32, 64])
        seed = rng.getrandbits(64)
        t = rng.randrange(1000)
        s_0 = rng.randrange(k)
        n = rng.randint(1, 10)
        contributors = rng.sample(range(1, n + 1), rng.randint(1, n))
        plain = {i: rng.randrange(min(k, 1000)) for i in contributors}
        backend = masking_backend(n, k.bit_length() - 1, seed, t, plain)
        collected = {i: backend.initial_payload(i, t) for i in contributors}
        running = s_0
        for i in contributors:
            running = backend.fold_measurement(running, i)
        assert backend.finalize(running, contributors, collected, s_0) == sum(plain.values()) % k

    keys = keygen(256, 0xBEEF)
    units = randomness_stream(keys, seed=0xBEEF, t=0)
    rng = random.Random(0xA16EB)
    for _ in range(1000):
        m = rng.randrange(keys.n)
        assert decrypt_aggregate(keys, encrypt(keys, m, next(units))) == m
    for _ in range(1000):
        a, b = rng.randrange(keys.n), rng.randrange(keys.n)
        total = encrypt(keys, a, next(units)) * encrypt(keys, b, next(units)) % keys.n_sq
        assert decrypt_aggregate(keys, total) == (a + b) % keys.n
    dt = time.perf_counter() - t0
    assert dt < 120.0
    print(
        "criterion 7 PASS: 1000 masking pipelines cancel, 1000 roundtrips and "
        f"1000 homomorphic sums at 256-bit keys, {dt:.1f}s"
    )


def _game_scenario(n_sm, measurements, backend, round_index, seed):
    return Scenario(
        n_sm=n_sm,
        graph=full_mesh(n_sm),
        sending_list=tuple(range(1, n_sm + 1)),
        n_min=2,
        round=round_index,
        measurements=measurements,
        backend=backend,
        seed=seed,
    )


def _attack_setup(backend, seed, round_index, m0, m1):
    return GameSetup(
        scenario=_game_scenario(5, {2: 77, 4: 88, 5: 99}, backend, round_index, seed),
        challenged=(1, 3),
        m0=m0,
        m1=m1,
        corrupted_dc=True,
        corrupted_sms=frozenset({2, 4, 5}),
    )


def _fuzzed_invalid_setup(rng, j):
    m0 = rng.randrange(1000)
    m1 = rng.randrange(1000)
    measurements = {2: rng.randrange(1000), 4: rng.randrange(1000)}
    scenario = _game_scenario(4, measurements, MaskingSpec(), j, 70_000 + j)
    setup = GameSetup(
        scenario=scenario,
        challenged=(1, 3),
        m0=m0,
        m1=m1,
        corrupted_dc=True,
        corrupted_sms=frozenset({2, 4}),
    )
    kind = j % 11
    if kind == 0:
        scenario = replace(scenario, sending_list=(1, 2, 3))
    elif kind == 1:
        scenario = replace(scenario, sending_list=(1, 2, 2, 4))
    elif kind == 2:
        scenario = replace(scenario, sending_list=(1, 2, 3, 9))
    elif kind == 3:
        setup = replace(setup, challenged=(3, 3))
    elif kind == 4:
        setup = replace(setup, challenged=(1, 9))
    elif kind == 5:
        setup = replace(setup, challenged=(1, 2))
    elif kind == 6:
        setup = replace(setup, m0=(1 << 64) + rng.randrange(100))
    elif kind == 7:
        scenario = replace(scenario, measurements={2: 1, 3: 1, 4: 1})
    elif kind == 8:
        edges = [e for e in full_edges(4) if e != (2, 4)]
        scenario = replace(scenario, graph=FailureGraph.build(4, edges, full_edges(4)))
    elif kind == 9:
        working = [e for e in full_edges(4) if 1 not in e]
        scenario = replace(scenario, graph=FailureGraph.build(4, full_edges(4), working))
    else:
        scenario = replace(scenario, n_min=9)
    return replace(setup, scenario=scenario)


def test_criterion_8_privacy_games():
    t0 = time.perf_counter()
    rng = random.Random(0x6A3E)

    for j in range(100):
        m0 = rng.randrange(1000)
        m1 = (m0 + 1 + rng.randrange(998)) % 1000
        setup = _attack_setup(MaskingSpec(), 50_000, j, m0, m1)
        trial = run_trial(setup, nonce=j)
        assert trial.abort_reason is None
        expected = setup.m0 if trial.secret_bit == 0 else setup.m1
        assert attack_dc_plus_neighbor(setup, nonce=j) == expected
        assert play_game(setup, STRATEGIES["masking-attack"], nonce=j) is True

    he_backend = PaillierSpec(key_bits=256)
    for j in range(100):
        m0 = rng.randrange(1000)
        m1 = (m0 + 1 + rng.randrange(998)) % 1000
        setup = _attack_setup(he_backend, 60_000, j, m0, m1)
        trial = run_trial(setup, nonce=j)
        assert trial.abort_reason is None
        expected = setup.m0 if trial.secret_bit == 0 else setup.m1
        assert attack_dc_plus_neighbor(setup, nonce=j) == expected
        assert play_game(setup, STRATEGIES["he-attack"], nonce=j) is True

    coin = empirical_unlinkability(
        "masking-colluding-meters", 2000, seed=0xC0, strategy="coin-flip"
    )
    assert coin.aborts == 0
    assert 0.45 <= coin.rate <= 0.55
    assert coin.ci_low < 0.5 < coin.ci_high

    sums = empirical_unlinkability("he-concentrator", 2000, seed=0x50, strategy="sum-only")
    assert sums.aborts == 0
    assert 0.45 <= sums.rate <= 0.55
    assert sums.ci_low < 0.5 < sums.ci_high

    fuzz_rng = random.Random(0xF0)
    fuzz_total = 220
    aborted = 0
    for j in range(fuzz_total):
        if play_game(_fuzzed_invalid_setup(fuzz_rng, j), STRATEGIES["coin-flip"], nonce=j) is None:
            aborted += 1
    assert aborted == fuzz_total

    dt = time.perf_counter() - t0
    assert dt < 300.0
    print(
        "criterion 8 PASS: attacks 100/100 exact on both backends, coin-flip "
        f"{coin.rate:.3f}, sum-only {sums.rate:.3f}, {fuzz_total}/{fuzz_total} "
        f"fuzzed setups aborted, {dt:.1f}s"
    )


def test_criterion_9_baseline_taxonomy():
    completed = make_scenario(6, measurements={i: 100 + i for i in range(1, 7)}, seed=3)
    stuck = golden_ring4()
    detected = make_scenario(3, off=[(DC, 2)], measurements={1: 5, 2: 8, 3: 13}, seed=11)
    expected = {
        BaselineStatus.COMPLETED: completed,
        BaselineStatus.STUCK: stuck,
        BaselineStatus.DETECTED_INCONSISTENCY: detected,
    }
    for status, scenario in expected.items():
        first = run_baseline_round(scenario)
        assert first.status is status
        assert run_baseline_round(scenario) == first

    k = 1 << 64
    first = make_scenario(3, measurements={1: 500, 2: 22, 3: 33}, round_index=0, seed=9)
    second = make_scenario(3, measurements={1: 321, 2: 22, 3: 90}, round_index=1, seed=9)
    a, b = run_baseline_round(first), run_baseline_round(second)
    assert a.status is BaselineStatus.COMPLETED and b.status is BaselineStatus.COMPLETED
    assert eavesdropper_delta(a.trace, b.trace, 1, k) == (500 - 321) % k
    assert eavesdropper_delta(a.trace, b.trace, 2, k) == 0
    assert eavesdropper_delta(a.trace, b.trace, 3, k) == (33 - 90) % k
    print(
        "criterion 9 PASS: all three baseline outcomes deterministic, "
        "two-round eavesdropper delta bit-exact"
    )
