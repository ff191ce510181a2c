import hashlib
import random

import pytest
import sympy
from conftest import golden_ring4, make_scenario, random_scenario, zero_failure_scenario
from ftagg.baseline import (
    HASH_BASE,
    HASH_BASE_ORDER,
    HASH_PRIME,
    BaselineStatus,
    baseline_modulus,
    dc_round_share,
    baseline_round_share,
    eavesdropper_delta,
    eavesdropper_view,
    hash_base,
    homomorphic_hash,
    run_baseline_round,
    static_share,
)
from ftagg.model import (
    DC,
    MaskingSpec,
    PaillierSpec,
    ScenarioError,
    trace_to_jsonl,
)
from ftagg.netsim import SimNetwork
from ftagg.protocol import make_backend, run_round
from test_small_scope import rounds as small_scope_rounds

# sha256 of `_baseline_fingerprint` over every small-scope round at n <= 3 and
# over 500 random draws of both backends: a change to the engine must keep
# every result field, message and trace byte.
SMALL_SCOPE_PIN = "1c22e4122a04910a4774b2a5548900437e1d57a197ac5aed132f451af2c7615b"
RANDOM_DRAWS_PIN = "a1272f889db22fdce36b1f43de22242cdba1426766294c570354a5d45afe741c"


def test_group_constants_hold():
    assert sympy.isprime(HASH_PRIME)
    assert HASH_PRIME.bit_length() == 256
    assert (HASH_PRIME - 1) % HASH_BASE_ORDER == 0
    assert pow(HASH_BASE, HASH_BASE_ORDER, HASH_PRIME) == 1
    assert pow(HASH_BASE, HASH_BASE_ORDER // 2, HASH_PRIME) != 1


def test_derived_bases_have_exact_order():
    for k_bits in (1, 8, 16, 32, 64):
        k = 1 << k_bits
        g = hash_base(k)
        assert pow(g, k, HASH_PRIME) == 1
        if k > 2:
            assert pow(g, k // 2, HASH_PRIME) != 1


@pytest.mark.parametrize("bad", [0, 1, 3, 12, 1 << 65])
def test_group_rejects_bad_moduli(bad):
    with pytest.raises(ScenarioError):
        hash_base(bad)


def test_hash_identity_and_addition_law():
    k = 1 << 64
    g = hash_base(k)
    assert homomorphic_hash(0, g) == 1
    rng = random.Random(4)
    for _ in range(100):
        a, b = rng.randrange(k), rng.randrange(k)
        lhs = homomorphic_hash(a, g) * homomorphic_hash(b, g) % HASH_PRIME
        assert lhs == homomorphic_hash(a + b, g)
        assert lhs == homomorphic_hash((a + b) % k, g)


def test_hash_matches_share_sum_on_honest_run():
    k = 1 << 32
    g = hash_base(k)
    rng = random.Random(8)
    shares = [rng.randrange(k) for _ in range(6)]
    total = sum(shares) % k
    prod = 1
    for s in shares:
        prod = prod * homomorphic_hash(s, g) % HASH_PRIME
    assert homomorphic_hash(total, g) == prod


def test_full_mesh_completes_with_plain_sum():
    s = make_scenario(4, measurements={1: 5, 2: 6, 3: 7, 4: 8})
    result = run_baseline_round(s)
    assert result.status is BaselineStatus.COMPLETED
    assert result.aggregate == 26
    assert result.active == (1, 2, 3, 4)
    assert result.share_check is True
    assert result.report_checks == {1: True, 2: True, 3: True, 4: True}


def test_golden_ring4_gets_stuck_at_the_last_meter():
    result = run_baseline_round(golden_ring4())
    assert result.status is BaselineStatus.STUCK
    assert result.active == (1, 3, 4)
    assert "SM4" in result.reason
    assert result.aggregate is None


def test_missing_concentrator_link_mid_ring_is_detected_not_fixed():
    s = make_scenario(3, off=[(DC, 2)], measurements={1: 1, 2: 2, 3: 3})
    result = run_baseline_round(s)
    assert result.status is BaselineStatus.DETECTED_INCONSISTENCY
    assert result.active == (1, 2, 3)
    assert result.share_check is False
    assert result.report_checks == {1: True, 3: True}
    assert result.aggregate is None


def test_unreachable_first_meters_are_skipped_by_the_opening_search():
    s = make_scenario(3, off=[(DC, 1)], measurements={1: 1, 2: 2, 3: 3})
    result = run_baseline_round(s)
    assert result.status is BaselineStatus.COMPLETED
    assert result.active == (2, 3)
    assert result.aggregate == 5


def test_nobody_reachable_is_stuck():
    s = make_scenario(2, off=[(DC, 1), (DC, 2)])
    result = run_baseline_round(s)
    assert result.status is BaselineStatus.STUCK
    assert result.active == ()
    assert "opening" in result.reason


def test_baseline_matches_new_protocol_when_nothing_fails():
    rng = random.Random(12)
    for _ in range(25):
        s = zero_failure_scenario(rng, n_max=8)
        base = run_baseline_round(s)
        new = run_round(s, make_backend(s), SimNetwork.for_scenario(s))
        assert base.status is BaselineStatus.COMPLETED
        assert base.aggregate == new.aggregate == sum(s.measurements.values())


def test_completed_aggregate_covers_exactly_the_walked_meters():
    rng = random.Random(77)
    completed = 0
    for _ in range(200):
        s = random_scenario(rng, n_max=8, backend=MaskingSpec())
        result = run_baseline_round(s)
        assert result.status in BaselineStatus
        if result.status is BaselineStatus.COMPLETED:
            completed += 1
            k = s.backend.k
            assert set(result.report_checks) == set(result.active)
            assert result.aggregate == sum(s.measurements[i] for i in result.active) % k
    assert completed > 0


def test_baseline_is_deterministic():
    s = golden_ring4()
    assert run_baseline_round(s) == run_baseline_round(s)


def test_paillier_scenarios_fall_back_to_a_wide_modulus():
    s = make_scenario(3, backend=PaillierSpec(key_bits=128))
    assert baseline_modulus(s) == 1 << 64
    result = run_baseline_round(s)
    assert result.status is BaselineStatus.COMPLETED
    assert result.aggregate == sum(s.measurements.values())


def test_paillier_sum_at_the_wide_modulus_is_refused():
    # Paillier-256 admits sums below 2^255; the baseline masks modulo 2^64
    # and would report the sum modulo 2^64 as a completed aggregate.
    big = make_scenario(
        6,
        measurements={i: (1 << 70) + i for i in range(1, 7)},
        backend=PaillierSpec(key_bits=256),
    )
    at_k = make_scenario(
        2, measurements={1: 1 << 63, 2: 1 << 63}, backend=PaillierSpec(key_bits=128)
    )
    below = "must stay below the baseline modulus 18446744073709551616"
    for s in (big, at_k):
        with pytest.raises(ScenarioError, match=below):
            baseline_modulus(s)
        with pytest.raises(ScenarioError, match=below):
            run_baseline_round(s)


def test_paillier_sum_just_below_the_wide_modulus_completes():
    s = make_scenario(
        2, measurements={1: 1 << 63, 2: (1 << 63) - 1}, backend=PaillierSpec(key_bits=128)
    )
    result = run_baseline_round(s)
    assert result.status is BaselineStatus.COMPLETED
    assert result.aggregate == (1 << 64) - 1


def test_share_derivations_are_domain_separated():
    k = 1 << 64
    assert static_share(1, 1, k) != baseline_round_share(1, 1, 0, k)
    assert baseline_round_share(1, 1, 0, k) != baseline_round_share(1, 1, 1, k)
    assert dc_round_share(1, 0, k) != dc_round_share(1, 1, k)
    assert static_share(1, 1, k) == static_share(1, 1, k)


def test_eavesdropper_view_exposes_measurement_plus_static():
    s = make_scenario(3, measurements={1: 11, 2: 22, 3: 33})
    k = baseline_modulus(s)
    result = run_baseline_round(s)
    for i in (1, 2, 3):
        view = eavesdropper_view(result.trace, i, k)
        assert view == (s.measurements[i] + static_share(s.seed, i, k)) % k


def test_eavesdropper_delta_leaks_measurement_changes_exactly():
    k = (1 << 64)
    first = make_scenario(3, measurements={1: 500, 2: 22, 3: 33}, round_index=0, seed=9)
    second = make_scenario(3, measurements={1: 321, 2: 22, 3: 90}, round_index=1, seed=9)
    a = run_baseline_round(first)
    b = run_baseline_round(second)
    assert a.status is BaselineStatus.COMPLETED
    assert b.status is BaselineStatus.COMPLETED
    assert eavesdropper_delta(a.trace, b.trace, 1, k) == (500 - 321) % k
    assert eavesdropper_delta(a.trace, b.trace, 2, k) == 0
    assert eavesdropper_delta(a.trace, b.trace, 3, k) == (33 - 90) % k


def test_eavesdropper_view_requires_an_activated_meter():
    s = make_scenario(3, off=[(DC, 1), (1, 2), (1, 3)])
    result = run_baseline_round(s)
    assert 1 not in result.active
    with pytest.raises(ScenarioError):
        eavesdropper_view(result.trace, 1, 1 << 64)


def _baseline_fingerprint(scenarios) -> str:
    """sha256 over every result field of each round, its trace JSONL and the
    messages the trace carries."""
    h = hashlib.sha256()
    for s in scenarios:
        r = run_baseline_round(s)
        h.update(
            repr(
                (r.status.value, r.aggregate, r.active, r.reason, r.share_check,
                 sorted(r.report_checks.items()), [x.message for x in r.trace])
            ).encode()
        )
        h.update(trace_to_jsonl(r.trace).encode())
    return h.hexdigest()


def test_baseline_results_are_pinned_over_the_small_scope_and_random_draws():
    small = [s for n in (1, 2, 3) for s in small_scope_rounds(n, all_online=False)]
    rng = random.Random(1414)
    drawn = [random_scenario(rng, n_max=8) for _ in range(500)]
    assert (len(small), len(drawn)) == (1604, 500)
    assert _baseline_fingerprint(small) == SMALL_SCOPE_PIN
    assert _baseline_fingerprint(drawn) == RANDOM_DRAWS_PIN
