import random

import pytest
from conftest import make_scenario, masking_backend
from ftagg.masking import (
    MaskingBackend,
    derive_prf_key,
    derive_share_key,
    mask,
    prf,
    round_share,
)
from ftagg.model import MaskingSpec, MeasurementOutOfRange, ScenarioError

# chi2.ppf(0.999, 2**16 - 1): fail only if the PRF is grossly non-uniform.
CHI2_CRIT_K16 = 66659.47714863172


@pytest.mark.parametrize(
    "m,s,p,k,expected",
    [
        (5, 7, 3, 16, 15),
        (5, 0, 0, 16, 5),
        (9, 12, 14, 16, 3),
        (0, 15, 1, 16, 0),
    ],
)
def test_mask_known_values(m, s, p, k, expected):
    assert mask(m, s, p, k) == expected


@pytest.mark.parametrize("m", [-1, 16, 100])
def test_mask_rejects_out_of_range(m):
    with pytest.raises(MeasurementOutOfRange):
        mask(m, 0, 0, 16)


@pytest.mark.parametrize(
    "s,si,k,expected",
    [(3, 4, 16, 7), (15, 1, 16, 0), (0, 0, 16, 0)],
)
def test_update_share_known_values(s, si, k, expected):
    backend = masking_backend(1, k.bit_length() - 1, seed=0, t=0)
    backend.shares[1] = si
    assert backend.fold_measurement(s, 1) == expected


def test_prf_deterministic_and_round_separated():
    key = derive_prf_key(99, 1)
    k = 1 << 64
    seen = {prf(key, t, k) for t in range(1000)}
    assert len(seen) == 1000, "distinct rounds must give distinct outputs"
    assert prf(key, 17, k) == prf(key, 17, k)


def test_modulus_above_the_prf_width_rejected():
    # Masks are 128-bit digests: a wider modulus would leave the top bits of
    # every masked value unmasked.
    key = derive_prf_key(99, 1)
    assert max(prf(key, t, 1 << 128) for t in range(4000)).bit_length() == 128
    for k in (1 << 129, 1 << 256):
        with pytest.raises(ScenarioError):
            prf(key, 0, k)
        with pytest.raises(ScenarioError):
            round_share(99, 1, 0, k)


def test_prf_keys_separate_meters():
    k = 1 << 64
    outs = {prf(derive_prf_key(5, i), 0, k) for i in range(1, 50)}
    assert len(outs) == 49


def test_prf_and_share_keys_are_independent_secrets():
    for i in range(1, 20):
        assert derive_prf_key(7, i) != derive_share_key(7, i)


def test_prf_uniformity_chi_square():
    key = derive_prf_key(1234, 1)
    k = 1 << 16
    n = 100_000
    counts = [0] * k
    for t in range(n):
        counts[prf(key, t, k)] += 1
    expected = n / k
    stat = sum((c - expected) ** 2 / expected for c in counts)
    assert stat < CHI2_CRIT_K16


def test_round_share_varies_by_round_and_meter():
    k = 1 << 64
    assert round_share(3, 1, 0, k) != round_share(3, 1, 1, k)
    assert round_share(3, 1, 0, k) != round_share(3, 2, 0, k)
    assert round_share(3, 1, 0, k) == round_share(3, 1, 0, k)


def test_init_share_deterministic_per_round_seed():
    a = MaskingBackend(make_scenario(3, seed=1, round_index=0))
    b = MaskingBackend(make_scenario(3, seed=1, round_index=0))
    c = MaskingBackend(make_scenario(3, seed=1, round_index=1))
    assert a.init_share() == b.init_share()
    assert a.init_share() != c.init_share()
    assert a.init_share() == a.s_0
    assert 0 <= a.s_0 < a.k


def test_pinned_prf_keys_are_honored():
    pin = bytes(range(16))
    base = make_scenario(2)
    pinned = base.__class__(
        n_sm=base.n_sm,
        graph=base.graph,
        sending_list=base.sending_list,
        n_min=base.n_min,
        round=base.round,
        measurements=base.measurements,
        backend=base.backend,
        seed=base.seed,
        prf_keys={1: pin},
    )
    backend = MaskingBackend(pinned)
    assert backend.prf_keys[1] == pin
    assert backend.prf_keys[2] == derive_prf_key(base.seed, 2)


def test_unmask_recovers_plain_sum():
    rng = random.Random(7)
    for _ in range(300):
        k_bits = rng.choice([8, 16, 32, 64])
        k = 1 << k_bits
        n = rng.randint(1, 10)
        active = sorted(rng.sample(range(1, n + 1), rng.randint(1, n)))
        seed = rng.getrandbits(64)
        t = rng.randrange(1000)
        opening = rng.getrandbits(64) % k
        ms = {i: rng.randrange(k) for i in active}
        backend = masking_backend(n, k_bits, seed, t, ms)
        collected = {i: backend.initial_payload(i, t) for i in active}
        s_running = opening
        for i in active:
            s_running = backend.fold_measurement(s_running, i)
        got = backend.finalize(s_running, active, collected, opening)
        assert got == sum(ms.values()) % k


def test_unmask_single_contributor():
    backend = masking_backend(1, 16, seed=0, t=3, measurements={1: 42})
    opening = 5
    s = backend.fold_measurement(opening, 1)
    assert backend.finalize(s, [1], {1: backend.initial_payload(1, 3)}, opening) == 42


def test_masked_values_fresh_across_rounds():
    k = 1 << 64
    seed, i, m = 11, 1, 250
    key = derive_prf_key(seed, i)
    rng = random.Random(0)
    for _ in range(200):
        t1, t2 = rng.randrange(10**6), rng.randrange(10**6)
        if t1 == t2:
            continue
        v1 = mask(m, round_share(seed, i, t1, k), prf(key, t1, k), k)
        v2 = mask(m, round_share(seed, i, t2, k), prf(key, t2, k), k)
        assert v1 != v2


def test_backend_masks_measurements_and_finalizes():
    s = make_scenario(3, measurements={1: 4, 2: 5, 3: 6}, backend=MaskingSpec(k_bits=32))
    backend = MaskingBackend(s)
    k = s.backend.k
    for i in (1, 2, 3):
        p_i = prf(backend.prf_keys[i], s.round, k)
        expect = mask(s.measurements[i], backend.shares[i], p_i, k)
        assert backend.initial_payload(i, s.round) == expect

    opening = s_running = backend.init_share()
    collected = {i: backend.initial_payload(i, s.round) for i in (1, 2, 3)}
    for i in (1, 2, 3):
        s_running = backend.fold_measurement(s_running, i)
    assert backend.finalize(s_running, [1, 2, 3], collected, opening) == 15


def test_backend_partial_active_set():
    s = make_scenario(4, measurements={1: 10, 2: 20, 3: 30, 4: 40})
    backend = MaskingBackend(s)
    opening = s_running = backend.init_share()
    collected = {i: backend.initial_payload(i, s.round) for i in (1, 3)}
    for i in (1, 3):
        s_running = backend.fold_measurement(s_running, i)
    assert backend.finalize(s_running, [1, 3], collected, opening) == 40
