import random

import pytest
from conftest import make_scenario
from ftagg.masking import (
    KeySetMismatch,
    MaskingBackend,
    MaskingParams,
    derive_params,
    derive_prf_key,
    derive_share_key,
    init_share,
    mask,
    prf,
    round_share,
    unmask_aggregate,
    update_share,
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
    assert update_share(s, si, k) == expected


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
    a = derive_params(make_scenario(3, seed=1, round_index=0))
    b = derive_params(make_scenario(3, seed=1, round_index=0))
    c = derive_params(make_scenario(3, seed=1, round_index=1))
    assert init_share(a) == init_share(b)
    assert init_share(a) != init_share(c)
    s_0, s_running = init_share(a)
    assert s_0 == s_running
    assert 0 <= s_0 < a.k


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
    params = derive_params(pinned)
    assert params.keys[1] == pin
    assert params.keys[2] == derive_prf_key(base.seed, 2)


def test_unmask_recovers_plain_sum():
    rng = random.Random(7)
    for _ in range(300):
        k_bits = rng.choice([8, 16, 32, 64])
        k = 1 << k_bits
        n = rng.randint(1, 10)
        active = sorted(rng.sample(range(1, n + 1), rng.randint(1, n)))
        seed = rng.getrandbits(64)
        t = rng.randrange(1000)
        params = MaskingParams(
            k=k,
            keys={i: derive_prf_key(seed, i) for i in range(1, n + 1)},
            dc_seed=rng.getrandbits(64),
        )
        ms = {i: rng.randrange(k) for i in active}
        s_0, s_running = init_share(params)
        masked, prfs = {}, {}
        for i in active:
            s_i = round_share(seed, i, t, k)
            p_i = prf(params.keys[i], t, k)
            masked[i] = mask(ms[i], s_i, p_i, k)
            prfs[i] = p_i
            s_running = update_share(s_running, s_i, k)
        got = unmask_aggregate(s_running, s_0, masked, prfs, k)
        assert got == sum(ms.values()) % k


def test_unmask_single_contributor():
    params = MaskingParams(k=1 << 16, keys={1: derive_prf_key(0, 1)}, dc_seed=5)
    s_0, s = init_share(params)
    s_1 = round_share(0, 1, 3, params.k)
    p_1 = prf(params.keys[1], 3, params.k)
    s = update_share(s, s_1, params.k)
    got = unmask_aggregate(s, s_0, {1: mask(42, s_1, p_1, params.k)}, {1: p_1}, params.k)
    assert got == 42


def test_unmask_rejects_empty_and_mismatched_sets():
    with pytest.raises(KeySetMismatch):
        unmask_aggregate(0, 0, {}, {}, 16)
    with pytest.raises(KeySetMismatch):
        unmask_aggregate(0, 0, {1: 3}, {2: 3}, 16)
    with pytest.raises(KeySetMismatch):
        unmask_aggregate(0, 0, {1: 3, 2: 4}, {1: 3}, 16)


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
        expect = mask(s.measurements[i], backend.share_of(i), backend.prf_of(i), k)
        assert backend.initial_payload(i, s.round) == expect

    aux, s_running = backend.init_share()
    collected = {i: backend.initial_payload(i, s.round) for i in (1, 2, 3)}
    for i in (1, 2, 3):
        s_running = backend.fold_measurement(s_running, i)
    assert backend.finalize(s_running, [1, 2, 3], collected, aux) == 15
    assert backend.finalize(None, [1, 2, 3], collected, aux) is None
    assert backend.finalize(s_running, [], collected, aux) is None


def test_backend_partial_active_set():
    s = make_scenario(4, measurements={1: 10, 2: 20, 3: 30, 4: 40})
    backend = MaskingBackend(s)
    aux, s_running = backend.init_share()
    collected = {i: backend.initial_payload(i, s.round) for i in (1, 3)}
    for i in (1, 3):
        s_running = backend.fold_measurement(s_running, i)
    assert backend.finalize(s_running, [1, 3], collected, aux) == 40
