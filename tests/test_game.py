import json
import random
from typing import Callable, Sequence

import pytest
from conftest import full_edges
from ftagg.game import (
    FAMILIES,
    MAX_GAME_WORK,
    STRATEGIES,
    GameSetup,
    GameStats,
    SetupViolation,
    attack_dc_plus_neighbor,
    empirical_unlinkability,
    play_game,
    recover_he_measurement,
    recover_masking_measurement,
    run_trial,
    view_to_json,
    wilson_interval,
)
from ftagg.masking import derive_prf_key, round_share
from ftagg.model import (
    FailureGraph,
    MaskingSpec,
    PaillierSpec,
    Scenario,
    ScenarioError,
    full_mesh,
)
from ftagg.paillier import encrypt, keygen, randomness_stream


def setup_4sm(**overrides) -> GameSetup:
    """A breach-ready 4-meter game; each override replaces a scenario field
    or, for the challenge and corruption fields, a GameSetup field."""
    scenario = dict(
        n_sm=4,
        graph=full_mesh(4),
        sending_list=(1, 2, 3, 4),
        n_min=2,
        round=0,
        measurements={2: 7, 4: 11},
        backend=MaskingSpec(),
        seed=99,
    )
    challenge = dict(
        challenged=(1, 3),
        m0=5,
        m1=9,
        corrupted_dc=True,
        corrupted_sms=frozenset({2, 4}),
    )
    for key, value in overrides.items():
        (challenge if key in challenge else scenario)[key] = value
    return GameSetup(scenario=Scenario(**scenario), **challenge)


def mesh_4sm(edges_off=(), working_off=()) -> FailureGraph:
    """The 4-meter full mesh with some (low, high) links taken out of the
    topology or out of the working set."""
    def keep(off):
        return [e for e in full_edges(4) if e not in off]

    return FailureGraph.build(4, keep(edges_off), keep(working_off))


coin = STRATEGIES["coin-flip"]


def test_valid_setup_reaches_a_verdict():
    assert play_game(setup_4sm(), coin) in (True, False)
    assert run_trial(setup_4sm()).secret_bit in (0, 1)


@pytest.mark.parametrize(
    "overrides,hint",
    [
        (dict(sending_list=(1, 2, 3)), "sending list"),
        (dict(sending_list=(1, 2, 2, 4)), "sending list"),
        (dict(sending_list=(1, 2, 3, 9)), "sending list"),
        (dict(challenged=(1, 1)), "distinct"),
        (dict(challenged=(1, 9)), "exist"),
        (dict(corrupted_sms=frozenset({3, 4})), "honest"),
        (dict(m0=1 << 64), "domain"),
        (dict(m1=-3), "domain"),
        (dict(measurements={2: 7}), "cover"),
        (dict(measurements={2: 7, 3: 1, 4: 11}), "cover"),
        (dict(measurements={2: 7, 4: 1 << 64}), "domain"),
        (dict(n_min=9), "invalid"),
        (dict(backend=PaillierSpec(key_bits=65)), "key_bits"),
        (dict(backend=PaillierSpec(key_bits=4098)), "key_bits"),
        (dict(backend=MaskingSpec(k_bits=129)), "k_bits"),
    ],
)
def test_malformed_submissions_abort(overrides, hint):
    setup = setup_4sm(**overrides)
    assert play_game(setup, coin) is None
    assert hint in run_trial(setup).abort_reason


def test_working_edges_outside_graph_abort():
    setup = setup_4sm(graph=mesh_4sm(edges_off=[(2, 4)]))
    assert play_game(setup, coin) is None
    assert "invalid submission" in run_trial(setup).abort_reason


def test_disconnected_challenged_meter_aborts():
    working = mesh_4sm(working_off=[(0, 1), (1, 2), (1, 3), (1, 4)])
    setup = setup_4sm(graph=working)
    assert play_game(setup, coin) is None
    assert "contribute" in run_trial(setup).abort_reason


def test_unreachable_quorum_aborts():
    working = mesh_4sm(working_off=[(0, 4), (1, 4), (2, 4), (3, 4)])
    setup = setup_4sm(graph=working, n_min=4)
    assert play_game(setup, coin) is None
    assert "contribute" in run_trial(setup).abort_reason


def test_challenged_meter_skipped_by_walk_aborts():
    # SM3 reports fine but no activated meter can reach it, so the walk
    # passes it over; the challenger must notice and abort.
    working = mesh_4sm(working_off=[(1, 3), (2, 3), (3, 4)])
    setup = setup_4sm(graph=working)
    assert play_game(setup, coin) is None
    assert "contribute" in run_trial(setup).abort_reason


def test_masking_attack_recovers_pinned_measurement():
    # Equal challenge measurements pin the challenged meter's plaintext no
    # matter which way the secret bit lands.
    setup = setup_4sm(m0=42, m1=42)
    assert attack_dc_plus_neighbor(setup) == 42


def test_masking_attack_recovers_whichever_value_was_assigned():
    for nonce in range(20):
        setup = setup_4sm(seed=1000 + nonce)
        trial = run_trial(setup, nonce)
        recovered = attack_dc_plus_neighbor(setup, nonce)
        expected = setup.m0 if trial.secret_bit == 0 else setup.m1
        assert recovered == expected


def test_masking_attack_strategy_always_wins():
    for nonce in range(25):
        assert play_game(setup_4sm(seed=2000 + nonce), STRATEGIES["masking-attack"], nonce) is True


def test_he_attack_recovers_pinned_measurement():
    setup = setup_4sm(m0=7, m1=7, backend=PaillierSpec(key_bits=128))
    assert attack_dc_plus_neighbor(setup) == 7


def test_he_attack_strategy_always_wins():
    for nonce in range(25):
        setup = setup_4sm(seed=3000 + nonce, backend=PaillierSpec(key_bits=128))
        assert play_game(setup, STRATEGIES["he-attack"], nonce) is True


def test_attack_requires_corrupted_concentrator():
    with pytest.raises(SetupViolation):
        attack_dc_plus_neighbor(setup_4sm(corrupted_dc=False))


def test_attack_requires_corrupted_neighbor():
    with pytest.raises(SetupViolation):
        attack_dc_plus_neighbor(setup_4sm(corrupted_sms=frozenset({4})))
    with pytest.raises(SetupViolation):
        attack_dc_plus_neighbor(setup_4sm(corrupted_sms=frozenset()))


def test_attack_requires_challenged_meter_first():
    with pytest.raises(SetupViolation):
        attack_dc_plus_neighbor(setup_4sm(sending_list=(2, 1, 3, 4)))


def test_attack_requires_working_neighbor_link():
    with pytest.raises(SetupViolation):
        attack_dc_plus_neighbor(setup_4sm(graph=mesh_4sm(working_off=[(1, 2)])))


def test_attack_rejects_wrong_backend():
    he_view = run_trial(setup_4sm(backend=PaillierSpec(key_bits=128))).view
    with pytest.raises(SetupViolation):
        recover_masking_measurement(he_view)
    with pytest.raises(SetupViolation):
        recover_he_measurement(run_trial(setup_4sm()).view)


def _all_ints(obj):
    if isinstance(obj, bool):
        return
    if isinstance(obj, int):
        yield obj
    elif isinstance(obj, dict):
        for v in obj.values():
            yield from _all_ints(v)
    elif isinstance(obj, list):
        for v in obj:
            yield from _all_ints(v)


def test_view_never_contains_challenged_round_shares():
    setup = setup_4sm(corrupted_sms=frozenset({2, 4}))
    trial = run_trial(setup)
    raw = view_to_json(trial.view)
    parsed = json.loads(raw)
    ints = set(_all_ints(parsed))
    s = setup.scenario
    k = s.backend.k
    for i in setup.challenged:
        assert round_share(s.seed, i, s.round, k) not in ints
    for i in setup.corrupted_sms:
        assert trial.view.secrets["sm_round_shares"][i] == round_share(s.seed, i, s.round, k)


def test_honest_concentrator_view_has_no_keys_and_no_aggregate():
    setup = setup_4sm(corrupted_dc=False)
    trial = run_trial(setup)
    assert trial.view.aggregate is None
    assert "dc_share" not in trial.view.secrets
    assert "prf_keys" not in trial.view.secrets
    assert "he_secret_key" not in trial.view.secrets
    raw = view_to_json(trial.view)
    for i in setup.challenged:
        assert derive_prf_key(setup.scenario.seed, i).hex() not in raw


def test_honest_concentrator_he_view_hides_secret_key():
    setup = setup_4sm(corrupted_dc=False, backend=PaillierSpec(key_bits=128))
    trial = run_trial(setup)
    assert "he_secret_key" not in trial.view.secrets
    assert trial.view.public_n is not None


def test_corrupted_concentrator_sees_the_aggregate():
    trial = run_trial(setup_4sm())
    assert trial.view.aggregate == 5 + 9 + 7 + 11


def test_view_messages_only_cover_corrupted_receivers():
    setup = setup_4sm(corrupted_dc=False, corrupted_sms=frozenset({2}))
    trial = run_trial(setup)
    assert trial.view.messages
    assert {m["to"] for m in trial.view.messages} == {"SM2"}


def test_wilson_interval_matches_hand_computation():
    lo, hi = wilson_interval(500, 1000)
    z = 2.5758293035489004
    denom = 1 + z * z / 1000
    center = (0.5 + z * z / 2000) / denom
    half = (z / denom) * ((0.25 / 1000 + z * z / 4000000) ** 0.5)
    assert lo == pytest.approx(center - half)
    assert hi == pytest.approx(center + half)
    assert wilson_interval(0, 0) == (0.0, 1.0)
    assert wilson_interval(100, 100)[1] == 1.0
    assert wilson_interval(0, 100)[0] == 0.0


def test_coin_flip_family_is_near_half():
    stats = empirical_unlinkability("masking-colluding-meters", 300, seed=5, strategy="coin-flip")
    assert stats.aborts == 0
    assert 0.40 <= stats.rate <= 0.60
    assert stats.ci_low < 0.5 < stats.ci_high


def test_transcript_hash_family_is_near_half():
    stats = empirical_unlinkability("masking-concentrator", 300, seed=6)
    assert stats.aborts == 0
    assert 0.40 <= stats.rate <= 0.60


def test_sum_only_against_corrupted_concentrator_is_near_half():
    stats = empirical_unlinkability("he-concentrator", 150, seed=7, n_sm=4)
    assert stats.aborts == 0
    assert 0.36 <= stats.rate <= 0.64


def test_breach_families_always_win():
    masking = empirical_unlinkability("masking-breach", 50, seed=8)
    assert (masking.wins, masking.aborts) == (50, 0)
    he = empirical_unlinkability("he-breach", 30, seed=9, n_sm=4)
    assert (he.wins, he.aborts) == (30, 0)
    assert he.rate == 1.0 and he.ci_high == 1.0


def test_empirical_runs_are_deterministic():
    a = empirical_unlinkability("masking-colluding-meters", 100, seed=11)
    b = empirical_unlinkability("masking-colluding-meters", 100, seed=11)
    assert a == b


def test_all_families_are_runnable():
    for name in FAMILIES:
        n = 4 if name.startswith("he") else 5
        stats = empirical_unlinkability(name, 10, seed=13, n_sm=n)
        assert stats.trials == 10
        assert stats.aborts == 0


def test_too_much_work_is_refused_before_the_first_trial(monkeypatch):
    def no_trial(*args):
        raise AssertionError("a trial was built")

    strategy = FAMILIES["he-concentrator"][1]
    monkeypatch.setitem(FAMILIES, "he-concentrator", (no_trial, strategy))
    with pytest.raises(ScenarioError, match="trials x n_sm"):
        empirical_unlinkability("he-concentrator", 10_000_000, seed=1, n_sm=1000)
    with pytest.raises(ScenarioError, match="trials x n_sm"):
        empirical_unlinkability("he-concentrator", MAX_GAME_WORK // 5 + 1, seed=1, n_sm=5)


# --- distinguishability experiments -----------------------------------------
#
# Small challenger/distinguisher drivers that sanity-check the two randomness
# sources the backends lean on. They measure win rates the same way the main
# game does; they do not constitute proofs.


def prg_experiment(
    pseudo_stream: Callable[[int, int], Sequence[int]],
    distinguisher: Callable[[Sequence[int]], int],
    trials: int,
    seed: int,
    length: int = 8,
    bits: int = 64,
) -> GameStats:
    """Challenger flips b and shows either `pseudo_stream(seed, length)` or
    fresh uniform words; the distinguisher guesses which."""
    rng = random.Random(seed)
    wins = 0
    for _ in range(trials):
        b = rng.getrandbits(1)
        if b == 1:
            sample = tuple(pseudo_stream(rng.getrandbits(63), length))
        else:
            sample = tuple(rng.getrandbits(bits) for _ in range(length))
        if (int(distinguisher(sample)) & 1) == b:
            wins += 1
    lo, hi = wilson_interval(wins, trials)
    return GameStats(
        family="prg", strategy=distinguisher.__name__, trials=trials, wins=wins,
        aborts=0, rate=wins / trials, ci_low=lo, ci_high=hi,
    )


def ind_cpa_experiment(
    key_bits: int,
    choose: Callable[[random.Random, int], tuple[int, int]],
    distinguish: Callable[[int, int, int, int], int],
    trials: int,
    seed: int,
) -> GameStats:
    """Chosen-plaintext indistinguishability driver for the encrypting
    backend: the adversary picks (m0, m1), sees E(m_b), and guesses b."""
    keys = keygen(key_bits, seed)
    rng = random.Random(seed)
    stream = randomness_stream(keys, seed, 0)
    wins = 0
    for _ in range(trials):
        m0, m1 = choose(rng, keys.n)
        b = rng.getrandbits(1)
        c = encrypt(keys, m1 if b else m0, next(stream))
        if (int(distinguish(c.value, keys.n, m0, m1)) & 1) == b:
            wins += 1
    lo, hi = wilson_interval(wins, trials)
    return GameStats(
        family="ind-cpa", strategy=distinguish.__name__, trials=trials, wins=wins,
        aborts=0, rate=wins / trials, ci_low=lo, ci_high=hi,
    )


def test_prg_experiment_near_half():
    def stream(seed, length):
        return [round_share(seed, 1, t, 1 << 64) for t in range(length)]

    def hash_bit(sample):
        import hashlib

        data = b"".join(x.to_bytes(8, "big") for x in sample)
        return hashlib.sha256(data).digest()[0] & 1

    stats = prg_experiment(stream, hash_bit, trials=400, seed=17)
    assert 0.40 <= stats.rate <= 0.60


def test_ind_cpa_experiment_near_half():
    def choose(rng, n):
        return rng.randrange(1000), rng.randrange(1000)

    def low_bit(c_value, n, m0, m1):
        return c_value & 1

    stats = ind_cpa_experiment(128, choose, low_bit, trials=400, seed=19)
    assert 0.40 <= stats.rate <= 0.60
