import itertools
import json
import random
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Sequence

import pytest
from conftest import full_edges
from ftagg import cli, game, model, paillier, protocol
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
    recover_measurement,
    run_trial,
    view_to_json,
    wilson_interval,
)
from ftagg.masking import MaskingBackend, derive_prf_key, mask, prf, round_share
from ftagg.model import (
    DC,
    KIND_ACTIVATION,
    KIND_INITIAL_DATA,
    FailureGraph,
    MaskingSpec,
    PaillierSpec,
    Scenario,
    ScenarioError,
    full_mesh,
    scenario_from_json,
)
from ftagg.netsim import SimNetwork
from ftagg.paillier import encrypt, keygen, randomness_stream
from ftagg.protocol import make_backend, run_round
from ftagg.walker import predict_aggregate
from test_scale import BACKENDS, sparse_scenario
from test_small_scope import SCOPE
from test_small_scope import rounds as small_scope_rounds


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
        (dict(m0=1 << 64), "modulus"),
        (dict(m1=-3), "negative"),
        (dict(measurements={2: 7}), "cover"),
        (dict(measurements={2: 7, 3: 1, 4: 11}), "cover"),
        (dict(measurements={2: 7, 4: 1 << 64}), "modulus"),
        (dict(n_min=9), "invalid"),
        (dict(backend=PaillierSpec(key_bits=65)), "key_bits"),
        (dict(backend=PaillierSpec(key_bits=4098)), "key_bits"),
        (dict(backend=MaskingSpec(k_bits=129)), "k_bits"),
        (dict(corrupted_sms=frozenset({0, 2})), "corrupted meters must exist"),
        (dict(corrupted_sms=frozenset({2, 5})), "corrupted meters must exist"),
        (
            dict(corrupted_sms=frozenset({0, 2}), backend=PaillierSpec(key_bits=128)),
            "corrupted meters must exist",
        ),
        (
            dict(corrupted_sms=frozenset({2, 5}), backend=PaillierSpec(key_bits=128)),
            "corrupted meters must exist",
        ),
    ],
)
def test_malformed_submissions_abort(overrides, hint):
    setup = setup_4sm(**overrides)
    assert play_game(setup, coin) is None
    assert hint in run_trial(setup).abort_reason
    with pytest.raises(SetupViolation, match="challenger aborted"):
        attack_dc_plus_neighbor(setup)


def test_working_edges_outside_graph_abort():
    setup = setup_4sm(graph=mesh_4sm(edges_off=[(2, 4)]))
    assert play_game(setup, coin) is None
    assert "invalid submission" in run_trial(setup).abort_reason


@pytest.mark.parametrize(
    "row, bit, hint",
    [(2, 1, "not of its lower party"), (4, 4, "self-loop")],
    ids=["one-way-link", "self-loop"],
)
def test_directed_graph_aborts(row, bit, hint):
    # SM2's row gets a bit for SM1, below its own party. The scenario text
    # reads a link from its lower party's row only, so this bit, like a
    # self-loop bit, would change no digest.
    edges, working = list(full_mesh(4).edges), list(full_mesh(4).working)
    working[row] ^= 1 << bit
    edges[row] |= working[row]
    setup = setup_4sm(graph=FailureGraph(tuple(edges), tuple(working)))
    assert play_game(setup, coin) is None
    reason = run_trial(setup).abort_reason
    assert "invalid submission" in reason and hint in reason


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


@pytest.mark.parametrize("backend", [MaskingSpec(), PaillierSpec(key_bits=128)])
def test_recovery_refuses_a_challenged_meter_that_was_not_first_contributor(backend):
    # SM2 opens the chain, so the share SM1 hands to SM3 already holds SM2's
    # measurement; reading it as SM1's alone would be a silent wrong value.
    setup = setup_4sm(
        sending_list=(2, 1, 3, 4),
        challenged=(1, 4),
        measurements={2: 7, 3: 11},
        corrupted_sms=frozenset({2, 3}),
        backend=backend,
    )
    trial = run_trial(setup)
    assert trial.abort_reason is None
    with pytest.raises(SetupViolation, match="first contributor"):
        recover_measurement(trial.view)
    with pytest.raises(SetupViolation):
        attack_dc_plus_neighbor(setup)


@pytest.mark.parametrize("backend", [MaskingSpec(), PaillierSpec(key_bits=128)])
def test_attack_recovers_a_first_contributor_that_is_not_first_in_the_list(backend):
    # SM4 heads the sending list but is offline, so SM1 opens the chain.
    for nonce in range(6):
        setup = setup_4sm(
            sending_list=(4, 1, 2, 3), sm_online={4: False}, backend=backend, seed=500 + nonce
        )
        trial = run_trial(setup, nonce)
        assert trial.outcome.active[0] == 1
        expected = setup.m0 if trial.secret_bit == 0 else setup.m1
        assert attack_dc_plus_neighbor(setup, nonce) == expected


def test_a_round_below_quorum_still_leaks_to_the_concentrator_and_a_meter():
    # SM1 hands the share to SM2, which cannot reach SM3, so the round closes
    # with two contributors under n_min = 3. SM1's report, the opener, SM1's
    # PRF value and the share SM2 received still give SM1's measurement away.
    links = [(0, 1), (0, 2), (0, 3), (1, 2)]
    scenario = Scenario(
        n_sm=3,
        graph=FailureGraph.build(3, links, links),
        sending_list=(1, 2, 3),
        n_min=3,
        round=4,
        measurements={1: 123, 2: 45, 3: 6},
        backend=MaskingSpec(),
        seed=77,
    )
    backend = MaskingBackend(scenario)
    outcome = run_round(scenario, backend, SimNetwork.for_scenario(scenario))
    assert outcome.aggregate is None and outcome.active == (1, 2)
    sent = {(r.message.kind, r.sender, r.receiver): r.message for r in outcome.trace}
    report = sent[KIND_INITIAL_DATA, 1, DC].data
    handoff = sent[KIND_ACTIVATION, 1, 2].share
    k = scenario.backend.k
    p1 = prf(derive_prf_key(scenario.seed, 1), scenario.round, k)
    assert report == mask(123, round_share(scenario.seed, 1, scenario.round, k), p1, k)
    assert (report - (handoff - backend.s_0) - p1) % k == 123


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


class PlainSumBackend:
    """A third scheme: plain integer sums, and a coalition view of its own."""

    name = "plain"

    def __init__(self, scenario):
        self._measurements = dict(scenario.measurements)

    def initial_payload(self, i, t):
        return None

    def init_share(self):
        return 0

    def fold_measurement(self, s_running, i):
        return s_running + self._measurements[i]

    def finalize(self, s_final, l_act, collected, opening):
        return s_final

    def coalition_view(self, corrupted_dc, corrupted_sms):
        secrets = {"plain": (corrupted_dc, tuple(sorted(corrupted_sms)))}
        return {"modulus": None, "public_n": None, "secrets": secrets}


def test_a_third_backend_goes_through_the_view():
    setup = setup_4sm(graph=mesh_4sm(working_off=[(2, 3)]), corrupted_sms=frozenset({2}))
    s = Scenario(**{**vars(setup.scenario), "measurements": {1: 5, 2: 7, 3: 9, 4: 11}})

    def view(backend):
        outcome = run_round(s, backend, SimNetwork.for_scenario(s))
        return outcome, game._build_view(setup, backend, outcome, 0)

    outcome, plain = view(PlainSumBackend(s))
    _, masked = view(MaskingBackend(s))
    assert outcome.aggregate == 5 + 7 + 11
    assert (plain.backend_name, plain.modulus, plain.public_n) == ("plain", None, None)
    assert plain.secrets == {"plain": (True, (2,))}

    def flow(v):
        return [(m["kind"], m["from"], m["to"]) for m in v.messages]

    assert flow(plain) == flow(masked)
    assert ("activation", "SM1", "SM2") in flow(plain)


@dataclass(frozen=True)
class PlainSpec:
    """The plain-sum backend's choice: no parameters, sums below 2^64."""

    type = "plain"

    def check_sum(self, total):
        if total >= 1 << 64:
            raise ScenarioError(f"sum of measurements {total} must stay below 2^64")


def test_a_third_backend_registered_once_runs_everywhere(monkeypatch, capsys, tmp_path):
    monkeypatch.setitem(model.SPECS, PlainSpec.type, PlainSpec)
    monkeypatch.setitem(protocol.BACKENDS, PlainSumBackend.name, PlainSumBackend)
    ring4 = Path(__file__).resolve().parent.parent / "scenarios" / "ring4.json"
    doc = json.loads(ring4.read_text())
    doc["backend"] = {"type": "plain"}
    path = tmp_path / "plain.json"
    path.write_text(json.dumps(doc))

    assert cli.main(["run", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["backend"] == {"type": "plain"}
    assert report["aggregate"] == predict_aggregate(scenario_from_json(path.read_text())) == 30
    # The override builds the same scenario, so the report is the same.
    assert cli.main(["run", str(ring4), "--backend", "plain"]) == 0
    assert json.loads(capsys.readouterr().out) == report

    builder, _ = FAMILIES["masking-colluding-meters"]
    setup = builder(random.Random(1), 5, 0)
    setup = replace(setup, scenario=replace(setup.scenario, backend=PlainSpec()))
    trial = run_trial(setup)
    assert trial.abort_reason is None
    assert trial.view.backend_name == "plain"
    expected = sum(setup.scenario.measurements.values()) + setup.m0 + setup.m1
    assert trial.outcome.aggregate == expected


def reference_bodies(outcome):
    """Every delivered handoff's body as an engine that carries both lists
    builds it: the candidate list drops its head at every offer, and the
    contributor list gains the receiver of every delivered one."""
    l_rem, l_act, bodies = list(outcome.remaining_at_init), [], []
    for r in outcome.trace:
        if r.message.kind == KIND_ACTIVATION:
            assert r.receiver == l_rem[0]
            if r.delivered:
                body = {"share": r.message.share, "remaining": tuple(l_rem), "active": tuple(l_act)}
                bodies.append(tuple(body.items()))
                l_act.append(r.receiver)
            del l_rem[0]
    return bodies


def view_bodies(s):
    """The activation bodies of s's round in the view of a coalition of every
    party, and whether a delivered handoff in it follows a failed one."""
    backend = make_backend(s)
    outcome = run_round(s, backend, SimNetwork.for_scenario(s))
    setup = GameSetup(
        scenario=s,
        challenged=(1, 2),
        m0=0,
        m1=0,
        corrupted_dc=True,
        corrupted_sms=frozenset(range(1, s.n_sm + 1)),
    )
    view = game._build_view(setup, backend, outcome, 0)
    bodies = [tuple(m["body"].items()) for m in view.messages if m["kind"] == KIND_ACTIVATION]
    assert bodies == reference_bodies(outcome)
    handoffs = [r.delivered for r in outcome.trace if r.message.kind == KIND_ACTIVATION]
    return any(not a and b for a, b in zip(handoffs, handoffs[1:]))


def test_view_bodies_equal_both_lists_carried_on_every_small_round():
    small = [s for n, all_online, _ in SCOPE if n <= 3 for s in small_scope_rounds(n, all_online)]
    assert len(small) == 1604
    assert any([view_bodies(s) for s in small])


@pytest.mark.parametrize("name", ["masking-64", "paillier-128"])
def test_view_bodies_equal_both_lists_carried_on_sparse_graphs_with_failures(name):
    backend, bound = BACKENDS[name]
    draws = itertools.product((30, 300), (1, 2, 3, 4))
    followed = [view_bodies(sparse_scenario(300, c, backend, bound, seed, 0.1)) for c, seed in draws]
    assert any(followed)


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


def test_sum_only_reads_the_pair_sum():
    sum_only = STRATEGIES["sum-only"]
    # Without the aggregate it has nothing to read and guesses 0.
    assert sum_only(run_trial(setup_4sm(corrupted_dc=False)).view) == 0
    # Validation keeps a masking sum below k, so the aggregate minus the known
    # measurements is the pair sum itself, even at the largest valid sum.
    view = run_trial(setup_4sm(measurements={2: 7, 4: (1 << 64) - 22})).view
    assert view.modulus == 1 << 64 and view.aggregate == (1 << 64) - 1
    assert sum_only(view) == (5 + 9) & 1


def test_zero_trials_refused():
    with pytest.raises(ScenarioError, match="at least one trial is required"):
        empirical_unlinkability("masking-breach", 0, seed=1)


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


@pytest.mark.parametrize("family", ["he-concentrator", "he-breach"])
def test_he_game_views_and_guesses_are_the_same_with_libcrypto_and_with_pow_alone(
        family, monkeypatch):
    # The 256-bit game keys encrypt with one powmod(r, n, n^2) where
    # libcrypto loads and with the lifted CRT on pow alone.
    builder, strategy = FAMILIES[family]
    crt_calls = []
    crt_randomizer = paillier._crt_randomizer

    def recorded(keys, r):
        crt_calls.append(r)
        return crt_randomizer(keys, r)

    monkeypatch.setattr(paillier, "_crt_randomizer", recorded)

    def play():
        crt_calls.clear()
        rng = random.Random(90004)
        trials = [run_trial(builder(rng, 5, idx), nonce=idx) for idx in range(6)]
        assert all(trial.abort_reason is None for trial in trials)
        return [(view_to_json(t.view), STRATEGIES[strategy](t.view), t.secret_bit) for t in trials]

    with_libcrypto = play()
    assert bool(crt_calls) == (not paillier._libcrypto())
    monkeypatch.setattr(paillier, "_libcrypto", lambda: False)
    assert play() == with_libcrypto
    assert crt_calls


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
        if (int(distinguish(c, keys.n, m0, m1)) & 1) == b:
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
