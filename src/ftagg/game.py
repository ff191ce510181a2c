"""Executable unlinkability game for the ring protocol.

The adversary hands the challenger two measurements, the plaintexts of every
other meter, a sending list, and a failure model; the challenger vets those
choices, secretly assigns the two measurements to the two challenged meters,
runs a full protocol round, and shows the adversary exactly what its corrupted
parties would have seen. The adversary then guesses the assignment bit.

Strategies are pure functions from an AdversaryView to a bit. The collusion
attack one corruption past the maximal sets is implemented both as a strategy
per backend (so it can be measured like any other adversary) and as one
standalone operation returning the challenged meter's plaintext.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, replace
from typing import Callable, Mapping, Optional

from .masking import MaskingBackend, prf
from .model import (
    DC,
    KIND_ACTIVATION,
    KIND_INITIAL_DATA,
    MaskingSpec,
    PaillierSpec,
    RoundOutcome,
    Scenario,
    ScenarioError,
    full_mesh,
    link_on,
    party_name,
    trace_record_to_dict,
    validate_scenario,
)
from .netsim import SimNetwork
from .paillier import Ciphertext, decrypt_aggregate, keygen, keys_from_totient
from .protocol import make_backend, run_round
from .walker import predict_aggregate, reachable_active

# 99% two-sided normal quantile, used for every reported confidence interval.
WILSON_Z = 2.5758293035489004

# Every trial builds a full mesh of n_sm meters; past this size (the
# north-star mesh) a game config would only exhaust memory.
MAX_GAME_N_SM = 1000
# A trial's cost grows with n_sm; past this many meter-trials in one config
# (10**7 trials at n_sm=1000 would run for about two months) the game refuses.
MAX_GAME_WORK = 10**6


class SetupViolation(ValueError):
    """An attack was asked to run on a setup missing its preconditions."""


@dataclass(frozen=True)
class GameSetup:
    """Everything the adversary submits: a round whose measurements cover only
    the non-challenged meters, the challenge, and the corrupted parties."""

    scenario: Scenario
    challenged: tuple[int, int]
    m0: int
    m1: int
    corrupted_dc: bool
    corrupted_sms: frozenset[int]


@dataclass(frozen=True)
class AdversaryView:
    """The full per-trial knowledge of the colluding parties.

    Contains the adversary's own submissions, every delivered message whose
    receiver is corrupted, the corrupted parties' secrets, and the final
    aggregate when the concentrator is corrupted. Never the challenged
    meters' round shares, and the decryption key only with a corrupted
    concentrator.
    """

    n_sm: int
    round: int
    backend_name: str
    nonce: int
    challenged: tuple[int, int]
    m0: int
    m1: int
    mlist: Mapping[int, int]
    corrupted_dc: bool
    corrupted_sms: tuple[int, ...]
    modulus: Optional[int]
    public_n: Optional[int]
    messages: tuple[dict, ...]
    secrets: Mapping[str, object]
    aggregate: Optional[int]


@dataclass(frozen=True)
class Trial:
    """One challenger pass: either an abort reason, or the secret bit with
    the adversary's view and the outcome of the finished round."""

    abort_reason: Optional[str]
    secret_bit: Optional[int] = None
    view: Optional[AdversaryView] = None
    outcome: Optional[RoundOutcome] = None


def _bit_for_trial(setup: GameSetup, nonce: int) -> int:
    s = setup.scenario
    data = b"".join(x.to_bytes(8, "big") for x in (s.seed, s.round, nonce))
    digest = hashlib.blake2b(data, person=b"gamebit", digest_size=8).digest()
    return digest[0] & 1


def _measurement_domain(s: Scenario) -> int:
    if isinstance(s.backend, MaskingSpec):
        return s.backend.k
    return keygen(s.backend.key_bits, s.seed).n


def _check_submission(setup: GameSetup) -> Optional[str]:
    """The challenger's vetting pass; a string is an abort reason."""
    s = setup.scenario
    i_star, j_star = setup.challenged
    if sorted(s.sending_list) != list(range(1, s.n_sm + 1)):
        return "sending list must contain every meter exactly once"
    if i_star == j_star:
        return "challenged meters must be distinct"
    if not (1 <= i_star <= s.n_sm and 1 <= j_star <= s.n_sm):
        return "challenged meters must exist"
    if i_star in setup.corrupted_sms or j_star in setup.corrupted_sms:
        return "challenged meters must be honest"
    domain = _measurement_domain(s)
    if not (0 <= setup.m0 < domain and 0 <= setup.m1 < domain):
        return "challenge measurements outside the measurement domain"
    expected = set(range(1, s.n_sm + 1)) - {i_star, j_star}
    if set(s.measurements) != expected:
        return "measurement list must cover exactly the non-challenged meters"
    if any(not (0 <= m < domain) for m in s.measurements.values()):
        return "measurement list outside the measurement domain"
    return None


def _measurements(setup: GameSetup, bit: int) -> dict[int, int]:
    i_star, j_star = setup.challenged
    measurements = dict(setup.scenario.measurements)
    measurements[i_star] = setup.m0 if bit == 0 else setup.m1
    measurements[j_star] = setup.m1 if bit == 0 else setup.m0
    return measurements


def _build_view(setup: GameSetup, backend, outcome: RoundOutcome, nonce: int) -> AdversaryView:
    corrupted = set(setup.corrupted_sms)
    if setup.corrupted_dc:
        corrupted.add(DC)
    messages = []
    for r in outcome.trace:
        if r.delivered and r.receiver in corrupted:
            m = trace_record_to_dict(r)
            del m["delivered"]
            m["body"] = {
                name: v.value if isinstance(v, Ciphertext) else v
                for name, v in vars(r.message).items()
            }
            messages.append(m)

    secrets: dict[str, object] = {}
    modulus = None
    public_n = None
    if isinstance(backend, MaskingBackend):
        modulus = backend.k
        if setup.corrupted_dc:
            # The concentrator pre-shares every PRF key at enrollment and
            # owns the round-opening share.
            secrets["dc_share"] = backend.s_0
            secrets["prf_keys"] = {i: key.hex() for i, key in backend.prf_keys.items()}
        if setup.corrupted_sms:
            secrets["sm_prf_keys"] = {
                i: backend.prf_keys[i].hex() for i in sorted(setup.corrupted_sms)
            }
            secrets["sm_round_shares"] = {
                i: backend.shares[i] for i in sorted(setup.corrupted_sms)
            }
    else:
        public_n = backend.keys.n
        if setup.corrupted_dc:
            secrets["he_secret_key"] = {
                "lam": backend.keys.lam,
                "mu": backend.keys.mu,
                "n": backend.keys.n,
                "bits": backend.keys.bits,
            }

    return AdversaryView(
        n_sm=setup.scenario.n_sm,
        round=setup.scenario.round,
        backend_name=backend.name,
        nonce=nonce,
        challenged=setup.challenged,
        m0=setup.m0,
        m1=setup.m1,
        mlist=dict(setup.scenario.measurements),
        corrupted_dc=setup.corrupted_dc,
        corrupted_sms=tuple(sorted(setup.corrupted_sms)),
        modulus=modulus,
        public_n=public_n,
        messages=tuple(messages),
        secrets=secrets,
        aggregate=outcome.aggregate if setup.corrupted_dc else None,
    )


def view_to_json(view: AdversaryView) -> str:
    payload = dict(vars(view))
    payload["backend"] = payload.pop("backend_name")
    payload["mlist"] = {str(i): m for i, m in view.mlist.items()}
    return json.dumps(payload, sort_keys=True)


def run_trial(setup: GameSetup, nonce: int = 0) -> Trial:
    """One challenger pass: vet the submission, flip the bit, run the round,
    and expose the corrupted parties' view. Bad submissions abort before any
    protocol message is sent."""
    try:
        reason = _check_submission(setup)
        if reason is not None:
            return Trial(abort_reason=reason)
        # Flipping the bit later only swaps two measurements, which keeps
        # every scenario invariant this validation checks.
        probe = validate_scenario(replace(setup.scenario, measurements=_measurements(setup, 0)))
    except ScenarioError as exc:
        return Trial(abort_reason=f"invalid submission: {exc}")

    # Contribution check against the independent reachability predictor: both
    # challenged meters must end up in the round's contributor set under the
    # adversary's failure model.
    walk = reachable_active(probe)
    i_star, j_star = setup.challenged
    if predict_aggregate(probe) is None or i_star not in walk or j_star not in walk:
        return Trial(abort_reason="challenged meters cannot contribute under the failure model")

    bit = _bit_for_trial(setup, nonce)
    scenario = replace(probe, measurements=_measurements(setup, bit))
    backend = make_backend(scenario)
    outcome = run_round(scenario, backend, SimNetwork.for_scenario(scenario))
    view = _build_view(setup, backend, outcome, nonce)
    return Trial(abort_reason=None, secret_bit=bit, view=view, outcome=outcome)


def play_game(setup: GameSetup, adversary: Callable[[AdversaryView], int], nonce: int = 0) -> Optional[bool]:
    """None if the challenger aborts, else whether the adversary's guess won."""
    trial = run_trial(setup, nonce)
    if trial.abort_reason is not None:
        return None
    return (int(adversary(trial.view)) & 1) == trial.secret_bit


# --- recovery cores shared by the attack strategies and the attack op ---


def _first_handoff_to_corrupted(view: AdversaryView):
    """The activation a corrupted meter received directly from the first
    challenged meter; its share field is S after that meter folded."""
    i_star = view.challenged[0]
    for m in view.messages:
        if (
            m["kind"] == KIND_ACTIVATION
            and m["from"] == f"SM{i_star}"
            and m["to"].startswith("SM")
        ):
            return m
    return None


def _initial_report(view: AdversaryView, i: int):
    for m in view.messages:
        if m["kind"] == KIND_INITIAL_DATA and m["from"] == f"SM{i}" and m["to"] == "DC":
            return m
    return None


def recover_masking_measurement(view: AdversaryView) -> int:
    """Masked report minus the share delta observed by the colluding next
    meter, minus the recomputed PRF value: the raw measurement."""
    if view.backend_name != "masking":
        raise SetupViolation("masking recovery needs the masking backend")
    if not view.corrupted_dc:
        raise SetupViolation("recovery needs the concentrator's keys and report")
    handoff = _first_handoff_to_corrupted(view)
    if handoff is None:
        raise SetupViolation("no corrupted meter received the challenged handoff")
    i_star = view.challenged[0]
    report = _initial_report(view, i_star)
    if report is None:
        raise SetupViolation("the challenged masked report never reached the concentrator")
    k = view.modulus
    s_0 = view.secrets["dc_share"]
    key = bytes.fromhex(view.secrets["prf_keys"][i_star])
    s_i_star = handoff["body"]["share"]
    return (report["body"]["data"] - (s_i_star - s_0) - prf(key, view.round, k)) % k


def recover_he_measurement(view: AdversaryView) -> int:
    """Decrypt the running ciphertext the colluding next meter received from
    the first challenged meter; the concentrator's opener contributes zero."""
    if view.backend_name != "paillier":
        raise SetupViolation("ciphertext recovery needs the encrypting backend")
    if not view.corrupted_dc:
        raise SetupViolation("recovery needs the decryption key")
    handoff = _first_handoff_to_corrupted(view)
    if handoff is None:
        raise SetupViolation("no corrupted meter received the challenged handoff")
    sk = view.secrets["he_secret_key"]
    keys = keys_from_totient(sk["n"], sk["lam"], sk["bits"])
    return decrypt_aggregate(keys, Ciphertext(handoff["body"]["share"], keys.n_sq))


def _guess_from_recovered(view: AdversaryView, recovered: int) -> int:
    return 0 if recovered == view.m0 else 1


# --- strategies: pure view -> bit, registered by name for the CLI ---


def strategy_coin_flip(view: AdversaryView) -> int:
    return random.Random(view.nonce).getrandbits(1)


def strategy_sum_only(view: AdversaryView) -> int:
    """Use only the final aggregate: subtract the known plaintexts and guess
    from the challenged pair's sum, which carries no information about the
    assignment."""
    if view.aggregate is None:
        return 0
    pair_sum = view.aggregate - sum(view.mlist.values())
    if view.modulus is not None:
        pair_sum %= view.modulus
    return pair_sum & 1


def strategy_transcript_hash(view: AdversaryView) -> int:
    digest = hashlib.sha256(view_to_json(view).encode()).digest()
    return digest[0] & 1


def strategy_masking_attack(view: AdversaryView) -> int:
    return _guess_from_recovered(view, recover_masking_measurement(view))


def strategy_he_attack(view: AdversaryView) -> int:
    return _guess_from_recovered(view, recover_he_measurement(view))


STRATEGIES: dict[str, Callable[[AdversaryView], int]] = {
    "coin-flip": strategy_coin_flip,
    "sum-only": strategy_sum_only,
    "transcript-hash": strategy_transcript_hash,
    "masking-attack": strategy_masking_attack,
    "he-attack": strategy_he_attack,
}


# --- the standalone attack operation ---


def _check_attack_preconditions(setup: GameSetup) -> None:
    i_star, j_star = setup.challenged
    order = setup.scenario.sending_list
    if not setup.corrupted_dc:
        raise SetupViolation("attack needs the concentrator corrupted")
    if not setup.corrupted_sms:
        raise SetupViolation("attack needs a corrupted meter right after the challenged one")
    if order[0] != i_star:
        raise SetupViolation("attack needs the challenged meter first in the sending list")
    neighbor = order[1] if len(order) > 1 else None
    if neighbor not in setup.corrupted_sms:
        raise SetupViolation("attack needs a corrupted meter right after the challenged one")
    for a, b in ((i_star, neighbor), (i_star, DC), (neighbor, DC)):
        if not link_on(setup.scenario.graph, a, b):
            raise SetupViolation(f"attack needs a working {party_name(a)}-{party_name(b)} link")


def attack_dc_plus_neighbor(setup: GameSetup, nonce: int = 0) -> int:
    """Corrupted concentrator plus the meter scheduled right after the
    challenged one: recovers the challenged meter's exact measurement, by
    unmasking its report under masking or by decrypting the ciphertext the
    neighbor received under the encrypting backend."""
    _check_attack_preconditions(setup)
    trial = run_trial(setup, nonce)
    if trial.abort_reason is not None:
        raise SetupViolation(f"challenger aborted: {trial.abort_reason}")
    if isinstance(setup.scenario.backend, MaskingSpec):
        return recover_masking_measurement(trial.view)
    return recover_he_measurement(trial.view)


# --- canonical setup families and the empirical driver ---


def _family_setup(
    rng: random.Random,
    n_sm: int,
    backend,
    corrupted_dc: bool,
    corrupt_others: bool,
    attack_order: bool,
    trial_index: int,
) -> GameSetup:
    meters = list(range(1, n_sm + 1))
    i_star, j_star = rng.sample(meters, 2)
    rest = [i for i in meters if i not in (i_star, j_star)]
    rng.shuffle(rest)
    if attack_order:
        # Challenged meter first, a corrupted meter second; the second
        # challenged meter rides along later in the list.
        order = [i_star, rest[0]] + rest[1:]
        order.insert(rng.randint(2, len(order)), j_star)
    else:
        order = meters[:]
        rng.shuffle(order)
    m0 = rng.randrange(1000)
    m1 = rng.randrange(1000)
    if attack_order and m0 == m1:
        m1 = (m1 + 1) % 1000
    scenario = Scenario(
        n_sm=n_sm,
        graph=full_mesh(n_sm),
        sending_list=tuple(order),
        n_min=2,
        round=trial_index,
        measurements={i: rng.randrange(1000) for i in rest},
        backend=backend,
        seed=20_000 + n_sm,
    )
    return GameSetup(
        scenario=scenario,
        challenged=(i_star, j_star),
        m0=m0,
        m1=m1,
        corrupted_dc=corrupted_dc,
        corrupted_sms=frozenset(rest) if corrupt_others else frozenset(),
    )


def _family(backend_factory, corrupted_dc, corrupt_others, attack_order, default_strategy):
    def build(rng: random.Random, n_sm: int, trial_index: int) -> GameSetup:
        return _family_setup(
            rng, n_sm, backend_factory(), corrupted_dc, corrupt_others, attack_order, trial_index
        )

    return build, default_strategy


FAMILIES: dict[str, tuple] = {
    # Colluding meters only: everything but the challenged pair is corrupted.
    "masking-colluding-meters": _family(MaskingSpec, False, True, False, "transcript-hash"),
    "he-colluding-meters": _family(lambda: PaillierSpec(key_bits=256), False, True, False, "transcript-hash"),
    # Concentrator corrupted, meters honest.
    "masking-concentrator": _family(MaskingSpec, True, False, False, "transcript-hash"),
    "he-concentrator": _family(lambda: PaillierSpec(key_bits=256), True, False, False, "sum-only"),
    # One meter past the maximal sets: concentrator plus colluding meters,
    # with the sending list arranged for the recovery attack.
    "masking-breach": _family(MaskingSpec, True, True, True, "masking-attack"),
    "he-breach": _family(lambda: PaillierSpec(key_bits=256), True, True, True, "he-attack"),
}


def wilson_interval(wins: int, trials: int, z: float = WILSON_Z) -> tuple[float, float]:
    if trials == 0:
        return 0.0, 1.0
    phat = wins / trials
    denom = 1 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = (z / denom) * ((phat * (1 - phat) / trials + z * z / (4 * trials * trials)) ** 0.5)
    return max(0.0, center - half), min(1.0, center + half)


@dataclass(frozen=True)
class GameStats:
    family: str
    strategy: str
    trials: int
    wins: int
    aborts: int
    rate: float
    ci_low: float
    ci_high: float


def empirical_unlinkability(
    family: str,
    trials: int,
    seed: int,
    strategy: Optional[str] = None,
    n_sm: int = 5,
) -> GameStats:
    """Repeated fresh-seed games for one collusion family; aborts count as
    losses, exactly as the game scores them."""
    if trials < 1:
        raise ScenarioError("at least one trial is required")
    builder, default_strategy = FAMILIES[family]
    # Two challenged meters, plus the corrupted neighbour a breach stages.
    minimum = 3 if family.endswith("-breach") else 2
    if n_sm < minimum:
        raise ScenarioError(f"family {family} needs n_sm >= {minimum}, got {n_sm}")
    if n_sm > MAX_GAME_N_SM:
        raise ScenarioError(f"n_sm must be at most {MAX_GAME_N_SM}, got {n_sm}")
    if trials * n_sm > MAX_GAME_WORK:
        raise ScenarioError(
            f"trials x n_sm must be at most {MAX_GAME_WORK}, got {trials} x {n_sm}"
        )
    strategy_name = strategy or default_strategy
    adversary = STRATEGIES[strategy_name]
    rng = random.Random(seed)
    wins = 0
    aborts = 0
    for idx in range(trials):
        setup = builder(rng, n_sm, idx)
        won = play_game(setup, adversary, nonce=idx)
        if won is None:
            aborts += 1
        elif won:
            wins += 1
    lo, hi = wilson_interval(wins, trials)
    return GameStats(
        family=family,
        strategy=strategy_name,
        trials=trials,
        wins=wins,
        aborts=aborts,
        rate=wins / trials,
        ci_low=lo,
        ci_high=hi,
    )
