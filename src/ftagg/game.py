"""Executable unlinkability game for the ring protocol.

The adversary hands the challenger two measurements, the plaintexts of every
other meter, a sending list, and a failure model; the challenger vets those
choices, secretly assigns the two measurements to the two challenged meters,
runs a full protocol round, and shows the adversary exactly what its corrupted
parties would have seen. The adversary then guesses the assignment bit.

Strategies are pure functions from an AdversaryView to a bit. The collusion
attack one corruption past the maximal sets is one view reader,
`recover_measurement`: it returns the first challenged meter's plaintext when
the view shows that meter opened the activation chain and handed its share to
a corrupted meter, and raises otherwise. The `masking-attack` and `he-attack`
strategies and the standalone `attack_dc_plus_neighbor` both use it.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, Mapping, Optional

from .masking import prf
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
    party_name,
    validate_scenario,
)
from .netsim import SimNetwork
from .paillier import powmod
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


def _check_submission(setup: GameSetup) -> Optional[str]:
    """The challenger's own vetting pass; a string is an abort reason. The
    sending list and the measurement range are `validate_scenario`'s."""
    s = setup.scenario
    i_star, j_star = setup.challenged
    if i_star == j_star:
        return "challenged meters must be distinct"
    if not (1 <= i_star <= s.n_sm and 1 <= j_star <= s.n_sm):
        return "challenged meters must exist"
    if not all(1 <= i <= s.n_sm for i in setup.corrupted_sms):
        return "corrupted meters must exist"
    if i_star in setup.corrupted_sms or j_star in setup.corrupted_sms:
        return "challenged meters must be honest"
    expected = set(range(1, s.n_sm + 1)) - {i_star, j_star}
    if set(s.measurements) != expected:
        return "measurement list must cover exactly the non-challenged meters"
    return None


def _measurements(setup: GameSetup, bit: int) -> dict[int, int]:
    i_star, j_star = setup.challenged
    measurements = dict(setup.scenario.measurements)
    measurements[i_star] = setup.m0 if bit == 0 else setup.m1
    measurements[j_star] = setup.m1 if bit == 0 else setup.m0
    return measurements


def _build_view(setup: GameSetup, backend, outcome: RoundOutcome, nonce: int) -> AdversaryView:
    """The round's data flow as the coalition saw it; the backend's
    `coalition_view` adds what the coalition holds beyond its messages."""
    corrupted = set(setup.corrupted_sms)
    if setup.corrupted_dc:
        corrupted.add(DC)
    rem = outcome.remaining_at_init
    messages = []
    for r in outcome.trace:
        if r.delivered and r.receiver in corrupted:
            body = dict(vars(r.message))
            if r.message.kind == KIND_ACTIVATION:
                # The handoff's two lists, read back from the trace: a
                # delivered handoff to j offers the candidates from j on,
                # and carries the contributors before j.
                j = r.receiver
                body["remaining"] = rem[rem.index(j):]
                body["active"] = outcome.active[: outcome.active.index(j)]
            messages.append({
                "tick": r.tick,
                "from": party_name(r.sender),
                "to": party_name(r.receiver),
                "kind": r.message.kind,
                "body": body,
            })

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
        messages=tuple(messages),
        aggregate=outcome.aggregate if setup.corrupted_dc else None,
        **backend.coalition_view(setup.corrupted_dc, setup.corrupted_sms),
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


# --- the breach recovery shared by the attack strategies and the attack op ---


def recover_measurement(view: AdversaryView) -> int:
    """The first challenged meter's plaintext, read from the handoff it sent
    to a corrupted meter as the round's first contributor: that share is the
    concentrator's opener plus the meter's own fold. Under masking the
    report, minus that share's delta over the opener, minus the PRF value,
    is the measurement; under Paillier the share decrypts to it by
    L(c^lam mod n^2) * mu mod n, from the key in the view."""
    if not view.corrupted_dc:
        raise SetupViolation("recovery needs the concentrator's keys")
    i_star = view.challenged[0]
    sender = party_name(i_star)
    sent = [m for m in view.messages if m["from"] == sender]
    handoffs = [
        m["body"]["share"]
        for m in sent
        if m["kind"] == KIND_ACTIVATION and m["body"]["active"] == (i_star,)
    ]
    if not handoffs:
        raise SetupViolation(f"no corrupted meter received {sender}'s handoff as first contributor")
    share = handoffs[0]
    if view.backend_name == "paillier":
        sk = view.secrets["he_secret_key"]
        n = sk["n"]
        return (powmod(share, sk["lam"], n * n) - 1) // n * sk["mu"] % n
    # Its report reached the corrupted concentrator, since it contributed.
    (report,) = [m["body"]["data"] for m in sent if m["kind"] == KIND_INITIAL_DATA]
    k = view.modulus
    key = bytes.fromhex(view.secrets["prf_keys"][i_star])
    return (report - (share - view.secrets["dc_share"]) - prf(key, view.round, k)) % k


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
    return pair_sum & 1


def strategy_transcript_hash(view: AdversaryView) -> int:
    digest = hashlib.sha256(view_to_json(view).encode()).digest()
    return digest[0] & 1


def strategy_breach(view: AdversaryView) -> int:
    return 0 if recover_measurement(view) == view.m0 else 1


STRATEGIES: dict[str, Callable[[AdversaryView], int]] = {
    "coin-flip": strategy_coin_flip,
    "sum-only": strategy_sum_only,
    "transcript-hash": strategy_transcript_hash,
    # Two names for one strategy: game configs and family defaults use both.
    "masking-attack": strategy_breach,
    "he-attack": strategy_breach,
}


# --- the standalone attack operation ---


def attack_dc_plus_neighbor(setup: GameSetup, nonce: int = 0) -> int:
    """One trial of a breach setup, then the first challenged meter's exact
    measurement by `recover_measurement`: corrupted concentrator plus the
    meter the challenged one handed the share to as first contributor."""
    trial = run_trial(setup, nonce)
    if trial.abort_reason is not None:
        raise SetupViolation(f"challenger aborted: {trial.abort_reason}")
    return recover_measurement(trial.view)


# --- canonical setup families and the empirical driver ---


def _family_setup(
    backend,
    corrupted_dc: bool,
    corrupt_others: bool,
    attack_order: bool,
    rng: random.Random,
    n_sm: int,
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


# Each family is (builder(rng, n_sm, trial_index), default strategy).
FAMILIES: dict[str, tuple] = {
    # Colluding meters only: everything but the challenged pair is corrupted.
    "masking-colluding-meters": (partial(_family_setup, MaskingSpec(), False, True, False), "transcript-hash"),
    "he-colluding-meters": (partial(_family_setup, PaillierSpec(256), False, True, False), "transcript-hash"),
    # Concentrator corrupted, meters honest.
    "masking-concentrator": (partial(_family_setup, MaskingSpec(), True, False, False), "transcript-hash"),
    "he-concentrator": (partial(_family_setup, PaillierSpec(256), True, False, False), "sum-only"),
    # One meter past the maximal sets: concentrator plus colluding meters,
    # with the sending list arranged for the recovery attack.
    "masking-breach": (partial(_family_setup, MaskingSpec(), True, True, True), "masking-attack"),
    "he-breach": (partial(_family_setup, PaillierSpec(256), True, True, True), "he-attack"),
}


def wilson_interval(wins: int, trials: int) -> tuple[float, float]:
    z = WILSON_Z
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
