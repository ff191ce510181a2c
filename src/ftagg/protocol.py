"""The ring-aggregation engine and its trace classifier.

One round has three phases: every meter reports to the concentrator, the
activation chain threads the running share along the reachable meters, and
the concentrator finishes from the final message. The computation is plugged
in behind a small backend interface so the message flow never changes.
"""

from __future__ import annotations

from typing import Iterator, Optional, Protocol

from .masking import MaskingBackend
from .model import (
    DC,
    Activation,
    AckS,
    EndOfRound,
    InitialData,
    KIND_ACTIVATION,
    KIND_END_OF_ROUND,
    RoundOutcome,
    Scenario,
    TraceRecord,
)
from .netsim import DeliveryStatus, SimNetwork
from .paillier import PaillierBackend

class MalformedTrace(ValueError):
    pass


class ComputationBackend(Protocol):
    """What the engine needs from a computation scheme.

    initial_payload may return None when nothing rides the opening message.
    init_share returns the concentrator's opener, the first running share;
    the engine hands the same opener back to finalize as its fourth argument
    (masking's s_0; Paillier ignores it). finalize is called only at quorum:
    with the final share and at least n_min >= 1 contributors. perfbench's
    tracing proxy wraps these four calls with exactly these arities, so they
    stay fixed, initial_payload's unused t included.
    """

    def initial_payload(self, i: int, t: int) -> Optional[object]: ...

    def init_share(self) -> object: ...

    def fold_measurement(self, s_running: object, i: int) -> object: ...

    def finalize(self, s_final, l_act, collected, opening) -> int: ...


# Every computation scheme by its name, the type of the spec that chooses it.
BACKENDS = {backend.name: backend for backend in (MaskingBackend, PaillierBackend)}


def make_backend(scenario: Scenario) -> ComputationBackend:
    return BACKENDS[scenario.backend.type](scenario)


def run_round(
    scenario: Scenario, backend: ComputationBackend, net: SimNetwork
) -> RoundOutcome:
    """Execute one full round; failures are outcomes, never exceptions."""
    t = scenario.round
    n_min = scenario.n_min

    # Opening phase: every online meter reports once, then goes quiet.
    collected: dict[int, object] = {}
    for i in scenario.sending_list:
        if not scenario.online(i):
            continue
        payload = backend.initial_payload(i, t)
        status = net.send(i, DC, InitialData(t, i, payload))
        if status is DeliveryStatus.DELIVERED:
            collected[i] = payload

    remaining_at_init = tuple(i for i in scenario.sending_list if i in collected)
    l_act: list[int] = []
    aggregate = None
    if len(remaining_at_init) >= n_min:
        opening = s_running = backend.init_share()
        # The concentrator is the first holder: it has nothing to fold, and
        # its handoff cannot time out, since the first pick's concentrator
        # link already worked this round.
        holder = DC
        for k, j in enumerate(remaining_at_init):
            if len(remaining_at_init) - k + len(l_act) < n_min:
                break
            status = net.send(holder, j, Activation(s_running))
            if status is DeliveryStatus.DELIVERED:
                net.send_bundled_ack(j, holder, AckS())
                s_running = backend.fold_measurement(s_running, j)
                l_act.append(j)
                holder = j

        # The quorum check rides with the final message: below quorum the
        # share and the contributor list are both withheld. The loop ends
        # with no candidate left or too few to reach n_min, so the quorum
        # holds iff the contributors alone reach it.
        if len(l_act) < n_min:
            eor = EndOfRound(t, None, ())
        else:
            eor = EndOfRound(t, s_running, tuple(l_act))
        if net.send(holder, DC, eor) is not DeliveryStatus.DELIVERED:
            raise AssertionError("final message lost on a live link")
        if eor.share is not None:
            aggregate = backend.finalize(eor.share, eor.active, collected, opening)

    # Each meter reports once and is then handed the share (two records) or
    # skipped (one); the final message is one more record.
    cap = 3 * scenario.n_sm + 1
    if len(net.trace) > cap:
        raise AssertionError(f"{len(net.trace)} steps exceed the proven bound {cap}")
    return RoundOutcome(
        aggregate=aggregate,
        active=tuple(l_act),
        remaining_at_init=remaining_at_init,
        trace=tuple(net.trace),
    )


C1 = "C1"
C2 = "C2"
C3_1 = "C3_1"
C3_2 = "C3_2"


def chain_steps(outcome: RoundOutcome) -> Iterator[tuple[TraceRecord, Optional[str]]]:
    """Walk a terminated round's activation chain once, in trace order.

    Yields every handoff and final message as (record, case); the record's
    sender is the holder and its receiver the candidate. C2: a delivered
    meter-to-meter handoff. C3_2: a failed handoff whose sender then tried
    another meter. C3_1: a failed handoff that ended the round (the sender's
    next act was the final message). C1: a final message not forced by a
    failed handoff. The concentrator's opening handoff and a forced final
    message carry None. A failed handoff is yielded once its sender's next
    chain step arrives, which labels it.
    """
    failed = None
    for r in outcome.trace:
        kind = r.message.kind
        if kind != KIND_ACTIVATION and kind != KIND_END_OF_ROUND:
            continue
        forced = failed is not None
        if forced:
            if r.sender != failed.sender:
                raise MalformedTrace("failed handoff followed by a foreign step")
            yield failed, C3_2 if kind == KIND_ACTIVATION else C3_1
            failed = None
        if kind == KIND_END_OF_ROUND:
            if r.sender == DC:
                raise MalformedTrace("final message sent by the concentrator")
            yield r, None if forced else C1
        elif r.delivered:
            yield r, None if r.sender == DC else C2
        elif r.sender == DC:
            raise MalformedTrace("opening handoff must deliver")
        else:
            failed = r
    if failed is not None:
        raise MalformedTrace("failed handoff with no follow-up from its sender")


def classify_steps(outcome: RoundOutcome) -> list[str]:
    """The proof case of every labelled chain step, in trace order."""
    return [case for _, case in chain_steps(outcome) if case]


def proof_case_histogram(outcome: RoundOutcome) -> dict[str, int]:
    cases = [case for _, case in chain_steps(outcome)]
    return {case: cases.count(case) for case in (C1, C2, C3_1, C3_2)}
