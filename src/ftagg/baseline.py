"""The predecessor ring protocol, kept faithful enough to break.

Each activated meter masks with a per-round share plus a static per-meter
share, reports straight to the concentrator without retry, and forwards the
running share sum along the sending list. The concentrator cross-checks the
run with multiplicative hashes and only then unmasks. Three terminal states
come out of this: a clean aggregate, a walk that strands the share sum at a
meter with no usable forward link, and a hash mismatch the concentrator can
detect but not repair.
"""

from __future__ import annotations

import enum
import hashlib
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional, Sequence

from .model import (
    DC,
    KIND_ACK,
    KIND_MASKED_REPORT,
    KIND_SHARE_HANDOFF,
    MaskingSpec,
    ModulusTooSmall,
    Scenario,
    ScenarioError,
    TraceRecord,
)
from .netsim import DeliveryStatus, SimNetwork

# 256-bit prime with 2^64 dividing p - 1, paired with an element of exact
# multiplicative order 2^64. Both were found once by search and pinned; the
# test suite re-proves primality and the order facts.
HASH_PRIME = 0xB2604907F0978EEF97384D38052DC75B0A3562D6CFD51F8F0000000000000001
HASH_BASE = 0x19C01B3BCB4DEF52DC59FB07D27D85912D80B62309315781089197DF8F22FDCA
HASH_BASE_ORDER = 1 << 64

@dataclass(frozen=True)
class HashGroup:
    """Multiplicative group for H(x) = g^x mod p with g of exact order k.

    Using an order-k base makes the hash well defined on Z_k residues:
    H(a) * H(b) = H(a + b mod k) with no exponent-range caveat.
    """

    p: int
    g: int
    k: int

    @staticmethod
    def from_modulus(k: int) -> "HashGroup":
        if k < 2 or (k & (k - 1)) != 0 or k > HASH_BASE_ORDER:
            raise ScenarioError(f"hash group needs a power-of-two modulus up to 2^64, got {k}")
        return HashGroup(HASH_PRIME, pow(HASH_BASE, HASH_BASE_ORDER // k, HASH_PRIME), k)


def homomorphic_hash(x: int, group: HashGroup) -> int:
    return pow(group.g, x % group.k, group.p)


def _h64(data: bytes, key: bytes, person: bytes) -> int:
    return int.from_bytes(
        hashlib.blake2b(data, key=key, person=person, digest_size=8).digest(), "big"
    )


def _residue(seed: int, tag: bytes, parts: Iterable[int], k: int) -> int:
    data = b"".join(x.to_bytes(8, "big") for x in parts)
    return _h64(data, seed.to_bytes(8, "big"), tag) % k


def static_share(seed: int, i: int, k: int) -> int:
    """Per-meter share fixed for the meter's lifetime; pre-shared with the
    concentrator and reused every round, which is exactly its weakness."""
    return _residue(seed, b"blstatic", (i,), k)


def baseline_round_share(seed: int, i: int, t: int, k: int) -> int:
    return _residue(seed, b"blround", (i, t), k)


def dc_round_share(seed: int, t: int, k: int) -> int:
    return _residue(seed, b"bldcrnd", (t,), k)


@dataclass(frozen=True)
class BaselineParams:
    k: int
    static_shares: Mapping[int, int]
    hash_group: HashGroup

    def __post_init__(self):
        if self.hash_group.k != self.k:
            raise AssertionError("hash group order must equal the modulus")
        for i, s in self.static_shares.items():
            if not 0 <= s < self.k:
                raise AssertionError(f"static share for meter {i} out of range")


def derive_baseline_params(scenario: Scenario) -> BaselineParams:
    # An encrypting scenario's sum is bounded only by its key size.
    k = scenario.backend.k if isinstance(scenario.backend, MaskingSpec) else 1 << 64
    total = sum(scenario.measurements.values())
    if total >= k:
        raise ModulusTooSmall(
            f"sum of measurements {total} must stay below the baseline modulus {k}"
        )
    shares = {
        i: static_share(scenario.seed, i, k) for i in range(1, scenario.n_sm + 1)
    }
    return BaselineParams(k=k, static_shares=shares, hash_group=HashGroup.from_modulus(k))


@dataclass(frozen=True)
class ShareHandoff:
    """Running share sum passed to the next party in the sending list."""

    round: int
    share: int
    kind = KIND_SHARE_HANDOFF


@dataclass(frozen=True)
class MaskedReport:
    """Fire-and-forget report to the concentrator: the masked measurement
    plus hashes of the raw measurement and the round share."""

    round: int
    sm: int
    masked: int
    h_measurement: int
    h_share: int
    kind = KIND_MASKED_REPORT


@dataclass(frozen=True)
class Ack:
    kind = KIND_ACK


class BaselineStatus(enum.Enum):
    COMPLETED = "completed"
    STUCK = "stuck"
    DETECTED_INCONSISTENCY = "detected_inconsistency"


@dataclass(frozen=True)
class BaselineResult:
    status: BaselineStatus
    aggregate: Optional[int]
    active: tuple[int, ...]
    trace: tuple[TraceRecord, ...]
    reason: str = ""
    share_check: Optional[bool] = None
    report_checks: Mapping[int, bool] = field(default_factory=dict)


def run_baseline_round(scenario: Scenario) -> BaselineResult:
    """Walk the sending list once and let whatever happens happen.

    There is no quorum and no up-front reachability filter: the share sum
    must physically travel the list and return to the concentrator, or the
    round simply never finishes (reported here as STUCK once the walk runs
    out of list). The walk's list position only rises, so a round sends at
    most 3n+2 records.
    """
    params = derive_baseline_params(scenario)
    net = SimNetwork.for_scenario(scenario)
    k = params.k
    group = params.hash_group
    t = scenario.round
    order = scenario.sending_list
    n = len(order)

    round_shares = {i: baseline_round_share(scenario.seed, i, t, k) for i in order}
    s_0 = dc_round_share(scenario.seed, t, k)

    active: list[int] = []
    reports: dict[int, MaskedReport] = {}

    def result(status, aggregate=None, reason="", share_check=None, report_checks=None):
        return BaselineResult(
            status=status,
            aggregate=aggregate,
            active=tuple(active),
            trace=tuple(net.trace),
            reason=reason,
            share_check=share_check,
            report_checks=dict(report_checks or {}),
        )

    # The concentrator hunts for a first responsive meter down the list.
    pos = None
    for idx, i in enumerate(order):
        if net.send(DC, i, ShareHandoff(t, s_0)) is DeliveryStatus.DELIVERED:
            if net.send(i, DC, Ack()) is not DeliveryStatus.DELIVERED:
                raise AssertionError("ack lost on a live link")
            pos = idx
            break
    if pos is None:
        return result(BaselineStatus.STUCK, reason="no meter answered the opening share")

    s_running = s_0
    s_final = None
    while s_final is None:
        i = order[pos]
        active.append(i)
        masked = (scenario.measurements[i] + round_shares[i] + params.static_shares[i]) % k
        report = MaskedReport(
            t,
            i,
            masked,
            homomorphic_hash(scenario.measurements[i], group),
            homomorphic_hash(round_shares[i], group),
        )
        # No retry and no ack for the report: if the concentrator link is
        # down the report is silently gone.
        if net.send(i, DC, report) is DeliveryStatus.DELIVERED:
            reports[i] = report

        s_running = (s_running + round_shares[i]) % k
        handoff = ShareHandoff(t, s_running)

        # Forward search: positions after mine, then the concentrator. Past
        # that the list is exhausted and nobody holds an instruction for me.
        found = None
        for nxt in range(pos + 1, n + 1):
            target = DC if nxt == n else order[nxt]
            if net.send(i, target, handoff) is DeliveryStatus.DELIVERED:
                if net.send(target, i, Ack()) is not DeliveryStatus.DELIVERED:
                    raise AssertionError("ack lost on a live link")
                found = nxt
                break
        if found is None:
            return result(
                BaselineStatus.STUCK,
                reason=f"SM{i} holds the share sum but ran out of parties to hand it to",
            )
        if found == n:
            s_final = s_running
        else:
            pos = found

    # Aggregation at the concentrator, gated by the two hash checks.
    share_product = homomorphic_hash(s_0, group)
    for r in reports.values():
        share_product = (share_product * r.h_share) % group.p
    share_check = homomorphic_hash(s_final, group) == share_product

    report_checks = {
        i: homomorphic_hash(r.masked, group)
        == (r.h_measurement * r.h_share * homomorphic_hash(params.static_shares[i], group))
        % group.p
        for i, r in sorted(reports.items())
    }

    if not share_check or not all(report_checks.values()):
        return result(
            BaselineStatus.DETECTED_INCONSISTENCY,
            reason="hash checks failed: a reporting gap left the share sum unexplained",
            share_check=share_check,
            report_checks=report_checks,
        )

    aggregate = (
        sum(r.masked for r in reports.values())
        - (s_final - s_0)
        - sum(params.static_shares[i] for i in reports)
    ) % k
    return result(
        BaselineStatus.COMPLETED,
        aggregate=aggregate,
        share_check=share_check,
        report_checks=report_checks,
    )


def eavesdropper_view(trace: Sequence[TraceRecord], i: int, k: int) -> int:
    """What a passive listener parked next to meter i learns in one round:
    masked report minus the share delta, which collapses to m + static."""
    s_in = next(
        (
            r.message.share
            for r in trace
            if r.message.kind == KIND_SHARE_HANDOFF and r.receiver == i and r.delivered
        ),
        None,
    )
    s_out = next(
        (
            r.message.share
            for r in trace
            if r.message.kind == KIND_SHARE_HANDOFF and r.sender == i
        ),
        None,
    )
    report = next(
        (
            r.message.masked
            for r in trace
            if r.message.kind == KIND_MASKED_REPORT and r.sender == i
        ),
        None,
    )
    if s_in is None or s_out is None or report is None:
        raise ScenarioError(f"meter {i} was not activated in this trace")
    return (report - (s_out - s_in)) % k


def eavesdropper_delta(
    trace_a: Sequence[TraceRecord],
    trace_b: Sequence[TraceRecord],
    i: int,
    k: int,
) -> int:
    """Difference of two rounds' views of meter i; the static share cancels
    and the raw measurement delta falls out."""
    return (eavesdropper_view(trace_a, i, k) - eavesdropper_view(trace_b, i, k)) % k
