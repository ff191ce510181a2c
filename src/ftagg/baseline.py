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


def hash_base(k: int) -> int:
    """The base g of H(x) = g^x mod HASH_PRIME for masking modulus k: an
    element of exact order k, so that H is well defined on Z_k residues and
    H(a) * H(b) = H(a + b mod k) with no exponent-range caveat."""
    if k < 2 or (k & (k - 1)) != 0 or k > HASH_BASE_ORDER:
        raise ScenarioError(f"hash group needs a power-of-two modulus up to 2^64, got {k}")
    return pow(HASH_BASE, HASH_BASE_ORDER // k, HASH_PRIME)


def homomorphic_hash(x: int, g: int) -> int:
    return pow(g, x, HASH_PRIME)


def _residue(seed: int, tag: bytes, parts: Iterable[int], k: int) -> int:
    data = b"".join(x.to_bytes(8, "big") for x in parts)
    digest = hashlib.blake2b(data, key=seed.to_bytes(8, "big"), person=tag, digest_size=8)
    return int.from_bytes(digest.digest(), "big") % k


def static_share(seed: int, i: int, k: int) -> int:
    """Per-meter share fixed for the meter's lifetime; pre-shared with the
    concentrator and reused every round, which is exactly its weakness."""
    return _residue(seed, b"blstatic", (i,), k)


def baseline_round_share(seed: int, i: int, t: int, k: int) -> int:
    return _residue(seed, b"blround", (i, t), k)


def dc_round_share(seed: int, t: int, k: int) -> int:
    return _residue(seed, b"bldcrnd", (t,), k)


def baseline_modulus(scenario: Scenario) -> int:
    """The masking modulus k. An encrypting scenario's sum is bounded only by
    its key size, so the baseline masks it modulo 2^64."""
    k = scenario.backend.k if isinstance(scenario.backend, MaskingSpec) else 1 << 64
    total = sum(scenario.measurements.values())
    if total >= k:
        raise ScenarioError(
            f"sum of measurements {total} must stay below the baseline modulus {k}"
        )
    return k


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
    out of list). The concentrator is the first holder; a meter holder
    reports, folds its round share and hands the sum on. The walk's list
    position only rises, so a round sends at most 3n+2 records.
    """
    k = baseline_modulus(scenario)
    g = hash_base(k)
    net = SimNetwork.for_scenario(scenario)
    seed, t, order = scenario.seed, scenario.round, scenario.sending_list
    n = len(order)
    static = {i: static_share(seed, i, k) for i in order}
    s_0 = s_running = dc_round_share(seed, t, k)

    active: list[int] = []
    reports: dict[int, MaskedReport] = {}
    holder, pos = DC, -1
    while pos < n:
        if holder != DC:
            active.append(holder)
            m = scenario.measurements[holder]
            share = baseline_round_share(seed, holder, t, k)
            hashes = homomorphic_hash(m, g), homomorphic_hash(share, g)
            report = MaskedReport(t, holder, (m + share + static[holder]) % k, *hashes)
            # No retry and no ack for the report: if the concentrator link
            # is down the report is silently gone.
            if net.send(holder, DC, report) is DeliveryStatus.DELIVERED:
                reports[holder] = report
            s_running = (s_running + share) % k

        # Forward search: the list positions after the holder's, then, for a
        # meter, the concentrator at position n. Past that nobody holds an
        # instruction for the holder.
        handoff = ShareHandoff(t, s_running)
        for pos in range(pos + 1, n + (holder != DC)):
            target = order[pos] if pos < n else DC
            if net.send(holder, target, handoff) is DeliveryStatus.DELIVERED:
                if net.send(target, holder, Ack()) is not DeliveryStatus.DELIVERED:
                    raise AssertionError("ack lost on a live link")
                break
        else:
            if holder == DC:
                reason = "no meter answered the opening share"
            else:
                reason = f"SM{holder} holds the share sum but ran out of parties to hand it to"
            return BaselineResult(
                BaselineStatus.STUCK, None, tuple(active), tuple(net.trace), reason
            )
        holder = target

    # Aggregation at the concentrator, gated by the two hash checks.
    share_product = homomorphic_hash(s_0, g)
    for r in reports.values():
        share_product = (share_product * r.h_share) % HASH_PRIME
    share_check = homomorphic_hash(s_running, g) == share_product

    report_checks = {
        i: homomorphic_hash(r.masked, g)
        == (r.h_measurement * r.h_share * homomorphic_hash(static[i], g)) % HASH_PRIME
        for i, r in sorted(reports.items())
    }

    if not share_check or not all(report_checks.values()):
        return BaselineResult(
            BaselineStatus.DETECTED_INCONSISTENCY,
            None,
            tuple(active),
            tuple(net.trace),
            "hash checks failed: a reporting gap left the share sum unexplained",
            share_check,
            report_checks,
        )

    aggregate = (
        sum(r.masked for r in reports.values())
        - (s_running - s_0)
        - sum(static[i] for i in reports)
    ) % k
    return BaselineResult(
        BaselineStatus.COMPLETED,
        aggregate,
        tuple(active),
        tuple(net.trace),
        share_check=share_check,
        report_checks=report_checks,
    )


def eavesdropper_view(trace: Sequence[TraceRecord], i: int, k: int) -> int:
    """What a passive listener parked next to meter i learns in one round:
    masked report minus the share delta, which collapses to m + static."""
    s_in = s_out = report = None
    for r in reversed(trace):  # backwards, so the first record of each kind wins
        msg = r.message
        if msg.kind == KIND_SHARE_HANDOFF:
            if r.receiver == i and r.delivered:
                s_in = msg.share
            if r.sender == i:
                s_out = msg.share
        elif msg.kind == KIND_MASKED_REPORT and r.sender == i:
            report = msg.masked
    if s_in is None or s_out is None or report is None:
        raise ScenarioError(f"meter {i} was not activated in this trace")
    return (report - (s_out - s_in)) % k


def eavesdropper_delta(
    trace_a: Sequence[TraceRecord], trace_b: Sequence[TraceRecord], i: int, k: int
) -> int:
    """Difference of two rounds' views of meter i; the static share cancels
    and the raw measurement delta falls out."""
    return (eavesdropper_view(trace_a, i, k) - eavesdropper_view(trace_b, i, k)) % k
