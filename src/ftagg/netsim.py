"""Deterministic message transport with static per-round link failures.

A send either delivers (1 tick) or times out (DELTA_T ticks, the cost of
waiting for an acknowledgment that never comes). Acknowledgment records for
delivered handoffs are traced separately at zero tick cost because the
delivering exchange already paid for the round trip.
"""

from __future__ import annotations

import enum
from typing import Mapping, Optional

from .model import (
    DC,
    FailureGraph,
    ScenarioError,
    TraceRecord,
    link_on,
    party_name,
)

DELTA_T = 5


class DeliveryStatus(enum.Enum):
    DELIVERED = "delivered"
    TIMED_OUT = "timed_out"


class SimNetwork:
    """Single-round transport over a frozen FailureGraph.

    The graph's working set never changes while the instance lives; an offline
    meter is modeled as every link touching it being treated as off.
    """

    def __init__(self, graph: FailureGraph, online: Optional[Mapping[int, bool]] = None):
        self.graph = graph
        self._online = dict(online or {})
        if not self._online.get(DC, True):
            raise ScenarioError("the concentrator cannot be offline")
        self.clock = 0
        self.trace: list[TraceRecord] = []

    @staticmethod
    def for_scenario(scenario) -> "SimNetwork":
        return SimNetwork(scenario.graph, online=scenario.sm_online)

    def is_online(self, p: int) -> bool:
        return self._online.get(p, True)

    def _link_works(self, a: int, b: int) -> bool:
        return link_on(self.graph, a, b) and self.is_online(a) and self.is_online(b)

    def send(self, sender: int, receiver: int, msg) -> DeliveryStatus:
        """Attempt a delivery; every attempt lands in the trace exactly once."""
        if sender == receiver:
            raise ScenarioError(f"{party_name(sender)} cannot send to itself")
        if self._link_works(sender, receiver):
            self.clock += 1
            self.trace.append(TraceRecord(self.clock, sender, receiver, msg, True))
            return DeliveryStatus.DELIVERED
        self.clock += DELTA_T
        self.trace.append(TraceRecord(self.clock, sender, receiver, msg, False))
        return DeliveryStatus.TIMED_OUT

    def send_bundled_ack(self, sender: int, receiver: int, msg) -> None:
        """Trace an acknowledgment for a handoff that just delivered.

        The link is known to be on (the triggering message got through and
        links are static), so this never times out and costs no extra ticks.
        """
        assert self._link_works(sender, receiver), "ack over a dead link"
        self.trace.append(TraceRecord(self.clock, sender, receiver, msg, True))
