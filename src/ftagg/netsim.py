"""Deterministic message transport with static per-round link failures.

A send either delivers (1 tick) or times out (DELTA_T ticks, the cost of
waiting for an acknowledgment that never comes). Acknowledgment records for
delivered handoffs are traced separately at zero tick cost because the
delivering exchange already paid for the round trip.
"""

from __future__ import annotations

import enum
from typing import Mapping, Optional

from .model import DC, FailureGraph, ScenarioError, TraceRecord, link_on, party_name

DELTA_T = 5


class DeliveryStatus(enum.Enum):
    DELIVERED = "delivered"
    TIMED_OUT = "timed_out"


class SimNetwork:
    """Single-round transport over a frozen FailureGraph.

    An offline meter is folded into the working rows when the network is
    built: its own row is 0 and its bit is cleared in every other row, so
    every link touching it is off for the whole round.
    """

    def __init__(self, graph: FailureGraph, online: Optional[Mapping[int, bool]] = None):
        online = online or {}
        n = len(graph.working)
        for p in online:
            if not 0 <= p < n:
                raise ScenarioError(f"online names party {p}, outside 0..{n - 1}")
        if not online.get(DC, True):
            raise ScenarioError("the concentrator cannot be offline")
        offline = sum(1 << p for p, up in online.items() if not up)
        # tuple() of a list, not of a generator, whose growing and shrinking
        # result left about 1 MB more peak RSS over a corpus-mixed run.
        working = tuple([
            0 if offline >> p & 1 else row & ~offline for p, row in enumerate(graph.working)
        ])
        self._graph = FailureGraph(graph.edges, working)
        self.clock = 0
        self.trace: list[TraceRecord] = []

    @staticmethod
    def for_scenario(scenario) -> "SimNetwork":
        return SimNetwork(scenario.graph, online=scenario.sm_online)

    def send(self, sender: int, receiver: int, msg) -> DeliveryStatus:
        """Attempt a delivery; every attempt lands in the trace exactly once."""
        if sender == receiver:
            raise ScenarioError(f"{party_name(sender)} cannot send to itself")
        if link_on(self._graph, sender, receiver):
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
        if not link_on(self._graph, sender, receiver):
            raise AssertionError("ack over a dead link")
        self.trace.append(TraceRecord(self.clock, sender, receiver, msg, True))
