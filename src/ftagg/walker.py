"""Independent reachability oracle for one aggregation round.

Predicts which meters end up contributing, using nothing but the scenario:
the responders are the online meters whose concentrator link works, and the
contributors are the greedy walk over the responders in ring order, skipping
hops whose inter-meter link is off. The protocol engine never imports this
module; tests compare the two implementations against each other.
"""

from __future__ import annotations

from typing import Optional

from .model import DC, Scenario, link_on


def responders(scenario: Scenario) -> list[int]:
    """Meters whose opening message reaches the concentrator, in ring order."""
    out = []
    for i in scenario.sending_list:
        if scenario.online(i) and link_on(scenario.graph, i, DC):
            out.append(i)
    return out


def reachable_active(scenario: Scenario) -> list[int]:
    """Greedy walk over the responders; empty when too few respond at all."""
    resp = responders(scenario)
    if len(resp) < scenario.n_min:
        return []
    walk = [resp[0]]
    cur = resp[0]
    for j in resp[1:]:
        if link_on(scenario.graph, cur, j):
            walk.append(j)
            cur = j
    return walk


def predict_aggregate(scenario: Scenario) -> Optional[int]:
    """Plain sum over the predicted contributors, or None below the quorum.

    Scenario validation bounds the total below the masking modulus, so the
    plain sum equals the protocol's modular result whenever both exist.
    """
    walk = reachable_active(scenario)
    if len(walk) < scenario.n_min:
        return None
    return sum(scenario.measurements[i] for i in walk)
