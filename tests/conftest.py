"""Shared scenario builders for the test suite."""

from __future__ import annotations

import hashlib
import itertools
import json
import random

from ftagg.masking import MaskingBackend
from ftagg.model import (
    DC,
    FailureGraph,
    MaskingSpec,
    PaillierSpec,
    Scenario,
    full_mesh,
    party_name,
    validate_scenario,
)


def full_edges(n_sm: int) -> list[tuple[int, int]]:
    return list(itertools.combinations(range(n_sm + 1), 2))


def reference_digest(s: Scenario) -> str:
    """What `scenario_digest` must return, built here from the `Scenario`
    alone: sha256 of the compact, key-sorted JSON of the scenario file, whose
    edge arrays list each link once as [lower-index name, higher-index name],
    sorted as name pairs."""

    def links(adj):
        pairs = itertools.combinations(range(len(adj)), 2)
        return sorted([party_name(a), party_name(b)] for a, b in pairs if adj[a] >> b & 1)

    b = s.backend
    if isinstance(b, MaskingSpec):
        backend = {"type": "masking", "k_bits": b.k_bits}
    else:
        backend = {"type": "paillier", "key_bits": b.key_bits}
    d = {
        "edges": links(s.graph.edges),
        "working_edges": links(s.graph.working),
        "n_sm": s.n_sm,
        "sending_list": list(s.sending_list),
        "n_min": s.n_min,
        "round": s.round,
        "measurements": {str(i): m for i, m in s.measurements.items()},
        "backend": backend,
        "seed": s.seed,
    }
    if s.sm_online:
        d["sm_online"] = {str(i): v for i, v in s.sm_online.items()}
    if s.prf_keys is not None:
        d["prf_keys"] = {str(i): key.hex() for i, key in s.prf_keys.items()}
    canonical = json.dumps(d, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def make_scenario(
    n_sm,
    edges=None,
    working=None,
    off=(),
    n_min=2,
    measurements=None,
    backend=None,
    seed=42,
    order=None,
    online=None,
    round_index=0,
):
    """Build a validated scenario; `off` removes edges from a full working set."""
    edges = edges if edges is not None else full_edges(n_sm)
    if working is None:
        off_keys = {frozenset(e) for e in off}
        working = [e for e in edges if frozenset(e) not in off_keys]
    measurements = measurements or {i: 10 * i for i in range(1, n_sm + 1)}
    return validate_scenario(
        Scenario(
            n_sm=n_sm,
            graph=FailureGraph.build(n_sm, edges, working),
            sending_list=tuple(order or range(1, n_sm + 1)),
            n_min=n_min,
            round=round_index,
            measurements=measurements,
            backend=backend or MaskingSpec(),
            seed=seed,
            sm_online=online or {},
        )
    )


def masking_backend(n, k_bits, seed, t, measurements=None):
    """A backend over n meters, built without validation so that the sums may
    wrap the modulus; meters outside `measurements` measure 0."""
    measurements = measurements or {}
    return MaskingBackend(
        Scenario(
            n_sm=n,
            graph=full_mesh(n),
            sending_list=tuple(range(1, n + 1)),
            n_min=1,
            round=t,
            measurements={i: measurements.get(i, 0) for i in range(1, n + 1)},
            backend=MaskingSpec(k_bits=k_bits),
            seed=seed,
        )
    )


def golden_ring4() -> Scenario:
    """4-meter network where meters 2 and 4 cannot reach the concentrator and
    the 1-2 link is down; hand-walked contributors are [1, 3], sum 30."""
    edges = [
        (DC, 1), (DC, 2), (DC, 3), (DC, 4),
        (1, 2), (1, 3), (2, 3), (2, 4),
        (3, 4),
    ]
    working = [
        (DC, 1), (DC, 3),
        (1, 3), (2, 3), (2, 4), (3, 4),
    ]
    return make_scenario(
        4,
        edges=edges,
        working=working,
        measurements={1: 10, 2: 7, 3: 20, 4: 9},
        seed=42,
    )


def golden_ring5() -> Scenario:
    """5-meter full mesh with meter 2 cut off from the concentrator and the
    3-4 link down; hand-walked contributors are [1, 3, 5], sum 35."""
    return make_scenario(
        5,
        off=[(DC, 2), (3, 4)],
        measurements={1: 10, 2: 7, 3: 20, 4: 9, 5: 5},
        seed=7,
    )


def random_scenario(rng: random.Random, n_max=12, backend=None, key_bits=128):
    """Random valid scenario: random topology, working density, ring order.

    Paillier scenarios default to small keys to keep bulk suites fast.
    """
    n = rng.randint(1, n_max)
    edges = [e for e in full_edges(n) if rng.random() < 0.85]
    density = rng.uniform(0.2, 1.0)
    working = [e for e in edges if rng.random() < density]
    order = list(range(1, n + 1))
    rng.shuffle(order)
    if backend is None:
        backend = rng.choice([MaskingSpec(), PaillierSpec(key_bits=key_bits)])
    elif backend == "masking":
        backend = MaskingSpec()
    elif backend == "paillier":
        backend = PaillierSpec(key_bits=key_bits)
    online = {}
    if n > 1 and rng.random() < 0.3:
        online[rng.randint(1, n)] = False
    return validate_scenario(
        Scenario(
            n_sm=n,
            graph=FailureGraph.build(n, edges, working),
            sending_list=tuple(order),
            n_min=rng.randint(1, n),
            round=rng.randint(0, 1000),
            measurements={i: rng.randint(0, 1000) for i in range(1, n + 1)},
            backend=backend,
            seed=rng.getrandbits(64),
            sm_online=online,
        )
    )


def zero_failure_scenario(rng: random.Random, n_max=12, backend=None):
    """Full mesh, all links working, everyone online."""
    n = rng.randint(2, n_max)
    return make_scenario(
        n,
        n_min=rng.randint(1, n),
        measurements={i: rng.randint(0, 1000) for i in range(1, n + 1)},
        backend=backend or MaskingSpec(),
        seed=rng.getrandbits(64),
    )
