"""Oracles for the scenario file format: the digest against a canonical dict
built in the tests from the `Scenario` alone, `graph_from_names` against
`FailureGraph.build`, and the exact error of each malformed edge entry.

Graphs go up to 150 meters so that names sort as SM1 < SM10 < SM100 < SM11,
which is not index order.
"""

import itertools
import json
import random

import pytest
from conftest import reference_digest
from ftagg.model import (
    FailureGraph,
    MaskingSpec,
    PaillierSpec,
    Scenario,
    ScenarioError,
    full_mesh,
    graph_from_names,
    party_name,
    scenario_digest,
    scenario_from_json,
    scenario_to_json,
    validate_scenario,
)
from hypothesis import given, settings
from hypothesis import strategies as st


@st.composite
def scenarios(draw):
    n = draw(st.integers(min_value=1, max_value=150))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    density, working_density = draw(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)))
    edges = [e for e in itertools.combinations(range(n + 1), 2) if rng.random() < density]
    working = [e for e in edges if rng.random() < working_density]
    order = list(range(1, n + 1))
    rng.shuffle(order)
    if draw(st.booleans()):
        backend = MaskingSpec(k_bits=draw(st.integers(min_value=1, max_value=128)))
        top = (1 << backend.k_bits) - 1
    else:
        backend = PaillierSpec(key_bits=2 * draw(st.integers(min_value=32, max_value=2048)))
        top = (1 << (backend.key_bits - 1)) - 1
    measurements = {i: 0 for i in range(1, n + 1)}
    measurements[rng.randint(1, n)] = draw(st.integers(min_value=0, max_value=top))
    online = {i: draw(st.booleans()) for i in rng.sample(order, draw(st.integers(0, min(n, 5))))}
    prf_keys = None
    if draw(st.booleans()):
        prf_keys = {i: rng.randbytes(16) for i in rng.sample(order, rng.randint(0, n))}
    return validate_scenario(
        Scenario(
            n_sm=n,
            graph=FailureGraph.build(n, edges, working),
            sending_list=tuple(order),
            n_min=draw(st.integers(min_value=1, max_value=n)),
            round=draw(st.integers(min_value=0, max_value=(1 << 64) - 1)),
            measurements=measurements,
            backend=backend,
            seed=draw(st.integers(min_value=0, max_value=(1 << 64) - 1)),
            sm_online=online,
            prf_keys=prf_keys,
        )
    )


@settings(max_examples=60, deadline=None)
@given(scenarios())
def test_digest_equals_reference(s):
    assert scenario_digest(s) == reference_digest(s)


def test_digest_equals_reference_on_full_meshes():
    for n in (1, 9, 10, 11, 99, 100, 101, 150):
        g = full_mesh(n)
        s = validate_scenario(
            Scenario(
                n_sm=n,
                graph=g,
                sending_list=tuple(range(1, n + 1)),
                n_min=1,
                round=0,
                measurements={i: i for i in range(1, n + 1)},
                backend=MaskingSpec(),
                seed=3,
            )
        )
        assert scenario_digest(s) == reference_digest(s)


def test_edge_arrays_follow_name_order():
    s = Scenario(
        n_sm=100,
        graph=full_mesh(100),
        sending_list=tuple(range(1, 101)),
        n_min=1,
        round=0,
        measurements={i: 0 for i in range(1, 101)},
        backend=MaskingSpec(),
        seed=0,
    )
    edges = json.loads(scenario_to_json(s))["edges"]
    assert edges[:4] == [["DC", "SM1"], ["DC", "SM10"], ["DC", "SM100"], ["DC", "SM11"]]
    # Each pair is [lower index, higher index], so SM10's row starts at SM11.
    assert ["SM10", "SM11"] in edges and ["SM11", "SM10"] not in edges
    assert edges.index(["SM1", "SM10"]) + 1 == edges.index(["SM1", "SM100"])
    assert len(edges) == 101 * 100 // 2


@st.composite
def name_pairs(draw):
    n = draw(st.integers(min_value=1, max_value=150))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    count = draw(st.integers(min_value=0, max_value=3 * n))
    pairs = [tuple(rng.sample(range(n + 1), 2)) for _ in range(count)]
    # Repeats and both orientations of one link are legal in a file.
    pairs += [(b, a) for a, b in pairs[: draw(st.integers(min_value=0, max_value=count))]]
    working = [p for p in pairs if rng.random() < 0.5]
    return n, pairs, working


@settings(max_examples=60, deadline=None)
@given(name_pairs())
def test_graph_from_names_equals_build(case):
    n, pairs, working = case
    named = [[party_name(a), party_name(b)] for a, b in pairs]
    named_working = [(party_name(a), party_name(b)) for a, b in working]
    assert graph_from_names(n, named, named_working) == FailureGraph.build(n, pairs, working)


ARRAY = "{} must be an array of [name, name] pairs"
ENTRIES = "{} entries must be arrays of two party names"


@pytest.mark.parametrize("field", ["edges", "working_edges"])
@pytest.mark.parametrize(
    "entry, kind, message",
    [
        ({"DC": 0, "SM1": 1}, ScenarioError, ARRAY),
        (["DC", "SM1", "SM2"], ScenarioError, ENTRIES),
        ("ab", ScenarioError, ARRAY),
        (["DC", ["SM1"]], ScenarioError, ENTRIES),
        (["DC", "SM9"], ScenarioError, "{} names 'SM9', not one of DC, SM1..SM3"),
    ],
)
def test_malformed_edge_entry_error(field, entry, kind, message):
    good = [["DC", "SM1"], ["SM1", "SM2"]]
    raw = {"edges": list(good), "working_edges": list(good)}
    raw[field].insert(1, entry)
    with pytest.raises(kind) as info:
        graph_from_names(3, raw["edges"], raw["working_edges"])
    assert type(info.value) is kind
    assert str(info.value) == message.format(field)


@pytest.mark.parametrize("field", ["edges", "working_edges"])
def test_self_loop_entry_error(field):
    # graph_from_names keeps the loop as its party's own bit; validation
    # names it before it would read as a working edge outside the topology.
    good = [["DC", "SM1"], ["DC", "SM2"], ["DC", "SM3"], ["SM1", "SM2"]]
    raw = {
        "n_sm": 3, "sending_list": [1, 2, 3], "n_min": 1, "round": 0, "seed": 0,
        "measurements": {"1": 1, "2": 2, "3": 3}, "backend": {"type": "masking", "k_bits": 16},
        "edges": list(good), "working_edges": list(good),
    }
    raw[field].insert(1, ["SM2", "SM2"])
    with pytest.raises(ScenarioError) as info:
        validate_scenario(scenario_from_json(json.dumps(raw)))
    assert type(info.value) is ScenarioError
    assert str(info.value) == "self-loop at SM2"


@pytest.mark.parametrize("raw", [5, "DC-SM1", None, {"DC": "SM1"}])
def test_edges_must_be_an_array(raw):
    with pytest.raises(ScenarioError) as info:
        graph_from_names(3, raw, [])
    assert type(info.value) is ScenarioError
    assert str(info.value) == ARRAY.format("edges")
