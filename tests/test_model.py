import itertools
import random
from dataclasses import replace

import pytest
from conftest import full_edges, golden_ring4, golden_ring5, make_scenario, random_scenario
from ftagg.model import (
    DC,
    FailureGraph,
    MaskingSpec,
    Scenario,
    ScenarioError,
    check_key_bits,
    full_mesh,
    graph_from_names,
    link_on,
    party_name,
    scenario_digest,
    scenario_from_json,
    scenario_to_json,
    validate_scenario,
)
from ftagg.model import _name_order
from hypothesis import given, settings
from hypothesis import strategies as st


def test_party_names_roundtrip():
    names = _name_order(13)[-1]
    assert names["DC"] == DC
    assert names["SM7"] == 7
    assert party_name(12) == "SM12"
    assert party_name(DC) == "DC"
    assert all(party_name(p) == name for name, p in names.items())


@pytest.mark.parametrize("bad", ["dc", "sm1", "SM0", "SM01", "SM", "DC1", "meter3", "", "SM4"])
def test_bad_party_names_rejected(bad):
    with pytest.raises(ScenarioError, match=f"edges names {bad!r}, not one of DC, SM1..SM3"):
        graph_from_names(3, [[bad, "SM1"]], [])


def test_edge_key_is_orientation_free():
    forward = FailureGraph.build(3, [(DC, 3), (1, 2)], [(DC, 3)])
    backward = FailureGraph.build(3, [(3, DC), (2, 1)], [(3, DC)])
    assert forward == backward


@pytest.mark.parametrize("n_sm", [1, 4, 9])
def test_full_mesh_links_every_pair(n_sm):
    edges = full_edges(n_sm)
    assert full_mesh(n_sm) == FailureGraph.build(n_sm, edges, edges)


def test_self_loop_rejected():
    # The builder keeps the loop as the party's own bit; validation names it.
    looped = replace(make_scenario(2), graph=FailureGraph.build(2, [(1, 1)], []))
    with pytest.raises(ScenarioError, match="self-loop at SM1"):
        validate_scenario(looped)


@settings(max_examples=60, derandomize=True)
@given(
    seed=st.integers(min_value=0, max_value=2**32),
    backend=st.sampled_from(["masking", "paillier"]),
    n=st.integers(min_value=1, max_value=20),
)
def test_every_graph_stores_each_link_once(seed, backend, n):
    # Generated scenarios, their file round trip, full meshes and graphs
    # built from pairs in either orientation, repeats included: no row holds
    # a bit at or below its own party, and link_on reads a link from either end.
    rng = random.Random(seed)
    s = random_scenario(rng, backend=backend)
    pairs = [tuple(rng.sample(range(n + 1), 2)) for _ in range(rng.randrange(3 * n))]
    graphs = [
        s.graph,
        scenario_from_json(scenario_to_json(s)).graph,
        full_mesh(n),
        FailureGraph.build(n, pairs, pairs[::2]),
    ]
    for g in graphs:
        for v, (links, on) in enumerate(zip(g.edges, g.working)):
            assert (links | on) & ((2 << v) - 1) == 0
        for a, b in itertools.combinations_with_replacement(range(len(g.edges)), 2):
            assert link_on(g, a, b) == link_on(g, b, a)


def _mesh3_with(edges, working) -> Scenario:
    return Scenario(
        n_sm=3,
        graph=FailureGraph(tuple(edges), tuple(working)),
        sending_list=(1, 2, 3),
        n_min=1,
        round=0,
        measurements={1: 1, 2: 2, 3: 3},
        backend=MaskingSpec(),
        seed=1,
    )


@pytest.mark.parametrize("v, u", [(1, 2), (2, 1), (DC, 3), (3, DC)])
@pytest.mark.parametrize("array", ["edges", "working_edges"])
def test_one_way_link_rejected(array, v, u):
    # A link lives in the row of its lower party, so a one-way link of the
    # two-row form can only appear as a bit below the row's own party. The
    # higher party's row gets the bit for the lower one; for v > u the lower
    # party's row also loses the link (it moved), for v < u it keeps it (it
    # is stored twice). In the topology the link is also taken out of the
    # working set, so only the misplaced bit is wrong.
    lo, hi = sorted((v, u))
    edges, working = list(full_mesh(3).edges), list(full_mesh(3).working)
    if array == "edges":
        edges[hi] |= 1 << lo
        working[lo] &= ~(1 << hi)
        if v > u:
            edges[lo] &= ~(1 << hi)
    else:
        working[hi] |= 1 << lo
        if v > u:
            working[lo] &= ~(1 << hi)
    link = rf"\({party_name(lo)},{party_name(hi)}\)"
    pattern = rf"{array} holds the link {link} in the row of {party_name(hi)}, not of its lower"
    with pytest.raises(ScenarioError, match=pattern):
        validate_scenario(_mesh3_with(edges, working))


@pytest.mark.parametrize("v", [DC, 1, 3])
def test_self_loop_bit_rejected(v):
    # scenario_to_json writes no self-loop, so two scenarios differing only
    # in this bit would share one digest.
    edges, working = list(full_mesh(3).edges), list(full_mesh(3).working)
    edges[v] |= 1 << v
    with pytest.raises(ScenarioError, match=f"self-loop at {party_name(v)}"):
        validate_scenario(_mesh3_with(edges, working))


@pytest.mark.parametrize("v", [DC, 3])
def test_link_to_a_party_past_the_last_meter_rejected(v):
    edges, working = list(full_mesh(3).edges), list(full_mesh(3).working)
    edges[v] |= 1 << 4
    pattern = f"a link of {party_name(v)} references an unknown party"
    with pytest.raises(ScenarioError, match=pattern):
        validate_scenario(_mesh3_with(edges, working))


def test_no_meter_rejected():
    one = make_scenario(1, n_min=1)
    empty = replace(one, n_sm=0, graph=full_mesh(0), sending_list=(), measurements={})
    with pytest.raises(ScenarioError, match="need at least one meter, got n_sm=0"):
        validate_scenario(empty)


def test_link_on_golden_ring4():
    g = golden_ring4().graph
    assert link_on(g, 1, DC) is True
    assert link_on(g, 2, DC) is False
    # Symmetry over every pair of parties.
    for a, b in full_edges(4):
        assert link_on(g, a, b) == link_on(g, b, a)


def test_link_on_unknown_party():
    g = golden_ring4().graph
    with pytest.raises(ScenarioError, match=r"link \(9,0\) references a party outside 0..4"):
        link_on(g, 9, DC)


def test_duplicate_meter_in_list():
    with pytest.raises(ScenarioError, match="meter 2 appears twice in the sending list"):
        make_scenario(3, order=[1, 2, 2])


def test_incomplete_sending_list():
    with pytest.raises(ScenarioError, match=r"sending list omits meters \[3\]"):
        make_scenario(3, order=[1, 2])


def test_unknown_meter_in_list():
    with pytest.raises(ScenarioError, match="sending list names unknown meter 9"):
        make_scenario(3, order=[1, 2, 9])


def test_working_edge_outside_topology():
    edges = [(DC, 1), (DC, 2)]
    working = [(DC, 1), (1, 2)]
    with pytest.raises(ScenarioError, match=r"working edge \(SM1,SM2\) not in topology"):
        make_scenario(2, edges=edges, working=working)


def test_modulus_too_small():
    with pytest.raises(ScenarioError, match="sum of measurements 18 must stay below the modulus 16"):
        make_scenario(
            3,
            measurements={1: 6, 2: 6, 3: 6},
            backend=MaskingSpec(k_bits=4),
        )


@pytest.mark.parametrize("n_min", [0, 4, -1])
def test_quorum_out_of_range(n_min):
    with pytest.raises(ScenarioError, match=f"n_min={n_min} outside 1..3"):
        make_scenario(3, n_min=n_min)


def test_missing_measurement():
    with pytest.raises(ScenarioError, match="no measurement for meter 3"):
        make_scenario(3, measurements={1: 1, 2: 2})


def test_negative_measurement():
    with pytest.raises(ScenarioError, match="measurement of meter 3 is negative"):
        make_scenario(3, measurements={1: 1, 2: 2, 3: -5})


def test_measurement_for_unknown_meter():
    with pytest.raises(ScenarioError, match="measurement for unknown meter 3"):
        make_scenario(2, measurements={1: 1, 2: 2, 3: 3})


def test_online_flag_for_unknown_meter():
    with pytest.raises(ScenarioError, match="online flag for unknown meter 5"):
        make_scenario(2, online={5: False})


def test_seed_must_fit_64_bits():
    with pytest.raises(ScenarioError):
        make_scenario(2, seed=1 << 64)


def test_round_must_fit_64_bits():
    make_scenario(2, round_index=(1 << 64) - 1)
    for bad in (-1, 1 << 64):
        with pytest.raises(ScenarioError, match="round"):
            make_scenario(2, round_index=bad)


def test_key_size_bounds():
    make_scenario(2, backend=MaskingSpec(k_bits=128))
    for bad in (0, 129, 256):
        with pytest.raises(ScenarioError, match="k_bits"):
            make_scenario(2, backend=MaskingSpec(k_bits=bad))
    check_key_bits(64)
    check_key_bits(4096)
    for bad in (62, 65, 4098, 8192):
        with pytest.raises(ScenarioError, match="key_bits"):
            check_key_bits(bad)


def test_validation_is_idempotent():
    s = golden_ring4()
    assert validate_scenario(s) is s
    assert validate_scenario(validate_scenario(s)) is s


def test_scenario_json_roundtrip_goldens():
    for s in (golden_ring4(), golden_ring5()):
        again = scenario_from_json(scenario_to_json(s))
        assert again == s
        assert scenario_digest(again) == scenario_digest(s)


def test_scenario_json_roundtrip_random():
    rng = random.Random(2024)
    for _ in range(50):
        s = random_scenario(rng, n_max=8)
        assert scenario_from_json(scenario_to_json(s)) == s


def test_digest_tracks_content():
    s = golden_ring4()
    changed = Scenario(
        n_sm=s.n_sm,
        graph=s.graph,
        sending_list=s.sending_list,
        n_min=s.n_min,
        round=s.round,
        measurements={**s.measurements, 1: 11},
        backend=s.backend,
        seed=s.seed,
        sm_online=s.sm_online,
    )
    assert scenario_digest(changed) != scenario_digest(s)


def test_pinned_keys_roundtrip_and_validation():
    s = make_scenario(2)
    pinned = Scenario(
        n_sm=s.n_sm,
        graph=s.graph,
        sending_list=s.sending_list,
        n_min=s.n_min,
        round=s.round,
        measurements=s.measurements,
        backend=s.backend,
        seed=s.seed,
        prf_keys={1: bytes(range(16)), 2: bytes(16)},
    )
    validate_scenario(pinned)
    assert scenario_from_json(scenario_to_json(pinned)) == pinned
    short = Scenario(
        n_sm=pinned.n_sm,
        graph=pinned.graph,
        sending_list=pinned.sending_list,
        n_min=pinned.n_min,
        round=pinned.round,
        measurements=pinned.measurements,
        backend=pinned.backend,
        seed=pinned.seed,
        prf_keys={1: b"short"},
    )
    with pytest.raises(ScenarioError):
        validate_scenario(short)
    with pytest.raises(ScenarioError, match="pinned key for unknown meter 3"):
        validate_scenario(replace(pinned, prf_keys={1: bytes(16), 3: bytes(16)}))


def test_graph_must_cover_every_party():
    s = make_scenario(3)
    shrunk = Scenario(
        n_sm=3,
        graph=FailureGraph.build(2, full_edges(2), full_edges(2)),
        sending_list=(1, 2, 3),
        n_min=1,
        round=0,
        measurements={1: 1, 2: 2, 3: 3},
        backend=s.backend,
        seed=1,
    )
    with pytest.raises(ScenarioError, match="graph must contain DC and every meter"):
        validate_scenario(shrunk)
