"""Oracles for the scenario file format: the digest against a canonical dict
built in the tests from the `Scenario` alone, `graph_from_names` against
`FailureGraph.build`, the exact error of each malformed edge entry, and the
value-by-value parse of large texts against `load_json`'s whole-text parse:
the same scenario or error on every shipped file and crafted text (each
link array cut into slices at every "],"), in at most 0.2 times the memory
on a 300-meter mesh, and in memory linear in n_sm before any link is read;
and the digest of that mesh in less memory than its canonical text.

Graphs go up to 150 meters so that names sort as SM1 < SM10 < SM100 < SM11,
which is not index order.
"""

import itertools
import json
import random
import tracemalloc
from pathlib import Path

import pytest
from conftest import NO_EDGES_KEPT, assert_parsed_alike, parsed_or_error, reference_digest
from ftagg import model
from ftagg.model import (
    FailureGraph,
    MaskingSpec,
    PaillierSpec,
    Scenario,
    ScenarioError,
    full_mesh,
    graph_from_names,
    load_json,
    party_name,
    scenario_digest,
    scenario_from_dict,
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


SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

BASE = {
    "n_sm": 3,
    "edges": [["DC", "SM1"], ["DC", "SM2"], ["SM3", "DC"], ["SM1", "SM2"], ["SM2", "SM3"]],
    "working_edges": [["DC", "SM1"], ["SM1", "SM2"], ["SM3", "SM2"]],
    "sending_list": [1, 2, 3],
    "n_min": 2,
    "round": 0,
    "measurements": {"1": 5, "2": 8, "3": 13},
    "backend": {"type": "masking", "k_bits": 64},
    "seed": 11,
}
# Where n_sm stands among the two link arrays: before both (as perfbench's
# meshes have it), between them (the canonical order), and after both.
ORDERS = {
    "n_sm-first": ["n_sm", "edges", "working_edges"],
    "canonical": sorted(BASE),
    "arrays-first": ["edges", "working_edges", "n_sm"],
}


def text_of(order="n_sm-first", **changes):
    doc = {key: BASE[key] for key in ORDERS[order]} | BASE | changes
    return json.dumps({key: value for key, value in doc.items() if value is not None})


def spaced(text: str) -> str:
    """text with whitespace of every kind JSON allows around every token."""
    doc = json.loads(text)
    return " \r\n\t" + json.dumps(doc, indent="\t ", separators=(" \r,\n", " \t:\r ")) + "\n "


@pytest.mark.parametrize("order", ORDERS)
def test_regular_texts_are_read_value_by_value(order):
    for text in (text_of(order), spaced(text_of(order))):
        d = model._load_by_value(text)
        assert list(d) == list(load_json(text))
        assert isinstance(d["edges"], model._Rows) and isinstance(d["working_edges"], model._Rows)


@pytest.mark.parametrize("path", sorted(SCENARIOS.glob("*.json")), ids=lambda p: p.stem)
def test_shipped_files_parse_alike_value_by_value(path):
    text = path.read_text()
    assert_parsed_alike(text)
    if not path.stem.startswith("game_"):
        assert isinstance(model._load_by_value(text)["edges"], model._Rows)


def test_no_name_table_for_an_n_sm_no_valid_text_could_have():
    # A valid scenario spends at least 8 characters per meter, so beyond
    # len(text) // 8 the arrays stay as read and only scenario_from_dict,
    # after its checks against the sending list, builds a table.
    for n_sm, converted in ((1000, True), (1001, False)):
        text = text_of(n_sm=n_sm)
        text = text[:-1] + " " * (8000 - len(text)) + "}"
        d = model._load_by_value(text)
        assert isinstance(d["edges"], model._Rows) is converted
        assert isinstance(d["working_edges"], model._Rows) is converted
        assert_parsed_alike(text)


def ones_text(n_sm: int) -> str:
    """A compact text of n_sm meters, about 2 characters each: its sending
    list repeats meter 1 and its link arrays are empty."""
    doc = {
        "n_sm": n_sm, "edges": [], "working_edges": [], "sending_list": [1] * n_sm,
        "n_min": 1, "round": 0, "measurements": {},
        "backend": {"type": "masking", "k_bits": 64}, "seed": 0,
    }
    return json.dumps(doc, separators=(",", ":"))


@pytest.mark.parametrize("n_sm, by_value", [(30_000, False), (60_000, True)])
def test_name_table_is_linear_in_n_sm(n_sm, by_value):
    # n_sm equals the sending list's length, so scenario_from_dict sizes the
    # rows and the name table before any validation; the value-by-value loop
    # leaves the arrays as read, as n_sm is above an eighth of the text.
    # Both must stay linear in n_sm.
    text = ones_text(n_sm)
    assert (len(text) >= model._BY_VALUE_FROM_CHARS) is by_value
    model._name_order.cache_clear()
    tracemalloc.start()
    try:
        s = scenario_from_json(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        model._name_order.cache_clear()
    assert peak <= 256 * len(text)
    with pytest.raises(ScenarioError) as info:
        validate_scenario(s)
    assert str(info.value) == "meter 1 appears twice in the sending list"


def compact(text: str) -> str:
    """text without whitespace between its tokens, so that each link array
    is followed by "]," where it is not the last value."""
    return json.dumps(json.loads(text), separators=(",", ":"))


def duplicated(text: str, key: str, value: str) -> str:
    """text with `"key": value` added again at the top level."""
    return text[:-1] + f', "{key}": {value}}}'


CRAFTED = {
    **{f"order-{order}": text_of(order) for order in ORDERS},
    **{f"spaced-{order}": spaced(text_of(order)) for order in ORDERS},
    "n_sm-missing": text_of(n_sm=None),
    "n_sm-missing-arrays-first": text_of("arrays-first", n_sm=None),
    "n_sm-true": text_of(n_sm=True),
    "n_sm-false-canonical": text_of("canonical", n_sm=False),
    "n_sm-zero": text_of(n_sm=0),
    "n_sm-negative": text_of("arrays-first", n_sm=-3),
    "n_sm-float": text_of(n_sm=3.0),
    "n_sm-string": text_of("canonical", n_sm="3"),
    "n_sm-below-names": text_of(n_sm=2),
    "n_sm-above-sending-list": text_of(n_sm=4),
    "n_sm-above-an-eighth-of-the-text": text_of(n_sm=50),
    "n_sm-huge": text_of(n_sm=10**6),
    "n_sm-huge-arrays-first": text_of("arrays-first", n_sm=10**30),
    "n_sm-last-of-all": json.dumps({k: v for k, v in BASE.items() if k != "n_sm"} | {"n_sm": 3}),
    "duplicate-seed": duplicated(text_of(), "seed", "12"),
    "duplicate-n_sm": duplicated(text_of("arrays-first"), "n_sm", "3"),
    "duplicate-edges": duplicated(text_of(), "edges", "[]"),
    "duplicate-working-edges-canonical": duplicated(text_of("canonical"), "working_edges", "[]"),
    "duplicate-in-measurements": text_of().replace('"1": 5', '"1": 5, "1": 6'),
    "duplicate-in-backend": text_of().replace('"k_bits": 64', '"k_bits": 64, "k_bits": 8'),
    "duplicate-in-an-edge-entry": text_of(edges=[["DC", "SM1"]]).replace(
        '["DC", "SM1"]', '{"DC": 1, "DC": 2}'
    ),
    "duplicate-nested-after-duplicate-top": duplicated(
        text_of().replace('"1": 5', '"1": 5, "1": 6'), "seed", "1"
    ),
    "trailing-word": text_of() + " x",
    "trailing-object": text_of() + "{}",
    "trailing-comma": text_of() + ",",
    "trailing-space": text_of() + " \n",
    "comma-before-close": text_of()[:-1] + ",}",
    "missing-colon": text_of().replace('"n_sm": 3', '"n_sm" 33'),
    "semicolon-for-colon": text_of("arrays-first").replace('"n_sm": 3', '"n_sm";3'),
    "semicolon-separator": text_of().replace('"n_sm": 3,', '"n_sm": 3;'),
    "number-key": text_of().replace('"n_sm": 3', "3: 3"),
    "unterminated": text_of()[:-1],
    "unterminated-in-array": text_of()[: text_of().index("working_edges") + 30],
    "bom": "\ufeff" + text_of(),
    "array-top-level": json.dumps([BASE]),
    "string-top-level": json.dumps(text_of()),
    "number-top-level": "3",
    "null-top-level": "null",
    "empty-object": "{}",
    "empty-text": "",
    "only-space": " \n ",
    "open-brace": "{",
    "deep-nesting": text_of()[:-1] + ', "x": ' + "[" * 100_000 + "]" * 100_000 + "}",
    "long-int": text_of()[:-1] + ', "seed": 1' + "0" * 5000 + "}",
    "nan-seed": text_of().replace('"seed": 11', '"seed": NaN'),
    "unknown-key": text_of(sm_onlne={}),
    "self-loop": text_of(working_edges=[["SM2", "SM2"]]),
    "empty-arrays": text_of(edges=[], working_edges=[]),
    "numbers-as-names": text_of(edges=[[0, 1]]),
    "unknown-name-in-edges": text_of(edges=[["DC", "SM9"]]),
    "unknown-name-in-working-edges": text_of("canonical", working_edges=[["SM1", "SM4"]]),
    "unknown-name-in-both": text_of(edges=[["SM7", "DC"]], working_edges=[["SM8", "DC"]]),
    "short-pair-in-edges": text_of("arrays-first", edges=[["DC"]]),
    "long-pair-in-working-edges": text_of(working_edges=[["DC", "SM1", "SM2"]]),
    "object-entry-in-edges": text_of(edges=[{"DC": 0, "SM1": 1}]),
    "string-entry-in-working-edges": text_of("canonical", working_edges=["DC"]),
    "bad-entries-in-both": text_of(edges=[["DC", "SM9"]], working_edges=[5]),
    "edges-not-an-array": text_of(edges=5),
    "working-edges-an-object": text_of("arrays-first", working_edges={"DC": "SM1"}),
    "unknown-name-and-bad-sending-list": text_of(edges=[["DC", "SM9"]], sending_list=[1, 2]),
    "ones-30000-meters": ones_text(30_000),
    "ones-60000-meters": ones_text(60_000),
    # With every "]," a cut (see `assert_parsed_alike`), cuts that fall
    # where no slice ends: inside a name, inside a nested entry, at the
    # array's own "]" and after "] ,"; a slice that decodes but is no run of
    # pairs; and a text or array that ends after a whole entry.
    **{f"compact-{order}": compact(text_of(order)) for order in ORDERS},
    "cut-inside-a-name": text_of(edges=[["DC", "SM1"], ["DC", "S],M1"], ["SM1", "SM2"]]),
    "cut-inside-a-name-in-working-edges": text_of(
        "canonical", working_edges=[["DC", "SM1"], ["S],M1", "SM2"]]
    ),
    "cut-inside-a-nested-entry": text_of(edges=[["DC", "SM1"], ["DC", ["SM1"], "SM2"]]),
    "cut-inside-a-nested-entry-in-working-edges": text_of(
        "canonical", working_edges=[["DC", ["SM1"], "SM2"], ["SM1", "SM2"]]
    ),
    "space-before-every-comma": text_of().replace("], [", "] , ["),
    "space-before-comma-after-edges": text_of().replace(']], "working', ']] , "working'),
    "unknown-name-in-a-later-slice": text_of(edges=BASE["edges"] + [["DC", "SM9"]]),
    "unknown-name-in-a-later-slice-of-working-edges": text_of(
        "canonical", working_edges=BASE["working_edges"] + [["SM4", "DC"]]
    ),
    "number-entry-in-a-later-slice": text_of(edges=BASE["edges"] + [5]),
    "string-entry-in-a-later-slice": text_of(working_edges=BASE["working_edges"] + ["DC"]),
    "long-pair-in-a-later-slice": text_of(edges=BASE["edges"] + [["DC", "SM1", "SM2"]]),
    "trailing-comma-in-edges": text_of().replace('"SM3"]], "working', '"SM3"],], "working'),
    "spaced-trailing-comma-in-working-edges": text_of().replace(
        '"SM2"]], "sending', '"SM2"], ], "sending'
    ),
    "spaced-empty-array": text_of(edges=[]).replace('"edges": []', '"edges": [ \n]'),
    "text-ends-after-an-entry": text_of("canonical")[:-2],
}


@pytest.mark.parametrize("text", CRAFTED.values(), ids=CRAFTED.keys())
def test_crafted_texts_parse_alike_value_by_value(text):
    assert_parsed_alike(text)


def test_value_by_value_parse_holds_one_link_array():
    n = 300
    links = [list(pair) for pair in itertools.combinations(map(party_name, range(n + 1)), 2)]
    text = text_of(
        n_sm=n,
        edges=links,
        working_edges=links,
        sending_list=list(range(1, n + 1)),
        measurements={str(i): i for i in range(1, n + 1)},
    )
    assert len(text) >= model._BY_VALUE_FROM_CHARS

    def peak(parse):
        # With the collector paused, as scenario_from_json runs, neither
        # side spends its time walking the test session's heap.
        with model._gc_paused():
            tracemalloc.start()
            try:
                parse(text)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

    assert peak(scenario_from_json) <= 0.6 * peak(lambda t: scenario_from_dict(load_json(t)))


def traced_peak(call, *args):
    """The tracemalloc peak of call(*args), with the collector paused as
    scenario_from_json runs, and what it returned."""
    with model._gc_paused():
        tracemalloc.start()
        try:
            result = call(*args)
            return tracemalloc.get_traced_memory()[1], result
        finally:
            tracemalloc.stop()


def test_link_arrays_are_read_and_hashed_a_slice_at_a_time():
    # The 300-meter full mesh above: each link array is decoded a slice of
    # about 2^16 characters at a time, and the digest hashes its text a row
    # at a time, from a cold kept state.
    n = 300
    links = [list(pair) for pair in itertools.combinations(map(party_name, range(n + 1)), 2)]
    text = text_of(
        n_sm=n,
        edges=links,
        working_edges=links,
        sending_list=list(range(1, n + 1)),
        measurements={str(i): i for i in range(1, n + 1)},
    )
    whole_peak, expected = traced_peak(lambda t: scenario_from_dict(load_json(t)), text)
    sliced_peak, s = traced_peak(scenario_from_json, text)
    assert s == expected
    assert sliced_peak <= 0.2 * whole_peak
    model._hash_through_edges.cache_clear()
    digest_peak, digest = traced_peak(scenario_digest, s)
    assert digest == reference_digest(s)
    assert digest_peak < len(scenario_to_json(s))


def mesh_round(n: int, t: int, order: str = "n_sm-first", **changes) -> str:
    """The text of round t of one full-mesh deployment over DC and n meters:
    the same `edges` every round, about a tenth of the links off, and new
    measurements."""
    rng = random.Random(t)
    links = [list(pair) for pair in itertools.combinations(map(party_name, range(n + 1)), 2)]
    doc = {
        "n_sm": n,
        "edges": links,
        "working_edges": [link for link in links if rng.random() >= 0.1],
        "sending_list": list(range(1, n + 1)),
        "n_min": n // 2,
        "round": t,
        "measurements": {str(i): rng.randrange(1000) for i in range(1, n + 1)},
    }
    return text_of(order, **(doc | changes))


def whole(text: str):
    return parsed_or_error(lambda t: scenario_from_dict(load_json(t)), text)


@pytest.fixture
def first_round(monkeypatch):
    """Reads round 1 of a 100-meter deployment in n_sm-first order from no
    kept topology, and returns what it kept; the entry is dropped after the
    test."""
    monkeypatch.setattr(model, "_last_edges", NO_EDGES_KEPT)
    text = mesh_round(100, 1)
    assert scenario_from_json(text) == whole(text)
    kept = model._last_edges
    assert kept[0] == json.dumps(json.loads(text)["edges"])
    return kept


@pytest.mark.parametrize("order", ORDERS)
def test_a_later_round_takes_its_rows_from_the_kept_edges(first_round, order):
    text = mesh_round(100, 2, order)
    assert len(text) >= model._BY_VALUE_FROM_CHARS
    s = scenario_from_json(text)
    assert model._last_edges is first_round  # a hit keeps the entry as it is
    assert s == whole(text)
    assert s.graph.working != whole(mesh_round(100, 1)).graph.working
    assert type(s.graph.edges) is tuple


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("n_sm", [99, 101])
def test_the_kept_edges_under_another_n_sm(first_round, n_sm, order):
    # At 101 meters the same array gives 102 rows, so it is decoded again;
    # at 99 it names SM100, outside the parties, and both reads refuse it.
    meters = range(1, n_sm + 1)
    text = mesh_round(
        100, 2, order,
        n_sm=n_sm, sending_list=list(meters), measurements={str(i): i for i in meters},
    )
    expected = whole(text)
    assert parsed_or_error(scenario_from_json, text) == expected
    if n_sm == 101:
        assert isinstance(expected, Scenario)
        assert model._last_edges[1] == first_round[1] + (0,)
    else:
        assert expected == (ScenarioError, "edges names 'SM100', not one of DC, SM1..SM99")
        assert model._last_edges is first_round


def test_the_kept_edges_beside_an_n_sm_no_valid_text_could_have(first_round):
    # Above len(text) // 8 the loop leaves the arrays as read, so the kept
    # text is decoded again; its 101 rows would not be the whole read's.
    n_sm = 40_000
    text = mesh_round(100, 2, n_sm=n_sm, sending_list=[1] * n_sm)
    assert n_sm > len(text) // 8
    assert scenario_from_json(text) == whole(text)
    assert model._last_edges is first_round


def test_the_kept_edges_plus_one_link_miss(monkeypatch):
    monkeypatch.setattr(model, "_last_edges", NO_EDGES_KEPT)
    links = json.loads(mesh_round(100, 1))["edges"]
    scenario_from_json(mesh_round(100, 1, edges=links[:-1], working_edges=[]))
    kept = model._last_edges
    text = mesh_round(100, 2)
    assert text.startswith(kept[0][:-1], text.index("[["))
    assert scenario_from_json(text) == whole(text)
    assert model._last_edges is not kept
    assert model._last_edges[0] == json.dumps(links)


@pytest.mark.parametrize(
    "changes",
    [
        {"seed": "11"},
        {"n_min": True},
        {"n_sm": None},
        {"n_sm": 0},
        {"sending_list": [1, 2]},
        {"measurements": {"01": 5}},
        {"working_edges": [["DC", "SM101"]]},
        {"backend": {"type": "masking", "k_bit": 64}},
        {"prf_keys": {"1": "zz"}},
        {"sm_onlne": {}},
    ],
    ids=repr,
)
@pytest.mark.parametrize("order", ORDERS)
def test_an_invalid_field_beside_the_kept_edges(first_round, order, changes):
    text = mesh_round(100, 2, order, **changes)
    error = whole(text)
    assert type(error) is tuple and error[0] is ScenarioError
    assert parsed_or_error(scenario_from_json, text) == error
    assert model._last_edges is first_round


@pytest.mark.parametrize("tail", [" x", ', "seed": 12}', "]"])
def test_a_malformed_text_around_the_kept_edges(first_round, tail):
    text = mesh_round(100, 2)[:-1] + tail
    error = whole(text)
    assert type(error) is tuple and error[0] in (ScenarioError, json.JSONDecodeError)
    assert parsed_or_error(scenario_from_json, text) == error
