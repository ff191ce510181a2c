"""Mutation fuzz of the shipped scenario files through `ftagg run` and
`ftagg baseline`, and of the shipped game configs through `ftagg game`.

Each example applies a few random edits to a file's JSON and runs the CLI in
process. Half the edits nudge a value within its type (an int by at most 3,
kept >= 0; a bool flipped; a party name swapped for another), so that many
examples still reach a round; the others replace a value, delete or add a key
or item, duplicate an item, add a key that spells an existing one
differently, or add a misspelt key to the file or its backend. Every
scenario must either exit 2 with an error or exit 0 with the aggregate the
reference walker predicts, and a scenario that runs must keep every meter
key, value and link the file gave it. Every game config must exit 0 or 2,
never with a traceback. A file with a key that no scenario, backend or game
config knows must exit 2. Every mutated scenario, written with n_sm before,
between or after the link arrays, parses value by value to what `load_json`
gives for the whole text: the same scenario or the same error, both with no
topology kept and again with the `edges` that first read kept.

Run as a script, each fuzz test draws ten times its Tier-1 examples:

    PYTHONPATH=src python tests/test_scenario_fuzz.py
"""

import contextlib
import io
import json
import tempfile
import time
from pathlib import Path

import pytest
from conftest import assert_parsed_alike
from ftagg.cli import EXIT_INVALID, EXIT_OK, main
from ftagg.game import MAX_GAME_N_SM, MAX_GAME_WORK
from ftagg.model import party_name, scenario_from_json, scenario_to_json, validate_scenario
from ftagg.walker import predict_aggregate
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
SHIPPED = sorted(p.stem for p in SCENARIOS.glob("*.json") if not p.stem.startswith("game_"))
GAMES = sorted(p.stem for p in SCENARIOS.glob("game_*.json"))

# Small ints keep a mutated key_bits or n_sm cheap; the named values sit at
# the bounds the parser and validator check.
ints = st.integers(min_value=-2, max_value=300) | st.sampled_from(
    [2**63 - 1, 2**63, 2**64 - 1, 2**64, -(2**64), 10**30]
)
texts = st.sampled_from(
    ["DC", "SM1", "SM2", "SM4", "SM9", "1", "01", " 1", "+1", "1_0", "١", "", "masking",
     "paillier", "00" * 16, "k_bits", "key_bits", "sm_online", "prf_keys"]
) | st.text(max_size=3)


def values_of(ints, texts):
    return st.recursive(
        st.none() | st.booleans() | ints | st.floats(allow_nan=False) | texts,
        lambda inner: st.lists(inner, max_size=3) | st.dictionaries(texts, inner, max_size=3),
        max_leaves=6,
    )


json_values = values_of(ints, texts)

# A game's run time grows with trials x n_sm, so its ints stay small apart
# from the bounds the game checks. Only masking families are named: a
# Paillier trial costs about 5 ms, and the shipped configs ask for 200.
game_ints = st.integers(min_value=-1, max_value=6) | st.sampled_from(
    [0, -1, MAX_GAME_N_SM + 1, MAX_GAME_WORK + 1]
)
game_texts = st.sampled_from(
    ["family", "strategy", "trials", "seed", "n_sm", "masking-breach",
     "masking-colluding-meters", "masking-concentrator", "no-such-family", "coin-flip",
     "sum-only", "transcript-hash", "masking-attack", "he-attack", ""]
) | st.text(max_size=3)
game_values = values_of(game_ints, game_texts)


# The keys each object may hold; a backend's depend on its type.
SCENARIO_KEYS = {"n_sm", "edges", "working_edges", "sending_list", "n_min", "round",
                 "measurements", "backend", "seed", "sm_online", "prf_keys"}
BACKEND_KEYS = {"masking": {"type", "k_bits"}, "paillier": {"type", "key_bits"}}
GAME_KEYS = {"family", "strategy", "trials", "seed", "n_sm"}
misspelt = st.sampled_from(["sm_onlne", "kbits", "keybits", "trails", "Seed", "n_sm "])


def has_unknown_key(doc: dict, known: set) -> bool:
    """True iff doc, or a backend object of a known type in it, holds a key
    outside its known set."""
    backend = doc.get("backend")
    if isinstance(backend, dict) and backend.get("type") in BACKEND_KEYS:
        if not backend.keys() <= BACKEND_KEYS[backend["type"]]:
            return True
    return not doc.keys() <= known


def aliases(key: str) -> list[str]:
    """Other spellings that int() reads as the same number."""
    arabic = key.translate(str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩"))
    return [f"0{key}", f" {key}", f"{key} ", f"+{key}", arabic]


@st.composite
def location(draw, doc):
    """One value of doc as (its container, its key): each level picks a key
    uniformly, so the short fields are as likely as the long edge arrays."""
    node = doc
    while True:
        key = draw(st.sampled_from(list(node) if isinstance(node, dict) else range(len(node))))
        child = node[key]
        if not isinstance(child, (dict, list)) or not child or draw(st.booleans()):
            return node, key
        node = child


@st.composite
def nudged(draw, value, doc):
    """value moved within its type: an int by at most 3 and kept >= 0, a bool
    flipped, a party name swapped for another of the file; else unchanged."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return max(0, value + draw(st.integers(min_value=-3, max_value=3)))
    n_sm = doc.get("n_sm")
    # An earlier edit may have made n_sm anything; a huge one gets no name table.
    if isinstance(value, str) and type(n_sm) is int and 1 <= n_sm <= 1000:
        names = [party_name(p) for p in range(n_sm + 1)]
        if value in names:
            return draw(st.sampled_from([x for x in names if x != value]))
    return value


@st.composite
def mutated(draw, names=SHIPPED, values=json_values, texts=texts):
    name = draw(st.sampled_from(names))
    doc = json.loads((SCENARIOS / f"{name}.json").read_text())
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        if not doc:
            break
        parent, key = draw(location(doc))
        if draw(st.booleans()):
            parent[key] = draw(nudged(parent[key], doc))
            continue
        op = draw(st.sampled_from(["replace", "delete", "add", "duplicate", "alias", "misspell"]))
        if op == "replace":
            parent[key] = draw(values)
        elif op == "delete":
            del parent[key]
        elif op == "add" and isinstance(parent, dict):
            parent[draw(texts)] = draw(values)
        elif op == "add":
            parent.insert(key, draw(values))
        elif op == "duplicate" and isinstance(parent, list):
            parent.insert(key, json.loads(json.dumps(parent[key])))
        elif op == "alias" and isinstance(parent, dict):
            parent[draw(st.sampled_from(aliases(key)))] = draw(st.just(parent[key]) | values)
        elif op == "misspell":
            backend = doc.get("backend")
            target = draw(st.sampled_from([doc, backend] if isinstance(backend, dict) else [doc]))
            target[draw(misspelt)] = draw(values)
    return name, doc


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "scenario.json"


def run_cli(path, command, name, text):
    """The parsed report of one in-process CLI call, or None on an exit 2,
    which must come with an error line."""
    path.write_text(text)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, str(path)])
    assert code in (EXIT_OK, EXIT_INVALID), (name, text, err.getvalue())
    if code == EXIT_INVALID:
        assert err.getvalue().startswith("error: ")
        return None
    return json.loads(out.getvalue())


@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(case=mutated())
def test_mutated_scenarios_run_right_or_exit_two(scratch, case):
    name, doc = case
    text = json.dumps(doc)
    report = run_cli(scratch, "run", name, text)
    if report is None:
        return
    assert not has_unknown_key(doc, SCENARIO_KEYS), text
    s = validate_scenario(scenario_from_json(text))
    assert report["aggregate"] == predict_aggregate(s), (name, text)
    # Nothing the file says was dropped or merged while parsing.
    again = json.loads(scenario_to_json(s))
    for field in ("n_sm", "sending_list", "n_min", "round", "seed", "measurements"):
        assert again[field] == doc[field], (field, text)
    assert again.get("sm_online", {}) == doc.get("sm_online", {}), text
    if "prf_keys" in doc:
        pinned = {k: bytes.fromhex(v) for k, v in doc["prf_keys"].items()}
        assert {str(i): key for i, key in s.prf_keys.items()} == pinned, text
    for field in ("edges", "working_edges"):
        assert {frozenset(e) for e in again[field]} == {frozenset(e) for e in doc[field]}, text


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(case=mutated())
def test_mutated_scenarios_baseline_right_or_exit_two(scratch, case):
    name, doc = case
    text = json.dumps(doc)
    report = run_cli(scratch, "baseline", name, text)
    if report is not None:
        assert not has_unknown_key(doc, SCENARIO_KEYS), text
        s = validate_scenario(scenario_from_json(text))
        assert report["protocol"]["aggregate"] == predict_aggregate(s), (name, text)


def layouts(doc):
    """doc as JSON text with its keys in file order, with n_sm first, or
    reversed, so that n_sm stands before, between or after the link arrays."""
    first = {"n_sm": doc["n_sm"]} if "n_sm" in doc else {}
    orders = [doc, first | doc, dict(reversed(doc.items()))]
    return st.sampled_from(orders).flatmap(
        lambda d: st.sampled_from([json.dumps(d), json.dumps(d, indent=1)])
    )


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(text=mutated().flatmap(lambda case: layouts(case[1])))
def test_mutated_scenarios_parse_alike_value_by_value(text):
    assert_parsed_alike(text)


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(case=mutated(GAMES, game_values, game_texts))
def test_mutated_game_configs_exit_zero_or_two(scratch, case):
    name, doc = case
    text = json.dumps(doc)
    if run_cli(scratch, "game", name, text) is not None:
        assert not has_unknown_key(doc, GAME_KEYS), text


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scenario.json"
        games = mutated(GAMES, game_values, game_texts)
        for test, cases, examples in [
            (test_mutated_scenarios_run_right_or_exit_two, mutated(), 3000),
            (test_mutated_scenarios_baseline_right_or_exit_two, mutated(), 1500),
            (test_mutated_game_configs_exit_zero_or_two, games, 1500),
            (test_mutated_scenarios_parse_alike_value_by_value, None, 1500),
        ]:
            t0 = time.perf_counter()
            inner = test.hypothesis.inner_test
            wide = settings(max_examples=examples, deadline=None, database=None,
                            suppress_health_check=[HealthCheck.too_slow])
            if cases is None:
                given(text=mutated().flatmap(lambda case: layouts(case[1])))(wide(inner))()
            else:
                given(case=cases)(wide(lambda case: inner(path, case)))()
            print(f"{test.__name__}: {examples} examples, {time.perf_counter() - t0:.1f}s")
