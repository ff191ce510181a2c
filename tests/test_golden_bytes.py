"""Byte-level pins on everything the CLI writes for the shipped scenario files.

Each value is the sha256 hex of the exact bytes: the scenario digest of every
scenario file, the `ftagg run` and `ftagg baseline` reports on stdout and the
trace JSONL each writes, the `ftagg game` report, and the adversary view JSON
(`view_to_json`, which the `transcript-hash` strategy hashes) of the first
trials of every game family. Any change to the model, the round, the trace
serializer or the game layer that alters an output byte fails here.
"""

import hashlib
import random
from pathlib import Path

import pytest
from ftagg.cli import EXIT_OK, main
from ftagg.game import FAMILIES, run_trial, view_to_json
from ftagg.model import scenario_digest, scenario_from_json

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

SCENARIO_DIGESTS = {
    "dc_gap3": "3cf1cead3ca3b96238ff85d180e4bd98f8d496ea398db543f5e8277ac9e5564b",
    "fullmesh6": "a7b7bea8c0e76251ecac7e37fdd65b8cd2229d4371a0c19becf636f0e5e72a1b",
    "low_turnout2": "4406b7ce1239a104b3ae3e99bcbf627371de894d4a8cbbb14951a5932e7f4fa0",
    "paillier_mesh4": "0b0f793f73a05cdb009d3679f585e6176945eee129b01307c0ae1f4abe5151eb",
    "ring4": "d5e280669637833915df641bcd7579cd726d46035112635e111b735c1b60203f",
    "ring5": "c1fdc76477f0f016cf74b461d5dfa833987785dcb73e4a87ba79b3bc23a493c0",
}

RUN_BYTES = {
    "ring4": (
        "f6a01a55e15581c26177a306addc22dd7904cae1071a499938ed2a0421439c7c",
        "a80da75d96ef207980aeb36f680efb75aaed67fe4cd82e3076dd22e17b348d0a",
    ),
    "ring5": (
        "d5531f8122b68fd0a2bd60768cce187616f0dfa54e28308bb9cde8bfb32a9de8",
        "37df1429e203ede20e5bc1248f7e249d1e7fc9dd9c832b72127adeb2d60c6069",
    ),
    "dc_gap3": (
        "032b6babd9d62793d6297b79a611216fd9602f1b77eda3a15d4e2623a7c0dbaa",
        "243647e3189d17b67c7522c951cc97261be7ede00b80bc5006b5d1602b17e8f1",
    ),
    "fullmesh6": (
        "0b09a396ea337c1aada75a0d3916988e352aad8232c1768d4336b6436a65e500",
        "ca07233bfa53d90ca96cf64108856482f70c23120b02449a1fcb1d07a9c79de8",
    ),
    "paillier_mesh4": (
        "3da485580ee8b90d378c89774387f5ccc52d7d32cae1243efb5251745c98abce",
        "66409afa5b05daa7899e536ed447ce9c5a3659283f99845d3c62f97b168dd702",
    ),
    "low_turnout2": (
        "de0ef2ec657e2b63996ce8adf9bb73e93d191fb16b584327df6005f145561fc3",
        "0ffa939c5965fb2f8de1d74e00b2451ee84ad064d048b3161dad9d456ecbfd0f",
    ),
}

BASELINE_BYTES = {
    "dc_gap3": (
        "4742b9827087274d075b63e2d9e51e198958b524411606a8eca8f3681a978a80",
        "618fdf09032ea6b5cb2581da1121a5ddc2c77f43513a48a694d67d0d4d3c1020",
    ),
    "fullmesh6": (
        "aa2ff177402fb85f4f883fd6f8f5b13471ba37512802ac5d8b36c7b673740c36",
        "94bac8fc2a0a3bd4c3db25c81c8fe13594e33dab9a161cd59b8601561e08fadc",
    ),
    "low_turnout2": (
        "92fdd41f377ffb8f79795c23abc4b0fb2af2fa94b22710b28d67e41fd4672d73",
        "baf6d797728a6878b309770381111da9a99867ddb2641a1996fdd800e0c7b54b",
    ),
    "paillier_mesh4": (
        "f5d237ae1a7dc6a8bfc3fcc6cb51432ba44b8cb985d404d7eb3633593498e3c8",
        "7e943ed2fc8b9f7399af17ff3ccd490612a750e2b44b1e636e1f171fdb0ad15b",
    ),
    "ring4": (
        "6e44f0c369aa1cb888e3dfc1bd4ed28d571f455aad68a0e03bfde0aa1940c100",
        "f3fa3dd0adcee669233cec7bc7e77fcba2daee60ad7cc134dcbcf61b0dcde545",
    ),
    "ring5": (
        "4080c8d6e207ad1595c2e2a94bfef17f5841ca36723f8a02246deecbf0760fb1",
        "d094be1b21d04468fa34a08a14e22924641df6683948e2e246fce55025ac5dd3",
    ),
}

GAME_BYTES = {
    "game_breach": "657e348c0b2dcfc47c449f0d19f607915daca88168e364fb431bc0912393ae1b",
    "game_coinflip": "798b7f0d5135b81739a8f5c87e301b23581df08a0800869bbdeaccb550277ac9",
}

# sha256 over the view JSON of trials 0..2 (seed 7), one line each. At n_sm=12
# the measurement list has keys "10".."12", which sort before "2" as strings.
VIEW_TRIALS = 3
VIEW_BYTES = {
    ("he-breach", 5): "928c02210b13291a5609aa3170bf76cdbbd51380f4250e4af13046bb401b0be7",
    ("he-breach", 12): "319a03c6d41e6d962c2cf749edf294e49ee6b5bcbb9bd6cb7a50c2d89b3e1c14",
    ("he-colluding-meters", 5): "62dfef70759f3ef1024299a762c458d7ac71d0fb66db7c9c4551bada1e53f546",
    ("he-colluding-meters", 12): "6e14c8dcc8db64881dad21ecccd771b2c23d3e14a44e7aa961e3224c8152c451",
    ("he-concentrator", 5): "8bbf806827b345a01fcda2aa6fa4c5f6a6dc0fcb3de85a54dd89735b7064ce32",
    ("he-concentrator", 12): "fb0c206230f762fdbe2dd1d333e7a0cbdfe8c8f7232abf4b3ccff4f488ac9eca",
    ("masking-breach", 5): "90bf6b802a7fb2e298685ae08cb90c62548b586e88bdd1430063383d446d2b55",
    ("masking-breach", 12): "7b6420c7620ca9233c0763f42f78e84652ac6229162a0ca2b3cf95c14d5694d7",
    ("masking-colluding-meters", 5): "c6ebcaa90bcad79ab7344ec49ef06a9ccd58d6fbc4eebcc7939c47eb798edfbb",
    ("masking-colluding-meters", 12): "009bff3051764924ad3f910562a9f8c2fa9e116e1775dd97aec89b3510a3aff6",
    ("masking-concentrator", 5): "ee49cec3ba57edad1f6973660e29848ca3acd4edcc2530f622361a5ec6579110",
    ("masking-concentrator", 12): "972e8de61ebb1071ceb217bf20a62d8097440daee09e7c7d6ac97e19ae4d5a46",
}


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_every_scenario_file_is_pinned():
    files = {p.stem for p in SCENARIOS.glob("*.json") if not p.stem.startswith("game_")}
    assert files == set(SCENARIO_DIGESTS)
    assert {p.stem for p in SCENARIOS.glob("game_*.json")} == set(GAME_BYTES)


@pytest.mark.parametrize("name", sorted(SCENARIO_DIGESTS))
def test_scenario_digest_bytes(name):
    scenario = scenario_from_json((SCENARIOS / f"{name}.json").read_text())
    assert scenario_digest(scenario) == SCENARIO_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(RUN_BYTES))
def test_run_report_and_trace_bytes(name, capsysbinary, tmp_path):
    trace_path = tmp_path / "trace.jsonl"
    code = main(["run", str(SCENARIOS / f"{name}.json"), "--trace-out", str(trace_path)])
    out = capsysbinary.readouterr().out
    assert code == EXIT_OK
    assert (sha(out), sha(trace_path.read_bytes())) == RUN_BYTES[name]


@pytest.mark.parametrize("name", sorted(GAME_BYTES))
def test_game_report_bytes(name, capsysbinary):
    code = main(["game", str(SCENARIOS / f"{name}.json")])
    out = capsysbinary.readouterr().out
    assert code == EXIT_OK
    assert sha(out) == GAME_BYTES[name]


def test_every_scenario_file_has_run_and_baseline_bytes():
    files = {p.stem for p in SCENARIOS.glob("*.json") if not p.stem.startswith("game_")}
    assert set(RUN_BYTES) == set(BASELINE_BYTES) == files


@pytest.mark.parametrize("name", sorted(BASELINE_BYTES))
def test_baseline_report_and_trace_bytes(name, capsysbinary, tmp_path):
    trace_path = tmp_path / "trace.jsonl"
    code = main(["baseline", str(SCENARIOS / f"{name}.json"), "--trace-out", str(trace_path)])
    out = capsysbinary.readouterr().out
    assert code == EXIT_OK
    assert (sha(out), sha(trace_path.read_bytes())) == BASELINE_BYTES[name]


def test_every_family_has_view_bytes():
    assert {family for family, _ in VIEW_BYTES} == set(FAMILIES)


@pytest.mark.parametrize("family, n_sm", sorted(VIEW_BYTES))
def test_view_json_bytes(family, n_sm):
    build = FAMILIES[family][0]
    rng = random.Random(7)
    digest = hashlib.sha256()
    for idx in range(VIEW_TRIALS):
        trial = run_trial(build(rng, n_sm, idx), nonce=idx)
        assert trial.abort_reason is None
        digest.update(view_to_json(trial.view).encode() + b"\n")
    assert digest.hexdigest() == VIEW_BYTES[(family, n_sm)]
