"""Byte-level pins on everything the CLI writes for the shipped scenario files.

Each value is the sha256 hex of the exact bytes: the scenario digest of every
scenario file, the `ftagg run` report on stdout and the trace JSONL it writes,
and the `ftagg game` report. Any change to the model, the round, the trace
serializer or the game layer that alters an output byte fails here.
"""

import hashlib
from pathlib import Path

import pytest
from ftagg.cli import EXIT_OK, main
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
}

GAME_BYTES = {
    "game_breach": "657e348c0b2dcfc47c449f0d19f607915daca88168e364fb431bc0912393ae1b",
    "game_coinflip": "798b7f0d5135b81739a8f5c87e301b23581df08a0800869bbdeaccb550277ac9",
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
