import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import NO_EDGES_KEPT
from ftagg import model
from ftagg.cli import EXIT_INVALID, EXIT_IO, EXIT_OK, main
from ftagg.game import MAX_GAME_N_SM, MAX_GAME_WORK
from test_scenario_format import mesh_round

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
SRC = SCENARIOS.parent / "src"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_report(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_OK, err
    return json.loads(out)


def test_run_golden_ring4(capsys):
    report = run_report(capsys, "run", str(SCENARIOS / "ring4.json"))
    assert report["aggregate"] == 30
    assert report["active"] == [1, 3]
    assert report["quorum_met"] is True
    assert report["steps"] == 9
    assert report["elapsed_ticks"] == 15
    assert report["proof_cases"] == {"C1": 1, "C2": 1, "C3_1": 0, "C3_2": 0}
    assert report["messages"]["total"] == 9
    assert report["messages"]["failed"] == {"initial_data": 2}
    assert report["backend"] == {"type": "masking", "k_bits": 64}
    assert len(report["scenario_digest"]) == 64


def test_run_below_quorum_still_exits_zero(capsys):
    report = run_report(capsys, "run", str(SCENARIOS / "low_turnout2.json"))
    assert report["aggregate"] is None
    assert report["quorum_met"] is False


def test_backend_override(capsys):
    base = run_report(capsys, "run", str(SCENARIOS / "ring4.json"))
    swapped = run_report(
        capsys, "run", str(SCENARIOS / "ring4.json"), "--backend", "paillier"
    )
    assert swapped["backend"]["type"] == "paillier"
    assert swapped["aggregate"] == base["aggregate"]
    assert swapped["active"] == base["active"]
    assert swapped["scenario_digest"] != base["scenario_digest"]


def test_masking_override_of_a_paillier_scenario(capsys):
    base = run_report(capsys, "run", str(SCENARIOS / "paillier_mesh4.json"))
    swapped = run_report(
        capsys, "run", str(SCENARIOS / "paillier_mesh4.json"), "--backend", "masking"
    )
    assert base["backend"]["type"] == "paillier"
    assert swapped["backend"] == {"type": "masking", "k_bits": 64}
    assert swapped["aggregate"] == base["aggregate"]
    assert swapped["active"] == base["active"]


def test_seed_override_changes_digest_not_sum(capsys):
    base = run_report(capsys, "run", str(SCENARIOS / "ring4.json"))
    reseeded = run_report(
        capsys, "run", str(SCENARIOS / "ring4.json"), "--seed", "777"
    )
    assert reseeded["scenario_digest"] != base["scenario_digest"]
    assert reseeded["aggregate"] == base["aggregate"]


def test_trace_out_writes_jsonl(capsys, tmp_path):
    out_path = tmp_path / "trace.jsonl"
    report = run_report(
        capsys, "run", str(SCENARIOS / "ring5.json"), "--trace-out", str(out_path)
    )
    lines = out_path.read_text().splitlines()
    assert len(lines) == report["messages"]["total"]
    first = json.loads(lines[0])
    assert set(first) == {"tick", "from", "to", "kind", "delivered"}
    assert first["tick"] == 1


def test_trace_out_into_missing_directory_is_io_error(capsys, tmp_path):
    code, out, err = run_cli(
        capsys,
        "run",
        str(SCENARIOS / "ring4.json"),
        "--trace-out",
        str(tmp_path / "nope" / "trace.jsonl"),
    )
    assert code == EXIT_IO
    assert "error" in err


def test_pretty_flag_indents(capsys):
    code, out, _ = run_cli(capsys, "run", str(SCENARIOS / "ring4.json"), "--pretty")
    assert code == EXIT_OK
    assert out.startswith("{\n")


def test_run_is_deterministic(capsys):
    a = run_cli(capsys, "run", str(SCENARIOS / "fullmesh6.json"))
    b = run_cli(capsys, "run", str(SCENARIOS / "fullmesh6.json"))
    assert a == b


def test_baseline_agrees_on_clean_mesh(capsys):
    report = run_report(capsys, "baseline", str(SCENARIOS / "fullmesh6.json"))
    assert report["baseline"]["status"] == "completed"
    assert report["aggregates_equal"] is True
    assert report["protocol"]["aggregate"] == report["baseline"]["aggregate"]


def test_baseline_detects_reporting_gap(capsys):
    report = run_report(capsys, "baseline", str(SCENARIOS / "dc_gap3.json"))
    assert report["baseline"]["status"] == "detected_inconsistency"
    assert report["baseline"]["aggregate"] is None
    assert report["baseline"]["share_check"] is False
    assert report["protocol"]["aggregate"] == 18
    assert report["aggregates_equal"] is False


def test_baseline_trace_out(capsys, tmp_path):
    out_path = tmp_path / "bl.jsonl"
    run_report(
        capsys, "baseline", str(SCENARIOS / "ring4.json"), "--trace-out", str(out_path)
    )
    kinds = {json.loads(line)["kind"] for line in out_path.read_text().splitlines()}
    assert "share_handoff" in kinds


def test_game_subcommand(capsys, tmp_path):
    config = tmp_path / "game.json"
    config.write_text(
        json.dumps(
            {
                "family": "masking-colluding-meters",
                "strategy": "coin-flip",
                "trials": 60,
                "seed": 4,
                "n_sm": 4,
            }
        )
    )
    report = run_report(capsys, "game", str(config))
    assert report["trials"] == 60
    assert report["wins"] + report["aborts"] <= 60
    assert 0.0 <= report["ci_low"] <= report["rate"] <= report["ci_high"] <= 1.0
    assert report["strategy"] == "coin-flip"


def test_game_breach_config_wins_every_trial(capsys):
    report = run_report(capsys, "game", str(SCENARIOS / "game_breach.json"))
    assert report["rate"] == 1.0
    assert report["aborts"] == 0


@pytest.mark.parametrize(
    "config",
    [
        {"family": "no-such-family", "trials": 5, "seed": 1},
        {"family": "masking-breach", "strategy": "psychic", "trials": 5, "seed": 1},
        {"family": "masking-breach", "strategy": ["coin-flip"], "trials": 5, "seed": 1},
        {"family": "masking-breach", "seed": 1},
        {"family": "masking-breach", "trials": "many", "seed": 1},
        {"trials": 5, "seed": 1},
        ["not", "an", "object"],
        {"family": "masking-breach", "trials": 5, "seed": 1, "n_sm": 2},
        {"family": "masking-colluding-meters", "trials": 5, "seed": 1, "n_sm": 1},
        # Refused before any mesh is built; 10**6 would ask for about 125 GB.
        {"family": "masking-concentrator", "trials": 1, "seed": 1, "n_sm": MAX_GAME_N_SM + 1},
        # Refused before the first trial; the run would take minutes.
        {"family": "masking-concentrator", "trials": MAX_GAME_WORK // 5 + 1, "seed": 1},
        {"family": "masking-breach", "trials": 0, "seed": 1},
        # A misspelt key used to be ignored, so the file's 200 trials ran.
        {**json.loads((SCENARIOS / "game_coinflip.json").read_text()), "trails": 5},
    ],
)
def test_bad_game_configs_exit_two(capsys, tmp_path, config):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(config))
    code, _, err = run_cli(capsys, "game", str(path))
    assert code == EXIT_INVALID
    assert "error" in err


@pytest.mark.parametrize(
    "change, message",
    [
        ({"seed": 1.5}, "game config field 'seed' must be an integer, got float"),
        ({"trials": True}, "game config field 'trials' must be an integer, got bool"),
        ({"family": 3}, "game config field 'family' must be a string, got int"),
        ({"strategy": None}, "game config field 'strategy' must be a string, got NoneType"),
    ],
    ids=["seed-float", "trials-bool", "family-int", "strategy-null"],
)
def test_game_config_type_errors_name_the_type(capsys, tmp_path, change, message):
    path = tmp_path / "typed.json"
    path.write_text(json.dumps({**json.loads((SCENARIOS / "game_coinflip.json").read_text()), **change}))
    code, out, err = run_cli(capsys, "game", str(path))
    assert (code, out, err) == (EXIT_INVALID, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "command, path, key",
    [
        ("run", SCENARIOS / "ring4.json", ["sm_onlne"]),
        ("baseline", SCENARIOS / "ring4.json", ["backend", "kbits"]),
        ("run", SCENARIOS / "paillier_mesh4.json", ["backend", "k_bits"]),
        ("game", SCENARIOS / "game_coinflip.json", ["trails"]),
    ],
    ids=["scenario", "masking-backend", "paillier-backend", "game-config"],
)
def test_unknown_key_exits_two_and_is_named(capsys, tmp_path, command, path, key):
    doc = json.loads(path.read_text())
    *parents, last = key
    node = doc
    for field in parents:
        node = node[field]
    node[last] = 5
    path = tmp_path / "unknown.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, command, str(path))
    assert code == EXIT_INVALID, out
    assert f"unknown key {last!r}" in err


def test_unparseable_json_exits_two(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = run_cli(capsys, "run", str(path))
    assert code == EXIT_INVALID
    assert "invalid JSON" in err


def test_invalid_scenario_exits_two(capsys, tmp_path):
    scenario = json.loads((SCENARIOS / "ring4.json").read_text())
    scenario["n_min"] = 0
    path = tmp_path / "bad_scenario.json"
    path.write_text(json.dumps(scenario))
    code, _, err = run_cli(capsys, "run", str(path))
    assert code == EXIT_INVALID


def test_missing_file_exits_three(capsys, tmp_path):
    code, _, err = run_cli(capsys, "run", str(tmp_path / "absent.json"))
    assert code == EXIT_IO


def test_run_prints_a_report_per_file_in_turn(capsys):
    paths = [str(SCENARIOS / f"{name}.json") for name in ("ring4", "paillier_mesh4", "ring4")]
    alone = [run_cli(capsys, "run", path, "--seed", "5") for path in paths]
    assert run_cli(capsys, "run", *paths, "--seed", "5") == (
        EXIT_OK, "".join(out for _, out, _ in alone), ""
    )


def test_run_stops_at_the_first_file_that_fails(capsys, tmp_path):
    ring4 = str(SCENARIOS / "ring4.json")
    _, first, _ = run_cli(capsys, "run", ring4)
    code, out, err = run_cli(capsys, "run", ring4, str(tmp_path / "absent.json"), ring4)
    assert (code, out) == (EXIT_IO, first)
    assert "absent.json" in err


def test_trace_out_takes_one_scenario_file(capsys, tmp_path):
    ring4 = str(SCENARIOS / "ring4.json")
    with pytest.raises(SystemExit) as exit_:
        main(["run", ring4, ring4, "--trace-out", str(tmp_path / "trace.jsonl")])
    assert exit_.value.code == EXIT_INVALID
    assert "one scenario file" in capsys.readouterr().err
    assert not (tmp_path / "trace.jsonl").exists()


def test_a_later_round_in_one_run_takes_the_topology_the_first_kept(
    capsys, tmp_path, monkeypatch
):
    # Two rounds of one 100-meter deployment, large enough to be read value
    # by value: in one run, only the first turns its `edges` into rows.
    paths = []
    for t in (1, 2):
        paths.append(tmp_path / f"round{t}.json")
        paths[-1].write_text(mesh_round(100, t))
    alone = []
    for path in paths:
        monkeypatch.setattr(model, "_last_edges", NO_EDGES_KEPT)
        alone.append(run_cli(capsys, "run", str(path)))
    monkeypatch.setattr(model, "_last_edges", NO_EDGES_KEPT)
    read = []
    read_links = model._read_links

    def reading(text, at, n_sm, what):
        read.append(what)
        return read_links(text, at, n_sm, what)

    monkeypatch.setattr(model, "_read_links", reading)
    code, out, _ = run_cli(capsys, "run", *map(str, paths))
    assert (code, out) == (EXIT_OK, alone[0][1] + alone[1][1])
    assert alone[0][1] != alone[1][1]
    assert read == ["edges", "working_edges", "working_edges"]


def write_scenario(tmp_path, **changes):
    scenario = json.loads((SCENARIOS / "ring4.json").read_text())
    scenario.update(changes)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    return path


def test_paillier_sum_past_half_the_key_exits_two(capsys, tmp_path):
    # n is only known to exceed 2^(key_bits-1); a larger sum can wrap modulo
    # n and decrypt to a wrong aggregate.
    scenario = json.loads((SCENARIOS / "dc_gap3.json").read_text())
    scenario.update(
        working_edges=scenario["edges"],
        backend={"type": "paillier", "key_bits": 64},
        measurements={str(i): 1 << 63 for i in range(1, 4)},
    )
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    code, out, err = run_cli(capsys, "run", str(path))
    assert code == EXIT_INVALID, out
    assert "error" in err


def test_paillier_sum_just_below_half_the_key_runs(capsys, tmp_path):
    path = write_scenario(
        tmp_path,
        backend={"type": "paillier", "key_bits": 64},
        measurements={"1": (1 << 63) - 1, "2": 0, "3": 0, "4": 0},
    )
    report = run_report(capsys, "run", str(path))
    assert report["aggregate"] == (1 << 63) - 1


@pytest.mark.parametrize(
    "changes",
    [
        {"edges": 5},
        {"edges": [["DC", "SM1", "SM2"]]},
        {"edges": [["DC", 1]]},
        {"edges": ["DCSM1"]},
        {"edges": [{"DC": 0, "SM1": 1}]},
        {"working_edges": "DC-SM1"},
        {"working_edges": [["DC", ["SM1"]]]},
        {"working_edges": [["DC", "SM9"]]},
        {"measurements": [1, 2, 3, 4]},
        {"sm_online": {"2": "false"}},
        {"sm_online": {"2": 0}},
        {"sm_online": [2]},
        {"sending_list": 4},
        {"measurements": {"1": 10.9, "2": 7.9, "3": 20.9, "4": 9.9}},
        {"sending_list": "1234"},
        {
            "backend": {"type": "masking", "k_bits": True},
            "measurements": {str(i): 0 for i in range(1, 5)},
        },
        {"prf_keys": {"1": 5}},
        {"prf_keys": {"1": "not hex"}},
        {"round": 1 << 64},
        {"backend": {"type": "masking", "k_bits": 129}},
        {"backend": {"type": "masking", "k_bits": 10**9}},
        {"backend": {"type": "paillier", "key_bits": 4098}},
        {"backend": {"type": "paillier", "key_bits": 10**9}},
        {"backend": {"type": "foo"}},
        {"backend": {"type": ["masking"]}},
        {"measurements": {"1": 10, "2": 7, "3": 20, "4": 9, "01": 999}},
        {"measurements": {" 1": 10, "2": 7, "3": 20, "4": 9}},
        {"measurements": {"1": 10, "+2": 7, "3": 20, "4": 9}},
        {"measurements": {"1": 10, "2": 7, "3": 20, "0_4": 9}},
        {"measurements": {"1": 10, "2": 7, "٣": 20, "4": 9}},
        {"sm_online": {"1": True, "01": False}},
        {"prf_keys": {"01": "00" * 16}},
        {"n_sm": 0},
        {"n_sm": -(1 << 64)},
        # A misspelt key used to be ignored: meter 1 stayed online, and
        # masking ran at k_bits 64, where "k_bits": 8 refuses the sum 409.
        {"sm_onlne": {"1": False}},
        {
            "backend": {"type": "masking", "kbits": 8},
            "measurements": {"1": 200, "2": 100, "3": 100, "4": 9},
        },
    ],
)
def test_malformed_scenario_fields_exit_two(capsys, tmp_path, changes):
    code, out, err = run_cli(capsys, "run", str(write_scenario(tmp_path, **changes)))
    assert code == EXIT_INVALID, out
    assert "error" in err


@pytest.mark.parametrize("command", ["run", "baseline", "game"])
@pytest.mark.parametrize(
    "text",
    ["[" * 100000 + "]" * 100000, '{"n_sm": ' + "{\"a\": " * 100000 + "1" + "}" * 100001],
    ids=["arrays", "objects"],
)
def test_deeply_nested_json_exits_two(capsys, tmp_path, command, text):
    path = tmp_path / "deep.json"
    path.write_text(text)
    code, _, err = run_cli(capsys, command, str(path))
    assert code == EXIT_INVALID
    assert "invalid JSON" in err


def write_with_repeated_key(tmp_path, field, raw_object):
    """ring4 with `field` written as the JSON text `raw_object`, which
    repeats a key; json.dumps cannot write such an object."""
    scenario = json.loads((SCENARIOS / "ring4.json").read_text())
    scenario[field] = "@"
    path = tmp_path / "repeated.json"
    path.write_text(json.dumps(scenario).replace('"@"', raw_object))
    return path


@pytest.mark.parametrize("command", ["run", "baseline"])
@pytest.mark.parametrize(
    "field,raw_object",
    [
        ("measurements", '{"1": 10, "1": 999, "2": 7, "3": 20, "4": 9}'),
        ("measurements", '{"1": 10, "2": 7, "3": 20, "4": 9, "4": 9}'),
        ("sm_online", '{"2": true, "2": false}'),
        ("prf_keys", '{"1": "%s", "1": "%s"}' % ("00" * 16, "11" * 16)),
        ("backend", '{"type": "masking", "k_bits": 64, "k_bits": 32}'),
        ("backend", '{"type": "paillier", "type": "masking"}'),
    ],
    ids=["first-meter", "last-meter", "sm_online", "prf_keys", "k_bits", "type"],
)
def test_repeated_keys_in_a_scenario_exit_two(capsys, tmp_path, command, field, raw_object):
    path = write_with_repeated_key(tmp_path, field, raw_object)
    code, out, err = run_cli(capsys, command, str(path))
    assert code == EXIT_INVALID, out
    assert "repeated" in err


def test_repeated_top_level_key_exits_two(capsys, tmp_path):
    text = (SCENARIOS / "ring4.json").read_text().replace('"n_min": 2', '"n_min": 2, "n_min": 4')
    path = tmp_path / "repeated.json"
    path.write_text(text)
    code, out, err = run_cli(capsys, "run", str(path))
    assert code == EXIT_INVALID, out
    assert "repeated" in err


@pytest.mark.parametrize(
    "text",
    [
        '{"family": "masking-breach", "trials": 5, "trials": 1, "seed": 1}',
        '{"family": "he-breach", "family": "masking-breach", "trials": 1, "seed": 1}',
    ],
    ids=["trials", "family"],
)
def test_repeated_keys_in_a_game_config_exit_two(capsys, tmp_path, text):
    path = tmp_path / "game.json"
    path.write_text(text)
    code, out, err = run_cli(capsys, "game", str(path))
    assert code == EXIT_INVALID, out
    assert "repeated" in err


def test_baseline_refuses_a_sum_past_its_modulus(capsys, tmp_path):
    # Valid for the protocol (Paillier-256 admits sums below 2^255), but the
    # baseline masks modulo 2^64 and used to report the wrapped sum 21.
    scenario = json.loads((SCENARIOS / "fullmesh6.json").read_text())
    scenario.update(
        backend={"type": "paillier", "key_bits": 256},
        measurements={str(i): (1 << 70) + i for i in range(1, 7)},
    )
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    assert run_report(capsys, "run", str(path))["aggregate"] == 6 * (1 << 70) + 21
    code, out, err = run_cli(capsys, "baseline", str(path))
    assert code == EXIT_INVALID, out
    assert "error" in err


def test_top_level_array_exits_two(capsys, tmp_path):
    path = tmp_path / "array.json"
    path.write_text(json.dumps([json.loads((SCENARIOS / "ring4.json").read_text())]))
    code, _, err = run_cli(capsys, "run", str(path))
    assert code == EXIT_INVALID
    assert "error" in err


def run_optimized(path):
    """`ftagg run` under `python -O`, where assert statements are stripped."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-O", "-m", "ftagg.cli", "run", str(path)],
        capture_output=True,
        text=True,
        env=env,
        timeout=30,
    )


@pytest.mark.parametrize(
    "backend",
    [{"type": "paillier", "key_bits": 65}, {"type": "masking", "k_bits": 0}],
)
def test_bad_key_sizes_exit_two_under_optimize(tmp_path, backend):
    path = write_scenario(
        tmp_path, backend=backend, measurements={str(i): 0 for i in range(1, 5)}
    )
    result = run_optimized(path)
    assert result.returncode == EXIT_INVALID, result.stdout + result.stderr
    assert "error" in result.stderr


def test_largest_masking_modulus_and_round_run(capsys, tmp_path):
    path = write_scenario(
        tmp_path, backend={"type": "masking", "k_bits": 128}, round=(1 << 64) - 1
    )
    report = run_report(capsys, "run", str(path))
    assert report["aggregate"] == 30
