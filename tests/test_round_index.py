"""A deployment must never repeat a round index: every mask and randomizer
derives from (seed, meter, round), so two rounds under one index share them.

Masking: each meter's report differs from its twin's by exactly its
measurement difference mod k, and the handoff shares are equal, so a
listener on the concentrator's links reads every meter's delta. Paillier:
the same measurements give the same handoff ciphertexts, so equal partial
sums are linkable. The next round index shares none of it.
"""

from dataclasses import replace
from itertools import accumulate
from pathlib import Path

from ftagg.masking import MaskingBackend
from ftagg.model import scenario_from_json, validate_scenario
from ftagg.paillier import PaillierBackend

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def load(name):
    return validate_scenario(scenario_from_json((SCENARIOS / name).read_text()))


def reports(backend, s):
    return {i: backend.initial_payload(i, s.round) for i in s.sending_list}


def handoffs(backend, s):
    """The running share after the opener and after each meter's fold, in
    sending-list order."""
    return list(accumulate(s.sending_list, backend.fold_measurement, initial=backend.init_share()))


def test_a_repeated_masking_round_index_gives_every_measurement_delta():
    first = load("fullmesh6.json")
    again = replace(first, measurements={i: m * 3 + i for i, m in first.measurements.items()})
    later = replace(again, round=first.round + 1)
    a, b, c = (MaskingBackend(s) for s in (first, again, later))
    k = first.backend.k
    before, after, next_round = reports(a, first), reports(b, again), reports(c, later)
    for i in first.sending_list:
        delta = (again.measurements[i] - first.measurements[i]) % k
        assert delta != 0
        assert (after[i] - before[i]) % k == delta
        assert (next_round[i] - before[i]) % k != delta
    assert handoffs(a, first) == handoffs(b, again)
    assert not set(handoffs(c, later)) & set(handoffs(a, first))


def test_a_repeated_paillier_round_index_gives_equal_handoff_ciphertexts():
    first = load("paillier_mesh4.json")
    later = replace(first, round=first.round + 1)
    ciphertexts = handoffs(PaillierBackend(first), first)
    assert handoffs(PaillierBackend(first), first) == ciphertexts
    assert not set(handoffs(PaillierBackend(later), later)) & set(ciphertexts)
