import json
import random

import pytest
from conftest import golden_ring4, make_scenario, random_scenario
from ftagg import model
from ftagg.baseline import run_baseline_round
from ftagg.model import (
    DC,
    AckS,
    InitialData,
    ScenarioError,
    full_mesh,
    party_name,
    trace_to_jsonl,
)
from ftagg.netsim import DeliveryStatus, SimNetwork
from ftagg.protocol import make_backend, run_round
from test_small_scope import SCOPE, rounds


def msg(i=1):
    return InitialData(round=0, sm=i, data=7)


def test_delivery_over_working_link():
    net = SimNetwork.for_scenario(golden_ring4())
    status = net.send(1, DC, msg())
    assert status is DeliveryStatus.DELIVERED
    assert net.clock == 1
    assert [(r.receiver, r.message, r.delivered) for r in net.trace] == [(DC, msg(), True)]


def test_timeout_over_dead_link():
    net = SimNetwork.for_scenario(golden_ring4())
    status = net.send(2, DC, msg(2))
    assert status is DeliveryStatus.TIMED_OUT
    assert net.clock == 5
    assert [r.delivered for r in net.trace if r.receiver == DC] == [False]


def test_tick_accounting_mixes_costs():
    net = SimNetwork.for_scenario(golden_ring4())
    net.send(1, DC, msg(1))     # +1
    net.send(2, DC, msg(2))     # +5
    net.send(DC, 1, msg(1))     # +1
    assert net.clock == 7


def test_every_attempt_is_traced_once():
    net = SimNetwork.for_scenario(golden_ring4())
    net.send(1, DC, msg(1))
    net.send(2, DC, msg(2))
    assert len(net.trace) == 2
    delivered = [r.delivered for r in net.trace]
    assert delivered == [True, False]
    assert net.trace[0].tick == 1
    assert net.trace[1].tick == 6


def test_bundled_ack_costs_nothing():
    net = SimNetwork.for_scenario(golden_ring4())
    net.send(DC, 1, msg(1))
    before = net.clock
    net.send_bundled_ack(1, DC, AckS())
    assert net.clock == before
    assert net.trace[-1].delivered is True
    assert net.trace[-1].message == AckS()
    assert [r.message for r in net.trace if r.receiver == DC and r.delivered] == [AckS()]


def test_bundled_ack_requires_live_link():
    net = SimNetwork.for_scenario(golden_ring4())
    with pytest.raises(AssertionError):
        net.send_bundled_ack(2, DC, AckS())


def test_offline_receiver_times_out():
    s = make_scenario(3, off=(), online={3: False})
    net = SimNetwork.for_scenario(s)
    assert net.send(DC, 3, msg(3)) is DeliveryStatus.TIMED_OUT
    assert net.send(3, DC, msg(3)) is DeliveryStatus.TIMED_OUT


def test_self_send_rejected():
    net = SimNetwork.for_scenario(golden_ring4())
    with pytest.raises(ScenarioError):
        net.send(1, 1, msg())


def test_unknown_party_rejected():
    net = SimNetwork.for_scenario(golden_ring4())
    with pytest.raises(ScenarioError, match=r"link \(9,0\) references a party outside 0..4"):
        net.send(9, DC, msg(9))


def test_dc_must_stay_online():
    s = make_scenario(2)
    with pytest.raises(ScenarioError):
        SimNetwork(s.graph, online={DC: False, 1: True, 2: True})


@pytest.mark.parametrize("party", [-1, 3, 9])
def test_online_key_outside_the_parties_rejected(party):
    with pytest.raises(ScenarioError, match=f"online names party {party},"):
        SimNetwork(full_mesh(2), online={party: False})


def test_identical_sequences_trace_identically():
    def drive(net):
        net.send(1, DC, msg(1))
        net.send(2, DC, msg(2))
        net.send(DC, 1, msg(1))
        return net.trace

    a = drive(SimNetwork.for_scenario(golden_ring4()))
    b = drive(SimNetwork.for_scenario(golden_ring4()))
    assert a == b


def test_trace_jsonl_shape():
    net = SimNetwork.for_scenario(golden_ring4())
    net.send(1, DC, msg(1))
    net.send(2, DC, msg(2))
    lines = trace_to_jsonl(net.trace).splitlines()
    assert len(lines) == 2
    first = json.loads(lines[0])
    assert first == {
        "tick": 1,
        "from": "SM1",
        "to": "DC",
        "kind": "initial_data",
        "delivered": True,
    }
    second = json.loads(lines[1])
    assert second["delivered"] is False and second["from"] == "SM2"


def _record_dict(r):
    return {
        "tick": r.tick,
        "from": party_name(r.sender),
        "to": party_name(r.receiver),
        "kind": r.message.kind,
        "delivered": r.delivered,
    }


def _reference_jsonl(trace):
    """The trace writer as `json.dumps` spells each record, line by line."""
    return "\n".join(json.dumps(_record_dict(r)) for r in trace) + "\n"


def _traces_to_write():
    """Protocol and baseline traces of every small-scope round, and of random
    scenarios whose meter names and ticks run to two digits and more."""
    small = (s for n, all_online, _ in SCOPE for s in rounds(n, all_online))
    rng = random.Random(1010)
    wide = (random_scenario(rng, n_max=40) for _ in range(150))
    for s in (*small, *(s for s in wide if s.n_sm >= 10)):
        yield run_round(s, make_backend(s), SimNetwork.for_scenario(s)).trace
        yield run_baseline_round(s).trace


def test_trace_jsonl_matches_the_dict_view_byte_for_byte():
    kinds, timed_out, empty = set(), 0, 0
    for trace in _traces_to_write():
        assert trace_to_jsonl(trace) == _reference_jsonl(trace)
        kinds.update(r.message.kind for r in trace)
        timed_out += sum(not r.delivered for r in trace)
        empty += not trace
    every_kind = {v for k, v in vars(model).items() if k.startswith("KIND_")}
    assert len(every_kind) == 7 and kinds == every_kind
    assert timed_out and empty
    # Every meter offline: no send attempt, and the writer gives one empty line.
    assert trace_to_jsonl(()) == "\n"
