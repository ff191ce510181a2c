import importlib.util
import itertools
import random
import time
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest
from conftest import (
    golden_ring4,
    golden_ring5,
    make_scenario,
    random_scenario,
    zero_failure_scenario,
)
from ftagg.model import (
    DC,
    AckS,
    KIND_ACK_S,
    KIND_ACTIVATION,
    KIND_END_OF_ROUND,
    KIND_INITIAL_DATA,
    Activation,
    EndOfRound,
    InitialData,
    MaskingSpec,
    PaillierSpec,
    RoundOutcome,
    TraceRecord,
    party_name,
)
from ftagg.netsim import SimNetwork
from ftagg.protocol import (
    C1,
    C2,
    C3_1,
    C3_2,
    MalformedTrace,
    chain_steps,
    classify_steps,
    make_backend,
    proof_case_histogram,
    run_round,
)
from ftagg.walker import predict_aggregate, reachable_active


def run(scenario):
    net = SimNetwork.for_scenario(scenario)
    outcome = run_round(scenario, make_backend(scenario), net)
    return outcome, net


def delivered_non_ack(outcome):
    return [
        r for r in outcome.trace if r.delivered and r.message.kind != KIND_ACK_S
    ]


def test_golden_ring4_round():
    outcome, net = run(golden_ring4())
    assert outcome.aggregate == 30
    assert outcome.remaining_at_init == (1, 3)
    assert outcome.active == (1, 3)
    eor = [r for r in outcome.trace if r.message.kind == KIND_END_OF_ROUND]
    assert len(eor) == 1
    assert eor[0].sender == 3 and eor[0].receiver == DC and eor[0].delivered
    assert eor[0].message.active == (1, 3)
    assert classify_steps(outcome) == [C2, C1]
    assert len(outcome.trace) == 9
    assert net.clock == 15


def test_golden_ring5_round():
    outcome, net = run(golden_ring5())
    assert outcome.aggregate == 35
    assert outcome.remaining_at_init == (1, 3, 4, 5)
    assert outcome.active == (1, 3, 5)
    assert classify_steps(outcome) == [C2, C3_2, C2, C1]
    assert len(delivered_non_ack(outcome)) == 8
    failed = [r for r in outcome.trace if not r.delivered]
    assert [(r.sender, r.receiver) for r in failed] == [(2, DC), (3, 4)]
    assert net.clock == 18


def test_golden_ring5_message_enumeration():
    outcome, _ = run(golden_ring5())
    kinds = [
        (r.message.kind, party_name(r.sender), party_name(r.receiver))
        for r in delivered_non_ack(outcome)
    ]
    assert kinds == [
        (KIND_INITIAL_DATA, "SM1", "DC"),
        (KIND_INITIAL_DATA, "SM3", "DC"),
        (KIND_INITIAL_DATA, "SM4", "DC"),
        (KIND_INITIAL_DATA, "SM5", "DC"),
        (KIND_ACTIVATION, "DC", "SM1"),
        (KIND_ACTIVATION, "SM1", "SM3"),
        (KIND_ACTIVATION, "SM3", "SM5"),
        (KIND_END_OF_ROUND, "SM5", "DC"),
    ]


def test_full_mesh_everyone_contributes():
    s = make_scenario(6, n_min=6)
    outcome, net = run(s)
    assert outcome.active == (1, 2, 3, 4, 5, 6)
    assert outcome.aggregate == sum(s.measurements.values())
    assert classify_steps(outcome) == [C2] * 5 + [C1]
    # 3N + 1 trace records in a clean round: N initial, N activations
    # (N - 1 of them acked), one final message.
    assert len(outcome.trace) == 3 * 6 + 1
    assert net.clock == 2 * 6 + 1


def test_below_quorum_withholds_everything():
    s = make_scenario(4, off=[(DC, 2), (DC, 3), (DC, 4)], n_min=2)
    outcome, _ = run(s)
    assert outcome.aggregate is None
    assert outcome.active == ()
    assert outcome.remaining_at_init == (1,)
    # Round died before any activation: nothing to classify.
    assert classify_steps(outcome) == []


def test_quorum_collapse_mid_round_gives_c3_1():
    # SM1 can reach the concentrator but neither other meter; with the quorum
    # at 3 its failed handoff to SM2 sinks the round immediately.
    s = make_scenario(3, off=[(1, 2), (1, 3)], n_min=3)
    outcome, _ = run(s)
    assert outcome.aggregate is None
    assert outcome.active == (1,)
    assert classify_steps(outcome) == [C3_1]
    eor = [r for r in outcome.trace if r.message.kind == KIND_END_OF_ROUND][0]
    assert eor.message.share is None and eor.message.active == ()


def test_quorum_loss_on_last_candidate_withholds_eor_payload():
    # Both meters reach the concentrator but not each other: the walk starts,
    # the only handoff fails, and the final message ships empty.
    s = make_scenario(2, off=[(1, 2)], n_min=2)
    outcome, _ = run(s)
    assert outcome.aggregate is None
    assert outcome.active == (1,)
    assert outcome.remaining_at_init == (1, 2)
    eor = [r for r in outcome.trace if r.message.kind == KIND_END_OF_ROUND][0]
    assert eor.message.share is None and eor.message.active == ()
    assert classify_steps(outcome) == [C3_1]


def test_single_meter_quorum_one():
    s = make_scenario(1, n_min=1, measurements={1: 123})
    outcome, _ = run(s)
    assert outcome.aggregate == 123
    assert outcome.active == (1,)
    assert classify_steps(outcome) == [C1]


def test_sending_list_order_drives_the_walk():
    s = make_scenario(3, order=[3, 1, 2])
    outcome, _ = run(s)
    assert outcome.active == (3, 1, 2)


def test_offline_meters_never_speak():
    s = make_scenario(4, online={2: False}, n_min=2)
    outcome, _ = run(s)
    senders = {r.sender for r in outcome.trace}
    receivers = {r.receiver for r in outcome.trace}
    assert 2 not in senders and 2 not in receivers
    assert outcome.active == (1, 3, 4)
    assert outcome.aggregate == 10 + 30 + 40


@pytest.mark.parametrize("backend", [MaskingSpec(), PaillierSpec(key_bits=128)])
def test_runs_are_deterministic(backend):
    s = make_scenario(5, off=[(DC, 2), (3, 4)], backend=backend)
    a, _ = run(s)
    b, _ = run(s)
    assert a == b



def load_tracing():
    """The benchmark's span recorder, loaded by path: its proxies make the
    same calls into a backend and a network that `run_round` makes."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "backend", [MaskingSpec(), PaillierSpec(key_bits=128)], ids=["masking", "paillier-128"]
)
def test_round_runs_unchanged_through_the_benchmark_proxies(backend):
    # The proxies pin the backend contract's four calls and their arities.
    tracer = load_tracing().Tracer()
    s = make_scenario(5, off=[(DC, 2), (3, 4)], backend=backend)
    bare, _ = run(s)
    traced = run_round(
        s, tracer.backend(make_backend(s)), tracer.network(SimNetwork.for_scenario(s))
    )
    assert traced == bare
    assert bare.aggregate is not None
    assert bare.aggregate == predict_aggregate(s)
    layer = make_backend(s).name
    calls = {f"{layer}.{call}" for call in ("payload", "init_share", "fold", "finalize")}
    assert calls <= {span[0] for span in tracer.spans}

def test_engine_agrees_with_walker_on_random_scenarios():
    rng = random.Random(101)
    for _ in range(300):
        s = random_scenario(rng, backend=MaskingSpec())
        outcome, _ = run(s)
        assert outcome.aggregate == predict_aggregate(s)
        if outcome.aggregate is not None:
            assert list(outcome.active) == reachable_active(s)


def test_backends_agree_on_random_scenarios():
    rng = random.Random(55)
    for _ in range(60):
        base = random_scenario(rng, n_max=8, backend=MaskingSpec())
        masked, _ = run(base)
        paillier, _ = run(replace(base, backend=PaillierSpec(key_bits=128)))
        assert masked.active == paillier.active
        assert masked.aggregate == paillier.aggregate
        a_shape = [(r.sender, r.receiver, r.message.kind, r.delivered, r.tick)
                   for r in masked.trace]
        b_shape = [(r.sender, r.receiver, r.message.kind, r.delivered, r.tick)
                   for r in paillier.trace]
        assert a_shape == b_shape


def test_invariants_on_random_scenarios():
    rng = random.Random(2)
    for _ in range(400):
        s = random_scenario(rng, backend=MaskingSpec())
        outcome, net = run(s)
        assert len(outcome.trace) <= 3 * s.n_sm + 1

        # Each meter is activated at most once, and only reachable ones.
        activated = [
            r.receiver
            for r in outcome.trace
            if r.message.kind == KIND_ACTIVATION and r.delivered
        ]
        assert len(activated) == len(set(activated))
        assert len(activated) == len(outcome.active)

        # The final message always comes from a meter, never the concentrator,
        # and it is the last protocol message of the round.
        eors = [r for r in outcome.trace if r.message.kind == KIND_END_OF_ROUND]
        if outcome.remaining_at_init and len(outcome.remaining_at_init) >= s.n_min:
            assert len(eors) == 1
            assert eors[0].sender != DC
            assert eors[0] is outcome.trace[-1]
        else:
            assert eors == []

        # Labels end the way rounds end.
        labels = classify_steps(outcome)
        if labels:
            assert labels[-1] in (C1, C3_1)
        assert all(l in (C1, C2, C3_1, C3_2) for l in labels)

        # The k-th handoff offers the share to the k-th candidate, the rule
        # that fixes each handoff's candidate and contributor lists.
        receivers = [r.receiver for r in outcome.trace if r.message.kind == KIND_ACTIVATION]
        assert receivers == list(outcome.remaining_at_init[: len(receivers)])

        # Quorum rule: an aggregate exists iff enough meters contributed.
        if outcome.aggregate is not None:
            assert len(outcome.active) >= s.n_min

        assert net.clock <= max(5 * s.n_sm, 6 * s.n_sm - 3)


def test_zero_failure_cost_claims():
    rng = random.Random(31)
    for _ in range(30):
        s = zero_failure_scenario(rng)
        outcome, net = run(s)
        n = s.n_sm
        assert len(outcome.trace) == 3 * n + 1
        assert net.clock == 2 * n + 1
        per_sm = Counter()
        for r in outcome.trace:
            if r.sender != DC and r.message.kind != KIND_INITIAL_DATA:
                per_sm[r.sender] += 1
        assert all(c == 2 for c in per_sm.values())
        assert len(per_sm) == n


def test_histogram_totals_match_labels():
    outcome, _ = run(golden_ring5())
    hist = proof_case_histogram(outcome)
    assert hist == {C1: 1, C2: 2, C3_1: 0, C3_2: 1}


def fake_record(tick, sender, receiver, message, delivered):
    return TraceRecord(
        tick=tick, sender=sender, receiver=receiver, message=message, delivered=delivered
    )


def base_outcome(trace):
    return RoundOutcome(
        aggregate=None,
        active=(),
        remaining_at_init=(),
        trace=tuple(trace),
    )


def test_classify_rejects_lost_opening_handoff():
    trace = [fake_record(5, DC, 1, Activation(0), False)]
    with pytest.raises(MalformedTrace, match="^opening handoff must deliver$"):
        classify_steps(base_outcome(trace))


def test_classify_rejects_dangling_failed_handoff():
    trace = [
        fake_record(1, DC, 1, Activation(0), True),
        fake_record(6, 1, 2, Activation(0), False),
    ]
    with pytest.raises(MalformedTrace, match="^failed handoff with no follow-up from its sender$"):
        classify_steps(base_outcome(trace))


def test_classify_rejects_foreign_follow_up():
    trace = [
        fake_record(1, DC, 1, Activation(0), True),
        fake_record(6, 1, 2, Activation(0), False),
        fake_record(7, 3, DC, EndOfRound(0, None, ()), True),
    ]
    with pytest.raises(MalformedTrace, match="^failed handoff followed by a foreign step$"):
        classify_steps(base_outcome(trace))


def test_classify_rejects_concentrator_final_message():
    trace = [fake_record(1, DC, 1, EndOfRound(0, None, ()), True)]
    with pytest.raises(MalformedTrace, match="^final message sent by the concentrator$"):
        classify_steps(base_outcome(trace))


def reference_classify(outcome):
    """The classifier as it stood before the chain walk, kept as the oracle:
    it filters the chain records into a list, labels a failed handoff by
    looking ahead to its sender's next step, and a final message by looking
    back at the step before it."""
    events = [
        r
        for r in outcome.trace
        if r.message.kind in (KIND_ACTIVATION, KIND_END_OF_ROUND)
    ]
    labels = []
    for idx, r in enumerate(events):
        if r.message.kind == KIND_ACTIVATION:
            if r.sender == DC:
                if not r.delivered:
                    raise MalformedTrace("opening handoff must deliver")
                continue
            if r.delivered:
                labels.append(C2)
                continue
            if idx + 1 >= len(events):
                raise MalformedTrace("failed handoff with no follow-up from its sender")
            nxt = events[idx + 1]
            if nxt.sender != r.sender:
                raise MalformedTrace("failed handoff followed by a foreign step")
            labels.append(C3_2 if nxt.message.kind == KIND_ACTIVATION else C3_1)
        else:
            if r.sender == DC:
                raise MalformedTrace("final message sent by the concentrator")
            prev = events[idx - 1] if idx > 0 else None
            forced = (
                prev is not None
                and prev.message.kind == KIND_ACTIVATION
                and not prev.delivered
                and prev.sender == r.sender
            )
            if not forced:
                labels.append(C1)
    return labels


# Every record the classifier can tell apart: it reads a record's kind,
# sender and delivery, never its receiver or tick.
CHAIN_RECORDS = [
    fake_record(0, sender, receiver, message, delivered)
    for message, receiver in ((Activation(0), 3), (EndOfRound(0, None, ()), DC), (AckS(), DC))
    for sender in (DC, 1, 2)
    for delivered in (True, False)
]


def labels_or_error(classify, outcome):
    try:
        return classify(outcome)
    except MalformedTrace as exc:
        return f"MalformedTrace: {exc}"


def walk_differential(max_records, histograms=False):
    """Check the chain walk against the reference classifier on every trace
    of up to max_records records; returns how many traces it checked."""
    checked = 0
    for length in range(max_records + 1):
        for trace in itertools.product(CHAIN_RECORDS, repeat=length):
            outcome = base_outcome(trace)
            expected = labels_or_error(reference_classify, outcome)
            assert labels_or_error(classify_steps, outcome) == expected, trace
            if histograms:
                hist = labels_or_error(proof_case_histogram, outcome)
                if isinstance(expected, list):
                    expected = {case: expected.count(case) for case in (C1, C2, C3_1, C3_2)}
                assert hist == expected, trace
            checked += 1
    return checked


def test_the_walk_matches_the_reference_classifier_on_every_short_trace():
    assert walk_differential(3, histograms=True) == 6_175


def test_the_walk_yields_every_chain_record_once_in_trace_order():
    outcome, _ = run(golden_ring5())
    chain = [r for r in outcome.trace if r.message.kind in (KIND_ACTIVATION, KIND_END_OF_ROUND)]
    steps = list(chain_steps(outcome))
    assert [r for r, _ in steps] == chain
    assert [case for _, case in steps] == [None, C2, C3_2, C2, C1]


if __name__ == "__main__":
    # The wide form of the walk differential, every trace of up to 5 records:
    #     PYTHONPATH=src python tests/test_protocol.py
    t0 = time.perf_counter()
    checked = walk_differential(5)
    print(f"chain walk equals the reference classifier on {checked} traces, "
          f"{time.perf_counter() - t0:.1f}s")
    assert checked == 2_000_719, checked
