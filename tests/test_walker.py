"""Oracle self-tests: every expectation here is derived by hand, never from
the protocol engine. This module freezes the walker's behavior."""

import random

from conftest import golden_ring4, golden_ring5, make_scenario
from ftagg.model import DC
from ftagg.walker import predict_aggregate, reachable_active, responders


def test_ring4_responders_by_hand():
    # Meters 2 and 4 have no working concentrator link.
    assert responders(golden_ring4()) == [1, 3]


def test_ring4_walk_by_hand():
    # 1 hands to 3 directly (1-3 works); sum is 10 + 20.
    s = golden_ring4()
    assert reachable_active(s) == [1, 3]
    assert predict_aggregate(s) == 30


def test_ring5_walk_by_hand():
    # Responders 1,3,4,5; hop 3-4 is down so 4 is skipped; 3-5 works.
    s = golden_ring5()
    assert responders(s) == [1, 3, 4, 5]
    assert reachable_active(s) == [1, 3, 5]
    assert predict_aggregate(s) == 35


def test_full_mesh_walk_is_everyone():
    s = make_scenario(6, n_min=6)
    assert reachable_active(s) == [1, 2, 3, 4, 5, 6]
    assert predict_aggregate(s) == sum(10 * i for i in range(1, 7))


def test_too_few_responders_predicts_nothing():
    # Only meter 1 reaches the concentrator but the quorum is 2.
    s = make_scenario(3, working=[(DC, 1)], n_min=2)
    assert reachable_active(s) == []
    assert predict_aggregate(s) is None


def test_quorum_counts_walk_not_responders():
    # All three respond but 1 can reach neither 2 nor 3: walk too short.
    s = make_scenario(
        3,
        off=[(1, 2), (1, 3)],
        n_min=2,
    )
    assert responders(s) == [1, 2, 3]
    assert reachable_active(s) == [1]
    assert predict_aggregate(s) is None


def test_walk_follows_ring_order_not_index_order():
    s = make_scenario(3, order=[3, 1, 2], n_min=1)
    assert reachable_active(s) == [3, 1, 2]


def test_offline_meter_never_contributes():
    s = make_scenario(3, online={2: False}, n_min=1)
    assert responders(s) == [1, 3]
    assert reachable_active(s) == [1, 3]


def test_skipped_meter_is_not_a_relay():
    # 1-2 down and 2 is the only path to nothing: walk skips 2, keeps 3.
    s = make_scenario(3, off=[(1, 2)], n_min=1)
    assert reachable_active(s) == [1, 3]


def test_single_meter_round():
    s = make_scenario(1, n_min=1, measurements={1: 99})
    assert reachable_active(s) == [1]
    assert predict_aggregate(s) == 99


def test_walker_is_pure():
    s = golden_ring5()
    rng = random.Random(0)
    expected = reachable_active(s)
    for _ in range(5):
        assert reachable_active(s) == expected
        rng.random()
