import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from auctionmapf.auction import (
    Bid,
    RewardSchedule,
    harmonic_schedule,
    run_auction,
    sweep_utilities,
)

from helpers import allocate, payment, utility

F = Fraction


def test_worked_example_payments_and_utilities():
    bids = [Bid(0, F(7)), Bid(1, F(4)), Bid(2, F(2))]
    outcome = run_auction(bids, schedule=harmonic_schedule(3))
    assert outcome.ordering == {0: 1, 1: 2, 2: 3}
    assert outcome.payments == {0: F(7, 3), 1: F(1, 3), 2: F(0)}
    assert outcome.utilities == {0: F(14, 3), 1: F(5, 3), 2: F(2, 3)}
    assert outcome.welfare == F(29, 3)


def test_payment_terms_by_turn():
    schedule = harmonic_schedule(3)
    amounts = [F(7), F(4), F(2)]
    assert payment(amounts, 1, schedule) == F(7, 3)
    assert payment(amounts, 2, schedule) == F(1, 3)
    assert payment(amounts, 3, schedule) == F(0)
    with pytest.raises(ValueError):
        payment(amounts, 4, schedule)
    with pytest.raises(ValueError):
        payment(amounts, 0, schedule)


def test_utility_formula():
    schedule = harmonic_schedule(3)
    assert utility(7, 1, F(7, 3), schedule) == F(14, 3)
    assert utility(4, 2, F(1, 3), schedule) == F(5, 3)
    assert utility(0, 2, 0, schedule) == 0


def test_allocation_sorts_by_descending_bid():
    bids = [Bid(0, F(2)), Bid(1, F(7)), Bid(2, F(4))]
    assert allocate(bids) == {1: 1, 2: 2, 0: 3}


def test_allocation_tie_breaks_by_arrival_then_id():
    bids = [Bid(0, F(5), arrival=4), Bid(1, F(5), arrival=2)]
    assert allocate(bids) == {1: 1, 0: 2}
    bids = [Bid(3, F(5)), Bid(1, F(5))]
    assert allocate(bids) == {1: 1, 3: 2}
    with pytest.raises(ValueError):
        allocate([])


def test_specific_deviation_is_unprofitable():
    # value-4 agent overbidding to 8 against truthful 7 and 2
    truthful = run_auction([Bid(0, F(7)), Bid(1, F(4)), Bid(2, F(2))])
    deviating = run_auction(
        [Bid(0, F(7)), Bid(1, F(8)), Bid(2, F(2))],
        true_values={0: F(7), 1: F(4), 2: F(2)},
    )
    assert truthful.utilities[1] == F(5, 3)
    assert deviating.utilities[1] == F(1, 6)
    assert deviating.utilities[1] < truthful.utilities[1]


def test_equal_bids_give_same_welfare_under_either_order():
    a = run_auction([Bid(0, F(5), arrival=0), Bid(1, F(5), arrival=1)])
    b = run_auction([Bid(0, F(5), arrival=1), Bid(1, F(5), arrival=0)])
    assert a.welfare == b.welfare
    assert a.turn_order() != b.turn_order()


def test_schedule_validation():
    with pytest.raises(ValueError):
        RewardSchedule(())
    with pytest.raises(ValueError):
        RewardSchedule((F(1), F(1)))  # not strictly decreasing
    with pytest.raises(ValueError):
        RewardSchedule((F(1), F(0)))  # not positive
    sched = harmonic_schedule(3)
    assert sched.alpha(1) == F(1)
    assert sched.alpha(3) == F(1, 3)
    assert sched.alpha(4) == F(0)  # past the end
    with pytest.raises(ValueError):
        sched.alpha(0)


def test_negative_bid_rejected():
    with pytest.raises(ValueError):
        Bid(0, F(-1))


def test_auction_needs_two_contenders():
    with pytest.raises(ValueError):
        run_auction([Bid(0, F(1))])


values_strategy = st.lists(st.integers(min_value=1, max_value=10), min_size=2, max_size=6)


@settings(max_examples=200, deadline=None)
@given(
    values=values_strategy,
    focal=st.integers(min_value=0, max_value=5),
    deviation=st.integers(min_value=0, max_value=30),
)
def test_truthful_bidding_dominates(values, focal, deviation):
    focal %= len(values)
    schedule = harmonic_schedule(len(values))
    true_values = {i: F(v) for i, v in enumerate(values)}
    truthful = run_auction(
        [Bid(i, F(v)) for i, v in enumerate(values)], schedule, true_values
    )
    bid = F(deviation, 2)  # 0.5-step grid over [0, 15]
    deviating = run_auction(
        [Bid(i, bid if i == focal else F(v)) for i, v in enumerate(values)],
        schedule,
        true_values,
    )
    assert truthful.utilities[focal] >= deviating.utilities[focal]


@settings(max_examples=200, deadline=None)
@given(values=values_strategy)
def test_welfare_matches_permutation_brute_force(values):
    schedule = harmonic_schedule(len(values))
    outcome = run_auction([Bid(i, F(v)) for i, v in enumerate(values)], schedule)
    best = max(
        sum(F(v) * schedule.alpha(q) for q, v in enumerate(perm, start=1))
        for perm in itertools.permutations(values)
    )
    assert outcome.welfare == best


@settings(max_examples=100, deadline=None)
@given(values=values_strategy, scale=st.integers(min_value=1, max_value=20))
def test_ordering_invariant_under_positive_scaling(values, scale):
    base = run_auction([Bid(i, F(v)) for i, v in enumerate(values)]).ordering
    scaled = run_auction([Bid(i, F(v * scale)) for i, v in enumerate(values)]).ordering
    assert base == scaled


@settings(max_examples=200, deadline=None)
@given(values=values_strategy)
def test_individual_rationality_at_truthful_bids(values):
    outcome = run_auction([Bid(i, F(v)) for i, v in enumerate(values)])
    assert all(u >= 0 for u in outcome.utilities.values())


@settings(max_examples=100, deadline=None)
@given(values=values_strategy)
def test_payments_nonincreasing_in_turn(values):
    schedule = harmonic_schedule(len(values))
    amounts = sorted((F(v) for v in values), reverse=True)
    pays = [payment(amounts, q, schedule) for q in range(1, len(values) + 1)]
    assert all(a >= b for a, b in zip(pays, pays[1:]))
    assert pays[-1] == 0


@settings(max_examples=100, deadline=None)
@given(
    bids=st.lists(st.integers(min_value=0, max_value=100), min_size=2, max_size=50),
    arrivals=st.lists(st.integers(min_value=0, max_value=3), min_size=50, max_size=50),
    halves=st.lists(st.integers(min_value=0, max_value=200), min_size=50, max_size=50),
    extra_turns=st.integers(min_value=0, max_value=3),
    data=st.data(),
)
def test_run_auction_matches_payment_and_utility_rules(
    bids, arrivals, halves, extra_turns, data
):
    k = len(bids)
    n = k + extra_turns
    drops = data.draw(st.none() | st.lists(st.integers(1, 20), min_size=n, max_size=n))
    if drops is None:
        schedule = harmonic_schedule(n)
    else:
        # alpha_q = sum of drops[j-1] / j over j >= q: positive, strictly
        # decreasing, and over mixed denominators
        terms = [F(d, j) for j, d in enumerate(drops, start=1)]
        schedule = RewardSchedule(tuple(sum(terms[q:]) for q in range(n)))
    true_values = {i: F(halves[i], 2) for i in range(k)}
    bid_list = [Bid(i, F(b), arrivals[i]) for i, b in enumerate(bids)]
    outcome = run_auction(bid_list, schedule, true_values)
    assert outcome.ordering == allocate(bid_list)
    amounts_desc = sorted((F(b) for b in bids), reverse=True)
    for aid, q in outcome.ordering.items():
        pay = payment(amounts_desc, q, schedule)
        assert outcome.payments[aid] == pay, (aid, q)
        assert outcome.utilities[aid] == utility(true_values[aid], q, pay, schedule), (aid, q)
    assert outcome.welfare == sum(
        true_values[aid] * schedule.alpha(q) for aid, q in outcome.ordering.items()
    )


@settings(max_examples=100, deadline=None)
@given(values=values_strategy)
def test_properties_hold_for_delay_schedule(values):
    # the delay schedule alpha_q = 1/(d + q - 1) with head start d = 3
    schedule = RewardSchedule(tuple(F(1, 2 + q) for q in range(1, len(values) + 1)))
    true_values = {i: F(v) for i, v in enumerate(values)}
    truthful = run_auction(
        [Bid(i, F(v)) for i, v in enumerate(values)], schedule, true_values
    )
    assert all(u >= 0 for u in truthful.utilities.values())
    for focal in range(len(values)):
        for deviation in (F(0), F(1, 2), F(5), F(12)):
            deviating = run_auction(
                [
                    Bid(i, deviation if i == focal else F(v))
                    for i, v in enumerate(values)
                ],
                schedule,
                true_values,
            )
            assert truthful.utilities[focal] >= deviating.utilities[focal]


def test_sweep_utilities_flat_for_single_contender():
    curve = sweep_utilities([Bid(0, F(3))], 0, [F(0), F(1), F(5)])
    assert [u for _, u in curve] == [F(3), F(3), F(3)]


def test_sweep_utilities_peaks_at_true_value():
    bids = [Bid(0, F(5)), Bid(1, F(3))]
    grid = [F(x, 2) for x in range(0, 21)]
    curve = sweep_utilities(bids, 1, grid)  # agent 1's true value is its bid, 3
    by_bid = dict(curve)
    best = max(by_bid.values())
    assert by_bid[F(3)] == best
    # overtaking the value-5 rival is strictly worse for the value-3 agent
    assert by_bid[F(6)] < best


def test_sweep_utilities_unknown_agent():
    with pytest.raises(ValueError):
        sweep_utilities([Bid(0, F(1)), Bid(1, F(2))], 9, [F(1)])
    with pytest.raises(ValueError):
        sweep_utilities([Bid(0, F(1)), Bid(1, F(2))], 0, [])
