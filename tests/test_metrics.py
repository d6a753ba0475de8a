import math

import pytest

from auctionmapf.metrics import (
    AGGREGATE_METRICS,
    TRIALS_COLUMNS,
    UTILITY_CURVE_COLUMNS,
    TrialRecord,
    aggregate,
    aggregates_csv,
    score_trial,
    trials_csv,
    utility_curves_csv,
)
from auctionmapf.planner import SimulationTrace
from auctionmapf.world import AgentState, GridWorld, Scenario


def _trace(arrivals, completed=True, collisions=()):
    return SimulationTrace(
        configurations=[],
        conflicts=[],
        collisions=list(collisions),
        arrival_times=dict(arrivals),
        lines=[],
        ticks=max((t for t in arrivals.values() if t is not None), default=0),
        completed=completed,
    )


def _scenario(incentives):
    grid = GridWorld(10, 10)
    agents = [
        AgentState(id=i, pos=(i, 0), goal=(i, 9), incentive=v)
        for i, v in enumerate(incentives)
    ]
    return Scenario(grid=grid, agents=agents, kind="custom")


def test_score_trial_worked_example():
    # t_g = [3, 5], v = [2, 1]
    record = score_trial(_trace({0: 3, 1: 5}), _scenario([2, 1]), 0.1, "auction")
    assert record.soc == 8
    assert record.weighted_soc == 11
    assert record.welfare == pytest.approx(2 / 3 + 1 / 5)
    assert record.completed
    assert record.collisions == 0


def test_score_trial_all_arrive_at_tick_one():
    n = 5
    record = score_trial(
        _trace({i: 1 for i in range(n)}), _scenario([1] * n), 0.0, "auction"
    )
    assert record.welfare == pytest.approx(n)


def test_score_trial_excludes_unarrived_agents():
    record = score_trial(
        _trace({0: 4, 1: None}, completed=False), _scenario([2, 3]), 0.0, "auction"
    )
    assert not record.completed
    assert record.soc == 4
    assert record.weighted_soc == 8
    assert record.welfare == pytest.approx(2 / 4)
    assert record.time_to_goal[1] is None


def test_score_trial_agent_starting_on_goal():
    record = score_trial(_trace({0: 0}), _scenario([3]), 0.0, "auction")
    assert record.soc == 0
    # an agent already at its goal contributes its full incentive
    assert record.welfare == pytest.approx(3.0)


def test_aggregate_identical_records_have_zero_spread():
    records = [
        score_trial(_trace({0: 3}), _scenario([2]), 0.5, "auction") for _ in range(100)
    ]
    aggs = aggregate(records, group_by=("solver",))
    assert len(aggs) == 1
    assert aggs[0].count == 100
    for metric in AGGREGATE_METRICS:
        mean, std, ci = aggs[0].stats[metric]
        assert std == pytest.approx(0.0, abs=1e-12)
        assert ci == pytest.approx(0.0, abs=1e-12)


def test_aggregate_two_point_sample_std():
    r1 = score_trial(_trace({0: 2}), _scenario([1]), 0.0, "auction")
    r2 = score_trial(_trace({0: 4}), _scenario([1]), 0.0, "auction")
    aggs = aggregate([r1, r2], group_by=("solver",))
    mean, std, ci = aggs[0].stats["soc"]
    assert mean == 3.0
    assert std == pytest.approx(math.sqrt(2))
    assert ci == pytest.approx(1.96 * math.sqrt(2) / math.sqrt(2))


def test_aggregate_grouping_contract():
    records = []
    for solver in ("auction", "fifo"):
        for gap in (1, 3):
            rec = score_trial(_trace({0: 2}), _scenario([1]), 0.0, solver)
            rec.gap_size = gap
            records.append(rec)
    aggs = aggregate(records, group_by=("solver", "kind", "gap_size"))
    keys = [(a.group["solver"], a.group["gap_size"]) for a in aggs]
    assert len(aggs) == 4
    assert keys == sorted(keys, key=lambda k: (k[0], str(k[1])))


def test_aggregate_errors():
    with pytest.raises(ValueError):
        aggregate([])
    rec = score_trial(_trace({0: 2}), _scenario([1]), 0.0, "auction")
    with pytest.raises(ValueError):
        aggregate([rec], group_by=("nonexistent",))


def test_trials_csv_schema():
    rec = score_trial(_trace({0: 3, 1: 5}), _scenario([2, 1]), 0.125, "auction")
    text = trials_csv([rec])
    lines = text.splitlines()
    assert lines[0] == ",".join(TRIALS_COLUMNS)
    fields = lines[1].split(",")
    assert fields[0] == "auction"
    assert fields[6] == "0.125000"
    assert fields[7] == "1"   # completed
    assert fields[9] == "8"   # soc
    assert fields[10] == "11"  # weighted_soc


def test_aggregates_csv_schema():
    rec = score_trial(_trace({0: 3}), _scenario([1]), 0.0, "auction")
    aggs = aggregate([rec, rec], group_by=("solver", "kind", "n_agents"))
    text = aggregates_csv(aggs, ("solver", "kind", "n_agents"))
    header = text.splitlines()[0].split(",")
    assert header[:4] == ["solver", "kind", "n_agents", "count"]
    assert "welfare_mean" in header and "welfare_ci95" in header
    assert len(header) == 4 + 3 * len(AGGREGATE_METRICS)


def test_utility_curves_csv_schema():
    text = utility_curves_csv([(0, 3.0, 2.5, 1.25)])
    lines = text.splitlines()
    assert lines[0] == ",".join(UTILITY_CURVE_COLUMNS)
    assert lines[1] == "0,3.000000,2.500000,1.250000"


def test_auction_utilities_accumulate_from_conflicts():
    from fractions import Fraction

    from auctionmapf.auction import AuctionOutcome
    from auctionmapf.planner import ResolvedConflict

    trace = _trace({0: 3, 1: 5})
    trace.conflicts = [
        ResolvedConflict(
            tick=0,
            cell=(1, 1),
            contenders=(0, 1),
            bids={0: Fraction(2), 1: Fraction(1)},
            ordering=AuctionOutcome(
                ordering={0: 1, 1: 2},
                payments={0: Fraction(1, 2), 1: Fraction(0)},
                utilities={0: Fraction(3, 2), 1: Fraction(1, 2)},
                welfare=Fraction(2),
            ),
        )
    ]
    record = score_trial(trace, _scenario([2, 1]), 0.0, "auction")
    assert record.utilities == {0: 1.5, 1: 0.5}
    assert record.total_payments == 0.5
