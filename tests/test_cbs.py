import random

import pytest

from auctionmapf.cbs import (
    Constraint,
    execute_multihop,
    path_time_to_goal,
    plan_cbs,
    run_cbs_trial,
    sample_edge_weights,
)
from auctionmapf.world import AgentState, GridWorld, Scenario, distances, make_scenario

from helpers import joint_soc_oracle


def _scenario(grid, specs):
    agents = [
        AgentState(id=i, pos=s, goal=g, incentive=v) for i, (s, g, v) in enumerate(specs)
    ]
    return Scenario(grid=grid, agents=agents, kind="custom")


def test_constraint_validation():
    with pytest.raises(ValueError):
        Constraint(agent_id=0, cell=(0, 0), tick=-1)
    vertex = Constraint(agent_id=0, cell=(0, 0), tick=2)
    edge = Constraint(agent_id=0, cell=(0, 1), tick=2, cell_from=(0, 0))
    assert not vertex.is_edge
    assert edge.is_edge


def test_edge_weights_unit_without_noise():
    grid = GridWorld(4, 4)
    weights = sample_edge_weights(grid, 0.0, random.Random(0))
    assert len(weights) == 2 * 4 * 3  # horizontal + vertical edges
    assert all(w == 1.0 for w in weights.values())


def test_edge_weights_respect_floor():
    grid = GridWorld(6, 6)
    weights = sample_edge_weights(grid, 5.0, random.Random(3))
    assert all(w >= 0.01 for w in weights.values())
    assert len(set(weights.values())) > 1


def test_single_agent_gets_shortest_path():
    grid = GridWorld(5, 5)
    scenario = _scenario(grid, [((0, 0), (4, 4), 1)])
    result = plan_cbs(scenario, noise_sigma=0.0)
    assert not result.timed_out
    path = result.paths[0]
    assert path[0] == (0, 0) and path[-1] == (4, 4)
    assert len(path) - 1 == distances(grid, (0, 0))[4][4]
    assert result.cost == len(path) - 1


def test_crossing_agents_plan_is_collision_free_and_optimal():
    grid = GridWorld(5, 5)
    scenario = _scenario(grid, [((2, 0), (2, 4), 1), ((0, 2), (4, 2), 1)])
    result = plan_cbs(scenario, noise_sigma=0.0)
    soc = sum(path_time_to_goal(p) for p in result.paths.values())
    oracle = joint_soc_oracle(grid, [(2, 0), (0, 2)], [(2, 4), (4, 2)])
    assert soc == oracle
    trace = execute_multihop(result.paths, {0: 1, 1: 1})
    assert trace.collisions == []


def test_unit_incentive_execution_never_collides():
    for seed in range(10):
        scenario = make_scenario(
            "random-obstacles", 6, 6, 3, rng_seed=seed, n_obstacles=5,
            incentive_range=(1, 1),
        )
        result = plan_cbs(scenario, noise_sigma=0.0)
        assert not result.timed_out
        trace = execute_multihop(result.paths, {a.id: 1 for a in scenario.agents})
        assert trace.collisions == []
        assert trace.completed


def test_multihop_execution_collides_on_crossing_paths():
    # unit-step-safe plans become unsafe when replayed at speed 3
    grid = GridWorld(5, 5)
    scenario = _scenario(grid, [((2, 0), (2, 4), 3), ((0, 2), (4, 2), 3)])
    result = plan_cbs(scenario, noise_sigma=0.0)
    trace = execute_multihop(result.paths, {0: 3, 1: 3})
    assert len(trace.collisions) >= 1


def test_multihop_counts_swaps():
    paths = {0: [(0, 0), (0, 1)], 1: [(0, 1), (0, 0)]}
    trace = execute_multihop(paths, {0: 1, 1: 1})
    assert len(trace.collisions) == 1
    assert trace.collisions[0][2] == (0, 1)


def test_multihop_advances_min_of_incentive_and_remaining():
    paths = {0: [(0, 0), (0, 1), (0, 2), (0, 3)]}
    trace = execute_multihop(paths, {0: 5})
    assert trace.ticks == 1
    assert trace.arrival_times[0] == 1
    trace = execute_multihop(paths, {0: 2})
    assert trace.ticks == 2
    assert trace.arrival_times[0] == 2


def test_path_time_to_goal_ignores_trailing_waits():
    path = [(0, 0), (0, 1), (0, 2), (0, 2), (0, 2)]
    assert path_time_to_goal(path) == 2
    assert path_time_to_goal([(1, 1)]) == 0
    # a mid-path visit to the goal cell does not count as arrival
    path = [(0, 0), (0, 1), (0, 0), (0, 1)]
    assert path_time_to_goal(path) == 3


def test_plan_cbs_deterministic():
    scenario = make_scenario("intersection", 11, 11, 3, gap_size=1, rng_seed=21)
    a = plan_cbs(scenario, noise_sigma=0.3, variant="cbs", rng_seed=scenario.seed)
    b = plan_cbs(scenario, noise_sigma=0.3, variant="cbs", rng_seed=scenario.seed)
    assert a.paths == b.paths
    assert a.cost == b.cost


def test_variants_agree_without_cost_ties():
    # sigma > 0 gives continuous costs, so exact ties are absent and the
    # random tie-break cannot change which node is optimal
    scenario = make_scenario("doorway", 8, 8, 2, gap_size=1, rng_seed=5)
    a = plan_cbs(scenario, noise_sigma=0.2, variant="cbs", rng_seed=scenario.seed)
    b = plan_cbs(scenario, noise_sigma=0.2, variant="cbs-random", rng_seed=scenario.seed)
    assert abs(a.cost - b.cost) < 1e-9


def test_timeout_returns_no_partial_paths():
    scenario = make_scenario("intersection", 11, 11, 6, gap_size=1, rng_seed=2)
    result = plan_cbs(scenario, noise_sigma=0.3, timeout=0.05)
    assert result.timed_out
    assert result.paths is None
    assert result.cost == float("inf")


def test_run_cbs_trial_roundtrip():
    scenario = make_scenario("intersection", 11, 11, 3, gap_size=3, rng_seed=9)
    trace, result = run_cbs_trial(scenario, noise_sigma=0.0)
    assert not result.timed_out
    assert trace is not None
    assert trace.completed
    assert all(t is not None for t in trace.arrival_times.values())


def test_invalid_arguments():
    scenario = make_scenario("doorway", 8, 8, 2, gap_size=1, rng_seed=0)
    with pytest.raises(ValueError):
        plan_cbs(scenario, variant="cbs-greedy")
    with pytest.raises(ValueError):
        plan_cbs(scenario, noise_sigma=-0.1)
