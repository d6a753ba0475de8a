import json
import random
from pathlib import Path

import pytest

from auctionmapf.cbs import (
    EDGE_WEIGHT_FLOOR,
    Constraint,
    _low_level,
    _move_table,
    _path_cost,
    execute_multihop,
    path_time_to_goal,
    plan_cbs,
    run_cbs_trial,
    sample_edge_weights,
)
from auctionmapf.world import AgentState, GridWorld, Scenario, distances, make_scenario

from helpers import joint_soc_oracle

BENCH = Path(__file__).resolve().parents[1] / "bench"


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


def test_edge_weights_drawn_in_row_major_order():
    # . . #
    # . . .
    grid = GridWorld(3, 2, frozenset({(0, 2)}))
    weights = sample_edge_weights(grid, 0.3, random.Random(11))
    # each free cell in row-major order draws its down edge, then its right edge
    assert list(weights) == [
        frozenset({(0, 0), (1, 0)}),
        frozenset({(0, 0), (0, 1)}),
        frozenset({(0, 1), (1, 1)}),
        frozenset({(1, 0), (1, 1)}),
        frozenset({(1, 1), (1, 2)}),
    ]
    rng = random.Random(11)
    for w in weights.values():
        assert w == max(EDGE_WEIGHT_FLOOR, 1.0 + rng.gauss(0.0, 0.3))


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
    a = plan_cbs(scenario, noise_sigma=0.3, variant="cbs")
    b = plan_cbs(scenario, noise_sigma=0.3, variant="cbs")
    assert a.paths == b.paths
    assert a.cost == b.cost


def test_variants_agree_without_cost_ties():
    # sigma > 0 gives continuous costs, so exact ties are absent and the
    # random tie-break cannot change which node is optimal
    scenario = make_scenario("doorway", 8, 8, 2, gap_size=1, rng_seed=5)
    a = plan_cbs(scenario, noise_sigma=0.2, variant="cbs")
    b = plan_cbs(scenario, noise_sigma=0.2, variant="cbs-random")
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
    for sigma in (-0.1, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            plan_cbs(scenario, noise_sigma=sigma)


def _plan_one(grid, start, goal, constraints=(), weights=None):
    """_low_level over the move table plan_cbs would build for `weights`."""
    if weights is None:
        weights = sample_edge_weights(grid, 0.0, random.Random(0))
    moves = _move_table(grid, weights)
    min_w = min(weights.values(), default=1.0)
    return _low_level(grid, start, goal, frozenset(constraints), moves, min_w, None)


def test_move_table_lists_wait_then_neighbors():
    grid = GridWorld(3, 3, obstacles=frozenset({(0, 1)}))
    weights = sample_edge_weights(grid, 0.5, random.Random(4))
    moves = _move_table(grid, weights)
    assert set(moves) == set(grid.free_cells())
    for cell, row in moves.items():
        assert row[0] == (cell, 1.0)
        assert [nxt for nxt, _ in row[1:]] == grid.neighbors(cell)
        assert all(w == weights[frozenset((cell, nxt))] for nxt, w in row[1:])


def test_low_level_vertex_constraint_forces_a_wait():
    # a one-row corridor: the only way round a blocked cell is to wait
    grid = GridWorld(3, 1)
    path, cost = _plan_one(grid, (0, 0), (0, 2), [Constraint(0, (0, 1), 1)])
    assert path == [(0, 0), (0, 0), (0, 1), (0, 2)]
    assert cost == 3.0


def test_low_level_vertex_constraint_forces_a_detour():
    # a wait is dearer than going round when waiting leaves the cell blocked
    grid = GridWorld(3, 2)
    cons = [Constraint(0, (0, 1), t) for t in range(1, 6)]
    path, cost = _plan_one(grid, (0, 0), (0, 2), cons)
    assert (0, 1) not in path
    assert path == [(0, 0), (1, 0), (1, 1), (1, 2), (0, 2)]
    assert cost == 4.0


def test_low_level_edge_constraint_forbids_one_traversal():
    grid = GridWorld(2, 1)
    path, _ = _plan_one(grid, (0, 0), (0, 1))
    assert path == [(0, 0), (0, 1)]
    # the move (0,0) -> (0,1) is forbidden at tick 0 only
    path, cost = _plan_one(grid, (0, 0), (0, 1), [Constraint(0, (0, 1), 0, cell_from=(0, 0))])
    assert path == [(0, 0), (0, 0), (0, 1)]
    assert cost == 2.0
    # the reverse direction at tick 0 does not block this agent
    path, _ = _plan_one(grid, (0, 0), (0, 1), [Constraint(0, (0, 0), 0, cell_from=(0, 1))])
    assert path == [(0, 0), (0, 1)]


def test_low_level_rests_at_goal_only_after_last_goal_constraint():
    grid = GridWorld(3, 1)
    # the goal is taken at tick 4, so the path may not end before tick 5
    path, _ = _plan_one(grid, (0, 0), (0, 2), [Constraint(0, (0, 2), 4)])
    assert path[-1] == (0, 2)
    assert len(path) - 1 == 5
    assert path[4] != (0, 2)
    # a constraint elsewhere does not delay the end
    path, _ = _plan_one(grid, (0, 0), (0, 2), [Constraint(0, (0, 0), 4)])
    assert len(path) - 1 == 2


def test_low_level_walled_off_goal_returns_none():
    wall = frozenset((r, 2) for r in range(4))
    grid = GridWorld(5, 4, obstacles=wall)
    assert _plan_one(grid, (0, 0), (0, 4)) is None


def test_low_level_cost_equals_path_cost_under_noise():
    grid = GridWorld(7, 7, obstacles=frozenset({(3, 1), (3, 2), (3, 3), (3, 5)}))
    for seed in range(10):
        weights = sample_edge_weights(grid, 0.3, random.Random(seed))
        cons = [Constraint(0, (3, 4), t) for t in range(3, 7)]
        path, cost = _plan_one(grid, (0, 0), (6, 6), cons, weights)
        assert path[0] == (0, 0) and path[-1] == (6, 6)
        assert cost == _path_cost(path, weights)


def test_cbs_plans_match_benchmark_reference_digests(monkeypatch):
    """Criterion 7's 3-agent intersections replay to the CBS digests recorded
    in bench/reference.json, so a change to any plan or expansion count fails
    here. Gap-1 seed 15 is left out: it takes about a minute."""
    monkeypatch.syspath_prepend(str(BENCH))
    from checks import cbs_digest

    reference = json.loads((BENCH / "reference.json").read_text())
    mismatched = []
    instances = [(9, seed) for seed in range(100)] + [(1, s) for s in range(40) if s != 15]
    for gap, seed in instances:
        scenario = make_scenario("intersection", 11, 11, 3, gap_size=gap, rng_seed=seed)
        trace, result = run_cbs_trial(scenario, noise_sigma=0.3, variant="cbs")
        key = f"intersection-11x11-n3-g{gap}:{seed}"
        if trace is None or cbs_digest(trace, result) != reference[key]["digest"]:
            mismatched.append(key)
    assert mismatched == []
