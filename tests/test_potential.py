import random

import pytest

from auctionmapf import potential
from auctionmapf.planner import run_trial
from auctionmapf.potential import build_potential_map
from auctionmapf.world import UNREACHABLE, GridWorld, distances, make_scenario

from helpers import dijkstra_distance_field


def test_empty_grid_is_manhattan_distance():
    grid = GridWorld(3, 3)
    pot = build_potential_map(grid, (1, 1))
    assert pot.values == [[2, 1, 2], [1, 0, 1], [2, 1, 2]] == distances(grid, (1, 1))


def test_wall_forces_detour():
    grid = GridWorld(3, 3, frozenset({(0, 1), (1, 1)}))
    pot = build_potential_map(grid, (1, 2))
    assert pot.values[1][0] == 4


def test_goal_on_obstacle_rejected():
    grid = GridWorld(3, 3, frozenset({(0, 1)}))
    with pytest.raises(ValueError):
        build_potential_map(grid, (0, 1))


def test_obstacles_and_unreachable_cells_marked():
    grid = GridWorld(4, 4, frozenset({(0, 2), (1, 2), (2, 2), (3, 2)}))
    values = build_potential_map(grid, (0, 0)).values
    assert values[0][2] == UNREACHABLE  # obstacle
    assert values[0][3] == UNREACHABLE  # cut off behind the wall
    assert values[3][1] != UNREACHABLE


def test_matches_dijkstra_oracle_on_random_grids():
    rng = random.Random(1234)
    for _ in range(100):
        obstacles = frozenset(
            (r, c) for r in range(10) for c in range(10) if rng.random() < 0.2
        )
        free = [(r, c) for r in range(10) for c in range(10) if (r, c) not in obstacles]
        if not free:
            continue
        goal = rng.choice(free)
        grid = GridWorld(10, 10, obstacles)
        values = build_potential_map(grid, goal).values
        oracle = dijkstra_distance_field(10, 10, obstacles, goal)
        for r in range(10):
            for c in range(10):
                if (r, c) in obstacles:
                    assert values[r][c] == UNREACHABLE
                else:
                    assert values[r][c] == oracle[r][c]


def test_monotone_descent_no_local_minima():
    rng = random.Random(77)
    for _ in range(50):
        obstacles = frozenset(
            (r, c) for r in range(10) for c in range(10) if rng.random() < 0.25
        )
        free = [(r, c) for r in range(10) for c in range(10) if (r, c) not in obstacles]
        if not free:
            continue
        goal = rng.choice(free)
        grid = GridWorld(10, 10, obstacles)
        values = build_potential_map(grid, goal).values
        for r, c in free:
            if (r, c) == goal or values[r][c] == UNREACHABLE:
                continue
            assert any(values[nr][nc] < values[r][c] for nr, nc in grid.neighbors((r, c)))


def test_goal_cell_is_zero_and_neighbors_increment():
    grid = GridWorld(6, 6)
    values = build_potential_map(grid, (2, 3)).values
    assert values[2][3] == 0
    for r, c in grid.free_cells():
        if (r, c) == (2, 3) or values[r][c] == UNREACHABLE:
            continue
        assert values[r][c] == 1 + min(values[nr][nc] for nr, nc in grid.neighbors((r, c)))


def test_run_trial_builds_one_potential_per_agent(monkeypatch):
    """The planner floods each agent's goal once, through the module
    attribute that the benchmark's `potential.build` span wraps."""
    goals = []
    build = potential.build_potential_map

    def counted(grid, goal):
        goals.append(goal)
        return build(grid, goal)

    monkeypatch.setattr(potential, "build_potential_map", counted)
    scenario = make_scenario("doorway", 10, 10, 6, gap_size=1, rng_seed=4)
    run_trial(scenario)
    assert sorted(goals) == sorted(a.goal for a in scenario.agents)
