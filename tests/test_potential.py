import random

import pytest

from auctionmapf.potential import UNREACHABLE, build_potential_map, build_potential_maps
from auctionmapf.world import GridWorld, grid_from_ascii

from helpers import dijkstra_distance_field


def test_empty_grid_is_manhattan_distance():
    grid = GridWorld(3, 3)
    pot = build_potential_map(grid, (1, 1))
    assert pot.values == ((2, 1, 2), (1, 0, 1), (2, 1, 2))


def test_wall_forces_detour():
    grid = grid_from_ascii(".#.\n.#.\n...")
    pot = build_potential_map(grid, (1, 2))
    assert pot[(1, 0)] == 4


def test_goal_on_obstacle_rejected():
    grid = grid_from_ascii(".#.\n...\n...")
    with pytest.raises(ValueError):
        build_potential_map(grid, (0, 1))


def test_obstacles_and_unreachable_cells_marked():
    grid = grid_from_ascii("..#.\n..#.\n..#.\n..#.")
    pot = build_potential_map(grid, (0, 0))
    assert pot[(0, 2)] == UNREACHABLE  # obstacle
    assert pot[(0, 3)] == UNREACHABLE  # cut off behind the wall
    assert pot[(3, 1)] != UNREACHABLE


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
        pot = build_potential_map(grid, goal)
        oracle = dijkstra_distance_field(10, 10, obstacles, goal)
        for r in range(10):
            for c in range(10):
                if (r, c) in obstacles:
                    assert pot[(r, c)] == UNREACHABLE
                else:
                    assert pot[(r, c)] == oracle[r][c]


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
        pot = build_potential_map(grid, goal)
        for cell in free:
            if cell == goal or pot[cell] == UNREACHABLE:
                continue
            assert any(pot[n] < pot[cell] for n in grid.neighbors(cell))


def test_goal_cell_is_zero_and_neighbors_increment():
    grid = GridWorld(6, 6)
    pot = build_potential_map(grid, (2, 3))
    assert pot[(2, 3)] == 0
    for cell in grid.free_cells():
        if cell == (2, 3) or pot[cell] == UNREACHABLE:
            continue
        assert pot[cell] == 1 + min(pot[n] for n in grid.neighbors(cell))


def test_build_potential_maps_one_per_distinct_goal():
    grid = GridWorld(4, 4)
    maps = build_potential_maps(grid, [(0, 0), (3, 3), (0, 0)])
    assert set(maps) == {(0, 0), (3, 3)}
    assert maps[(0, 0)].goal == (0, 0)
