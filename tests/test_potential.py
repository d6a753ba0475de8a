import random

import pytest

from auctionmapf import potential
from auctionmapf.planner import run_trial
from auctionmapf.potential import PotentialMap, build_potential_map
from auctionmapf.world import _UNSEEN, UNREACHABLE, CellIds, GridWorld, make_scenario

from helpers import bfs_distances, dijkstra_distance_field, neighbors


def _values(grid, goal):
    return build_potential_map(CellIds(grid), goal).values


def test_empty_grid_is_manhattan_distance():
    grid = GridWorld(3, 3)
    assert _values(grid, (1, 1)) == [[2, 1, 2], [1, 0, 1], [2, 1, 2]] == bfs_distances(grid, (1, 1))


def test_wall_forces_detour():
    grid = GridWorld(3, 3, frozenset({(0, 1), (1, 1)}))
    assert _values(grid, (1, 2))[1][0] == 4


def test_goal_on_obstacle_rejected():
    ids = CellIds(GridWorld(3, 3, frozenset({(0, 1)})))
    with pytest.raises(ValueError):
        build_potential_map(ids, (0, 1))


@pytest.mark.parametrize("goal", [(-1, 0), (0, 3), (3, 0), (0, -1)])
def test_goal_off_the_grid_rejected(goal):
    """Ids off the grid land on the ring or wrap into another row, so the
    goal check, not the flood, must catch them."""
    ids = CellIds(GridWorld(3, 3))
    with pytest.raises(ValueError):
        build_potential_map(ids, goal)


def _padded(rows, width):
    """`[row][col]` values laid out by padded id, -1 on the ring; written
    out here rather than taken from `CellIds`."""
    ring = [-1] * (width + 2)
    return ring + [v for row in rows for v in (-1, *row, -1)] + ring


def _cut_grids():
    """Every shape from 1x1 to 9x9, each with seeded random obstacles and
    with a wall row or column across the middle, which cuts off a region
    whenever the wall is not on an edge."""
    rng = random.Random(22)
    for height in range(1, 10):
        for width in range(1, 10):
            cells = [(r, c) for r in range(height) for c in range(width)]
            for density in (0.2, 0.4):
                yield GridWorld(width, height, frozenset(c for c in cells if rng.random() < density))
            if height > 2:
                wall = {(height // 2, c) for c in range(width)}
            elif width > 2:
                wall = {(r, width // 2) for r in range(height)}
            else:
                continue
            extra = {c for c in cells if rng.random() < 0.15}
            yield GridWorld(width, height, frozenset(wall | extra))


def test_flood_matches_bfs_oracle_from_every_source():
    """From every free cell of every grid, the flat field is the oracle's
    rows laid out by id with an unreachable ring, the `values` view gives
    the rows back, and no unseen sentinel is left behind."""
    grids = cut_off = 0
    for grid in _cut_grids():
        free = grid.free_cells()
        if not free:
            continue
        ids = CellIds(grid)
        grids += 1
        components = set()
        for source in free:
            rows = bfs_distances(grid, source)
            pot = build_potential_map(ids, source)
            assert pot.field == _padded(rows, grid.width), (grid, source)
            assert pot.values == rows
            assert _UNSEEN not in pot.field
            components.add(frozenset(cell for cell in free if rows[cell[0]][cell[1]] >= 0))
        cut_off += len(components) > 1
    assert grids > 200
    assert cut_off > 50


def test_obstacles_and_unreachable_cells_marked():
    grid = GridWorld(4, 4, frozenset({(0, 2), (1, 2), (2, 2), (3, 2)}))
    values = _values(grid, (0, 0))
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
        values = _values(grid, goal)
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
        values = _values(grid, goal)
        for r, c in free:
            if (r, c) == goal or values[r][c] == UNREACHABLE:
                continue
            assert any(values[nr][nc] < values[r][c] for nr, nc in neighbors(grid, (r, c)))


def test_goal_cell_is_zero_and_neighbors_increment():
    grid = GridWorld(6, 6)
    values = _values(grid, (2, 3))
    assert values[2][3] == 0
    for r, c in grid.free_cells():
        if (r, c) == (2, 3) or values[r][c] == UNREACHABLE:
            continue
        assert values[r][c] == 1 + min(values[nr][nc] for nr, nc in neighbors(grid, (r, c)))


def test_run_trial_builds_one_potential_per_agent(monkeypatch):
    """The planner floods each agent's goal once, through the module
    attribute that the benchmark's `potential.build` span wraps."""
    goals = []
    build = potential.build_potential_map

    def counted(ids, goal):
        goals.append(goal)
        return build(ids, goal)

    monkeypatch.setattr(potential, "build_potential_map", counted)
    scenario = make_scenario("doorway", 10, 10, 6, gap_size=1, rng_seed=4)
    run_trial(scenario)
    assert sorted(goals) == sorted(a.goal for a in scenario.agents)


def test_trial_never_builds_the_rows(monkeypatch):
    """The tick reads the flat field only: a doorway trial runs to the same
    end with the `[row][col]` view made to raise."""
    scenario = make_scenario("doorway", 10, 10, 6, gap_size=1, rng_seed=4)
    expected = run_trial(scenario)

    def rows(self):
        raise AssertionError("a trial built the [row][col] rows")

    monkeypatch.setattr(PotentialMap, "values", property(rows))
    trace = run_trial(scenario)
    assert trace.conflicts
    assert trace.export_lines() == expected.export_lines()
