import hashlib

import pytest

from auctionmapf.world import (
    MOVES,
    AgentState,
    CellIds,
    GridWorld,
    Scenario,
    ScenarioError,
    UNREACHABLE,
    grid_to_ascii,
    make_scenario,
    scenario_to_json,
)

from helpers import bfs_distances


@pytest.mark.parametrize("width, height", [(1, 6), (6, 1), (5, 3), (3, 5)])
def test_cell_ids_round_trip_in_row_major_order_with_an_unreachable_ring(width, height):
    grid = GridWorld(width, height, frozenset({(height - 1, width - 1)}))
    ids = CellIds(grid)
    cells = [(r, c) for r in range(height) for c in range(width)]
    numbered = [ids.id(cell) for cell in cells]
    assert [ids.cells[i] for i in numbered] == cells
    # int order is (row, col) order
    assert numbered == sorted(set(numbered))
    # each move's offset reaches the neighbour it names, or a ring id
    for (r, c), i in zip(cells, numbered):
        for (name, d), (_, dr, dc) in zip(ids.moves, MOVES):
            nxt = (r + dr, c + dc)
            assert ids.cells[i + d] == (nxt if grid.in_bounds(nxt) else None), name
    # every move has its inverse among the moves
    offsets = {d for _, d in ids.moves}
    assert offsets == {-d for d in offsets}
    ring = [i for i, cell in enumerate(ids.cells) if cell is None]
    assert len(ring) == len(ids.cells) - width * height == 2 * (width + height) + 4
    rows = bfs_distances(grid, (0, 0))
    field = ids.flood(ids.id((0, 0)))
    assert len(field) == len(ids.cells)
    assert all(field[i] == UNREACHABLE for i in ring)
    assert [field[i] for i in numbered] == [rows[r][c] for r, c in cells]


def test_agent_state_requires_positive_incentive():
    with pytest.raises(ValueError):
        AgentState(id=0, pos=(0, 0), goal=(1, 1), incentive=0)


def test_grid_world_rejects_outside_obstacles():
    with pytest.raises(ValueError):
        GridWorld(3, 3, frozenset({(5, 5)}))


def test_doorway_wall_has_exactly_gap_free_cells():
    scenario = make_scenario("doorway", 10, 10, 2, gap_size=1, rng_seed=7)
    wall_col = 10 // 2
    free_in_wall = [r for r in range(10) if (r, wall_col) not in scenario.grid.obstacles]
    assert len(free_in_wall) == 1
    for agent in scenario.agents:
        assert agent.pos[1] < wall_col
        assert agent.goal[1] > wall_col
        assert bfs_distances(scenario.grid, agent.pos)[agent.goal[0]][agent.goal[1]] != UNREACHABLE


def test_doorway_gap_size_parameter():
    scenario = make_scenario("doorway", 10, 10, 2, gap_size=3, rng_seed=0)
    wall_col = 5
    free_in_wall = [r for r in range(10) if (r, wall_col) not in scenario.grid.obstacles]
    assert len(free_in_wall) == 3


def test_zero_agents_rejected():
    with pytest.raises(ScenarioError):
        make_scenario("hallway", 10, 10, 0)


def test_unknown_kind_rejected():
    with pytest.raises(ScenarioError):
        make_scenario("maze", 10, 10, 2)


def test_random_obstacles_scenario():
    scenario = make_scenario(
        "random-obstacles", 10, 10, 15, rng_seed=1, n_obstacles=25, incentive_range=(1, 3)
    )
    assert len(scenario.grid.obstacles) == 25
    free = scenario.grid.free_cells()
    reach = bfs_distances(scenario.grid, free[0])
    assert all(reach[r][c] != UNREACHABLE for r, c in free)
    for agent in scenario.agents:
        assert bfs_distances(scenario.grid, agent.pos)[agent.goal[0]][agent.goal[1]] != UNREACHABLE


def test_hallway_goals_cross_the_corridor():
    scenario = make_scenario("hallway", 10, 10, 4, gap_size=2, rng_seed=3)
    # every agent must cross the corridor band: start and goal on opposite sides
    wall_cols = {c for (_, c) in scenario.grid.obstacles}
    c0, c1 = min(wall_cols), max(wall_cols)
    for agent in scenario.agents:
        sides = {agent.pos[1] < c0, agent.goal[1] < c0}
        assert sides == {True, False}
        assert agent.pos[1] < c0 or agent.pos[1] > c1


def test_intersection_goals_in_perpendicular_arms():
    scenario = make_scenario("intersection", 12, 12, 8, gap_size=3, rng_seed=5)
    rows = range((12 - 3) // 2, (12 - 3) // 2 + 3)
    cols = rows
    for agent in scenario.agents:
        start_vertical = agent.pos[1] in cols and agent.pos[0] not in rows
        goal_vertical = agent.goal[1] in cols and agent.goal[0] not in rows
        assert start_vertical != goal_vertical


def test_scenario_generation_is_deterministic():
    a = make_scenario("random-obstacles", 10, 10, 5, rng_seed=42, n_obstacles=12)
    b = make_scenario("random-obstacles", 10, 10, 5, rng_seed=42, n_obstacles=12)
    assert scenario_to_json(a) == scenario_to_json(b)


# SHA-256 of the matrix below; a change to any generated scenario, or to
# which inputs are rejected, changes it
GENERATED_SCENARIOS_SHA256 = "cf634c3c88c2c7f8f5c541faa3069a654f09ae166fe053cb2f3a15f86cea28de"


def test_generated_scenarios_match_pinned_digest():
    """Every kind over small to bench-sized grids, gaps and seeds, hashed as
    scenario JSON, or as "rejected" where ScenarioError is raised (the
    message is not hashed)."""
    digest = hashlib.sha256()
    for kind in ("doorway", "hallway", "intersection", "random-obstacles"):
        for width, height in ((3, 5), (4, 3), (7, 9), (12, 12), (20, 20)):
            for n_agents in (3, 20):
                for gap in (1, 3, 9):
                    for seed in range(4):
                        try:
                            text = scenario_to_json(make_scenario(
                                kind, width, height, n_agents, gap_size=gap, rng_seed=seed,
                                n_obstacles=width * height // 5,
                            ))
                        except ScenarioError:
                            text = "rejected"
                        key = f"{kind} {width}x{height} n{n_agents} g{gap} s{seed}"
                        digest.update(f"{key}\n{text}\n".encode())
    assert digest.hexdigest() == GENERATED_SCENARIOS_SHA256


def test_scenario_validation_rejects_duplicates():
    """Agent 1's (start, goal) pairs next to agent 0's (0, 0) -> (4, 4), each
    broken one way, on a grid with one obstacle at (2, 2)."""
    grid = GridWorld(5, 5, frozenset({(2, 2)}))
    for pos, goal, message in (
        ((0, 0), (3, 3), "duplicate start cells"),
        ((1, 0), (4, 4), "duplicate goal cells"),
        ((2, 2), (3, 3), "agent 1 start/goal on obstacle"),  # start on the obstacle
        ((1, 0), (2, 2), "agent 1 start/goal on obstacle"),  # goal on the obstacle
        ((1, 0), (5, 0), "agent 1 start/goal on obstacle or outside grid"),  # goal off the grid
        ((1, 0), (3, 3), None),
    ):
        agents = [
            AgentState(id=0, pos=(0, 0), goal=(4, 4), incentive=1),
            AgentState(id=1, pos=pos, goal=goal, incentive=1),
        ]
        scenario = Scenario(grid=grid, agents=agents, kind="custom")
        if message is None:
            scenario.validate()
            continue
        with pytest.raises(ScenarioError, match=message):
            scenario.validate()


def test_scenario_validation_rejects_unreachable_goal():
    grid = GridWorld(3, 3, frozenset({(0, 1), (1, 1), (2, 1)}))
    agents = [AgentState(id=0, pos=(0, 0), goal=(0, 2), incentive=1)]
    with pytest.raises(ScenarioError):
        Scenario(grid=grid, agents=agents, kind="custom").validate()
    # two rooms: trips inside either room pass, a trip between them does not
    rooms = GridWorld(5, 3, frozenset({(0, 2), (1, 2), (2, 2)}))
    within = [
        AgentState(id=0, pos=(0, 0), goal=(2, 1), incentive=1),
        AgentState(id=1, pos=(0, 4), goal=(2, 3), incentive=1),
        AgentState(id=2, pos=(1, 0), goal=(0, 1), incentive=1),
        AgentState(id=3, pos=(2, 4), goal=(1, 3), incentive=1),
    ]
    Scenario(grid=rooms, agents=within, kind="custom").validate()
    across = within + [AgentState(id=4, pos=(1, 1), goal=(1, 4), incentive=1)]
    with pytest.raises(ScenarioError, match="agent 4 goal unreachable"):
        Scenario(grid=rooms, agents=across, kind="custom").validate()


def test_ascii_round_trip():
    grid = GridWorld(3, 3, frozenset({(0, 2), (1, 0)}))
    assert grid_to_ascii(grid) == "..#\n#..\n..."


def test_bfs_distance_basics():
    ids = CellIds(GridWorld(5, 5))
    field = ids.flood(ids.id((0, 0)))
    assert field[ids.id((0, 0))] == 0
    assert field[ids.id((4, 4))] == 8
    walled = CellIds(GridWorld(3, 3, frozenset({(0, 1), (1, 1)})))
    assert walled.flood(walled.id((0, 0)))[walled.id((0, 2))] == 6


def test_incentives_within_range():
    scenario = make_scenario("doorway", 10, 10, 6, rng_seed=2, incentive_range=(2, 4))
    assert all(2 <= a.incentive <= 4 for a in scenario.agents)
