import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from auctionmapf.world import (
    AgentState,
    GridWorld,
    IllegalActionError,
    MoveAction,
    Scenario,
    ScenarioError,
    UNREACHABLE,
    WAIT,
    apply_action,
    distances,
    grid_from_ascii,
    grid_to_ascii,
    make_scenario,
    scenario_from_dict,
    scenario_from_json,
    scenario_to_dict,
    scenario_to_json,
    sweep_cells,
)


def test_apply_action_arithmetic():
    grid = GridWorld(10, 10)
    assert apply_action((2, 2), MoveAction("right", 3), grid) == (2, 5)


def test_apply_action_wait_is_identity():
    grid = GridWorld(10, 10)
    assert apply_action((2, 2), WAIT, grid) == (2, 2)


def test_apply_action_out_of_bounds_sweep():
    grid = GridWorld(10, 10)
    with pytest.raises(IllegalActionError):
        apply_action((0, 0), MoveAction("up", 1), grid)


def test_apply_action_checks_intermediate_cells():
    grid = GridWorld(3, 3)
    with pytest.raises(IllegalActionError):
        apply_action((1, 1), MoveAction("right", 5), grid)


def test_inverse_action_round_trip():
    grid = GridWorld(8, 8)
    inverse = {"up": "down", "down": "up", "left": "right", "right": "left"}
    for direction, opposite in inverse.items():
        for step in (1, 2, 3):
            there = apply_action((4, 4), MoveAction(direction, step), grid)
            back = apply_action(there, MoveAction(opposite, step), grid)
            assert back == (4, 4)


def test_sweep_cells_includes_start():
    assert sweep_cells((2, 1), MoveAction("right", 3)) == [(2, 1), (2, 2), (2, 3), (2, 4)]
    assert sweep_cells((2, 1), WAIT) == [(2, 1)]


def test_move_action_validation():
    with pytest.raises(ValueError):
        MoveAction("sideways", 1)
    with pytest.raises(ValueError):
        MoveAction("wait", 2)
    with pytest.raises(ValueError):
        MoveAction("up", 0)


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
        assert distances(scenario.grid, agent.pos)[agent.goal[0]][agent.goal[1]] != UNREACHABLE


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
    reach = distances(scenario.grid, free[0])
    assert all(reach[r][c] != UNREACHABLE for r, c in free)
    for agent in scenario.agents:
        assert distances(scenario.grid, agent.pos)[agent.goal[0]][agent.goal[1]] != UNREACHABLE


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


def test_scenario_validation_rejects_duplicates():
    grid = GridWorld(5, 5)
    agents = [
        AgentState(id=0, pos=(0, 0), goal=(4, 4), incentive=1),
        AgentState(id=1, pos=(0, 0), goal=(3, 3), incentive=1),
    ]
    with pytest.raises(ScenarioError):
        Scenario(grid=grid, agents=agents, kind="custom").validate()


def test_scenario_validation_rejects_unreachable_goal():
    grid = grid_from_ascii(".#.\n.#.\n.#.")
    agents = [AgentState(id=0, pos=(0, 0), goal=(0, 2), incentive=1)]
    with pytest.raises(ScenarioError):
        Scenario(grid=grid, agents=agents, kind="custom").validate()
    # two rooms: trips inside either room pass, a trip between them does not
    rooms = grid_from_ascii("..#..\n..#..\n..#..")
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
    text = "..#\n#..\n..."
    grid = grid_from_ascii(text)
    assert grid.obstacles == frozenset({(0, 2), (1, 0)})
    assert grid_to_ascii(grid) == text


def test_ascii_rejects_bad_input():
    with pytest.raises(ScenarioError):
        grid_from_ascii("..\n...")
    with pytest.raises(ScenarioError):
        grid_from_ascii("..X\n...")


def test_json_round_trip():
    scenario = make_scenario("doorway", 10, 10, 3, gap_size=2, rng_seed=9)
    restored = scenario_from_json(scenario_to_json(scenario))
    assert restored.grid == scenario.grid
    assert [(a.pos, a.goal, a.incentive) for a in restored.agents] == [
        (a.pos, a.goal, a.incentive) for a in scenario.agents
    ]


def test_scenario_from_dict_rejects_malformed_input():
    good = scenario_to_dict(make_scenario("doorway", 10, 10, 3, gap_size=2, rng_seed=9))
    for key in ("width", "height", "agents"):
        data = {k: v for k, v in good.items() if k != key}
        with pytest.raises(ScenarioError, match=f"missing key '{key}'"):
            scenario_from_dict(data)
    data = json.loads(json.dumps(good))
    del data["agents"][1]["goal"]
    with pytest.raises(ScenarioError, match="missing key 'goal'"):
        scenario_from_dict(data)
    for bad in ("2", 1.5, None, True, 0):
        data = json.loads(json.dumps(good))
        data["agents"][2]["incentive"] = bad
        with pytest.raises(ScenarioError, match="agent 2 incentive"):
            scenario_from_dict(data)
    wrongly_typed = [
        (("width",), "10", "width must be int"),
        (("agents", 0, "start"), [1], "agent 0 start must be a"),
        (("agents",), None, "agents must be list"),
        (("obstacles", 0), 5, "obstacle must be a"),
        (("agents", 1, "goal", 0), 1.0, "agent 1 goal must be int"),
        (("agents", 1), [0, 9], "agent 1 must be dict"),
        (("kind",), 3, "kind must be str"),
        (("seed",), "0", "seed must be int"),
    ]
    for path, bad, message in wrongly_typed:
        data = json.loads(json.dumps(good))
        _set(data, path, bad)
        with pytest.raises(ScenarioError, match=message):
            scenario_from_dict(data)
    with pytest.raises(ScenarioError, match="scenario must be dict"):
        scenario_from_dict([good])
    with pytest.raises(ScenarioError, match="scenario is not JSON"):
        scenario_from_json("{")


def _set(data, path, value):
    *parents, last = path
    for key in parents:
        data = data[key]
    if value is _DELETE:
        del data[last]
    else:
        data[last] = value


def _field_paths(node, path=()):
    """The key path of every field in a scenario dict, nested ones included."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield path + (key,)
        yield from _field_paths(child, path + (key,))


_DELETE = object()
_FUZZ_BASE = scenario_to_dict(make_scenario("doorway", 6, 6, 3, gap_size=2, rng_seed=9))
# integers stay small, so a mutated width or height cannot ask for a huge grid
_JUNK = st.one_of(
    st.just(_DELETE),
    st.none(),
    st.booleans(),
    st.integers(-3, 12),
    st.floats(),
    st.text(max_size=3),
    st.lists(st.one_of(st.integers(-3, 12), st.floats(), st.none()), max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(-3, 12), max_size=2),
)


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet=".#x \n", max_size=40))
def test_grid_from_ascii_fuzz_raises_only_scenario_error(text):
    try:
        grid = grid_from_ascii(text)
    except ScenarioError:
        return
    assert grid_from_ascii(grid_to_ascii(grid)) == grid


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(list(_field_paths(_FUZZ_BASE))), _JUNK)
def test_scenario_from_dict_fuzz_raises_only_scenario_error(path, value):
    data = json.loads(json.dumps(_FUZZ_BASE))
    _set(data, path, value)
    try:
        scenario = scenario_from_dict(data)
    except ScenarioError:
        return
    scenario.validate()


def test_bfs_distance_basics():
    grid = GridWorld(5, 5)
    assert distances(grid, (0, 0))[0][0] == 0
    assert distances(grid, (0, 0))[4][4] == 8
    walled = grid_from_ascii(".#.\n.#.\n...")
    assert distances(walled, (0, 0))[0][2] == 6


def test_incentives_within_range():
    scenario = make_scenario("doorway", 10, 10, 6, rng_seed=2, incentive_range=(2, 4))
    assert all(2 <= a.incentive <= 4 for a in scenario.agents)
