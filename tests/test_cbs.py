import json
import math
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from auctionmapf import cbs
from auctionmapf.cbs import (
    EDGE_WEIGHT_FLOOR,
    _first_conflict,
    _heuristic,
    _low_level,
    _move_table,
    execute_multihop,
    path_time_to_goal,
    plan_cbs,
    run_cbs_trial,
)
from auctionmapf.world import AgentState, CellIds, GridWorld, Scenario, make_scenario

from helpers import (
    bfs_distances,
    first_conflict_oracle,
    joint_soc_dijkstra,
    joint_soc_oracle,
    neighbors,
    path_cost,
    sample_edge_weights,
)

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _scenario(grid, specs):
    agents = [
        AgentState(id=i, pos=s, goal=g, incentive=v) for i, (s, g, v) in enumerate(specs)
    ]
    return Scenario(grid=grid, agents=agents, kind="custom")


def _edge_weights(grid, sigma, rng):
    """The move table's weight per undirected edge, keyed as in helpers."""
    ids = CellIds(grid)
    moves = _move_table(grid, ids, sigma, rng)
    cells = ids.cells
    return {frozenset((cells[i], cells[j])): w for i, row in enumerate(moves) for j, w in row[1:]}


def test_edge_weights_unit_without_noise():
    grid = GridWorld(4, 4)
    weights = _edge_weights(grid, 0.0, random.Random(0))
    assert len(weights) == 2 * 4 * 3  # horizontal + vertical edges
    assert all(w == 1.0 for w in weights.values())


def test_edge_weights_respect_floor():
    grid = GridWorld(6, 6)
    weights = _edge_weights(grid, 5.0, random.Random(3))
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
    # the move table draws the same weights from the same stream
    assert _edge_weights(grid, 0.3, random.Random(11)) == weights


def test_single_agent_gets_shortest_path():
    grid = GridWorld(5, 5)
    scenario = _scenario(grid, [((0, 0), (4, 4), 1)])
    result = plan_cbs(scenario, noise_sigma=0.0)
    assert not result.timed_out
    path = result.paths[0]
    assert path[0] == (0, 0) and path[-1] == (4, 4)
    assert len(path) - 1 == bfs_distances(grid, (0, 0))[4][4]
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


def test_joint_search_oracles_agree():
    # a corridor (0,0)..(0,4) with one bay below its middle cell (1,2)
    bay = GridWorld(5, 2, frozenset({(1, 0), (1, 1), (1, 3), (1, 4)}))
    hand_made = [
        # head-on crossing: one agent waits a tick
        (GridWorld(5, 5), [(2, 0), (0, 2)], [(2, 4), (4, 2)], 9),
        # head-on in the corridor: one agent backs into the bay, 5 + 6
        (bay, [(0, 0), (0, 4)], [(0, 4), (0, 0)], 11),
        # an agent on its goal steps into the bay and back (arrives at 3)
        (bay, [(0, 2), (0, 0)], [(0, 2), (0, 4)], 7),
        # three agents turn two cells round a ring, in step
        (GridWorld(3, 3, frozenset({(1, 1)})), [(0, 0), (0, 2), (2, 2)],
         [(0, 2), (2, 2), (2, 0)], 6),
    ]
    for grid, starts, goals, optimum in hand_made:
        assert joint_soc_oracle(grid, starts, goals) == optimum, (starts, goals)
        assert joint_soc_dijkstra(grid, starts, goals) == optimum, (starts, goals)
    # criterion 10's seeds with the cheapest uninformed searches (about 2 s)
    for seed in (36, 6, 24, 28, 49, 29, 19, 7, 11, 48):
        scenario = make_scenario(
            "random-obstacles", 5, 5, 3, rng_seed=seed,
            n_obstacles=seed % 5, incentive_range=(1, 1),
        )
        args = (scenario.grid, [a.pos for a in scenario.agents], [a.goal for a in scenario.agents])
        assert joint_soc_oracle(*args) == joint_soc_dijkstra(*args), seed


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
    for sigma in (-0.1, float("nan"), float("inf"), 1e308):
        with pytest.raises(ValueError):
            plan_cbs(scenario, noise_sigma=sigma)
    # at the largest sigma every weight and cost stays finite
    for seed in range(5):
        spread = make_scenario("intersection", 11, 11, 3, gap_size=3, rng_seed=seed)
        assert math.isfinite(plan_cbs(spread, noise_sigma=cbs.MAX_NOISE_SIGMA).cost)
    # a deadline must lie in the future; inf means none
    for timeout in (0, -1, float("nan")):
        with pytest.raises(ValueError):
            plan_cbs(scenario, timeout=timeout)
    result = plan_cbs(scenario, timeout=math.inf)
    assert not result.timed_out and result.paths is not None


def _con(ids, tick, cell, cell_from=None):
    """A constraint written in cells, `(tick, cell, cell moved from or None)`,
    as the padded-id constraint CBS keeps."""
    return tick, ids.id(cell), None if cell_from is None else ids.id(cell_from)


def _plan_one(grid, start, goal, constraints=(), sigma=0.0, seed=0):
    """_low_level over the move table plan_cbs would build from `sigma` and a
    weight stream seeded with `seed`; the cheapest edge from the oracle.
    Constraints are given, and the path comes back, in cells."""
    ids = CellIds(grid)
    moves = _move_table(grid, ids, sigma, random.Random(seed))
    min_w = min(sample_edge_weights(grid, sigma, random.Random(seed)).values(), default=1.0)
    h = _heuristic(ids, goal, min_w)
    own = frozenset(_con(ids, *c) for c in constraints)
    res = _low_level(ids, ids.id(start), ids.id(goal), own, moves, h, math.inf)
    if res is None:
        return None
    path, cost = res
    return [ids.cells[i] for i in path], cost


def test_move_table_lists_wait_then_neighbors():
    grid = GridWorld(3, 3, obstacles=frozenset({(0, 1)}))
    weights = sample_edge_weights(grid, 0.5, random.Random(4))
    ids = CellIds(grid)
    moves = _move_table(grid, ids, 0.5, random.Random(4))
    # a row for each free cell; the ring and the obstacle have none
    rows = [(i, row) for i, row in enumerate(moves) if row]
    assert [ids.cells[i] for i, _ in rows] == grid.free_cells()
    for i, row in rows:
        cell = ids.cells[i]
        assert row[0] == (i, 1.0)
        assert [ids.cells[j] for j, _ in row[1:]] == neighbors(grid, cell)
        assert all(w == weights[frozenset((cell, ids.cells[j]))] for j, w in row[1:])


def test_low_level_vertex_constraint_forces_a_wait():
    # a one-row corridor: the only way round a blocked cell is to wait
    grid = GridWorld(3, 1)
    path, cost = _plan_one(grid, (0, 0), (0, 2), [(1, (0, 1))])
    assert path == [(0, 0), (0, 0), (0, 1), (0, 2)]
    assert cost == 3.0


def test_low_level_vertex_constraint_forces_a_detour():
    # a wait is dearer than going round when waiting leaves the cell blocked
    grid = GridWorld(3, 2)
    cons = [(t, (0, 1)) for t in range(1, 6)]
    path, cost = _plan_one(grid, (0, 0), (0, 2), cons)
    assert (0, 1) not in path
    assert path == [(0, 0), (1, 0), (1, 1), (1, 2), (0, 2)]
    assert cost == 4.0


def test_low_level_edge_constraint_forbids_one_traversal():
    grid = GridWorld(2, 1)
    path, _ = _plan_one(grid, (0, 0), (0, 1))
    assert path == [(0, 0), (0, 1)]
    # the move (0,0) -> (0,1) is forbidden at tick 0 only
    path, cost = _plan_one(grid, (0, 0), (0, 1), [(0, (0, 1), (0, 0))])
    assert path == [(0, 0), (0, 0), (0, 1)]
    assert cost == 2.0
    # the reverse direction at tick 0 does not block this agent
    path, _ = _plan_one(grid, (0, 0), (0, 1), [(0, (0, 0), (0, 1))])
    assert path == [(0, 0), (0, 1)]


def test_low_level_rests_at_goal_only_after_last_goal_constraint():
    grid = GridWorld(3, 1)
    # the goal is taken at tick 4, so the path may not end before tick 5
    path, _ = _plan_one(grid, (0, 0), (0, 2), [(4, (0, 2))])
    assert path[-1] == (0, 2)
    assert len(path) - 1 == 5
    assert path[4] != (0, 2)
    # a constraint elsewhere does not delay the end
    path, _ = _plan_one(grid, (0, 0), (0, 2), [(4, (0, 0))])
    assert len(path) - 1 == 2


def test_low_level_walled_off_goal_returns_none():
    wall = frozenset((r, 2) for r in range(4))
    grid = GridWorld(5, 4, obstacles=wall)
    assert _plan_one(grid, (0, 0), (0, 4)) is None


def test_low_level_cost_equals_path_cost_under_noise():
    grid = GridWorld(7, 7, obstacles=frozenset({(3, 1), (3, 2), (3, 3), (3, 5)}))
    for seed in range(10):
        weights = sample_edge_weights(grid, 0.3, random.Random(seed))
        cons = [(t, (3, 4)) for t in range(3, 7)]
        path, cost = _plan_one(grid, (0, 0), (6, 6), cons, sigma=0.3, seed=seed)
        assert path[0] == (0, 0) and path[-1] == (6, 6)
        assert cost == path_cost(path, weights)


def _first_conflict_in_cells(grid, paths):
    """`_first_conflict` on `(row, col)` paths, run over their padded ids."""
    ids = CellIds(grid)
    return _first_conflict({aid: [ids.id(c) for c in p] for aid, p in paths.items()})


def _branches(grid, *branches):
    """`(agent id, constraint in cells)` branches as `_first_conflict` gives them."""
    ids = CellIds(grid)
    return tuple((aid, _con(ids, *con)) for aid, con in branches)


def test_first_conflict_gives_the_two_branch_constraints():
    grid = GridWorld(5, 5)
    # a vertex meeting: both are barred from the shared cell at that tick
    paths = {0: [(0, 0), (0, 1), (0, 2)], 1: [(1, 1), (0, 1), (0, 0)]}
    assert _first_conflict_in_cells(grid, paths) == _branches(
        grid, (0, (1, (0, 1))), (1, (1, (0, 1))),
    )
    # a swap: each is barred from its own move at the departure tick
    paths = {0: [(0, 0), (0, 1)], 1: [(0, 1), (0, 0)]}
    assert _first_conflict_in_cells(grid, paths) == _branches(
        grid, (0, (0, (0, 1), (0, 0))), (1, (0, (0, 0), (0, 1))),
    )
    assert _first_conflict_in_cells(grid, {0: [(0, 0), (0, 1)], 1: [(1, 1), (1, 2)]}) is None
    # a shorter path waits at its goal, so a later arrival there still meets it
    paths = {0: [(0, 1)], 1: [(1, 0), (1, 1), (0, 1)]}
    assert _first_conflict_in_cells(grid, paths) == _branches(
        grid, (0, (2, (0, 1))), (1, (2, (0, 1))),
    )
    # the earliest tick wins over a lower id pair, then the lower id pair wins
    paths = {
        0: [(0, 0), (0, 1), (0, 2), (0, 3)],
        1: [(2, 2), (1, 2), (0, 2), (0, 2)],  # meets 0 at tick 2
        2: [(4, 0), (3, 0), (3, 1), (4, 1)],
        3: [(4, 2), (3, 1), (3, 0), (4, 0)],  # swaps with 2 at tick 1
    }
    assert _first_conflict_in_cells(grid, paths) == _branches(
        grid, (2, (1, (3, 1), (3, 0))), (3, (1, (3, 0), (3, 1))),
    )
    paths[3] = [(4, 3), (4, 2), (3, 1), (3, 2)]  # now meets 2 at tick 2 instead
    assert _first_conflict_in_cells(grid, paths) == _branches(
        grid, (0, (2, (0, 2))), (1, (2, (0, 2))),
    )


STEPS = ((0, 0), (-1, 0), (1, 0), (0, -1), (0, 1))


def _walk(start, steps):
    """A path on a 3x3 grid: each step a wait or a move, clamped to the grid."""
    path = [start]
    for dr, dc in steps:
        r, c = path[-1]
        path.append((min(max(r + dr, 0), 2), min(max(c + dc, 0), 2)))
    return path


def _retrace(walks):
    """Each agent keeps its own walk or, when flagged, runs the previous
    agent's path backwards, which makes swaps common."""
    paths = []
    for walk, backwards in walks:
        paths.append(paths[-1][::-1] if backwards and paths else walk)
    return dict(enumerate(paths))


WALKS = st.builds(
    _walk,
    st.tuples(st.integers(0, 2), st.integers(0, 2)),
    st.lists(st.sampled_from(STEPS), max_size=5),
)
# distinct starts, so most conflicts come after tick 0: on 300 draws about
# 125 meetings (50 of them at a goal an agent waits on), 50 swaps, 125 none
PLANS = (
    st.lists(st.tuples(WALKS, st.booleans()), min_size=2, max_size=4)
    .map(_retrace)
    .filter(lambda paths: len({p[0] for p in paths.values()}) == len(paths))
)


@given(PLANS)
@settings(max_examples=300, deadline=None)
def test_first_conflict_matches_cell_oracle(paths):
    grid = GridWorld(3, 3)
    expected = first_conflict_oracle(paths)
    if expected is None:
        assert _first_conflict_in_cells(grid, paths) is None
    else:
        assert _first_conflict_in_cells(grid, paths) == _branches(grid, *expected)


def test_ct_cost_is_sum_of_path_lengths_without_noise():
    """At sigma 0 every step costs 1, so a plan's cost is its total path length;
    after several expansions that checks each CT node's cost bookkeeping."""
    branched = 0
    for seed in range(30):
        scenario = make_scenario("intersection", 11, 11, 3, gap_size=1, rng_seed=seed)
        result = plan_cbs(scenario, noise_sigma=0.0)
        assert not result.timed_out
        if result.expansions > 1:
            branched += 1
            assert result.cost == sum(len(p) - 1 for p in result.paths.values())
    assert branched >= 20


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


def test_plan_searches_each_agent_constraint_set_once(monkeypatch):
    """A plan memoises its low-level searches: gap-1 seed 8 expands 310 CT
    nodes, whose branches ask for one (start, goal, constraints) search many
    times over, and still searches each once and plans its reference digest."""
    monkeypatch.syspath_prepend(str(BENCH))
    from checks import cbs_digest

    searched = []
    low_level = cbs._low_level

    def recorder(ids, start, goal, constraints, *rest):
        searched.append((start, goal, constraints))
        return low_level(ids, start, goal, constraints, *rest)

    monkeypatch.setattr(cbs, "_low_level", recorder)
    scenario = make_scenario("intersection", 11, 11, 3, gap_size=1, rng_seed=8)
    trace, result = run_cbs_trial(scenario, noise_sigma=0.3, variant="cbs")
    assert len(searched) == len(set(searched))
    # without the memo every expansion but the last would search twice
    assert len(searched) < 2 * result.expansions
    reference = json.loads((BENCH / "reference.json").read_text())
    assert cbs_digest(trace, result) == reference["intersection-11x11-n3-g1:8"]["digest"]


# `checks.cbs_digest` of the first eight plans that branch, among seeds 0-79 of
# two 11x11 intersection cells (3 agents at gap 9, 4 agents at gap 3), keyed
# (variant, sigma, agents, gap), recorded at 91070f5, before CBS searched cell
# ids. At sigma 0 equal-f ties are everywhere, so these pin both tie-breaks:
# the low-level A*'s first-come counter and cbs-random's draw per CT node.
PINNED_CBS_DIGESTS = {
    ("cbs-random", 0.3, 3, 9): {
        3: "e328d3a0d94327cdcb0e0ffa69e069eb59fe480d0a52c22b995059189a7c9a50",
        9: "8d2544936558a4a42569950cab8f14f19fab6c635cf275ae30f9bff6cef0848c",
        11: "d363cdc7b44404ebf18e2867edd14d76bfc20080c4e751ee1d1182afcaef7db3",
        14: "3f8378e9108d02a698808f3523d6c7b0e06ecc75c5aa1dcf03826ddfeed1158d",
        15: "75bc128efe1aa670d0c77b60df5cb21e4fec6a42398fd9c2a986958b480a5365",
        17: "bbe5df88a49e8d646993c119b0bca934fa3621615351c361993ebcde002f162d",
        19: "374f0eb533f3fd17be711d98eb3886db29abddb8d93c59fa98dd6cd0eb6dcdb1",
        22: "e5951ab88f2959f6a341ebfd0f152eb0b8cc881b6678256bfc0a19eb7e8943b2",
    },
    ("cbs-random", 0.3, 4, 3): {
        0: "aeeac1a07a626844d014cdb251e6f1de24fcfdded2b4f26835a0666d1e5a93fe",
        1: "d94fef1d098e4a47f8a689e58c31db11bfa477cc03e023b3ec95644363d7832f",
        4: "034f5aa3bea659498a15789bba6b5a4cb9a22a85f18f46e15cd73fa94bedb822",
        5: "be268a7e1fcd09de2295c7bf4234c6e98cd5d5a24e8a76225881cd28ea029d50",
        6: "673f604ac0ef0bad81d37a936cccac9e02efd09055efeb2b18ab07a65c0f01ec",
        8: "f9976aa980d26fdf2269c7b1d1196829bec8750d0ffc13b956b0f0ac59bf30ef",
        10: "a1c817c20f9f7909b7ed59fa71d831afad789c8378c3c66956eef15fa4a47b6a",
        11: "687e1d9d17ba421af7d8f14fcd673cfe9e56b17259022385afcd6427b5051f41",
    },
    ("cbs", 0.0, 3, 9): {
        10: "eaa4b7453df23857f2111762157f05add08bcf9de199df356c5db20baca2576c",
        11: "38cd3718b10fd8a9ef8f0f696495f4142fea84b136b06760148d29abd302a211",
        15: "8a2afc508b4d8fe8aa4fbb9941dafdbefdbd157d584768c2b5ad6b4c11a1f516",
        49: "da1f091c52e3c5e1b8375f72cfac136fa01a67ef5a006ae9c20eba9a4b36c5ff",
        50: "122ddc01f1f805fdd659ce77795e17b08e1ff6097a56245b00911927d360c940",
        58: "f21501f52a8c9ff4671a6ae1208b908cf4500f574186f92d29f66918f2080745",
        63: "73d16da46b5b94cb3c664ea074af417ec119a87f3347d45c0b7bc9a4810c1791",
        70: "4e454a76c55653ae00be6f8bde3f93e30b3b0ed872e6f56654c3a46effceba36",
    },
    ("cbs", 0.0, 4, 3): {
        0: "062c2f0380a58695c9c3b1d8ef5bfc12af53da1748c03d0b22888d8ae5d4a6b2",
        6: "f83a8a91833d75ac7810aaf27dc5691c5dcff4fe366ab3a40a26362dbf420267",
        7: "d5f812f7c24de98c1c8115fdb66677e249be3fd7843492d009b61c70eaae399e",
        10: "a1c817c20f9f7909b7ed59fa71d831afad789c8378c3c66956eef15fa4a47b6a",
        11: "3e4f0888e0a00994b781dc6d6fff1af054a6a0dc1b7848b2b0e13cfbcce61630",
        13: "1df90f87bc42bf3428c8dd0dcc114806e6db1986366a8022d10943df40d6048a",
        15: "989671c00c01cce6a7401eaac115dee1d5569a60ffd1de40ee7b8a54cac1726d",
        19: "9abf3bcc6e69895df077663ce4b8fa76266d067d3c0cb6d1d707c370a2f0f850",
    },
    ("cbs-random", 0.0, 3, 9): {
        10: "eaa4b7453df23857f2111762157f05add08bcf9de199df356c5db20baca2576c",
        11: "27b8ccf8f899193e8c908adbc266568bf912b3764b7537a483ba8a9422d8527c",
        15: "59a2a4825b65eacf9300525bd426e63171db09583a5c4cd252b51cd74c32cb6d",
        49: "4f95b2148db249c83d6d985e90dc293343e1b9dba61b0980bba9d7066ecaf248",
        50: "a5c175ae4932d7409ebc765c37cf0558e4a31c469b8689f9ec3d06181a391b4f",
        58: "f21501f52a8c9ff4671a6ae1208b908cf4500f574186f92d29f66918f2080745",
        63: "73d16da46b5b94cb3c664ea074af417ec119a87f3347d45c0b7bc9a4810c1791",
        70: "4e454a76c55653ae00be6f8bde3f93e30b3b0ed872e6f56654c3a46effceba36",
    },
    ("cbs-random", 0.0, 4, 3): {
        0: "062c2f0380a58695c9c3b1d8ef5bfc12af53da1748c03d0b22888d8ae5d4a6b2",
        6: "73e6de40f6daa01ba4ce3b5858fd3a7834e832b4841ddb52ba720a72de825192",
        7: "d5f812f7c24de98c1c8115fdb66677e249be3fd7843492d009b61c70eaae399e",
        10: "a1c817c20f9f7909b7ed59fa71d831afad789c8378c3c66956eef15fa4a47b6a",
        11: "3e4f0888e0a00994b781dc6d6fff1af054a6a0dc1b7848b2b0e13cfbcce61630",
        13: "1df90f87bc42bf3428c8dd0dcc114806e6db1986366a8022d10943df40d6048a",
        15: "345936f5cde84a7302640b1f7a996e51ff30cd57040ad00836ad92dc363c6b36",
        19: "bd4b9d3346ce201d6c34efe4af0954a6e56ce78c2fc789545c0e9aec78b9374f",
    },
}


@pytest.mark.parametrize("cell", sorted(PINNED_CBS_DIGESTS), ids=lambda k: "-".join(map(str, k)))
def test_cbs_plans_match_pinned_digests(cell, monkeypatch):
    """Plans no reference digest covers: cbs-random, and both variants
    without noise. Each plan branches and takes well under a second."""
    monkeypatch.syspath_prepend(str(BENCH))
    from checks import cbs_digest

    variant, sigma, n, gap = cell
    for seed, digest in PINNED_CBS_DIGESTS[cell].items():
        scenario = make_scenario("intersection", 11, 11, n, gap_size=gap, rng_seed=seed)
        trace, result = run_cbs_trial(scenario, noise_sigma=sigma, variant=variant)
        assert result.expansions > 1
        assert cbs_digest(trace, result) == digest, seed
