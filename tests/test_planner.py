import json
from fractions import Fraction
from pathlib import Path

import pytest

from auctionmapf.planner import (
    Conflict,
    SimulationTrace,
    TraceLine,
    detect_conflicts,
    mover_index,
    propose_move,
    run_trial,
    try_reassign,
)
from auctionmapf.potential import build_potential_map, build_potential_maps
from auctionmapf.world import (
    AgentState,
    GridWorld,
    MoveAction,
    Scenario,
    make_scenario,
)

from helpers import sweep_collisions

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _agent(aid, pos, goal, incentive=1):
    return AgentState(id=aid, pos=pos, goal=goal, incentive=incentive)


def test_propose_move_unobstructed_full_step():
    grid = GridWorld(10, 10)
    pot = build_potential_map(grid, (5, 9))
    agent = _agent(0, (5, 0), (5, 9), incentive=3)
    assert propose_move(grid, pot, agent, set()) == MoveAction("right", 3)


def test_propose_move_never_overshoots_goal():
    grid = GridWorld(10, 10)
    pot = build_potential_map(grid, (5, 5))
    agent = _agent(0, (5, 4), (5, 5), incentive=3)
    assert propose_move(grid, pot, agent, set()) == MoveAction("right", 1)


def test_propose_move_waits_when_only_descent_blocked():
    grid = GridWorld(5, 1)
    pot = build_potential_map(grid, (0, 4))
    agent = _agent(0, (0, 0), (0, 4), incentive=2)
    assert propose_move(grid, pot, agent, {(0, 1)}) == MoveAction("wait", 0)


def test_propose_move_prefers_axis_with_more_remaining_distance():
    grid = GridWorld(10, 10)
    pot = build_potential_map(grid, (2, 3))
    agent = _agent(0, (0, 0), (2, 3), incentive=5)
    assert propose_move(grid, pot, agent, set()) == MoveAction("right", 3)


def test_propose_move_row_before_column_on_exact_tie():
    grid = GridWorld(10, 10)
    pot = build_potential_map(grid, (2, 2))
    agent = _agent(0, (0, 0), (2, 2), incentive=5)
    assert propose_move(grid, pot, agent, set()) == MoveAction("down", 2)


def test_propose_moves_skips_arrived_agents():
    grid = GridWorld(5, 5)
    agents = [_agent(0, (0, 0), (0, 4), 2), _agent(1, (4, 4), (4, 4), 1)]
    trace = run_trial(Scenario(grid=grid, agents=agents, kind="custom"))
    assert {ln.agent_id for ln in trace.lines} == {0}
    first = trace.lines[0]
    assert (first.agent_id, first.direction, first.step) == (0, "right", 2)


def test_detect_conflicts_shared_target():
    proposals = {
        0: ((2, 1), MoveAction("right", 1)),
        1: ((1, 2), MoveAction("down", 1)),
        2: ((2, 2), MoveAction("wait", 0)),   # waits on the cell both sweep
    }
    conflicts = detect_conflicts(mover_index(proposals), tick=5)
    assert len(conflicts) == 1
    assert conflicts[0].contenders == {0, 1}
    assert conflicts[0].cells == frozenset({(2, 2)})
    assert conflicts[0].time == 5


def test_detect_conflicts_overlapping_sweeps():
    proposals = {
        0: ((2, 1), MoveAction("right", 3)),  # sweeps (2,1)..(2,4)
        1: ((2, 5), MoveAction("left", 2)),   # sweeps (2,5)..(2,3)
    }
    conflicts = detect_conflicts(mover_index(proposals))
    assert len(conflicts) == 1
    assert conflicts[0].cells == frozenset({(2, 3), (2, 4)})


def test_detect_conflicts_disjoint_sweeps():
    proposals = {
        0: ((0, 0), MoveAction("right", 2)),
        1: ((4, 0), MoveAction("right", 2)),
    }
    assert detect_conflicts(mover_index(proposals)) == []


def test_detect_conflicts_merges_transitively():
    proposals = {
        0: ((0, 0), MoveAction("right", 2)),  # (0,0)..(0,2)
        1: ((0, 4), MoveAction("left", 2)),   # (0,4)..(0,2)
        2: ((1, 4), MoveAction("up", 1)),     # (1,4),(0,4)
    }
    conflicts = detect_conflicts(mover_index(proposals))
    assert len(conflicts) == 1
    assert conflicts[0].contenders == {0, 1, 2}


def test_try_reassign_moves_agent_with_equal_alternative():
    grid = GridWorld(4, 4)
    a = _agent(0, (1, 1), (2, 2), 1)
    b = _agent(1, (2, 0), (2, 2), 1)
    potentials = {(2, 2): build_potential_map(grid, (2, 2))}
    proposals = {
        0: ((1, 1), MoveAction("down", 1)),   # to (2,1)
        1: ((2, 0), MoveAction("right", 1)),  # to (2,1)
    }
    movers = mover_index(proposals)
    conflict = detect_conflicts(movers)[0]
    occupied = {a.pos, b.pos}
    residual = try_reassign(conflict, grid, potentials, proposals, {0: a, 1: b}, occupied, movers)
    assert residual.contenders == {1}
    assert proposals[0] == ((1, 1), MoveAction("right", 1))  # rerouted via (1,2)
    assert movers[(1, 2)] == {0} and movers[(2, 1)] == {1}  # index kept in step


def test_try_reassign_three_contenders_one_reassignable():
    grid = GridWorld(4, 4)
    a = _agent(0, (1, 1), (2, 2), 1)
    b = _agent(1, (2, 0), (2, 2), 1)
    c = _agent(2, (3, 1), (1, 1), 1)
    potentials = build_potential_maps(grid, [(2, 2), (1, 1)])
    proposals = {
        0: ((1, 1), MoveAction("down", 1)),
        1: ((2, 0), MoveAction("right", 1)),
        2: ((3, 1), MoveAction("up", 1)),
    }
    movers = mover_index(proposals)
    conflict = detect_conflicts(movers)[0]
    assert conflict.contenders == {0, 1, 2}
    occupied = {a.pos, b.pos, c.pos}
    residual = try_reassign(
        conflict, grid, potentials, proposals, {0: a, 1: b, 2: c}, occupied, movers
    )
    assert residual.contenders == {1, 2}


def test_try_reassign_no_alternative_in_narrow_gap():
    scenario = make_scenario("doorway", 10, 10, 2, gap_size=1, rng_seed=7)
    grid = scenario.grid
    gap = next(
        (r, 5) for r in range(10) if (r, 5) not in grid.obstacles
    )
    # head-on approach to the single gap cell from both sides of the wall
    a = _agent(0, (gap[0], 4), (gap[0], 6), 1)
    b = _agent(1, (gap[0], 6), (gap[0], 4), 1)
    potentials = build_potential_maps(grid, [a.goal, b.goal])
    proposals = {
        0: (a.pos, MoveAction("right", 1)),
        1: (b.pos, MoveAction("left", 1)),
    }
    movers = mover_index(proposals)
    conflict = detect_conflicts(movers)[0]
    residual = try_reassign(
        conflict, grid, potentials, proposals, {0: a, 1: b}, {a.pos, b.pos}, movers
    )
    assert residual.contenders == {0, 1}


def _fig1_scenario():
    grid = GridWorld(5, 5)
    agents = [
        AgentState(id=0, pos=(2, 0), goal=(2, 4), incentive=3),
        AgentState(id=1, pos=(0, 2), goal=(4, 2), incentive=3),
    ]
    return Scenario(grid=grid, agents=agents, kind="custom")


def test_crossing_agents_resolved_without_collision():
    trace = run_trial(_fig1_scenario(), resolver="auction")
    assert trace.completed
    assert trace.collisions == []
    assert sweep_collisions(trace) == []
    assert len(trace.conflicts) == 1
    assert trace.conflicts[0].contenders == (0, 1)
    waits = [ln for ln in trace.lines if ln.waiting]
    assert len(waits) == 1  # the second-turn agent waits exactly one tick


def test_single_agent_arrives_in_ceil_d_over_v_ticks():
    grid = GridWorld(10, 10)
    agents = [AgentState(id=0, pos=(5, 0), goal=(5, 9), incentive=3)]
    scenario = Scenario(grid=grid, agents=agents, kind="custom")
    trace = run_trial(scenario)
    assert trace.completed
    assert trace.arrival_times[0] == 3  # ceil(9 / 3)
    assert trace.conflicts == []


def test_agent_starting_on_goal():
    grid = GridWorld(3, 3)
    agents = [AgentState(id=0, pos=(1, 1), goal=(1, 1), incentive=1)]
    trace = run_trial(Scenario(grid=grid, agents=agents, kind="custom"))
    assert trace.completed
    assert trace.arrival_times[0] == 0


def test_moving_agent_potential_strictly_decreases():
    scenario = _fig1_scenario()
    trace = run_trial(scenario)
    potentials = build_potential_maps(scenario.grid, [a.goal for a in scenario.agents])
    goals = {a.id: a.goal for a in scenario.agents}
    last = {a.id: potentials[a.goal][a.pos] for a in scenario.agents}
    for ln in trace.lines:
        if ln.waiting:
            continue
        value = potentials[goals[ln.agent_id]][(ln.row, ln.col)]
        assert value < last[ln.agent_id]
        last[ln.agent_id] = value


def test_arrived_agents_stay_at_goal():
    scenario = make_scenario("doorway", 10, 10, 4, gap_size=1, rng_seed=11)
    trace = run_trial(scenario)
    assert trace.completed
    goals = {a.id: a.goal for a in scenario.agents}
    ids = [a.id for a in scenario.agents]
    for aid, t_arrive in trace.arrival_times.items():
        idx = ids.index(aid)
        for k in range(t_arrive, len(trace.configurations)):
            assert trace.configurations[k][idx] == goals[aid]


def test_no_two_active_agents_share_a_cell():
    scenario = make_scenario("intersection", 12, 12, 10, gap_size=3, rng_seed=4)
    trace = run_trial(scenario)
    assert trace.collisions == []
    assert sweep_collisions(trace) == []
    ids = [a.id for a in scenario.agents]
    for k, config in enumerate(trace.configurations):
        active = [
            config[i]
            for i, aid in enumerate(ids)
            if trace.arrival_times[aid] is None or trace.arrival_times[aid] > k
        ]
        assert len(active) == len(set(active))


def test_initial_configuration_recorded():
    scenario = make_scenario("doorway", 10, 10, 3, gap_size=2, rng_seed=8)
    trace = run_trial(scenario)
    assert trace.configurations[0] == [a.pos for a in scenario.agents]


def test_trace_is_deterministic():
    scenario = make_scenario("hallway", 10, 10, 6, gap_size=2, rng_seed=13)
    for resolver in ("auction", "random-ordering", "fifo"):
        a = run_trial(scenario, resolver=resolver)
        b = run_trial(scenario, resolver=resolver)
        assert a.export_lines() == b.export_lines()
        assert a.arrival_times == b.arrival_times


def test_last_turn_agent_pays_nothing():
    scenario = make_scenario("doorway", 10, 10, 6, gap_size=1, rng_seed=3)
    trace = run_trial(scenario, resolver="auction")
    assert trace.conflicts
    for rc in trace.conflicts:
        ordering = rc.ordering.ordering
        last = max(ordering, key=lambda aid: ordering[aid])
        assert rc.ordering.payments[last] == 0
        assert sorted(ordering.values()) == list(range(1, len(ordering) + 1))


def test_baseline_resolvers_charge_nothing():
    scenario = make_scenario("doorway", 10, 10, 6, gap_size=1, rng_seed=3)
    for resolver in ("random-ordering", "fifo"):
        trace = run_trial(scenario, resolver=resolver)
        assert trace.conflicts
        for rc in trace.conflicts:
            assert all(p == 0 for p in rc.ordering.payments.values())


def test_fifo_orders_by_arrival_then_id():
    scenario = make_scenario("doorway", 10, 10, 4, gap_size=1, rng_seed=5)
    trace = run_trial(scenario, resolver="fifo")
    assert trace.collisions == []
    assert sweep_collisions(trace) == []


def test_head_on_corridor_deadlocks_without_collision():
    grid = GridWorld(5, 1)
    agents = [
        AgentState(id=0, pos=(0, 0), goal=(0, 4), incentive=3),
        AgentState(id=1, pos=(0, 4), goal=(0, 0), incentive=3),
    ]
    trace = run_trial(Scenario(grid=grid, agents=agents, kind="custom"), tick_limit=1000)
    assert not trace.completed
    assert trace.deadlocked
    assert trace.collisions == []
    assert sweep_collisions(trace) == []


def test_timeout_marks_trace():
    scenario = make_scenario("doorway", 10, 10, 4, gap_size=1, rng_seed=0)
    trace = run_trial(scenario, timeout=0.0)
    assert trace.timed_out
    assert not trace.completed


def test_invalid_arguments():
    scenario = make_scenario("doorway", 10, 10, 2, gap_size=1, rng_seed=0)
    with pytest.raises(ValueError):
        run_trial(scenario, resolver="coin-flip")
    with pytest.raises(ValueError):
        run_trial(scenario, tick_limit=0)


def _lines_trace(lines):
    return SimulationTrace(
        configurations=[], conflicts=[], collisions=[], arrival_times={},
        lines=[TraceLine(*ln) for ln in lines], ticks=1, completed=False,
    )


def test_sweep_audit_flags_swaps_and_pass_through():
    swap = _lines_trace([
        (0, 0, 0, 1, "right", 1, False),  # (0,0) -> (0,1)
        (0, 1, 0, 0, "left", 1, False),   # (0,1) -> (0,0)
    ])
    assert sweep_collisions(swap) == [(0, (0, 0), (0, 1)), (0, (0, 1), (0, 1))]
    through_waiter = _lines_trace([
        (3, 0, 2, 3, "right", 3, False),  # sweeps (2,0)..(2,3)
        (3, 1, 2, 1, "wait", 0, True),
    ])
    assert sweep_collisions(through_waiter) == [(3, (2, 1), (0, 1))]


def test_sweep_audit_frees_an_arrived_goal():
    # agent 1 reaches (0,2) at tick 0 and writes no more lines; agent 0 then
    # passes over that cell, and sweeps in different ticks never clash
    trace = _lines_trace([
        (0, 0, 0, 0, "wait", 0, True),
        (0, 1, 0, 2, "right", 1, False),
        (1, 0, 0, 3, "right", 3, False),
    ])
    assert sweep_collisions(trace) == []


def test_traces_match_benchmark_reference_digests(monkeypatch):
    """Two criterion-4 cells replay to the digests recorded in
    bench/reference.json, so a change to any trace or auction log fails here."""
    monkeypatch.syspath_prepend(str(BENCH))
    from checks import planner_digest

    reference = json.loads((BENCH / "reference.json").read_text())
    mismatched = []
    for kind, width, height, n, gap in (("doorway", 14, 14, 20, 2), ("intersection", 16, 16, 20, 4)):
        for seed in range(100):
            scenario = make_scenario(kind, width, height, n, gap_size=gap, rng_seed=seed)
            key = f"{kind}-{width}x{height}-n{n}-g{gap}:{seed}"
            if planner_digest(run_trial(scenario, resolver="auction")) != reference[key]["digest"]:
                mismatched.append(key)
    assert mismatched == []
