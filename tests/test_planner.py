import dataclasses
import json
import random
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from auctionmapf.auction import Bid, _rank, harmonic_schedule, run_auction
from auctionmapf.cbs import plan_cbs, run_cbs_trial
from auctionmapf.planner import (
    RESOLVERS,
    WAIT,
    SimulationTrace,
    TraceLine,
    _resolve,
    _Trial,
    detect_conflicts,
    escape_move,
    mover_index,
    propose_move,
    run_trial,
    try_reassign,
)
from auctionmapf.potential import build_potential_map
from auctionmapf.world import (
    MOVES,
    AgentState,
    CellIds,
    GridWorld,
    SCENARIO_KINDS,
    Scenario,
    ScenarioError,
    make_scenario,
)

from helpers import (
    bfs_distances,
    dijkstra_distance_field,
    neighbors,
    payment,
    sweep_bounds_violations,
    sweep_collisions,
    sweep_conflict_groups,
    utility,
)

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _agent(aid, pos, goal, incentive=1):
    return AgentState(id=aid, pos=pos, goal=goal, incentive=incentive)


def _field(ids, goal):
    """A goal's potential as the planner reads it: one list indexed by id."""
    return build_potential_map(ids, goal).field


def _action(ids, move):
    """The (direction, step) a planner move (direction, id offset, step)
    encodes; its offset must be its direction's."""
    assert move[1] == dict(ids.moves).get(move[0], 0)
    return (move[0], move[2])


def _to_ids(ids, proposals):
    """{agent id: (cell, (direction, step))} as the planner's id proposals."""
    offsets = dict(ids.moves)
    return {
        aid: (ids.id(pos), (direction, offsets.get(direction, 0), step))
        for aid, (pos, (direction, step)) in proposals.items()
    }


def _propose(grid, agent, occupied=()):
    ids = CellIds(grid)
    move = propose_move(ids, _field(ids, agent.goal), agent, ids.id(agent.pos),
                        {ids.id(cell) for cell in occupied})
    return _action(ids, move)


def test_propose_move_unobstructed_full_step():
    agent = _agent(0, (5, 0), (5, 9), incentive=3)
    assert _propose(GridWorld(10, 10), agent) == ("right", 3)


def test_propose_move_never_overshoots_goal():
    agent = _agent(0, (5, 4), (5, 5), incentive=3)
    assert _propose(GridWorld(10, 10), agent) == ("right", 1)


def test_propose_move_waits_when_only_descent_blocked():
    agent = _agent(0, (0, 0), (0, 4), incentive=2)
    assert _propose(GridWorld(5, 1), agent, {(0, 1)}) == ("wait", 0)


def test_propose_move_prefers_axis_with_more_remaining_distance():
    agent = _agent(0, (0, 0), (2, 3), incentive=5)
    assert _propose(GridWorld(10, 10), agent) == ("right", 3)


def test_propose_move_row_before_column_on_exact_tie():
    agent = _agent(0, (0, 0), (2, 2), incentive=5)
    assert _propose(GridWorld(10, 10), agent) == ("down", 2)


@pytest.mark.parametrize("width, height", [(1, 5), (5, 1), (6, 3)])
def test_corner_moves_stay_on_the_grid(width, height):
    """From every corner, toward every goal, descent and escape sweep only
    the cells their direction reaches on the grid: no id runs off an edge or
    wraps into the next row. With every neighbour taken, escape waits."""
    grid = GridWorld(width, height)
    ids = CellIds(grid)
    corners = {(0, 0), (0, width - 1), (height - 1, 0), (height - 1, width - 1)}
    deltas = {name: (dr, dc) for name, dr, dc in MOVES}
    for corner in corners:
        pos = ids.id(corner)
        for goal in grid.free_cells():
            field = _field(ids, goal)
            agent = _agent(0, corner, goal, incentive=width + height)
            for move in (propose_move(ids, field, agent, pos, set()),
                         escape_move(ids, field, pos, set(), [])):
                direction, step = _action(ids, move)
                dr, dc = deltas.get(direction, (0, 0))
                cells = [ids.cells[pos + move[1] * k] for k in range(step + 1)]
                assert cells == [(corner[0] + dr * k, corner[1] + dc * k) for k in range(step + 1)]
                assert all(grid.is_free(cell) for cell in cells)
            neighbours = {ids.id(cell) for cell in neighbors(grid, corner)}
            assert escape_move(ids, field, pos, neighbours, []) == WAIT


def test_propose_moves_skips_arrived_agents():
    grid = GridWorld(5, 5)
    agents = [_agent(0, (0, 0), (0, 4), 2), _agent(1, (4, 4), (4, 4), 1)]
    trace = run_trial(Scenario(grid=grid, agents=agents, kind="custom"))
    assert {ln.agent_id for ln in trace.lines} == {0}
    first = next(trace.lines)
    assert (first.agent_id, first.direction, first.step) == (0, "right", 2)


# every sweep below stays on this grid
_IDS = CellIds(GridWorld(6, 5))


def test_detect_conflicts_shared_target():
    proposals = {
        0: ((2, 1), ("right", 1)),
        1: ((1, 2), ("down", 1)),
        2: ((2, 2), ("wait", 0)),  # waits on the cell both sweep
    }
    conflicts = detect_conflicts(mover_index(_to_ids(_IDS, proposals)))
    assert len(conflicts) == 1
    assert conflicts[0].contenders == {0, 1}
    assert _IDS.cells[conflicts[0].cell] == (2, 2)


def test_detect_conflicts_overlapping_sweeps():
    proposals = {
        0: ((2, 1), ("right", 3)),  # sweeps (2,1)..(2,4)
        1: ((2, 5), ("left", 2)),   # sweeps (2,5)..(2,3)
    }
    conflicts = detect_conflicts(mover_index(_to_ids(_IDS, proposals)))
    assert len(conflicts) == 1
    # the least of the shared (2, 3) and (2, 4)
    assert _IDS.cells[conflicts[0].cell] == (2, 3)


def test_detect_conflicts_disjoint_sweeps():
    proposals = {
        0: ((0, 0), ("right", 2)),
        1: ((4, 0), ("right", 2)),
    }
    assert detect_conflicts(mover_index(_to_ids(_IDS, proposals))) == []


def test_detect_conflicts_merges_transitively():
    proposals = {
        0: ((0, 0), ("right", 2)),  # (0,0)..(0,2)
        1: ((0, 4), ("left", 2)),   # (0,4)..(0,2)
        2: ((1, 4), ("up", 1)),     # (1,4),(0,4)
    }
    conflicts = detect_conflicts(mover_index(_to_ids(_IDS, proposals)))
    assert len(conflicts) == 1
    assert conflicts[0].contenders == {0, 1, 2}


_SWEEP = st.tuples(
    st.tuples(st.integers(0, 5), st.integers(0, 5)),
    st.sampled_from(("up", "down", "left", "right", "wait")),
    st.integers(1, 3),
).map(lambda s: s if s[1] != "wait" else (s[0], "wait", 0))


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(st.integers(0, 40), _SWEEP, max_size=12))
def test_detect_conflicts_are_the_components_of_shared_cells(sweeps):
    """Start cells on a 6x6 grid; a sweep may run 3 cells off it, which
    grouping never looks at, so ids come from a 12x12 grid shifted by 3."""
    ids = CellIds(GridWorld(12, 12))
    proposals = _to_ids(ids, {
        aid: ((r + 3, c + 3), (direction, step))
        for aid, ((r, c), direction, step) in sweeps.items()
    })
    conflicts = detect_conflicts(mover_index(proposals))
    found = [(ids.cells[c.cell], tuple(sorted(c.contenders))) for c in conflicts]
    assert found == [((r + 3, c + 3), aids) for (r, c), aids in sweep_conflict_groups(sweeps)]


def _reassign(grid, agents, proposals):
    """try_reassign on the one conflict of cell proposals; returns the
    residual, the proposals and the movers index, all in cells again."""
    ids = CellIds(grid)
    fields = {a.id: _field(ids, a.goal) for a in agents}
    by_id = _to_ids(ids, proposals)
    movers = mover_index(by_id)
    (conflict,) = detect_conflicts(movers)
    assert conflict.contenders == set(proposals)
    occupied = {ids.id(a.pos) for a in agents}
    residual = try_reassign(conflict, ids, fields, by_id, {a.id: a for a in agents},
                            occupied, movers)
    cells = {aid: (ids.cells[pos], _action(ids, move)) for aid, (pos, move) in by_id.items()}
    return residual, cells, {ids.cells[cell]: aids for cell, aids in movers.items()}


def test_try_reassign_moves_agent_with_equal_alternative():
    grid = GridWorld(4, 4)
    a = _agent(0, (1, 1), (2, 2), 1)
    b = _agent(1, (2, 0), (2, 2), 1)
    proposals = {
        0: ((1, 1), ("down", 1)),   # to (2,1)
        1: ((2, 0), ("right", 1)),  # to (2,1)
    }
    residual, proposals, movers = _reassign(grid, [a, b], proposals)
    assert residual.contenders == {1}
    assert proposals[0] == ((1, 1), ("right", 1))  # rerouted via (1,2)
    assert movers[(1, 2)] == {0} and movers[(2, 1)] == {1}  # index kept in step


def test_try_reassign_three_contenders_one_reassignable():
    grid = GridWorld(4, 4)
    a = _agent(0, (1, 1), (2, 2), 1)
    b = _agent(1, (2, 0), (2, 2), 1)
    c = _agent(2, (3, 1), (1, 1), 1)
    proposals = {
        0: ((1, 1), ("down", 1)),
        1: ((2, 0), ("right", 1)),
        2: ((3, 1), ("up", 1)),
    }
    residual, _, _ = _reassign(grid, [a, b, c], proposals)
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
    proposals = {
        0: (a.pos, ("right", 1)),
        1: (b.pos, ("left", 1)),
    }
    residual, _, _ = _reassign(grid, [a, b], proposals)
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
    fields = {a.id: bfs_distances(scenario.grid, a.goal) for a in scenario.agents}
    last = {a.id: fields[a.id][a.pos[0]][a.pos[1]] for a in scenario.agents}
    for ln in trace.lines:
        if ln.waiting:
            continue
        value = fields[ln.agent_id][ln.row][ln.col]
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


def _rendered(trace):
    """The trace's lines rendered one at a time: the text `export_lines`
    promises."""
    return "\n".join(
        f"{ln.tick},{ln.agent_id},{ln.row},{ln.col},{ln.direction},{ln.step},{int(ln.waiting)}"
        for ln in trace.lines
    )


def test_export_lines_matches_a_per_line_rendering():
    planner = run_trial(make_scenario("hallway", 10, 10, 6, gap_size=2, rng_seed=13))
    cbs, _ = run_cbs_trial(make_scenario("intersection", 11, 11, 3, gap_size=9, rng_seed=4),
                           noise_sigma=0.3)
    empty = SimulationTrace(arrival_times={})
    for trace in (planner, cbs, empty):
        assert trace.export_lines() == _rendered(trace)
    assert sum(1 for _ in planner.lines) > 0 and sum(1 for _ in cbs.lines) > 0
    assert empty.export_lines() == ""


def test_export_lines_peak_memory_stays_near_its_output():
    """Joined a tick at a time, the export of a long hallway trial never
    holds much more than its own output: a list of one string per line
    would peak at over four times it."""
    trace = run_trial(make_scenario("hallway", 20, 20, 50, gap_size=3, rng_seed=0))
    assert sum(1 for _ in trace.lines) == 89_190
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        out = trace.export_lines()
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * len(out)


def test_a_long_hallway_trace_holds_its_moves_only():
    """Hallway 20x20/50 seed 82 runs 1,885 ticks. Its trace keeps no wait
    line and holds at most 9 MiB (11.97 MiB when every wait line was
    stored), and its lines are rendered one at a time, never all at once."""
    scenario = make_scenario("hallway", 20, 20, 50, gap_size=3, rng_seed=82)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        trace = run_trial(scenario)
        held = tracemalloc.get_traced_memory()[0] - before
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        count = sum(1 for _ in trace.lines)
        rendering = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert all(not ln.waiting and ln.step > 0 for ln in trace.moves)
    assert count == 69_926
    assert held <= 9 * 2**20
    assert rendering <= 2**20


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(SCENARIO_KINDS),
    st.integers(6, 10),
    st.integers(1, 6),
    st.integers(1, 3),
    st.integers(0, 10_000),
)
def test_rendered_lines_agree_with_the_configurations(kind, size, n, gap, seed):
    """The lines rendered from the moves, checked against the configurations
    that the safety pass records on its own: each tick has one line per
    unarrived agent, in id order, and none for an arrived one; a move line
    holds the agent's cell after the tick, a wait line its cell before."""
    try:
        scenario = make_scenario(kind, size, size, n, gap_size=gap, incentive_range=(1, 4),
                                 rng_seed=seed, n_obstacles=size)
    except ScenarioError:
        assume(False)
    index = {a.id: k for k, a in enumerate(scenario.agents)}
    for resolver in RESOLVERS:
        trace = run_trial(scenario, resolver=resolver)
        by_tick = {t: [] for t in range(trace.ticks)}
        for ln in trace.lines:
            by_tick[ln.tick].append(ln.agent_id)
            config = trace.configurations[ln.tick if ln.waiting else ln.tick + 1]
            assert (ln.row, ln.col) == config[index[ln.agent_id]]
        for t, aids in by_tick.items():
            assert aids == sorted(
                aid for aid, at in trace.arrival_times.items() if at is None or at > t)


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
            outcome = rc.ordering
            schedule = harmonic_schedule(len(rc.contenders))
            assert all(p == 0 for p in outcome.payments.values())
            expected = {
                aid: utility(rc.bids[aid], q, 0, schedule)
                for aid, q in outcome.ordering.items()
            }
            assert outcome.utilities == expected
            assert outcome.welfare == sum(expected.values())


# one settlement table for every draw below, so later draws hit rows that
# earlier draws settled, as auctions do within one trial
_SETTLED: dict = {}


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.tuples(st.integers(1, 3), st.integers(0, 2)), min_size=2, max_size=8),
    st.integers(1, 1_000),
)
def test_settlement_table_matches_run_auction(draw, shift):
    """The auction `_resolve`, through the shared settlement table, gives the
    ordering, payments, utilities, welfare and bids of `run_auction` on the
    same bids, whether the incentive tuple was settled before or not. Small
    incentive and arrival ranges force ties on both. A second call with the
    same ranked contenders returns the very same outcome and bids; the same
    incentive tuple under other ids builds a new outcome with equal values."""
    outcomes: dict = {}  # one trial's table: each id keeps its incentive
    built = []
    for offset in (0, shift):  # the same tuple again under other ids is a hit
        contenders = [
            AgentState(id=offset + 3 * i, pos=(0, i), goal=(1, i), incentive=incentive)
            for i, (incentive, _) in enumerate(draw)
        ]
        arrivals = {a.id: arrival for a, (_, arrival) in zip(contenders, draw)}
        outcome, bids = _resolve(
            "auction", contenders, arrivals, random.Random(0), _SETTLED, outcomes)
        expected = run_auction(
            [Bid(a.id, Fraction(a.incentive), arrivals[a.id]) for a in contenders],
            schedule=harmonic_schedule(len(contenders)),
        )
        assert outcome == expected
        assert bids == {a.id: Fraction(a.incentive) for a in contenders}
        again = _resolve(
            "auction", contenders[::-1], arrivals, random.Random(0), _SETTLED, outcomes)
        assert again[0] is outcome and again[1] is bids
        built.append(outcome)
    first, second = built
    assert first is not second
    assert [first.payments[i] for i in first.turn_order()] == [
        second.payments[i] for i in second.turn_order()]
    assert [first.utilities[i] for i in first.turn_order()] == [
        second.utilities[i] for i in second.turn_order()]
    assert first.welfare == second.welfare


@pytest.mark.parametrize("resolver", RESOLVERS)
def test_equal_turn_orders_share_one_record(resolver):
    """On a hallway 20x20/50 trial, the logged conflicts with one turn order
    share one outcome and one bids dict, different turn orders share
    neither, and every shared record still settles as its resolver
    promises."""
    scenario = make_scenario("hallway", 20, 20, 50, gap_size=3, rng_seed=21)
    trace = run_trial(scenario, resolver=resolver)
    by_order: dict = {}
    for rc in trace.conflicts:
        by_order.setdefault(tuple(rc.ordering.turn_order()), []).append(rc)
    assert len(by_order) < len(trace.conflicts)  # some turn order repeats
    for records in by_order.values():
        assert len({id(rc.ordering) for rc in records}) == 1
        assert len({id(rc.bids) for rc in records}) == 1
    assert len({id(rs[0].ordering) for rs in by_order.values()}) == len(by_order)
    assert len({id(rs[0].bids) for rs in by_order.values()}) == len(by_order)
    if resolver == "auction":
        assert _missettled(trace, {}) == []
        return
    # the baselines settle as an auction in which every bid is zero
    for order, (rc, *_) in by_order.items():
        schedule = harmonic_schedule(len(order))
        out = rc.ordering
        assert all(out.payments[aid] == 0 for aid in order)
        expected = [utility(rc.bids[aid], q, 0, schedule) for q, aid in enumerate(order, 1)]
        assert [out.utilities[aid] for aid in order] == expected
        assert out.welfare == sum(expected)


@pytest.mark.parametrize("seed", [0, 5])  # seed 0 deadlocks, seed 5 completes
def test_running_stalemate_sum_matches_distance_oracle(seed):
    """Stepped tick by tick, a trial's running potential sum equals the sum
    over unarrived agents of their distance to goal, as the helpers' own
    Dijkstra computes it."""
    scenario = make_scenario("hallway", 10, 10, 6, gap_size=1, rng_seed=seed)
    grid = scenario.grid
    fields = {
        a.goal: dijkstra_distance_field(grid.width, grid.height, grid.obstacles, a.goal)
        for a in scenario.agents
    }
    trial = _Trial(scenario, "auction")

    def oracle():
        total = 0
        for a in trial.agents:
            if trial.arrival[a.id] is None:
                r, c = trial.ids.cells[trial.at[a.id]]
                total += fields[a.goal][r][c]
        return total

    assert trial.remaining == oracle() > 0
    deadlocked = False
    while not deadlocked and trial.t < trial.tick_limit:
        active = [a for a in trial.agents if trial.arrival[a.id] is None]
        if not active:
            break
        proposals = trial.propose(active)
        trial.resolve(proposals)
        deadlocked = trial.stop(trial.execute(proposals))
        trial.t += 1
        assert trial.remaining == oracle(), f"tick {trial.t - 1}"
    assert deadlocked == (seed == 0)
    assert (trial.remaining == 0) == (None not in trial.arrival.values())


@pytest.mark.parametrize("resolver", ["fifo", "auction"])
def test_fifo_orders_by_arrival_then_id(resolver):
    """Every logged conflict's turn order is `auction._rank`'s, over bids of
    zero (fifo) or of each incentive (auction). An agent's arrival is rebuilt
    from the log alone: the first tick it was logged at that cell."""
    scenario = make_scenario("hallway", 10, 10, 6, gap_size=1, rng_seed=5)
    incentive = {a.id: a.incentive for a in scenario.agents}
    trace = run_trial(scenario, resolver=resolver)
    arrival = {}
    for rc in trace.conflicts:
        for aid in rc.contenders:
            arrival.setdefault((aid, rc.cell), rc.tick)
    reordered = 0
    for rc in trace.conflicts:
        bids = [Bid(aid, incentive[aid] if resolver == "auction" else 0, arrival[aid, rc.cell])
                for aid in rc.contenders]
        expected = [b.agent_id for b in _rank(bids)]
        assert rc.ordering.turn_order() == expected, (rc.tick, rc.cell)
        reordered += expected != sorted(rc.contenders)
    # the log holds conflicts whose turn order is not their id order
    assert reordered >= 10
    assert trace.collisions == []
    assert sweep_collisions(trace) == []


def test_head_on_corridor_deadlocks_without_collision():
    grid = GridWorld(5, 1)
    agents = [
        AgentState(id=0, pos=(0, 0), goal=(0, 4), incentive=3),
        AgentState(id=1, pos=(0, 4), goal=(0, 0), incentive=3),
    ]
    trace = run_trial(Scenario(grid=grid, agents=agents, kind="custom"))
    assert not trace.completed
    assert trace.deadlocked
    assert trace.collisions == []
    assert sweep_collisions(trace) == []


def test_timeout_marks_trace():
    scenario = make_scenario("doorway", 10, 10, 4, gap_size=1, rng_seed=0)
    trace = run_trial(scenario, timeout=0.0)
    assert not trace.completed
    assert not trace.deadlocked


def test_completed_is_read_off_arrival_times():
    assert SimulationTrace({0: 3}).completed
    assert not SimulationTrace({0: 3, 1: None}).completed


# among these trials some complete and some deadlock
@pytest.mark.parametrize("seed", [0, 5])
@pytest.mark.parametrize("resolver", RESOLVERS)
def test_run_trial_leaves_scenario_agents_unchanged(seed, resolver):
    scenario = make_scenario("hallway", 10, 10, 6, gap_size=1, rng_seed=seed)
    before = [dataclasses.replace(a) for a in scenario.agents]
    run_trial(scenario, resolver=resolver)
    assert scenario.agents == before


def test_invalid_arguments():
    scenario = make_scenario("doorway", 10, 10, 2, gap_size=1, rng_seed=0)
    with pytest.raises(ValueError):
        run_trial(scenario, resolver="coin-flip")
    for timeout in (float("nan"), -1.0):
        with pytest.raises(ValueError):
            run_trial(scenario, timeout=timeout)


# agent 0's (start, goal) on a 5x5 grid with an obstacle at (2, 2): off the
# grid, where the padded id of (0, 7) is that of (1, 0), or on the obstacle
@pytest.mark.parametrize("start, goal", [
    ((0, 7), (4, 4)), ((2, 2), (4, 4)), ((0, 0), (7, 0)), ((0, 0), (2, 2))])
@pytest.mark.parametrize("solve", [run_trial, plan_cbs])
def test_starts_and_goals_off_the_free_cells_are_rejected(solve, start, goal):
    """Both solvers refuse a hand-built scenario that `Scenario.validate`
    would refuse for the same agent, rather than planning from another cell."""
    grid = GridWorld(5, 5, frozenset({(2, 2)}))
    agents = [AgentState(0, start, goal, 2), AgentState(1, (4, 0), (0, 4), 1)]
    with pytest.raises(ScenarioError, match="agent 0 start/goal"):
        solve(Scenario(grid=grid, agents=agents, kind="custom"))


@pytest.mark.parametrize("resolver", RESOLVERS)
def test_each_incentive_tuple_settles_in_one_run_auction_call(resolver, monkeypatch):
    """Every resolver settles through `planner.run_auction`, exactly once per
    distinct incentive tuple of its log taken as bids in turn order. The
    auction bids those incentives; the baselines bid zero, with the
    incentives as true values."""
    calls = []

    def counted(bids, schedule=None, true_values=None):
        out = run_auction(bids, schedule, true_values)
        calls.append((bids, true_values, out))
        return out

    monkeypatch.setattr("auctionmapf.planner.run_auction", counted)
    scenario = make_scenario("hallway", 20, 20, 50, gap_size=3, rng_seed=21)
    trace = run_trial(scenario, resolver=resolver)
    logged = [tuple(rc.bids[aid] for aid in rc.ordering.turn_order()) for rc in trace.conflicts]
    assert len(set(logged)) > 1
    settled = []
    for bids, true_values, out in calls:
        amounts = {b.agent_id: b.amount for b in bids}
        values = amounts if true_values is None else true_values
        assert all(amounts[aid] == (values[aid] if resolver == "auction" else 0)
                   for aid in amounts)
        settled.append(tuple(values[aid] for aid in out.turn_order()))
    assert sorted(settled) == sorted(set(logged))


def _lines_trace(lines, starts, arrival_times):
    """A trace that records the moves among `lines`; its rendering gives
    back `lines` exactly, waits included."""
    lines = [TraceLine(*ln) for ln in lines]
    trace = SimulationTrace(arrival_times=arrival_times, starts=starts,
                            moves=[ln for ln in lines if not ln.waiting], ticks=lines[-1].tick + 1)
    assert list(trace.lines) == lines
    return trace


def test_sweep_audit_flags_swaps_and_pass_through():
    swap = _lines_trace([
        (0, 0, 0, 1, "right", 1, False),  # (0,0) -> (0,1)
        (0, 1, 0, 0, "left", 1, False),   # (0,1) -> (0,0)
    ], {0: (0, 0), 1: (0, 1)}, {0: None, 1: None})
    assert sweep_collisions(swap) == [(0, (0, 0), (0, 1)), (0, (0, 1), (0, 1))]
    through_waiter = _lines_trace([
        (0, 0, 2, 3, "right", 3, False),  # sweeps (2,0)..(2,3)
        (0, 1, 2, 1, "wait", 0, True),
    ], {0: (2, 0), 1: (2, 1)}, {0: 1, 1: None})
    assert sweep_collisions(through_waiter) == [(0, (2, 1), (0, 1))]


def test_sweep_audit_frees_an_arrived_goal():
    # agent 1 reaches (0,2) at tick 0 and writes no more lines; agent 0 then
    # passes over that cell, and sweeps in different ticks never clash
    trace = _lines_trace([
        (0, 0, 0, 0, "wait", 0, True),
        (0, 1, 0, 2, "right", 1, False),
        (1, 0, 0, 3, "right", 3, False),
    ], {0: (0, 0), 1: (0, 1)}, {0: 2, 1: 1})
    assert sweep_collisions(trace) == []


def test_sweep_bounds_audit_flags_off_grid_and_obstacle_cells():
    grid = GridWorld(4, 2, frozenset({(1, 2)}))
    trace = _lines_trace([
        (0, 0, 0, 3, "right", 2, False),  # (0,1)..(0,3): all free
        (0, 1, 1, 3, "wait", 0, True),    # a wait sweeps its own cell only
        (1, 0, -1, 3, "up", 1, False),    # leaves the grid at the top
        (1, 1, 1, 1, "right", 1, False),  # ends before the obstacle at (1,2)
        (2, 1, 1, 3, "right", 2, False),  # passes over the obstacle
    ], {0: (0, 1), 1: (1, 3)}, {0: 2, 1: None})
    assert sweep_bounds_violations(trace, grid) == [(1, 0, (-1, 3)), (2, 1, (1, 2))]


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(SCENARIO_KINDS),
    st.integers(6, 10),
    st.integers(1, 6),
    st.integers(1, 3),
    st.integers(0, 10_000),
)
def test_executed_sweeps_stay_on_free_cells(kind, size, n, gap, seed):
    """No resolver executes a sweep that leaves the grid or crosses an
    obstacle, as rebuilt from the trace lines alone."""
    try:
        scenario = make_scenario(kind, size, size, n, gap_size=gap, incentive_range=(1, 4),
                                 rng_seed=seed, n_obstacles=size)
    except ScenarioError:
        assume(False)
    for resolver in RESOLVERS:
        trace = run_trial(scenario, resolver=resolver)
        assert sweep_bounds_violations(trace, scenario.grid) == []


def _missettled(trace, memo):
    """(tick, cell) of each logged auction that the closed forms, under the
    planner's harmonic schedule, do not reproduce: its turns are not 1..k
    over bids that never increase, or a payment, utility or its welfare
    differs. `memo` holds the closed forms per bid tuple: the replays below
    hold some 16,000 auctions but only about 120 distinct tuples."""
    bad = []
    for rc in trace.conflicts:
        out = rc.ordering
        order = out.turn_order()
        amounts = tuple(rc.bids[aid] for aid in order)
        if (
            sorted(order) != list(rc.contenders)
            or sorted(out.ordering.values()) != list(range(1, len(order) + 1))
            or list(amounts) != sorted(amounts, reverse=True)
        ):
            bad.append((rc.tick, rc.cell))
            continue
        if amounts not in memo:
            schedule = harmonic_schedule(len(amounts))
            pays = [payment(amounts, q, schedule) for q in range(1, len(amounts) + 1)]
            memo[amounts] = (
                pays,
                [utility(b, q, p, schedule) for q, (b, p) in enumerate(zip(amounts, pays), 1)],
                sum(b * schedule.alpha(q) for q, b in enumerate(amounts, 1)),
            )
        logged = (
            [out.payments[aid] for aid in order],
            [out.utilities[aid] for aid in order],
            out.welfare,
        )
        if logged != memo[amounts]:
            bad.append((rc.tick, rc.cell))
    return bad


# `checks.planner_digest` of each trial, recorded at commit 1a99cc5, before
# the planner ran on cell ids; the reference replay below is all square
NON_SQUARE_DIGESTS = {
    ("doorway", 18, 12, 12, 2, 0): (
        "fb76ba7b650824a3ac89488c6ed4c89bb1b269709a36929a58150ca880bdeae0",
        "7038abe6a1f57c00f98e8404e253dbbbe1044457285f3faef6d12921bca41a09",
        "b73d3a2c57f0560e363b4b5c4902a2b282356c542921a12027128661f1358701",
    ),
    ("hallway", 12, 20, 14, 3, 0): (
        "fd3b3c6194768f7e8a93a2e31a9fa7a5878a0679ec34b7cc45db3cbe945c648d",
        "9411cefd1412291c67401761fd5b17ba6a07a324b16c32ccd27329acde769579",
        "87010e78d5e8f195d6e543722b79b4eca2107ee61fad540d439a1dceb641a187",
    ),
    ("intersection", 20, 14, 12, 4, 0): (
        "00c49db973da34aeb5acc6b87f7db0c8ab48599ea9610f43c634e965c5de7af6",
        "f2dc58c986b1aca24b8e9099ff0f77622db71cf073001e742121dc71f1de31c9",
        "830fec6dc2e2ff21ec1d1eed6086b4c87c275c45537de02515227f0234f25977",
    ),
    ("random-obstacles", 15, 9, 8, 1, 12): (
        "bd931c9e9847420a1ac7e15a66091e50a7d0ba51bf60680232689a658e3c843b",
        "f95b41b92351249c836ad5f983d25746d623c2bbeadee7098504c6b7d36d4fbf",
        "68482b22b48ec8cda829bbb9b6f0bbac83ef91bdf9339d766db4beb28c1c4fb7",
    ),
}


@pytest.mark.parametrize("instance", sorted(NON_SQUARE_DIGESTS), ids=lambda i: f"{i[0]}-{i[1]}x{i[2]}")
def test_traces_match_pinned_digests_on_non_square_grids(instance, monkeypatch):
    """Width and height differ on every grid here, so a cell-id scheme that
    mixes them up changes some trace; every trial holds auctions."""
    monkeypatch.syspath_prepend(str(BENCH))
    from checks import planner_digest

    kind, width, height, n, gap, n_obstacles = instance
    for seed, digest in enumerate(NON_SQUARE_DIGESTS[instance]):
        scenario = make_scenario(kind, width, height, n, gap_size=gap, rng_seed=seed,
                                 n_obstacles=n_obstacles)
        trace = run_trial(scenario, resolver="auction")
        assert trace.conflicts
        assert planner_digest(trace) == digest, seed


# `checks.planner_digest` of the baseline resolvers' trials, recorded at
# commit eee9520, before the flood over cell ids. Every trial holds
# auctions, each resolver sees order intrusions, and fifo's hallway seed 39
# deadlocks; all of them take about 1.5 s of CPU.
BASELINE_DIGESTS = {
    ("random-ordering", "doorway", 14, 14, 20, 2, 0): {
        0: "3632b380efa53dcf0cbb70a2986f406a02f32c717cacd29404c419befcce5d8c",
        1: "ec86f5211d7d9e9d5e26dc06eb9863c1d29495e49ea3720d5fb5f8a2a0a7f6f0",
        2: "b2c314a3e9c1b96c8ed113a7195c9768523924d73e5c03d8c4ac4267459277b4",
        3: "a1b38512f095d8160573b5b236f529ec87a704a3f833b234bd627090004138ac",
        4: "1b367f70951640bf0b111eb8f356393191ad89912471a78116d12a2d334755ba",
        5: "7d7b4e09cee2aec4c30ec31b354e0097ecfb82cfd4f0716727be1b39d8052355",
    },
    ("random-ordering", "intersection", 16, 16, 20, 4, 0): {
        0: "b2751d8193421c46eddd0ad62df3c2360d6655052e12ee0d72e49712ab33d590",
        1: "572fdead821668096a8146c8bd9a5b8ddc040b2e22d3b884e71be4ffeae68ec4",
        2: "53599994a893594324ab76036a95de17c24a73266d0234853b1981cdc407d83a",
        3: "981a74af5084ea01d739ae97ac759b57c5da98fa10182b9f6c4bfc4197684730",
        4: "5bbfe941a94c09013421518ff5f0ed2fc131ca58443a7e07b0211eae1d325d36",
        5: "1e73c57f9808d2d769ddf62e67e18afe4a099b5d59755f6010674db76e334ff9",
    },
    ("random-ordering", "hallway", 20, 20, 50, 3, 0): {
        21: "c527728119b216fc85e843e1bfd3942f23d37419791ff7ea23ce4ea57e455146",
        45: "1f887e76d8576baca1aca5580ab2a5402c4cb60df7f0d3d642fe9ecf94f9137b",
    },
    ("random-ordering", "random-obstacles", 15, 9, 8, 1, 12): {
        0: "61bdff6a8d1a7e93be2f71c887880eb7979d7c4a65bc38a01ddc27beb2f8e575",
        1: "080f3770b1dae4a352682ae629d3199bc25b1f5c8df6e85e4716d4447be2b06d",
        2: "74800e68d89a89b9f342f0aa6d4eac4ad30cf3da6584fd57f9fa5899f585d580",
    },
    ("fifo", "doorway", 14, 14, 20, 2, 0): {
        0: "ac1969ec9d6e0cefd9e4e2dde20c2a07bf656f0f7cc16088fef6f97dccbac104",
        1: "727342d8c31be53eee807f0bfe74e8db9c4d093cc4eeb4ede98b015e56010150",
        2: "ab719e87a1c9017ab740e9257f78ea4a0fcd4dc853624159cd5ec8b37d3160f9",
        3: "4ebd43c9ee8c800a5bf476fdec22511c18acdd576bd9fd3d04e38092b0bb004a",
        4: "39534e95759d02a0216efb5fd344bc528a727f0bac4233f34b075a3b7f44e4d3",
        5: "afe1b2e12506b1e1672b5e41e9f9044a63be37ba5f1bc69cfd9a962962cf66db",
    },
    ("fifo", "intersection", 16, 16, 20, 4, 0): {
        0: "82d3cd17e362a81f4231dfefb0d389cf0541df111f15ee438ea10ad2143580b5",
        1: "95bdf41238faa15b3cfc75ae83b54526237cb3f7cdd8ba15669636650e78731d",
        2: "91049cf02bbd73701eae6e12c288017e372d9e2e4ff948f00586d1283c6c3864",
        3: "f251af8778179c26cf6206d0592a6e92f63807fa30018518c9af2a62da9d60d7",
        4: "08ecdd6001dcdf31e80c75f18ab3b32d43921bd5b4df3c9bddc6a46c92c54424",
        5: "85a5a2ad595affb05a54962a944663e6d0c5c47a0ae59a4aeddb2e93f5240bc8",
    },
    ("fifo", "hallway", 20, 20, 50, 3, 0): {
        21: "4219288cb7978b1f34801df1e1f89a540db31e0fb1132b00b41d548716ed6bc8",
        39: "586756ce673db8f321a7c27877ceb96dc12b6b9698d3223152482d1f1a13f497",
    },
    ("fifo", "random-obstacles", 15, 9, 8, 1, 12): {
        0: "53a2a3ae575d00397f3db6fc282ab9e6a667b48651099a6c82b345bd00ed80dc",
        1: "c10c58f35613c1d41792b4db3f0e6bbff40d6ab6d61d0b67b1f7b59baa8cdf41",
        2: "be22710a59d2e615e414129648eb40811418d5550e48ef9aa155c766ca8d2278",
    },
}


def _held_intrusions(trace):
    """Logged conflicts that hold an agent an earlier order still holds: a
    held agent waits, so it joins a conflict only when movers intrude on
    its order's cell. Read off the auction log alone."""
    release, intrusions = {}, 0
    for rc in trace.conflicts:
        intrusions += any(release.get(aid, -1) > rc.tick for aid in rc.contenders)
        for aid, q in rc.ordering.ordering.items():
            release[aid] = rc.tick + q - 1
    return intrusions


@pytest.mark.parametrize("resolver", ["random-ordering", "fifo"])
def test_baseline_traces_match_pinned_digests(resolver, monkeypatch):
    """The baseline resolvers share the tick, the fields and the settlement
    table with the auction, so a change there that only a baseline's order
    would show (a fifo tie-break, a shuffle) fails here."""
    monkeypatch.syspath_prepend(str(BENCH))
    from checks import planner_digest

    mismatched, intrusions, deadlocked = [], 0, 0
    for (pinned, kind, width, height, n, gap, n_obstacles), digests in BASELINE_DIGESTS.items():
        if pinned != resolver:
            continue
        for seed, digest in digests.items():
            scenario = make_scenario(kind, width, height, n, gap_size=gap, rng_seed=seed,
                                     n_obstacles=n_obstacles)
            trace = run_trial(scenario, resolver=resolver)
            assert trace.conflicts, (kind, seed)
            if planner_digest(trace) != digest:
                mismatched.append((kind, seed))
            intrusions += _held_intrusions(trace)
            deadlocked += trace.deadlocked
    assert mismatched == []
    assert intrusions > 0
    assert deadlocked == (resolver == "fifo")


def test_traces_match_benchmark_reference_digests(monkeypatch):
    """Two criterion-4 cells, and the hallway cell's six shortest trials,
    replay to the digests recorded in bench/reference.json, so a change to
    any trace or auction log fails here. Every logged auction of those
    replays is also re-settled from the closed forms in helpers, which pins
    its numbers to the mechanism's definition, not only to the reference,
    and every executed sweep is rebuilt and checked to stay on free cells."""
    monkeypatch.syspath_prepend(str(BENCH))
    from checks import planner_digest

    reference = json.loads((BENCH / "reference.json").read_text())
    cases = [
        (cell, seed)
        for cell in (("doorway", 14, 14, 20, 2), ("intersection", 16, 16, 20, 4))
        for seed in range(100)
    ]
    # its six shortest reference trials: 21, 80, 39, 90 and 54 complete, 45 deadlocks
    cases += [(("hallway", 20, 20, 50, 3), seed) for seed in (21, 80, 39, 90, 54, 45)]
    mismatched, missettled, off_free, memo, auctions = [], [], [], {}, 0
    for (kind, width, height, n, gap), seed in cases:
        scenario = make_scenario(kind, width, height, n, gap_size=gap, rng_seed=seed)
        key = f"{kind}-{width}x{height}-n{n}-g{gap}:{seed}"
        trace = run_trial(scenario, resolver="auction")
        if planner_digest(trace) != reference[key]["digest"]:
            mismatched.append(key)
        missettled += [(key, *where) for where in _missettled(trace, memo)]
        off_free += [(key, *where) for where in sweep_bounds_violations(trace, scenario.grid)]
        auctions += len(trace.conflicts)
    assert mismatched == []
    assert missettled == []
    assert off_free == []
    assert auctions > 0
