"""Conflict-based search baseline with noisy plan-time edge costs.

The planner runs classical two-level CBS, except that each trial samples a
weight for every grid edge from max(0.01, 1 + N(0, sigma^2)) to model cost
uncertainty. The cbs-random variant breaks equal-cost frontier ties
uniformly at random instead of first-come. Execution then replays the
unit-step plans with per-agent multi-cell steps, which is what breaks the
safety guarantee and produces the collisions the baseline is known for.
"""

from __future__ import annotations

import heapq
import itertools
import random
import time as _time
from dataclasses import dataclass
from typing import Optional

from .planner import SimulationTrace, TraceLine
from .world import Cell, CellIds, GridWorld, Scenario

EDGE_WEIGHT_FLOOR = 0.01
DEFAULT_TIMEOUT = 20.0
CBS_VARIANTS = ("cbs", "cbs-random")


@dataclass(frozen=True)
class Constraint:
    agent_id: int
    cell: Cell
    tick: int
    # edge constraints forbid the move cell_from -> cell at this tick
    cell_from: Optional[Cell] = None

    def __post_init__(self):
        if self.tick < 0:
            raise ValueError("constraint tick must be >= 0")

    @property
    def is_edge(self) -> bool:
        return self.cell_from is not None


@dataclass
class CBSResult:
    paths: Optional[dict[int, list[Cell]]]
    cost: float
    elapsed: float
    expansions: int

    @property
    def timed_out(self) -> bool:
        return self.paths is None


class CBSTimeout(Exception):
    pass


Moves = list[tuple[tuple[int, float], ...]]


def _move_table(grid: GridWorld, ids: CellIds, sigma: float, rng: random.Random) -> Moves:
    """Each padded id's moves as (next id, cost): the wait first, then the
    grid neighbours in `GridWorld.neighbors` order; `()` on the ring and on
    obstacles. Built once per plan.

    Each undirected edge's weight is drawn once, fixed for the whole trial,
    by its upper or left end: cells row-major, each drawing down then right.
    """
    moves: Moves = [()] * len(ids.cells)
    for cell in grid.free_cells():
        i = ids.id(cell)
        row = [(i, 1.0)]
        for nxt in grid.neighbors(cell):
            j = ids.id(nxt)
            if j > i:
                noise = rng.gauss(0.0, sigma) if sigma > 0 else 0.0
                w = max(EDGE_WEIGHT_FLOOR, 1.0 + noise)
            else:  # drawn by `nxt`, earlier in row-major order
                w = next(cost for back, cost in moves[j] if back == i)
            row.append((j, w))
        moves[i] = tuple(row)
    return moves


def _heuristic(ids: CellIds, goal: Cell, min_w: float) -> list[float]:
    """Manhattan distance to `goal` times `min_w` by padded id, the cheapest
    edge weight, so it never overestimates the remaining cost. Built once per
    goal per plan."""
    gr, gc = goal
    return [(abs(cell[0] - gr) + abs(cell[1] - gc)) * min_w if cell else 0.0 for cell in ids.cells]


def _low_level(
    grid: GridWorld,
    ids: CellIds,
    start: Cell,
    goal: Cell,
    constraints: frozenset[Constraint],
    moves: Moves,
    h: list[float],
    deadline: float,
) -> Optional[tuple[list[Cell], float]]:
    """Space-time A* honoring vertex and edge constraints for one agent, over
    states `id + n * tick` with `h` the goal's heuristic. Raises `CBSTimeout`
    once `time.monotonic()` passes `deadline`, checked before every pop.
    """
    n = len(moves)
    # forbidden next ids, looked up once per pop: vertex constraints by
    # arrival tick, edge constraints by the state moved from
    vertex_at: dict[int, set[int]] = {}
    edge_at: dict[int, set[int]] = {}
    for c in constraints:
        if c.is_edge:
            edge_at.setdefault(ids.id(c.cell_from) + n * c.tick, set()).add(ids.id(c.cell))
        else:
            vertex_at.setdefault(c.tick, set()).add(ids.id(c.cell))
    last_con = max((c.tick for c in constraints), default=-1)
    target = ids.id(goal)
    # resting at the goal is only legal after the last vertex constraint there
    last_goal_con = max((t for t, at in vertex_at.items() if target in at), default=-1)
    horizon = grid.width * grid.height + last_con + 1
    heappush, heappop, monotonic = heapq.heappush, heapq.heappop, _time.monotonic
    inf = float("inf")
    no_ids: frozenset[int] = frozenset()
    counter = itertools.count()

    root = ids.id(start)
    open_heap = [(h[root], 0.0, next(counter), root)]
    best: dict[int, float] = {root: 0.0}
    parents: dict[int, Optional[int]] = {root: None}

    while open_heap:
        if monotonic() > deadline:
            raise CBSTimeout
        _, g, _, state = heappop(open_heap)
        if g > best[state]:
            continue
        t, i = divmod(state, n)
        if i == target and t > last_goal_con:
            path = []
            key = state
            while key is not None:
                path.append(ids.cells[key % n])
                key = parents[key]
            path.reverse()
            return path, g
        if t >= horizon:
            continue
        base = n * (t + 1)
        banned = vertex_at.get(t + 1, no_ids)
        if state in edge_at:
            banned = banned | edge_at[state]
        for j, w in moves[i]:
            if j in banned:
                continue
            ng = g + w
            key = j + base
            if ng < best.get(key, inf) - 1e-12:
                best[key] = ng
                parents[key] = state
                heappush(open_heap, (ng + h[j], ng, next(counter), key))
    return None


def _pad(path: list[Cell], length: int) -> list[Cell]:
    return path + [path[-1]] * (length - len(path))


def _first_conflict(paths: dict[int, list[Cell]]) -> Optional[tuple[Constraint, Constraint]]:
    """The two branch constraints of the earliest vertex or edge conflict,
    lower id pair first at equal ticks, or None when the paths are safe."""
    ids = sorted(paths)
    horizon = max(len(p) for p in paths.values())
    padded = {aid: _pad(paths[aid], horizon) for aid in ids}
    for t in range(horizon):
        for i_idx, i in enumerate(ids):
            here = padded[i][t]
            for j in ids[i_idx + 1:]:
                if here == padded[j][t]:
                    return Constraint(i, here, t), Constraint(j, here, t)
                if t + 1 < horizon:
                    there = padded[i][t + 1]
                    if here == padded[j][t + 1] and there == padded[j][t]:
                        # i may not move here -> there at t, nor j there -> here
                        return Constraint(i, there, t, here), Constraint(j, here, t, there)
    return None


def plan_cbs(
    scenario: Scenario,
    noise_sigma: float = 0.0,
    variant: str = "cbs",
    timeout: float = DEFAULT_TIMEOUT,
) -> CBSResult:
    """Best-first constraint-tree search over perturbed-cost single-agent plans,
    within `timeout` wall-clock seconds (> 0; `math.inf` for no deadline)."""
    if variant not in CBS_VARIANTS:
        raise ValueError(f"variant must be one of {CBS_VARIANTS}")
    # chained or negated so that NaN fails them too
    if not 0 <= noise_sigma < float("inf"):
        raise ValueError("noise_sigma must be finite and >= 0")
    if not timeout > 0:
        raise ValueError("timeout must be > 0")
    # weights are independent of the variant so cbs and cbs-random face the
    # same perturbed costs; only the frontier tie-break differs
    rng = random.Random(f"{scenario.seed}:{variant}")
    weights_rng = random.Random(f"{scenario.seed}:weights:{noise_sigma}")
    grid = scenario.grid
    ids = CellIds(grid)
    moves = _move_table(grid, ids, noise_sigma, weights_rng)
    min_w = min((w for row in moves for _, w in row[1:]), default=1.0)
    agents = {a.id: a for a in scenario.agents}
    h = {a.goal: _heuristic(ids, a.goal, min_w) for a in scenario.agents}
    # `_low_level` is pure, so each agent's constraint set is searched once;
    # a non-empty set names its agent
    planned: dict[frozenset[Constraint], Optional[tuple[list[Cell], float]]] = {}
    start_time = _time.monotonic()
    # checked before every CT pop and every A* pop: a CT pop whose branches
    # are all planned already never enters `_low_level`
    deadline = start_time + timeout
    counter = itertools.count()
    expansions = 0
    open_heap: list = []

    # a constraint-tree node is its heap entry; the unique count keeps heapq
    # from comparing the per-agent constraints, paths and `_low_level` costs
    def push(cost, constraints, paths, costs) -> None:
        tie = rng.random() if variant == "cbs-random" else 0.0
        heapq.heappush(open_heap, (cost, tie, next(counter), constraints, paths, costs))

    try:
        paths: dict[int, list[Cell]] = {}
        costs: dict[int, float] = {}
        cost = 0.0
        for a in scenario.agents:
            res = _low_level(grid, ids, a.pos, a.goal, frozenset(), moves, h[a.goal], deadline)
            if res is None:
                raise ValueError(f"agent {a.id} has no path")
            paths[a.id], costs[a.id] = res
            # `+=` in agent order, not sum(): from Python 3.12 a float sum()
            # is compensated and would give different bits
            cost += costs[a.id]
        push(cost, {a.id: frozenset() for a in scenario.agents}, paths, costs)
        while open_heap:
            if _time.monotonic() > deadline:
                raise CBSTimeout
            cost, _, _, constraints, paths, costs = heapq.heappop(open_heap)
            expansions += 1
            branch = _first_conflict(paths)
            if branch is None:
                return CBSResult(paths=paths, cost=cost,
                                 elapsed=_time.monotonic() - start_time, expansions=expansions)
            for con in branch:
                aid = con.agent_id
                own = constraints[aid] | {con}
                if own not in planned:
                    a = agents[aid]
                    planned[own] = _low_level(grid, ids, a.pos, a.goal, own, moves, h[a.goal],
                                              deadline)
                res = planned[own]
                if res is None:
                    continue
                path, c = res
                push(cost - costs[aid] + c, {**constraints, aid: own},
                     {**paths, aid: path}, {**costs, aid: c})
        raise ValueError("constraint tree exhausted without a solution")
    except CBSTimeout:
        return CBSResult(paths=None, cost=float("inf"),
                         elapsed=_time.monotonic() - start_time, expansions=expansions)


def path_time_to_goal(path: list[Cell]) -> int:
    """Arrival tick under unit-step execution; trailing goal waits are free."""
    goal = path[-1]
    e = len(path) - 1
    while e > 0 and path[e - 1] == goal:
        e -= 1
    return e


def _trim(path: list[Cell]) -> list[Cell]:
    return path[: path_time_to_goal(path) + 1]


def execute_multihop(
    paths: dict[int, list[Cell]],
    incentives: dict[int, int],
) -> SimulationTrace:
    """Replay unit-step plans at per-agent speeds, counting sweep collisions.

    Each tick an agent advances up to its incentive waypoints along its own
    path. Collisions (shared entered cells, or an adjacent swap) are recorded
    and the agents continue, so one trial can count several events.
    """
    ids = sorted(paths)
    # each agent's trimmed path cut once into the cells it enters per tick
    hops: dict[int, list[list[Cell]]] = {}
    for aid in ids:
        path, speed = _trim(paths[aid]), incentives[aid]
        hops[aid] = [path[i + 1 : i + speed + 1] for i in range(0, len(path) - 1, speed)]
    pos = {aid: paths[aid][0] for aid in ids}
    collisions: list[tuple[int, Cell, tuple[int, ...]]] = []
    lines: list[TraceLine] = []
    ticks = max((len(h) for h in hops.values()), default=0)
    for t in range(ticks):
        moving = [(aid, set(hops[aid][t])) for aid in ids if t < len(hops[aid])]
        users: dict[Cell, list[int]] = {}
        for aid, entered in moving:
            for cell in entered:
                users.setdefault(cell, []).append(aid)
        collisions += [(t, cell, tuple(aids)) for cell, aids in users.items() if len(aids) > 1]
        for k, (i, entered_i) in enumerate(moving):
            for j, entered_j in moving[k + 1:]:
                if pos[j] in entered_i and pos[i] in entered_j and not entered_i & entered_j:
                    collisions.append((t, pos[j], (i, j)))
        for aid, _ in moving:
            hop = hops[aid][t]
            pos[aid] = hop[-1]
            lines.append(TraceLine(t, aid, *hop[-1], "path", len(hop), False))
    return SimulationTrace(
        arrival_times={aid: len(hops[aid]) for aid in ids},
        lines=lines,
        ticks=ticks,
        collisions=collisions,
    )


def run_cbs_trial(
    scenario: Scenario,
    noise_sigma: float = 0.0,
    variant: str = "cbs",
    timeout: float = DEFAULT_TIMEOUT,
) -> tuple[Optional[SimulationTrace], CBSResult]:
    """Plan with CBS, then execute at incentive speeds. None on timeout."""
    result = plan_cbs(
        scenario,
        noise_sigma=noise_sigma,
        variant=variant,
        timeout=timeout,
    )
    if result.paths is None:
        return None, result
    incentives = {a.id: a.incentive for a in scenario.agents}
    return execute_multihop(result.paths, incentives), result
