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
# a gauss draw lies within 9 standard deviations (random() has 53 bits), so
# every edge weight stays below 1e7 and every path cost far below overflow;
# at sigma 1e308 a weight is inf and no path has a finite cost
MAX_NOISE_SIGMA = 1e6
DEFAULT_TIMEOUT = 20.0
CBS_VARIANTS = ("cbs", "cbs-random")


# one agent's constraint over padded cell ids: (tick, id, None) bars arriving
# on `id` at `tick`, (tick, id, from id) the move from `from id` to `id` at `tick`
Constraint = tuple[int, int, Optional[int]]


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
    free neighbours in `ids.moves` order; `()` on the ring and on obstacles.
    Built once per plan.

    Each undirected edge's weight is drawn once, fixed for the whole trial,
    by its upper or left end: cells row-major, each drawing down then right.
    """
    free = {ids.id(cell) for cell in grid.free_cells()}
    moves: Moves = [()] * len(ids.cells)
    for i in sorted(free):  # row-major order
        row = [(i, 1.0)]
        for _, d in ids.moves:
            j = i + d
            if j not in free:
                continue
            if j > i:
                noise = rng.gauss(0.0, sigma) if sigma > 0 else 0.0
                w = max(EDGE_WEIGHT_FLOOR, 1.0 + noise)
            else:  # drawn by `j`, earlier in row-major order
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
    ids: CellIds,
    start: int,
    goal: int,
    constraints: frozenset[Constraint],
    moves: Moves,
    h: list[float],
    deadline: float,
) -> Optional[tuple[list[int], float]]:
    """Space-time A* from id `start` to id `goal` honoring one agent's vertex
    and edge constraints, over states `id + n * tick` with `h` the goal's
    heuristic; the path comes back as ids. Raises `CBSTimeout` once
    `time.monotonic()` passes `deadline`, checked before every pop.
    """
    n = len(moves)
    # forbidden next ids, looked up once per pop: vertex constraints by
    # arrival tick, edge constraints by the state moved from
    vertex_at: dict[int, set[int]] = {}
    edge_at: dict[int, set[int]] = {}
    for t, i, came_from in constraints:
        if came_from is None:
            vertex_at.setdefault(t, set()).add(i)
        else:
            edge_at.setdefault(came_from + n * t, set()).add(i)
    last_con = max((t for t, _, _ in constraints), default=-1)
    # resting at the goal is only legal after the last vertex constraint there
    last_goal_con = max((t for t, at in vertex_at.items() if goal in at), default=-1)
    horizon = ids.grid.width * ids.grid.height + last_con + 1
    heappush, heappop, monotonic = heapq.heappush, heapq.heappop, _time.monotonic
    inf = float("inf")
    no_ids: frozenset[int] = frozenset()
    counter = itertools.count()

    open_heap = [(h[start], 0.0, next(counter), start)]
    best: dict[int, float] = {start: 0.0}
    parents: dict[int, Optional[int]] = {start: None}

    while open_heap:
        if monotonic() > deadline:
            raise CBSTimeout
        _, g, _, state = heappop(open_heap)
        if g > best[state]:
            continue
        t, i = divmod(state, n)
        if i == goal and t > last_goal_con:
            path = []
            key = state
            while key is not None:
                path.append(key % n)
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


def _first_conflict(
    paths: dict[int, list[int]],
) -> Optional[tuple[tuple[int, Constraint], tuple[int, Constraint]]]:
    """The two `(agent id, constraint)` branches of the earliest vertex or
    edge conflict between id paths, each padded by waiting at its goal, lower
    agent pair first at equal ticks; None when the paths are safe."""
    aids = sorted(paths)
    horizon = max(len(p) for p in paths.values())
    padded = {aid: paths[aid] + [paths[aid][-1]] * (horizon - len(paths[aid])) for aid in aids}
    for t in range(horizon):
        for k, i in enumerate(aids):
            here = padded[i][t]
            for j in aids[k + 1:]:
                if here == padded[j][t]:
                    return (i, (t, here, None)), (j, (t, here, None))
                if t + 1 < horizon:
                    there = padded[i][t + 1]
                    if here == padded[j][t + 1] and there == padded[j][t]:
                        # i may not move here -> there at t, nor j there -> here
                        return (i, (t, there, here)), (j, (t, here, there))
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
    if not 0 <= noise_sigma <= MAX_NOISE_SIGMA:
        raise ValueError(f"noise_sigma must be in [0, {MAX_NOISE_SIGMA:g}]")
    if not timeout > 0:
        raise ValueError("timeout must be > 0")
    scenario.check_cells()
    # weights are independent of the variant so cbs and cbs-random face the
    # same perturbed costs; only the frontier tie-break differs
    rng = random.Random(f"{scenario.seed}:{variant}")
    weights_rng = random.Random(f"{scenario.seed}:weights:{noise_sigma}")
    grid = scenario.grid
    ids = CellIds(grid)
    moves = _move_table(grid, ids, noise_sigma, weights_rng)
    min_w = min((w for row in moves for _, w in row[1:]), default=1.0)
    h = {a.goal: _heuristic(ids, a.goal, min_w) for a in scenario.agents}
    ends = {a.id: (ids.id(a.pos), ids.id(a.goal), h[a.goal]) for a in scenario.agents}
    # every path and cost of the plan, once, by (agent id, constraint set):
    # `_low_level` is pure, so each set is searched once
    planned: dict[tuple[int, frozenset[Constraint]], Optional[tuple[list[int], float]]] = {}
    start_time = _time.monotonic()
    # checked before every CT pop and every A* pop: a CT pop whose branches
    # are all planned already never enters `_low_level`
    deadline = start_time + timeout
    counter = itertools.count()
    expansions = 0
    open_heap: list = []

    def search(aid: int, own: frozenset[Constraint]) -> Optional[tuple[list[int], float]]:
        if (aid, own) not in planned:
            start, goal, h_goal = ends[aid]
            planned[aid, own] = _low_level(ids, start, goal, own, moves, h_goal, deadline)
        return planned[aid, own]

    # a constraint-tree node is its per-agent constraint sets, whose paths and
    # costs `planned` holds; the unique count keeps heapq from comparing them
    def push(cost, constraints) -> None:
        tie = rng.random() if variant == "cbs-random" else 0.0
        heapq.heappush(open_heap, (cost, tie, next(counter), constraints))

    try:
        root = {aid: frozenset() for aid in ends}
        cost = 0.0
        for aid, own in root.items():
            res = search(aid, own)
            if res is None:
                raise ValueError(f"agent {aid} has no path")
            # `+=` in agent order, not sum(): from Python 3.12 a float sum()
            # is compensated and would give different bits
            cost += res[1]
        push(cost, root)
        while open_heap:
            if _time.monotonic() > deadline:
                raise CBSTimeout
            cost, _, _, constraints = heapq.heappop(open_heap)
            expansions += 1
            paths = {aid: planned[aid, own][0] for aid, own in constraints.items()}
            branch = _first_conflict(paths)
            if branch is None:
                cells = ids.cells
                return CBSResult(paths={aid: [cells[i] for i in p] for aid, p in paths.items()},
                                 cost=cost, elapsed=_time.monotonic() - start_time,
                                 expansions=expansions)
            for aid, con in branch:
                own = constraints[aid] | {con}
                res = search(aid, own)
                if res is not None:
                    push(cost - planned[aid, constraints[aid]][1] + res[1],
                         {**constraints, aid: own})
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


def execute_multihop(
    paths: dict[int, list[Cell]],
    incentives: dict[int, int],
) -> SimulationTrace:
    """Replay unit-step plans at per-agent speeds, counting sweep collisions.

    Each tick until it arrives an agent advances up to its incentive
    waypoints along its own path, so the trace renders its moves alone, no
    wait among them. Collisions (shared entered cells, or an adjacent swap)
    are recorded and the agents continue, so one trial can count several
    events.
    """
    ids = sorted(paths)
    # each agent's trimmed path cut once into the cells it enters per tick
    hops: dict[int, list[list[Cell]]] = {}
    for aid in ids:
        path, speed = paths[aid][: path_time_to_goal(paths[aid]) + 1], incentives[aid]
        hops[aid] = [path[i + 1 : i + speed + 1] for i in range(0, len(path) - 1, speed)]
    pos = {aid: paths[aid][0] for aid in ids}
    collisions: list[tuple[int, Cell, tuple[int, ...]]] = []
    moves: list[TraceLine] = []
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
            moves.append(TraceLine(t, aid, *hop[-1], "path", len(hop), False))
    return SimulationTrace(
        arrival_times={aid: len(hops[aid]) for aid in ids},
        moves=moves,
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
