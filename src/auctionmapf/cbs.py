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
from dataclasses import dataclass, field
from typing import Optional

from .planner import SimulationTrace, TraceLine
from .world import Cell, GridWorld, Scenario

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
class CTNode:
    constraints: frozenset[Constraint]
    paths: dict[int, list[Cell]]
    cost: float


@dataclass
class CBSResult:
    paths: Optional[dict[int, list[Cell]]]
    cost: float
    elapsed: float
    timed_out: bool
    expansions: int


class CBSTimeout(Exception):
    pass


def sample_edge_weights(
    grid: GridWorld, sigma: float, rng: random.Random
) -> dict[frozenset[Cell], float]:
    """One weight per undirected free edge, fixed for the whole trial."""
    weights: dict[frozenset[Cell], float] = {}
    # row-major over cells, each edge drawn from its upper/left end: down, then right
    for cell in grid.free_cells():
        for nxt in grid.neighbors(cell):
            if nxt > cell:
                noise = rng.gauss(0.0, sigma) if sigma > 0 else 0.0
                weights[frozenset((cell, nxt))] = max(EDGE_WEIGHT_FLOOR, 1.0 + noise)
    return weights


Moves = dict[Cell, tuple[tuple[Cell, float], ...]]


def _move_table(grid: GridWorld, weights: dict[frozenset[Cell], float]) -> Moves:
    """Each free cell's moves as (next cell, cost): the wait first, then the
    grid neighbours in `GridWorld.neighbors` order. Built once per plan."""
    return {
        cell: ((cell, 1.0),)
        + tuple((nxt, weights[frozenset((cell, nxt))]) for nxt in grid.neighbors(cell))
        for cell in grid.free_cells()
    }


def _low_level(
    grid: GridWorld,
    start: Cell,
    goal: Cell,
    constraints: frozenset[Constraint],
    moves: Moves,
    min_w: float,
    deadline: Optional[float],
) -> Optional[tuple[list[Cell], float]]:
    """Space-time A* honoring vertex and edge constraints for one agent.

    `min_w` is the cheapest edge weight, so Manhattan distance times `min_w`
    never overestimates the remaining cost.
    """
    # forbidden next cells, looked up once per pop: vertex constraints by
    # arrival tick, edge constraints by (cell moved from, departure tick)
    vertex_at: dict[int, set[Cell]] = {}
    edge_at: dict[tuple[Cell, int], set[Cell]] = {}
    for c in constraints:
        if c.is_edge:
            edge_at.setdefault((c.cell_from, c.tick), set()).add(c.cell)
        else:
            vertex_at.setdefault(c.tick, set()).add(c.cell)
    last_con = max((c.tick for c in constraints), default=-1)
    # resting at the goal is only legal after the last vertex constraint there
    last_goal_con = max((t for t, cells in vertex_at.items() if goal in cells), default=-1)
    horizon = grid.width * grid.height + last_con + 1
    gr, gc = goal
    heappush, heappop, monotonic = heapq.heappush, heapq.heappop, _time.monotonic
    inf = float("inf")
    no_cells: frozenset[Cell] = frozenset()
    counter = itertools.count()

    root = (start, 0)
    open_heap = [((abs(start[0] - gr) + abs(start[1] - gc)) * min_w, 0.0, next(counter), root)]
    best: dict[tuple[Cell, int], float] = {root: 0.0}
    parents: dict[tuple[Cell, int], Optional[tuple[Cell, int]]] = {root: None}

    while open_heap:
        if deadline is not None and monotonic() > deadline:
            raise CBSTimeout
        _, g, _, state = heappop(open_heap)
        if g > best[state]:
            continue
        cell, t = state
        if cell == goal and t > last_goal_con:
            path = []
            key = state
            while key is not None:
                path.append(key[0])
                key = parents[key]
            path.reverse()
            return path, g
        if t >= horizon:
            continue
        t1 = t + 1
        banned = vertex_at.get(t1, no_cells)
        if state in edge_at:
            banned = banned | edge_at[state]
        for nxt, w in moves[cell]:
            if nxt in banned:
                continue
            ng = g + w
            key = (nxt, t1)
            if ng < best.get(key, inf) - 1e-12:
                best[key] = ng
                parents[key] = state
                heappush(
                    open_heap,
                    (ng + (abs(nxt[0] - gr) + abs(nxt[1] - gc)) * min_w, ng, next(counter), key),
                )
    return None


def _pad(path: list[Cell], length: int) -> list[Cell]:
    return path + [path[-1]] * (length - len(path))


def _first_conflict(paths: dict[int, list[Cell]]):
    """Earliest vertex or edge conflict between any pair, or None."""
    ids = sorted(paths)
    horizon = max(len(p) for p in paths.values())
    padded = {aid: _pad(paths[aid], horizon) for aid in ids}
    for t in range(horizon):
        for i_idx, i in enumerate(ids):
            for j in ids[i_idx + 1:]:
                if padded[i][t] == padded[j][t]:
                    return ("vertex", i, j, padded[i][t], None, t)
                if t + 1 < horizon:
                    if padded[i][t] == padded[j][t + 1] and padded[i][t + 1] == padded[j][t]:
                        return ("edge", i, j, padded[i][t + 1], padded[i][t], t)
    return None


def plan_cbs(
    scenario: Scenario,
    noise_sigma: float = 0.0,
    variant: str = "cbs",
    timeout: float = DEFAULT_TIMEOUT,
) -> CBSResult:
    """Best-first constraint-tree search over perturbed-cost single-agent plans."""
    if variant not in CBS_VARIANTS:
        raise ValueError(f"variant must be one of {CBS_VARIANTS}")
    # chained so that NaN fails it too
    if not 0 <= noise_sigma < float("inf"):
        raise ValueError("noise_sigma must be finite and >= 0")
    # weights are independent of the variant so cbs and cbs-random face the
    # same perturbed costs; only the frontier tie-break differs
    rng = random.Random(f"{scenario.seed}:{variant}")
    weights_rng = random.Random(f"{scenario.seed}:weights:{noise_sigma}")
    grid = scenario.grid
    weights = sample_edge_weights(grid, noise_sigma, weights_rng)
    moves = _move_table(grid, weights)
    min_w = min(weights.values(), default=1.0)
    agents = {a.id: a for a in scenario.agents}
    start_time = _time.monotonic()
    deadline = start_time + timeout if timeout else None
    counter = itertools.count()
    expansions = 0

    def timed_out_result() -> CBSResult:
        return CBSResult(
            paths=None,
            cost=float("inf"),
            elapsed=_time.monotonic() - start_time,
            timed_out=True,
            expansions=expansions,
        )

    try:
        paths: dict[int, list[Cell]] = {}
        cost = 0.0
        for a in scenario.agents:
            res = _low_level(grid, a.pos, a.goal, frozenset(), moves, min_w, deadline)
            if res is None:
                raise ValueError(f"agent {a.id} has no path")
            paths[a.id], c = res
            cost += c
        root = CTNode(constraints=frozenset(), paths=paths, cost=cost)

        def push(node: CTNode) -> None:
            tie = rng.random() if variant == "cbs-random" else 0.0
            heapq.heappush(open_heap, (node.cost, tie, next(counter), node))

        open_heap: list = []
        push(root)
        while open_heap:
            if deadline is not None and _time.monotonic() > deadline:
                return timed_out_result()
            _, _, _, node = heapq.heappop(open_heap)
            expansions += 1
            conflict = _first_conflict(node.paths)
            if conflict is None:
                return CBSResult(
                    paths=node.paths,
                    cost=node.cost,
                    elapsed=_time.monotonic() - start_time,
                    timed_out=False,
                    expansions=expansions,
                )
            kind, i, j, cell, cell_from, t = conflict
            if kind == "vertex":
                branch = [
                    Constraint(agent_id=i, cell=cell, tick=t),
                    Constraint(agent_id=j, cell=cell, tick=t),
                ]
            else:
                branch = [
                    Constraint(agent_id=i, cell=cell, tick=t, cell_from=cell_from),
                    Constraint(agent_id=j, cell=cell_from, tick=t, cell_from=cell),
                ]
            for con in branch:
                constraints = node.constraints | {con}
                agent = agents[con.agent_id]
                own = frozenset(c for c in constraints if c.agent_id == con.agent_id)
                res = _low_level(grid, agent.pos, agent.goal, own, moves, min_w, deadline)
                if res is None:
                    continue
                new_paths = dict(node.paths)
                old_cost = _path_cost(node.paths[con.agent_id], weights)
                new_paths[con.agent_id] = res[0]
                push(
                    CTNode(
                        constraints=constraints,
                        paths=new_paths,
                        cost=node.cost - old_cost + res[1],
                    )
                )
        raise ValueError("constraint tree exhausted without a solution")
    except CBSTimeout:
        return timed_out_result()


def _path_cost(path: list[Cell], weights: dict[frozenset[Cell], float]) -> float:
    total = 0.0
    for a, b in zip(path, path[1:]):
        total += 1.0 if a == b else weights[frozenset((a, b))]
    return total


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
    trimmed = {aid: _trim(paths[aid]) for aid in ids}
    index = {aid: 0 for aid in ids}
    arrival: dict[int, Optional[int]] = {
        aid: (0 if len(trimmed[aid]) == 1 else None) for aid in ids
    }
    configurations = [[trimmed[aid][0] for aid in ids]]
    collisions: list[tuple[int, Cell, tuple[int, ...]]] = []
    lines: list[TraceLine] = []
    t = 0
    while any(index[aid] < len(trimmed[aid]) - 1 for aid in ids):
        entered: dict[int, list[Cell]] = {}
        starts = {aid: trimmed[aid][index[aid]] for aid in ids}
        for aid in ids:
            path = trimmed[aid]
            if index[aid] >= len(path) - 1:
                entered[aid] = []
                continue
            step = min(incentives[aid], len(path) - 1 - index[aid])
            cells = path[index[aid] + 1 : index[aid] + step + 1]
            entered[aid] = cells
            index[aid] += step
            end = path[index[aid]]
            lines.append(TraceLine(t, aid, end[0], end[1], "path", step, False))
            if index[aid] == len(path) - 1 and arrival[aid] is None:
                arrival[aid] = t + 1
        for pos, aid_list in _shared_cells(entered).items():
            collisions.append((t, pos, tuple(sorted(aid_list))))
        for i_idx, i in enumerate(ids):
            for j in ids[i_idx + 1:]:
                if (
                    starts[j] in entered[i]
                    and starts[i] in entered[j]
                    and not (set(entered[i]) & set(entered[j]))
                ):
                    collisions.append((t, starts[j], (i, j)))
        configurations.append([trimmed[aid][index[aid]] for aid in ids])
        t += 1
    return SimulationTrace(
        configurations=configurations,
        conflicts=[],
        collisions=collisions,
        arrival_times=arrival,
        lines=lines,
        ticks=t,
        completed=True,
    )


def _shared_cells(entered: dict[int, list[Cell]]) -> dict[Cell, list[int]]:
    users: dict[Cell, list[int]] = {}
    for aid, cells in entered.items():
        for cell in set(cells):
            users.setdefault(cell, []).append(aid)
    return {cell: aids for cell, aids in users.items() if len(aids) > 1}


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
