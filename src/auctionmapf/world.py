"""Grid world, agent state, and scenario construction.

Coordinates are (row, col) with row 0 at the top. The grid is 4-connected;
obstacle cells are removed from the free subgraph.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Optional, Sequence

Cell = tuple[int, int]

# the four moves as (name, dr, dc); every neighbour walk reads this
MOVES: tuple[tuple[str, int, int], ...] = (
    ("up", -1, 0),
    ("down", 1, 0),
    ("left", 0, -1),
    ("right", 0, 1),
)

SCENARIO_KINDS = ("doorway", "hallway", "intersection", "random-obstacles")

MAX_PLACEMENT_RETRIES = 1000

UNREACHABLE = -1  # distance of an obstacle or of a cell cut off from the source
_UNSEEN = -2  # a free cell that a running flood has not reached yet


class ScenarioError(ValueError):
    """A scenario cannot be constructed as requested."""


@dataclass(frozen=True)
class GridWorld:
    width: int
    height: int
    obstacles: frozenset[Cell] = frozenset()

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise ScenarioError("grid dimensions must be positive")
        for cell in self.obstacles:
            if not self.in_bounds(cell):
                raise ScenarioError(f"obstacle {cell} outside grid")

    def in_bounds(self, cell: Cell) -> bool:
        r, c = cell
        return 0 <= r < self.height and 0 <= c < self.width

    def is_free(self, cell: Cell) -> bool:
        return self.in_bounds(cell) and cell not in self.obstacles

    def free_cells(self) -> list[Cell]:
        return [
            (r, c)
            for r in range(self.height)
            for c in range(self.width)
            if (r, c) not in self.obstacles
        ]


class CellIds:
    """Padded integer ids of one grid's cells: `(r + 1) * (W + 2) + (c + 1)`.

    A ring of ids round the grid names no cell, so a step off any edge lands
    on the ring instead of wrapping, and id order is (row, col) order. Build
    one per trial or plan; never cache one on the grid or the module."""

    def __init__(self, grid: GridWorld):
        self.grid = grid
        self.stride = stride = grid.width + 2
        self.moves = tuple((name, dr * stride + dc) for name, dr, dc in MOVES)  # (name, offset)
        self.cells: list[Optional[Cell]] = [None] * stride  # id -> cell
        for r in range(grid.height):
            self.cells += (None, *((r, c) for c in range(grid.width)), None)
        self.cells += [None] * stride
        blocked = grid.obstacles
        # what a flood starts from: every free cell unseen, the rest blocked
        self._template = [
            UNREACHABLE if cell is None or cell in blocked else _UNSEEN for cell in self.cells
        ]
        self._n_free = grid.width * grid.height - len(blocked)

    def id(self, cell: Cell) -> int:
        return (cell[0] + 1) * self.stride + cell[1] + 1

    def flood(self, source: int) -> list[int]:
        """Hop count between free cell `source` and every id, by one
        breadth-first flood; UNREACHABLE on the ring, obstacles and cells cut
        off from the source. The ring stops every step, so none is checked."""
        field = self._template.copy()
        field[source] = 0
        unseen, stride = _UNSEEN, self.stride
        frontier, reached, d = [source], 1, 0
        while frontier:
            d += 1
            level = []
            push = level.append
            for p in frontier:
                if field[p - stride] == unseen:
                    field[p - stride] = d
                    push(p - stride)
                if field[p + stride] == unseen:
                    field[p + stride] = d
                    push(p + stride)
                if field[p - 1] == unseen:
                    field[p - 1] = d
                    push(p - 1)
                if field[p + 1] == unseen:
                    field[p + 1] = d
                    push(p + 1)
            reached += len(level)
            frontier = level
        if reached < self._n_free:
            return [UNREACHABLE if v == unseen else v for v in field]
        return field


@dataclass
class AgentState:
    id: int
    pos: Cell
    goal: Cell
    incentive: int

    def __post_init__(self):
        if self.incentive < 1:
            raise ValueError("incentive must be >= 1")


@dataclass
class Scenario:
    grid: GridWorld
    agents: list[AgentState]
    kind: str
    gap_size: int = 1
    n_obstacles: int = 0
    seed: int = 0

    def check_cells(self) -> None:
        """Raise ScenarioError for an agent whose start or goal is not a free cell."""
        for a in self.agents:
            if not self.grid.is_free(a.pos) or not self.grid.is_free(a.goal):
                raise ScenarioError(f"agent {a.id} start/goal on obstacle or outside grid")

    def validate(self) -> None:
        if not self.agents:
            raise ScenarioError("need at least one agent")
        self.check_cells()
        starts = [a.pos for a in self.agents]
        goals = [a.goal for a in self.agents]
        if len(set(starts)) != len(starts):
            raise ScenarioError("duplicate start cells")
        if len(set(goals)) != len(goals):
            raise ScenarioError("duplicate goal cells")
        # one flood per connected component: a field that reaches the goal
        # reaches exactly the cells the goal reaches
        ids = CellIds(self.grid)
        fields: list[list[int]] = []
        for a in self.agents:
            goal = ids.id(a.goal)
            field = next((f for f in fields if f[goal] != UNREACHABLE), None)
            if field is None:
                field = ids.flood(goal)
                fields.append(field)
            if field[ids.id(a.pos)] == UNREACHABLE:
                raise ScenarioError(f"agent {a.id} goal unreachable from start")


def _sample_distinct(rng: random.Random, cells: Sequence[Cell], n: int, label: str) -> list[Cell]:
    if len(cells) < n:
        raise ScenarioError(f"not enough free cells for {n} {label} (have {len(cells)})")
    return rng.sample(list(cells), n)


def _make_agents(
    rng: random.Random,
    starts: Sequence[Cell],
    goals: Sequence[Cell],
    incentive_range: tuple[int, int],
) -> list[AgentState]:
    lo, hi = incentive_range
    if lo < 1 or hi < lo:
        raise ScenarioError("incentive_range must be a nonempty interval with min >= 1")
    return [
        AgentState(id=i, pos=s, goal=g, incentive=rng.randint(lo, hi))
        for i, (s, g) in enumerate(zip(starts, goals))
    ]


def _band(size: int, gap_size: int) -> range:
    """The middle `gap_size` of `size` rows or columns: those a wall leaves open."""
    start = (size - gap_size) // 2
    return range(start, start + gap_size)


def make_scenario(
    kind: str,
    width: int,
    height: int,
    n_agents: int,
    gap_size: int = 1,
    incentive_range: tuple[int, int] = (1, 3),
    rng_seed: int = 0,
    n_obstacles: int = 0,
) -> Scenario:
    """Build a seeded scenario of one of the benchmark kinds.

    Deterministic given all arguments. Raises ScenarioError when placement is
    infeasible; never returns a partial scenario.
    """
    if kind not in SCENARIO_KINDS:
        raise ScenarioError(f"unknown scenario kind {kind!r}")
    if n_agents < 1:
        raise ScenarioError("need at least one agent")
    rng = random.Random(rng_seed)

    if kind in ("doorway", "hallway"):
        # a wall over columns c0..c1 between two rooms, open in the gap rows;
        # a doorway sends every agent left to right, a hallway the second half back
        if gap_size < 1 or gap_size >= height:
            raise ScenarioError("gap_size must be in [1, height)")
        if kind == "doorway":
            c0 = c1 = width // 2
            n_left = n_agents
        else:
            wall_len = max(2, width // 2)
            c0 = (width - wall_len) // 2
            c1 = c0 + wall_len - 1
            if c0 < 1 or c1 >= width - 1:
                raise ScenarioError("grid too narrow for hallway rooms")
            n_left = (n_agents + 1) // 2
        gap = _band(height, gap_size)
        wall = ((r, c) for r in range(height) if r not in gap for c in range(c0, c1 + 1))
        grid = GridWorld(width, height, frozenset(wall))
        left = [(r, c) for r in range(height) for c in range(c0)]
        right = [(r, c) for r in range(height) for c in range(c1 + 1, width)]
        n_right = n_agents - n_left
        starts = _sample_distinct(rng, left, n_left, "left starts")
        starts += _sample_distinct(rng, right, n_right, "right starts")
        taken = set(starts)
        goals = _sample_distinct(rng, [c for c in right if c not in taken], n_left, "right goals")
        goals += _sample_distinct(rng, [c for c in left if c not in taken], n_right, "left goals")
    elif kind == "intersection":
        if gap_size < 1 or gap_size >= min(width, height):
            raise ScenarioError("gap_size must be in [1, min(width, height))")
        # a wall in every corner, open in a band of rows and one of columns
        rows, cols = _band(height, gap_size), _band(width, gap_size)
        obstacles = frozenset(
            (r, c) for r in range(height) if r not in rows for c in range(width) if c not in cols
        )
        grid = GridWorld(width, height, obstacles)
        arms = {
            "north": [(r, c) for r in range(rows.start) for c in cols],
            "south": [(r, c) for r in range(rows.stop, height) for c in cols],
            "west": [(r, c) for r in rows for c in range(cols.start)],
            "east": [(r, c) for r in rows for c in range(cols.stop, width)],
        }
        # the band starts at (size - gap_size) // 2 < size - gap_size, so the
        # south and east arms always hold a cell; north and west can be empty
        arm_names = [a for a in ("north", "south", "west", "east") if arms[a]]
        starts, goals = [], []
        used_starts: set[Cell] = set()
        used_goals: set[Cell] = set()
        for i in range(n_agents):
            arm = arm_names[i % len(arm_names)]
            start_pool = [c for c in arms[arm] if c not in used_starts]
            # perpendicular arms only: straight-through pairs meet head-on in
            # a shared corridor, which a descent-only planner cannot untangle
            crossing = ("west", "east") if arm in ("north", "south") else ("north", "south")
            goal_arm = rng.choice([a for a in crossing if arms[a]])
            goal_pool = [c for c in arms[goal_arm] if c not in used_goals]
            if not start_pool or not goal_pool:
                raise ScenarioError("too many agents for intersection arms")
            s = rng.choice(start_pool)
            g = rng.choice(goal_pool)
            used_starts.add(s)
            used_goals.add(g)
            starts.append(s)
            goals.append(g)
    else:  # random-obstacles
        all_cells = [(r, c) for r in range(height) for c in range(width)]
        if not 0 <= n_obstacles < width * height:
            raise ScenarioError(f"n_obstacles must be in [0, {width * height}), not {n_obstacles}")
        for _ in range(MAX_PLACEMENT_RETRIES):
            obstacle_cells = rng.sample(all_cells, n_obstacles)
            grid = GridWorld(width, height, frozenset(obstacle_cells))
            free = grid.free_cells()
            ids = CellIds(grid)
            reach = ids.flood(ids.id(free[0]))
            if all(reach[ids.id(cell)] != UNREACHABLE for cell in free):
                break
        else:
            raise ScenarioError("could not place obstacles without disconnecting the grid")
        starts = _sample_distinct(rng, free, n_agents, "starts")
        goals = _sample_distinct(rng, free, n_agents, "goals")

    agents = _make_agents(rng, starts, goals, incentive_range)
    scenario = Scenario(
        grid=grid,
        agents=agents,
        kind=kind,
        gap_size=gap_size,
        n_obstacles=n_obstacles if kind == "random-obstacles" else 0,
        seed=rng_seed,
    )
    scenario.validate()
    return scenario


def grid_to_ascii(grid: GridWorld) -> str:
    rows = []
    for r in range(grid.height):
        rows.append("".join("#" if (r, c) in grid.obstacles else "." for c in range(grid.width)))
    return "\n".join(rows)


def scenario_to_json(scenario: Scenario) -> str:
    """What `scenario gen` prints."""
    data = {
        "kind": scenario.kind,
        "width": scenario.grid.width,
        "height": scenario.grid.height,
        "gap_size": scenario.gap_size,
        "n_obstacles": scenario.n_obstacles,
        "seed": scenario.seed,
        "obstacles": sorted([list(c) for c in scenario.grid.obstacles]),
        "agents": [
            {"start": list(a.pos), "goal": list(a.goal), "incentive": a.incentive}
            for a in scenario.agents
        ],
    }
    return json.dumps(data, indent=2, sort_keys=True)
