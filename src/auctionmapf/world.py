"""Grid world, agent state, and scenario construction.

Coordinates are (row, col) with row 0 at the top. The grid is 4-connected;
obstacle cells are removed from the free subgraph.
"""

from __future__ import annotations

import json
import random
from collections import deque
from dataclasses import dataclass
from typing import Optional, Sequence

Cell = tuple[int, int]

DIRECTIONS: dict[str, Cell] = {
    "up": (-1, 0),
    "down": (1, 0),
    "left": (0, -1),
    "right": (0, 1),
    "wait": (0, 0),
}

# the four non-wait moves as (name, dr, dc); every neighbour walk reads this
MOVES: tuple[tuple[str, int, int], ...] = tuple(
    (name, dr, dc) for name, (dr, dc) in DIRECTIONS.items() if name != "wait"
)

SCENARIO_KINDS = ("doorway", "hallway", "intersection", "random-obstacles", "custom")

MAX_PLACEMENT_RETRIES = 1000

UNREACHABLE = -1  # distance of an obstacle or of a cell cut off from the source


class ScenarioError(ValueError):
    """A scenario cannot be constructed as requested."""


class IllegalActionError(ValueError):
    """A move would sweep outside the grid."""


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

    def neighbors(self, cell: Cell) -> list[Cell]:
        r, c = cell
        return [nxt for _, dr, dc in MOVES if self.is_free(nxt := (r + dr, c + dc))]


@dataclass(frozen=True)
class MoveAction:
    direction: str
    step: int

    def __post_init__(self):
        if self.direction not in DIRECTIONS:
            raise ValueError(f"unknown direction {self.direction!r}")
        if self.direction == "wait":
            if self.step != 0:
                raise ValueError("wait must have step 0")
        elif self.step < 1:
            raise ValueError("non-wait moves need step >= 1")


WAIT = MoveAction("wait", 0)


@dataclass
class AgentState:
    id: int
    pos: Cell
    goal: Cell
    incentive: int
    arrived: bool = False
    arrival_time: Optional[int] = None

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

    def validate(self) -> None:
        starts = [a.pos for a in self.agents]
        goals = [a.goal for a in self.agents]
        if len(set(starts)) != len(starts):
            raise ScenarioError("duplicate start cells")
        if len(set(goals)) != len(goals):
            raise ScenarioError("duplicate goal cells")
        # one flood per connected component: a field that reaches the goal
        # reaches exactly the cells the goal reaches
        fields: list[list[list[int]]] = []
        for a in self.agents:
            if not self.grid.is_free(a.pos) or not self.grid.is_free(a.goal):
                raise ScenarioError(f"agent {a.id} start/goal on obstacle or outside grid")
            field = next((f for f in fields if f[a.goal[0]][a.goal[1]] != UNREACHABLE), None)
            if field is None:
                field = distances(self.grid, a.goal)
                fields.append(field)
            if field[a.pos[0]][a.pos[1]] == UNREACHABLE:
                raise ScenarioError(f"agent {a.id} goal unreachable from start")


def apply_action(pos: Cell, action: MoveAction, grid: GridWorld) -> Cell:
    """Destination of a move; checks bounds, not occupancy. The grid is a
    rectangle, so a straight sweep stays on it exactly when its end does."""
    dr, dc = DIRECTIONS[action.direction]
    end = (pos[0] + dr * action.step, pos[1] + dc * action.step)
    if not grid.in_bounds(end):
        raise IllegalActionError(f"sweep from {pos} {action.direction} x{action.step} leaves grid")
    return end


def sweep_cells(pos: Cell, action: MoveAction) -> list[Cell]:
    """Cells covered by a move this tick, start cell included."""
    dr, dc = DIRECTIONS[action.direction]
    r, c = pos
    return [(r + dr * k, c + dc * k) for k in range(action.step + 1)]


def distances(grid: GridWorld, source: Cell) -> list[list[int]]:
    """Hop count between `source` and every cell, indexed [row][col], by one
    breadth-first flood; UNREACHABLE for obstacles and cut-off cells."""
    height, width = grid.height, grid.width
    blocked = grid.obstacles
    values = [[UNREACHABLE] * width for _ in range(height)]
    values[source[0]][source[1]] = 0
    queue = deque([source])
    while queue:
        r, c = queue.popleft()
        d = values[r][c] + 1
        for _, dr, dc in MOVES:
            nr, nc = r + dr, c + dc
            if (
                0 <= nr < height
                and 0 <= nc < width
                and values[nr][nc] == UNREACHABLE
                and (nr, nc) not in blocked
            ):
                values[nr][nc] = d
                queue.append((nr, nc))
    return values


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


def _doorway_grid(width: int, height: int, gap_size: int) -> tuple[GridWorld, int]:
    wall_col = width // 2
    if gap_size < 1 or gap_size >= height:
        raise ScenarioError("gap_size must be in [1, height)")
    gap_start = (height - gap_size) // 2
    obstacles = frozenset(
        (r, wall_col) for r in range(height) if not (gap_start <= r < gap_start + gap_size)
    )
    return GridWorld(width, height, obstacles), wall_col


def _hallway_grid(width: int, height: int, gap_size: int) -> tuple[GridWorld, int, int]:
    if gap_size < 1 or gap_size >= height:
        raise ScenarioError("gap_size must be in [1, height)")
    band_start = (height - gap_size) // 2
    wall_len = max(2, width // 2)
    c0 = (width - wall_len) // 2
    c1 = c0 + wall_len - 1
    if c0 < 1 or c1 >= width - 1:
        raise ScenarioError("grid too narrow for hallway rooms")
    obstacles = frozenset(
        (r, c)
        for r in range(height)
        for c in range(c0, c1 + 1)
        if not (band_start <= r < band_start + gap_size)
    )
    return GridWorld(width, height, obstacles), c0, c1


def _intersection_grid(width: int, height: int, gap_size: int) -> tuple[GridWorld, range, range]:
    if gap_size < 1 or gap_size >= min(width, height):
        raise ScenarioError("gap_size must be in [1, min(width, height))")
    r0 = (height - gap_size) // 2
    c0 = (width - gap_size) // 2
    rows = range(r0, r0 + gap_size)
    cols = range(c0, c0 + gap_size)
    obstacles = frozenset(
        (r, c)
        for r in range(height)
        for c in range(width)
        if r not in rows and c not in cols
    )
    return GridWorld(width, height, obstacles), rows, cols


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
    if kind not in SCENARIO_KINDS or kind == "custom":
        raise ScenarioError(f"unknown scenario kind {kind!r}")
    if n_agents < 1:
        raise ScenarioError("need at least one agent")
    rng = random.Random(rng_seed)

    if kind == "doorway":
        grid, wall_col = _doorway_grid(width, height, gap_size)
        left = [(r, c) for r in range(height) for c in range(wall_col)]
        right = [
            (r, c)
            for r in range(height)
            for c in range(wall_col + 1, width)
        ]
        starts = _sample_distinct(rng, left, n_agents, "starts")
        goals = _sample_distinct(rng, right, n_agents, "goals")
    elif kind == "hallway":
        grid, c0, c1 = _hallway_grid(width, height, gap_size)
        left = [(r, c) for r in range(height) for c in range(c0) if grid.is_free((r, c))]
        right = [(r, c) for r in range(height) for c in range(c1 + 1, width) if grid.is_free((r, c))]
        n_left = (n_agents + 1) // 2
        n_right = n_agents - n_left
        starts = _sample_distinct(rng, left, n_left, "left starts")
        starts += _sample_distinct(rng, right, n_right, "right starts")
        goals = _sample_distinct(rng, [c for c in right if c not in starts], n_left, "right goals")
        goals += _sample_distinct(rng, [c for c in left if c not in starts], n_right, "left goals")
    elif kind == "intersection":
        grid, rows, cols = _intersection_grid(width, height, gap_size)
        arms = {
            "north": [(r, c) for r in range(rows.start) for c in cols],
            "south": [(r, c) for r in range(rows.stop, height) for c in cols],
            "west": [(r, c) for r in rows for c in range(cols.start)],
            "east": [(r, c) for r in rows for c in range(cols.stop, width)],
        }
        # perpendicular arms only: straight-through pairs meet head-on in a
        # shared corridor, which a descent-only planner cannot untangle
        perpendicular = {
            "north": ("west", "east"),
            "south": ("west", "east"),
            "west": ("north", "south"),
            "east": ("north", "south"),
        }
        arm_names = [a for a in ("north", "south", "west", "east") if arms[a]]
        if not arm_names:
            raise ScenarioError("intersection has no arm cells")
        starts, goals = [], []
        used_starts: set[Cell] = set()
        used_goals: set[Cell] = set()
        for i in range(n_agents):
            arm = arm_names[i % len(arm_names)]
            start_pool = [c for c in arms[arm] if c not in used_starts]
            goal_arm = rng.choice([a for a in perpendicular[arm] if arms[a]])
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
            reach = distances(grid, free[0])
            if all(reach[r][c] != UNREACHABLE for r, c in free):
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


def grid_from_ascii(text: str) -> GridWorld:
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise ScenarioError("empty ASCII map")
    width = len(lines[0])
    if any(len(line) != width for line in lines):
        raise ScenarioError("ragged ASCII map")
    obstacles = set()
    for r, line in enumerate(lines):
        for c, ch in enumerate(line):
            if ch == "#":
                obstacles.add((r, c))
            elif ch != ".":
                raise ScenarioError(f"unknown map character {ch!r}")
    return GridWorld(width, len(lines), frozenset(obstacles))


def scenario_to_dict(scenario: Scenario) -> dict:
    return {
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


def _checked(value, what: str, *types: type):
    # exact types, so a bool is not taken for an int
    if type(value) not in types:
        names = " or ".join(t.__name__ for t in types)
        raise ScenarioError(f"{what} must be {names}, not {value!r}")
    return value


def _cell(value, what: str) -> Cell:
    if type(value) not in (list, tuple) or len(value) != 2:
        raise ScenarioError(f"{what} must be a [row, col] pair, not {value!r}")
    return (_checked(value[0], what, int), _checked(value[1], what, int))


def scenario_from_dict(data: dict) -> Scenario:
    """Inverse of scenario_to_dict. A missing or wrongly typed field raises
    ScenarioError, as does a scenario that fails validation."""
    _checked(data, "scenario", dict)
    try:
        obstacles = _checked(data.get("obstacles", []), "obstacles", list, tuple)
        grid = GridWorld(
            width=_checked(data["width"], "width", int),
            height=_checked(data["height"], "height", int),
            obstacles=frozenset(_cell(c, "obstacle") for c in obstacles),
        )
        agents = []
        for i, a in enumerate(_checked(data["agents"], "agents", list, tuple)):
            _checked(a, f"agent {i}", dict)
            incentive = a["incentive"]
            if type(incentive) is not int or incentive < 1:
                raise ScenarioError(f"agent {i} incentive must be an integer >= 1, not {incentive!r}")
            agents.append(
                AgentState(
                    id=i,
                    pos=_cell(a["start"], f"agent {i} start"),
                    goal=_cell(a["goal"], f"agent {i} goal"),
                    incentive=incentive,
                )
            )
    except KeyError as exc:
        raise ScenarioError(f"scenario is missing key {exc}") from None
    scenario = Scenario(
        grid=grid,
        agents=agents,
        kind=_checked(data.get("kind", "custom"), "kind", str),
        gap_size=_checked(data.get("gap_size", 1), "gap_size", int),
        n_obstacles=_checked(data.get("n_obstacles", 0), "n_obstacles", int),
        seed=_checked(data.get("seed", 0), "seed", int),
    )
    scenario.validate()
    return scenario


def scenario_to_json(scenario: Scenario) -> str:
    return json.dumps(scenario_to_dict(scenario), indent=2, sort_keys=True)


def scenario_from_json(text: str) -> Scenario:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"scenario is not JSON: {exc}") from None
    return scenario_from_dict(data)
