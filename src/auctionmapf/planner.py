"""One-step-lookahead motion planner with auction-based conflict resolution.

Each tick every active agent proposes a multi-cell step descending its goal's
potential map. Proposals whose swept segments intersect form a conflict; the
planner first tries to reassign contenders to equal-cost alternative moves,
then resolves residual conflicts with the configured resolver (auction,
random ordering, or FIFO). A resolved ordering persists: the turn-q
contender passes on the q-th tick after resolution while the rest wait.
"""

from __future__ import annotations

import math
import random
import time as _time
from collections import deque
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional, Sequence

from .auction import AuctionOutcome, Bid, harmonic_schedule, run_auction
from .potential import UNREACHABLE, PotentialMap, build_potential_maps
from .world import (
    DIRECTIONS,
    MOVES,
    AgentState,
    Cell,
    GridWorld,
    MoveAction,
    Scenario,
    WAIT,
    apply_action,
    sweep_cells,
)

Proposals = dict[int, tuple[Cell, MoveAction]]  # agent id -> (position, move) this tick

RESOLVERS = ("auction", "random-ordering", "fifo")

# ticks an agent may sit blocked before it tries a one-step sidestep; descent
# alone deadlocks on head-on meetings, so a local escape heuristic is needed
STALL_ESCAPE_TICKS = 2

# cells of recent-position memory the escape move avoids revisiting
ESCAPE_TABU_LEN = 8

# once an escape starts the agent commits to wandering this many ticks, so it
# actually backs away from a jam instead of bouncing straight back in
ESCAPE_COMMIT_TICKS = 4


@dataclass
class Conflict:
    cell: Cell                      # representative contested cell
    time: int
    contenders: set[int]
    cells: frozenset[Cell] = frozenset()


@dataclass
class ResolvedConflict:
    tick: int
    cell: Cell
    contenders: tuple[int, ...]
    bids: dict[int, Fraction]
    ordering: AuctionOutcome


@dataclass
class TraceLine:
    tick: int
    agent_id: int
    row: int
    col: int
    direction: str
    step: int
    waiting: bool


@dataclass
class SimulationTrace:
    configurations: list[list[Cell]]
    conflicts: list[ResolvedConflict]
    collisions: list[tuple[int, Cell, tuple[int, ...]]]
    arrival_times: dict[int, Optional[int]]
    lines: list[TraceLine]
    ticks: int
    completed: bool
    deadlocked: bool = False
    timed_out: bool = False
    guard_waits: int = 0

    def export_lines(self) -> str:
        out = []
        for ln in self.lines:
            out.append(
                f"{ln.tick},{ln.agent_id},{ln.row},{ln.col},{ln.direction},{ln.step},"
                f"{int(ln.waiting)}"
            )
        return "\n".join(out)


_NOBODY: frozenset[int] = frozenset()


@dataclass
class _ActiveOrder:
    cell: Cell
    holders: dict[int, int]  # agent id -> release tick


def _max_step(
    grid: GridWorld,
    pot: PotentialMap,
    pos: Cell,
    direction: str,
    limit: int,
    occupied: set[Cell],
) -> int:
    """Longest sweep in a direction that descends the potential every cell.

    Obstacles are UNREACHABLE in every potential map, so the descent test
    also stops the sweep at them; only the grid bounds need their own check.
    """
    dr, dc = DIRECTIONS[direction]
    values = pot.values
    height, width = grid.height, grid.width
    r, c = pos
    prev = values[r][c]
    tau = 0
    while tau < limit:
        r += dr
        c += dc
        if not (0 <= r < height and 0 <= c < width):
            break
        val = values[r][c]
        if val == UNREACHABLE or val >= prev or (r, c) in occupied:
            break
        prev = val
        tau += 1
    return tau


def propose_move(
    grid: GridWorld,
    pot: PotentialMap,
    agent: AgentState,
    occupied: set[Cell],
) -> MoveAction:
    """One agent's greedy descending move; wait only when fully blocked."""
    goal = agent.goal
    pos = agent.pos
    best_by_axis: dict[str, tuple[str, int]] = {}
    for direction, dr, _ in MOVES:
        tau = _max_step(grid, pot, pos, direction, agent.incentive, occupied)
        if tau >= 1:
            axis = "row" if dr else "col"
            if axis not in best_by_axis or tau > best_by_axis[axis][1]:
                best_by_axis[axis] = (direction, tau)
    if not best_by_axis:
        return WAIT
    if len(best_by_axis) == 1:
        axis = next(iter(best_by_axis))
    else:
        # prefer the axis with more ground to cover; break the remaining tie
        # row-before-column so runs are reproducible
        axis = "col" if abs(pos[1] - goal[1]) > abs(pos[0] - goal[0]) else "row"
    return MoveAction(*best_by_axis[axis])


def escape_move(
    grid: GridWorld,
    pot: PotentialMap,
    agent: AgentState,
    occupied: set[Cell],
    tabu: Sequence[Cell] = (),
) -> MoveAction:
    """One-step sidestep for an agent that has been blocked for a while.

    Picks the free, unoccupied neighbor with the lowest potential, preferring
    cells not in the agent's recent-position memory so opposing groups back
    out of corridors instead of oscillating in place.
    """
    values = pot.values
    r0, c0 = agent.pos
    candidates = []
    for direction, dr, dc in MOVES:
        r, c = r0 + dr, c0 + dc
        if not (0 <= r < grid.height and 0 <= c < grid.width):
            continue
        val = values[r][c]  # UNREACHABLE on obstacles too
        nxt = (r, c)
        if val == UNREACHABLE or nxt in occupied:
            continue
        # unvisited cells first, then visited ones by earliest remembered visit
        fresh = tabu.index(nxt) + 1 if nxt in tabu else 0
        candidates.append((fresh, val, direction))
    if not candidates:
        return WAIT
    return MoveAction(min(candidates)[2], 1)


def mover_index(proposals: Proposals) -> dict[Cell, set[int]]:
    """Movers per cell this tick: every cell of each non-wait sweep. Waiting
    agents are left out, since no sweep enters an occupied cell."""
    movers: dict[Cell, set[int]] = {}
    for aid, (pos, action) in proposals.items():
        if action.direction != "wait":
            for cell in sweep_cells(pos, action):
                movers.setdefault(cell, set()).add(aid)
    return movers


def detect_conflicts(movers: dict[Cell, set[int]], tick: int = 0) -> list[Conflict]:
    """Group agents whose same-tick sweeps share any cell of the
    `mover_index`; groups merge transitively so each agent lands in at most
    one conflict."""
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a: int, b: int) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    shared = {cell: aids for cell, aids in movers.items() if len(aids) > 1}
    for aids in shared.values():
        first = min(aids)
        parent.setdefault(first, first)
        for aid in aids:
            parent.setdefault(aid, aid)
            union(first, aid)

    groups: dict[int, set[int]] = {}
    for aid in parent:
        groups.setdefault(find(aid), set()).add(aid)
    # all users of a shared cell were merged into one group
    group_cells: dict[int, set[Cell]] = {}
    for cell, aids in shared.items():
        group_cells.setdefault(find(min(aids)), set()).add(cell)

    conflicts = [
        Conflict(cell=min(cells), time=tick, contenders=groups[root], cells=frozenset(cells))
        for root, cells in group_cells.items()
    ]
    conflicts.sort(key=lambda c: c.cell)
    return conflicts


def try_reassign(
    conflict: Conflict,
    grid: GridWorld,
    potentials: dict[Cell, PotentialMap],
    proposals: Proposals,
    agents_by_id: dict[int, AgentState],
    occupied: set[Cell],
    movers: dict[Cell, set[int]],
) -> Conflict:
    """Move contenders to equal-descent alternative targets where possible.

    Mutates proposals for reassigned agents, keeps the tick's `mover_index`
    in step with them, and returns the residual conflict.
    """
    residual = set(conflict.contenders)
    for aid in sorted(conflict.contenders):
        pos, action = proposals[aid]
        if action.direction == "wait":
            continue
        agent = agents_by_id[aid]
        pot = potentials[agent.goal]
        tau = action.step
        for direction, _, _ in MOVES:
            if direction == action.direction:
                continue
            # a straight sweep never re-enters its start, so `occupied` may
            # keep the mover's own cell
            alt_tau = _max_step(grid, pot, pos, direction, agent.incentive, occupied)
            if alt_tau != tau:
                continue
            alt = MoveAction(direction, alt_tau)
            alt_cells = sweep_cells(pos, alt)
            if any(movers.get(cell, _NOBODY) - {aid} for cell in alt_cells):
                continue
            for cell in sweep_cells(pos, action):
                movers[cell].discard(aid)
            for cell in alt_cells:
                movers.setdefault(cell, set()).add(aid)
            proposals[aid] = (pos, alt)
            residual.discard(aid)
            break

    return replace(conflict, contenders=residual)


def _resolve(
    resolver: str,
    contenders: list[AgentState],
    arrivals: dict[int, int],
    rng: random.Random,
) -> tuple[AuctionOutcome, dict[int, Fraction]]:
    """Turn order and bids for one conflict. The baselines charge nothing, so
    a contender's utility is bid x alpha_q and welfare is their sum."""
    schedule = harmonic_schedule(len(contenders))
    bids = {a.id: Fraction(a.incentive) for a in contenders}
    if resolver == "auction":
        outcome = run_auction(
            [Bid(a.id, bids[a.id], arrivals[a.id]) for a in contenders], schedule=schedule
        )
        return outcome, bids
    if resolver == "random-ordering":
        ids = sorted(a.id for a in contenders)
        rng.shuffle(ids)
    else:  # fifo; run_trial has checked the resolver name
        ids = sorted((a.id for a in contenders), key=lambda i: (arrivals[i], i))
    ordering = {aid: q for q, aid in enumerate(ids, start=1)}
    payments = {aid: Fraction(0) for aid in ordering}
    utilities = {aid: bids[aid] * schedule.alpha(q) for aid, q in ordering.items()}
    return AuctionOutcome(ordering, payments, utilities, sum(utilities.values())), bids


def default_tick_limit(scenario: Scenario) -> int:
    g = scenario.grid
    return 4 * (g.width + g.height) * len(scenario.agents)


class _Trial:
    """One trial's state and the four phases of its tick: propose, resolve,
    execute and stop. `occupied` and `held` belong to the current tick."""

    def __init__(self, scenario: Scenario, resolver: str):
        self.grid = grid = scenario.grid
        self.resolver = resolver
        self.agents = agents = [
            AgentState(id=a.id, pos=a.pos, goal=a.goal, incentive=a.incentive)
            for a in scenario.agents
        ]
        self.agents_by_id = {a.id: a for a in agents}
        self.potentials = build_potential_maps(grid, [a.goal for a in agents])
        self.rng = random.Random(f"{scenario.seed}:{resolver}")
        self.configurations = [[a.pos for a in agents]]
        self.resolved: list[ResolvedConflict] = []
        self.lines: list[TraceLine] = []
        self.orders: list[_ActiveOrder] = []
        self.contention_tick: dict[tuple[int, Cell], int] = {}
        self.stall = {a.id: 0 for a in agents}
        self.excursion = {a.id: 0 for a in agents}
        self.tabu = {a.id: deque(maxlen=ESCAPE_TABU_LEN) for a in agents}
        self.stale_window = 10 * (grid.width + grid.height)
        self.best_remaining = math.inf
        self.last_improvement = 0
        self.idle_ticks = 0
        self.guard_waits = 0
        self.t = 0
        for a in agents:
            if a.pos == a.goal:
                a.arrived = True
                a.arrival_time = 0

    def propose(self, active: list[AgentState]) -> Proposals:
        """Agents held by a standing order wait; the rest descend, or start
        an escape excursion once stalled."""
        self.occupied = occupied = {a.pos for a in active}
        # pruning after every tick leaves only unarrived holders released at
        # this tick or later
        self.held = {
            aid for order in self.orders for aid, rel in order.holders.items() if rel > self.t
        }
        proposals: Proposals = {}
        for a in active:
            if a.id in self.held:
                proposals[a.id] = (a.pos, WAIT)
                continue
            pot = self.potentials[a.goal]
            # no sweep re-enters its start cell, so the mover's own cell may
            # stay in `occupied`
            move = propose_move(self.grid, pot, a, occupied)
            stalled = move.direction == "wait" and self.stall[a.id] >= STALL_ESCAPE_TICKS
            if stalled and self.excursion[a.id] == 0:
                self.excursion[a.id] = ESCAPE_COMMIT_TICKS
            if self.excursion[a.id] > 0:
                self.excursion[a.id] -= 1
                move = escape_move(self.grid, pot, a, occupied, self.tabu[a.id])
            proposals[a.id] = (a.pos, move)
        return proposals

    def resolve(self, proposals: Proposals) -> None:
        """Detect conflicts, merge intrusions on standing orders, reassign
        where an equal move is free, and order the rest; the losers wait."""
        t = self.t
        movers = mover_index(proposals)
        conflicts = detect_conflicts(movers, tick=t)
        # movers intruding on a cell with an unexpired ordering force a fresh
        # auction among the remaining holders plus the newcomers
        for order in list(self.orders):
            members = self.held.intersection(order.holders)
            intruders = movers.get(order.cell, _NOBODY).difference(order.holders)
            if not members or not intruders:
                continue
            members |= intruders
            merged = [c for c in conflicts if c.contenders & members]
            for c in merged:
                members |= c.contenders
                conflicts.remove(c)
            conflicts.append(
                Conflict(cell=order.cell, time=t, contenders=members,
                         cells=frozenset({order.cell}))
            )
            self.orders.remove(order)
        conflicts.sort(key=lambda c: c.cell)

        residuals = [
            try_reassign(c, self.grid, self.potentials, proposals, self.agents_by_id,
                         self.occupied, movers)
            for c in conflicts
        ]
        for conflict in residuals:
            if len(conflict.contenders) < 2:
                continue
            arrivals = {
                aid: self.contention_tick.setdefault((aid, conflict.cell), t)
                for aid in conflict.contenders
            }
            contenders = [self.agents_by_id[aid] for aid in sorted(conflict.contenders)]
            ordering, bids = _resolve(self.resolver, contenders, arrivals, self.rng)
            self.orders.append(
                _ActiveOrder(
                    cell=conflict.cell,
                    holders={aid: t + q - 1 for aid, q in ordering.ordering.items()},
                )
            )
            self.resolved.append(
                ResolvedConflict(
                    tick=t,
                    cell=conflict.cell,
                    contenders=tuple(sorted(conflict.contenders)),
                    bids=bids,
                    ordering=ordering,
                )
            )
            for aid, q in ordering.ordering.items():
                a = self.agents_by_id[aid]
                if q > 1:
                    proposals[aid] = (a.pos, WAIT)
                elif proposals[aid][1].direction == "wait":
                    # winner was holding from a superseded ordering: give it a
                    # fresh move, vetted by the safety pass
                    proposals[aid] = (a.pos, propose_move(
                        self.grid, self.potentials[a.goal], a, self.occupied))

    def execute(self, active: list[AgentState], proposals: Proposals) -> bool:
        """Safety pass, arrivals and order pruning; True if anyone moved."""
        t = self.t
        # executed sweeps must be pairwise disjoint
        taken = {a.pos for a in active if proposals[a.id][1].direction == "wait"}
        moved_any = False
        for a in sorted(active, key=lambda x: x.id):
            pos, action = proposals[a.id]
            cells = sweep_cells(pos, action)
            guarded = any(cell in taken for cell in cells[1:])
            if guarded or action.direction == "wait":
                # a held agent waiting its turn is not stalled
                if guarded or a.id not in self.held:
                    self.stall[a.id] += 1
                self.guard_waits += guarded
                taken.add(pos)
                self.lines.append(TraceLine(t, a.id, *pos, "wait", 0, True))
                continue
            taken.update(cells)
            a.pos = apply_action(pos, action, self.grid)
            self.tabu[a.id].append(pos)
            self.stall[a.id] = 0
            moved_any = True
            self.lines.append(TraceLine(t, a.id, *a.pos, action.direction, action.step, False))

        for a in active:
            if a.pos == a.goal:
                a.arrived = True
                a.arrival_time = t + 1
        self.configurations.append([a.pos for a in self.agents])

        for order in list(self.orders):
            order.holders = {
                aid: rel
                for aid, rel in order.holders.items()
                if rel > t and not self.agents_by_id[aid].arrived
            }
            if not order.holders:
                self.orders.remove(order)
        return moved_any

    def stop(self, moved_any: bool) -> bool:
        """True once the trial has deadlocked."""
        self.idle_ticks = 0 if moved_any else self.idle_ticks + 1
        # a single all-wait tick is not terminal: blocked agents escape only
        # after their stall counter builds up; an order that survived the
        # pruning still holds an agent past this tick
        if self.idle_ticks > STALL_ESCAPE_TICKS + 1 and not self.orders:
            return True
        # stalemate: nobody has gotten closer to a goal for a long stretch,
        # so further ticks just repeat an oscillation
        remaining = sum(self.potentials[a.goal][a.pos] for a in self.agents if not a.arrived)
        if remaining < self.best_remaining:
            self.best_remaining = remaining
            self.last_improvement = self.t
            return False
        return self.t - self.last_improvement > self.stale_window


def run_trial(
    scenario: Scenario,
    resolver: str = "auction",
    tick_limit: Optional[int] = None,
    timeout: Optional[float] = None,
) -> SimulationTrace:
    """Simulate one trial; deterministic given (scenario, resolver)."""
    if resolver not in RESOLVERS:
        raise ValueError(f"resolver must be one of {RESOLVERS}")
    if tick_limit is None:
        tick_limit = default_tick_limit(scenario)
    if tick_limit < 1:
        raise ValueError("tick_limit must be >= 1")

    trial = _Trial(scenario, resolver)
    deadlocked = timed_out = False
    start_time = _time.monotonic()
    while trial.t < tick_limit:
        active = [a for a in trial.agents if not a.arrived]
        if not active:
            break
        if timeout is not None and _time.monotonic() - start_time > timeout:
            timed_out = True
            break
        proposals = trial.propose(active)
        trial.resolve(proposals)
        deadlocked = trial.stop(trial.execute(active, proposals))
        trial.t += 1
        if deadlocked:
            break

    agents = trial.agents
    return SimulationTrace(
        configurations=trial.configurations,
        conflicts=trial.resolved,
        collisions=[],
        arrival_times={a.id: a.arrival_time for a in agents},
        lines=trial.lines,
        ticks=trial.t,
        completed=all(a.arrived for a in agents),
        deadlocked=deadlocked,
        timed_out=timed_out,
        guard_waits=trial.guard_waits,
    )
