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
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from .auction import AuctionOutcome, Bid, _settle, harmonic_schedule, run_auction
from .potential import UNREACHABLE, PotentialMap, build_potential_maps
from .world import (
    MOVES,
    AgentState,
    Cell,
    GridWorld,
    MoveAction,
    Scenario,
    WAIT,
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
    cell: Cell                      # least shared cell, or an intruded order's cell
    contenders: set[int]


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
    """One trial of either solver. `configurations`, `conflicts`, `deadlocked`
    and `guard_waits` are the planner's, `collisions` the CBS replay's."""

    arrival_times: dict[int, Optional[int]]
    lines: list[TraceLine] = field(default_factory=list)
    ticks: int = 0
    completed: bool = False
    configurations: list[list[Cell]] = field(default_factory=list)
    conflicts: list[ResolvedConflict] = field(default_factory=list)
    deadlocked: bool = False
    guard_waits: int = 0
    collisions: list[tuple[int, Cell, tuple[int, ...]]] = field(default_factory=list)

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
    dr: int,
    dc: int,
    limit: int,
    occupied: set[Cell],
) -> int:
    """Longest sweep along step (dr, dc) that descends the potential every cell.

    Obstacles are UNREACHABLE in every potential map, so the descent test
    also stops the sweep at them; only the grid bounds need their own check.
    """
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
    values = pot.values
    r, c = pos
    here = values[r][c]
    best_by_axis: dict[str, tuple[str, int]] = {}
    for direction, dr, dc in MOVES:
        # sweep only where the first cell descends (UNREACHABLE is negative)
        nr, nc = r + dr, c + dc
        if not (0 <= nr < grid.height and 0 <= nc < grid.width and 0 <= values[nr][nc] < here):
            continue
        tau = _max_step(grid, pot, pos, dr, dc, agent.incentive, occupied)
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
    tabu: Sequence[Cell],
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


def detect_conflicts(movers: dict[Cell, set[int]]) -> list[Conflict]:
    """Group agents whose same-tick sweeps share any cell of the
    `mover_index`; groups merge transitively so each agent lands in at most
    one conflict, named by the least cell its members share."""
    shared = sorted(cell for cell, aids in movers.items() if len(aids) > 1)
    group: dict[int, set[int]] = {}
    for cell in shared:
        merged = set().union(*(group.get(aid, (aid,)) for aid in movers[cell]))
        for aid in merged:
            group[aid] = merged
    # cells in order: a group is first met at its least shared cell
    conflicts = []
    named: set[int] = set()
    for cell in shared:
        aid = next(iter(movers[cell]))
        if aid not in named:
            named |= group[aid]
            conflicts.append(Conflict(cell=cell, contenders=group[aid]))
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
        for direction, dr, dc in MOVES:
            if direction == action.direction:
                continue
            # a straight sweep never re-enters its start, so `occupied` may
            # keep the mover's own cell
            alt_tau = _max_step(grid, pot, pos, dr, dc, agent.incentive, occupied)
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

    return Conflict(conflict.cell, residual)


def _resolve(
    resolver: str,
    contenders: list[AgentState],
    arrivals: dict[int, int],
    rng: random.Random,
    settled: dict[tuple[int, ...], tuple],
) -> tuple[AuctionOutcome, dict[int, Fraction]]:
    """Turn order, and bids by id, for one conflict. The baselines charge
    nothing: they settle as an auction in which every bid is zero. Under one
    resolver, bids, payments, utilities and welfare by turn depend only on
    the incentives in turn order: `settled` keeps them per incentive tuple,
    so a trial settles each tuple once."""
    if resolver == "auction":
        # `auction._rank`'s order: descending bid, then arrival, then id
        ranked = sorted(contenders, key=lambda a: (-a.incentive, arrivals[a.id], a.id))
    elif resolver == "random-ordering":
        ranked = sorted(contenders, key=lambda a: a.id)
        rng.shuffle(ranked)
    else:  # fifo; run_trial has checked the resolver name
        ranked = sorted(contenders, key=lambda a: (arrivals[a.id], a.id))
    ids = [a.id for a in ranked]
    key = tuple(a.incentive for a in ranked)
    if key not in settled:
        schedule = harmonic_schedule(len(key))
        amounts = [Fraction(x) for x in key]
        if resolver == "auction":
            out = run_auction([Bid(i, x, arrivals[i]) for i, x in zip(ids, amounts)], schedule)
            pays, utils = [out.payments[i] for i in ids], [out.utilities[i] for i in ids]
            settled[key] = (amounts, pays, utils, out.welfare)
        else:
            settled[key] = (amounts, *_settle([Fraction(0)] * len(key), amounts, schedule.alphas))
    amounts, pays, utils, welfare = settled[key]
    ordering = {aid: q for q, aid in enumerate(ids, start=1)}
    outcome = AuctionOutcome(ordering, dict(zip(ids, pays)), dict(zip(ids, utils)), welfare)
    return outcome, dict(sorted(zip(ids, amounts)))


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
        self.in_id_order = sorted(agents, key=lambda a: a.id)
        self.potentials = build_potential_maps(grid, [a.goal for a in agents])
        self.settled: dict[tuple[int, ...], tuple] = {}
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
        # at least 12 (W+H) ticks, longer than the stale window, so a
        # stalemate of one or two agents also ends the trial as deadlocked
        self.tick_limit = 4 * (grid.width + grid.height) * max(len(agents), 3)
        # sum of every agent's potential; an arrived agent adds 0
        self.remaining = sum(self.potentials[a.goal][a.pos] for a in agents)
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
            # stay in `occupied`; an agent already on an excursion escapes
            # whatever descent would propose
            if self.excursion[a.id] == 0:
                move = propose_move(self.grid, pot, a, occupied)
                if move.direction == "wait" and self.stall[a.id] >= STALL_ESCAPE_TICKS:
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
        conflicts = detect_conflicts(movers)
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
            conflicts.append(Conflict(cell=order.cell, contenders=members))
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
            ordering, bids = _resolve(self.resolver, contenders, arrivals, self.rng, self.settled)
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
        for a in self.in_id_order:
            if a.arrived:
                continue
            pos, action = proposals[a.id]
            waiting = action.direction == "wait"
            cells = [pos] if waiting else sweep_cells(pos, action)
            guarded = not taken.isdisjoint(cells[1:])
            if guarded or waiting:
                # a held agent waiting its turn is not stalled
                if guarded or a.id not in self.held:
                    self.stall[a.id] += 1
                self.guard_waits += guarded
                taken.add(pos)
                self.lines.append(TraceLine(t, a.id, *pos, "wait", 0, True))
                continue
            taken.update(cells)
            a.pos = end = cells[-1]  # `_max_step` and `escape_move` keep sweeps on the grid
            values = self.potentials[a.goal].values
            self.remaining += values[end[0]][end[1]] - values[pos[0]][pos[1]]
            self.tabu[a.id].append(pos)
            self.stall[a.id] = 0
            moved_any = True
            self.lines.append(TraceLine(t, a.id, *end, action.direction, action.step, False))
            if end == a.goal:
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
        if self.remaining < self.best_remaining:
            self.best_remaining = self.remaining
            self.last_improvement = self.t
            return False
        return self.t - self.last_improvement > self.stale_window


def run_trial(
    scenario: Scenario,
    resolver: str = "auction",
    timeout: Optional[float] = None,
) -> SimulationTrace:
    """Simulate one trial; deterministic given (scenario, resolver)."""
    if resolver not in RESOLVERS:
        raise ValueError(f"resolver must be one of {RESOLVERS}")
    if not (timeout is None or timeout >= 0):  # NaN fails too
        raise ValueError("timeout must be None or >= 0")

    trial = _Trial(scenario, resolver)
    deadlocked = False
    start_time = _time.monotonic()
    while trial.t < trial.tick_limit:
        active = [a for a in trial.agents if not a.arrived]
        if not active:
            break
        if timeout is not None and _time.monotonic() - start_time > timeout:
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
        arrival_times={a.id: a.arrival_time for a in agents},
        lines=trial.lines,
        ticks=trial.t,
        completed=all(a.arrived for a in agents),
        deadlocked=deadlocked,
        guard_waits=trial.guard_waits,
    )
