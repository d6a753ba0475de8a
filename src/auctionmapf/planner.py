"""One-step-lookahead motion planner with auction-based conflict resolution.

Each tick every active agent proposes a multi-cell step descending its goal's
potential map. Proposals whose swept segments intersect form a conflict; the
planner first tries to reassign contenders to equal-cost alternative moves,
then resolves residual conflicts with the configured resolver (auction,
random ordering, or FIFO). A resolved ordering persists: the turn-q
contender passes on the q-th tick after resolution while the rest wait.
"""

from __future__ import annotations

import random
import time as _time
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .auction import AuctionOutcome, Bid, harmonic_schedule, run_auction
from .potential import UNREACHABLE, PotentialMap, build_potential_maps
from .world import (
    DIRECTIONS,
    AgentState,
    Cell,
    GridWorld,
    MoveAction,
    Scenario,
    WAIT,
    apply_action,
    sweep_cells,
)

AXES = {"up": "row", "down": "row", "left": "col", "right": "col"}
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
        if val < 0 or val >= prev or (r, c) in occupied:
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
    for direction in ("up", "down", "left", "right"):
        tau = _max_step(grid, pot, pos, direction, agent.incentive, occupied)
        if tau >= 1:
            axis = AXES[direction]
            if axis not in best_by_axis or tau > best_by_axis[axis][1]:
                best_by_axis[axis] = (direction, tau)
    if not best_by_axis:
        return WAIT
    if len(best_by_axis) == 1:
        direction, tau = next(iter(best_by_axis.values()))
        return MoveAction(direction, tau)
    remaining_row = abs(pos[0] - goal[0])
    remaining_col = abs(pos[1] - goal[1])
    # prefer the axis with more ground to cover; break the remaining tie
    # row-before-column so runs are reproducible
    axis = "col" if remaining_col > remaining_row else "row"
    direction, tau = best_by_axis[axis]
    return MoveAction(direction, tau)


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
    for direction in ("up", "down", "left", "right"):
        dr, dc = DIRECTIONS[direction]
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


def detect_conflicts(
    proposals: dict[int, tuple[Cell, MoveAction]],
    tick: int = 0,
) -> list[Conflict]:
    """Group agents whose same-tick sweeps share any cell; groups merge
    transitively so each agent lands in at most one conflict."""
    movers_at: dict[Cell, list[int]] = {}
    for aid, (pos, action) in proposals.items():
        if action.direction == "wait":
            continue
        for cell in sweep_cells(pos, action):
            movers_at.setdefault(cell, []).append(aid)

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

    shared = {cell: aids for cell, aids in movers_at.items() if len(aids) > 1}
    for aids in shared.values():
        for aid in aids:
            parent.setdefault(aid, aid)
        for other in aids[1:]:
            union(aids[0], other)

    groups: dict[int, set[int]] = {}
    for aid in parent:
        groups.setdefault(find(aid), set()).add(aid)
    # all users of a shared cell were merged into one group
    group_cells: dict[int, set[Cell]] = {}
    for cell, aids in shared.items():
        group_cells.setdefault(find(aids[0]), set()).add(cell)

    conflicts = [
        Conflict(cell=min(cells), time=tick, contenders=groups[root], cells=frozenset(cells))
        for root, cells in group_cells.items()
    ]
    conflicts.sort(key=lambda c: c.cell)
    return conflicts


def cell_users(proposals: dict[int, tuple[Cell, MoveAction]]) -> dict[Cell, set[int]]:
    """Agents per cell this tick: every cell of a mover's sweep, a waiting
    agent's own cell."""
    users: dict[Cell, set[int]] = {}
    for aid, (pos, action) in proposals.items():
        for cell in sweep_cells(pos, action):
            users.setdefault(cell, set()).add(aid)
    return users


def try_reassign(
    conflict: Conflict,
    grid: GridWorld,
    potentials: dict[Cell, PotentialMap],
    proposals: dict[int, tuple[Cell, MoveAction]],
    agents_by_id: dict[int, AgentState],
    occupied: set[Cell],
    other_cells: Optional[dict[Cell, set[int]]] = None,
) -> Conflict:
    """Move contenders to equal-descent alternative targets where possible.

    Mutates proposals for reassigned agents and returns the residual conflict.
    `other_cells` is `cell_users(proposals)`; pass one index for all of a
    tick's conflicts and it is kept in step with the reassignments.
    """
    if other_cells is None:
        other_cells = cell_users(proposals)

    residual = set(conflict.contenders)
    for aid in sorted(conflict.contenders):
        pos, action = proposals[aid]
        if action.direction == "wait":
            continue
        agent = agents_by_id[aid]
        pot = potentials[agent.goal]
        tau = action.step
        for direction in ("up", "down", "left", "right"):
            if direction == action.direction:
                continue
            # a straight sweep never re-enters its start, so `occupied` may
            # keep the mover's own cell
            alt_tau = _max_step(grid, pot, pos, direction, agent.incentive, occupied)
            if alt_tau != tau:
                continue
            alt = MoveAction(direction, alt_tau)
            alt_cells = sweep_cells(pos, alt)
            if any(other_cells.get(cell, _NOBODY) - {aid} for cell in alt_cells):
                continue
            # accept the reassignment and update the shared-cell index
            for cell in sweep_cells(pos, action):
                other_cells.get(cell, set()).discard(aid)
            for cell in alt_cells:
                other_cells.setdefault(cell, set()).add(aid)
            proposals[aid] = (pos, alt)
            residual.discard(aid)
            break

    cells = frozenset(conflict.cells)
    return Conflict(cell=conflict.cell, time=conflict.time, contenders=residual, cells=cells)


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
        ordering = {aid: q for q, aid in enumerate(ids, start=1)}
    elif resolver == "fifo":
        ids = sorted((a.id for a in contenders), key=lambda i: (arrivals[i], i))
        ordering = {aid: q for q, aid in enumerate(ids, start=1)}
    else:
        raise ValueError(f"unknown resolver {resolver!r}")
    payments = {aid: Fraction(0) for aid in ordering}
    utilities = {aid: bids[aid] * schedule.alpha(q) for aid, q in ordering.items()}
    return AuctionOutcome(ordering, payments, utilities, sum(utilities.values())), bids


def default_tick_limit(scenario: Scenario) -> int:
    g = scenario.grid
    return 4 * (g.width + g.height) * len(scenario.agents)


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

    agents = [
        AgentState(id=a.id, pos=a.pos, goal=a.goal, incentive=a.incentive)
        for a in scenario.agents
    ]
    agents_by_id = {a.id: a for a in agents}
    grid = scenario.grid
    potentials = build_potential_maps(grid, [a.goal for a in agents])
    rng = random.Random(f"{scenario.seed}:{resolver}")

    configurations = [[a.pos for a in agents]]
    resolved_log: list[ResolvedConflict] = []
    lines: list[TraceLine] = []
    orders: list[_ActiveOrder] = []
    contention_tick: dict[tuple[int, Cell], int] = {}
    stall: dict[int, int] = {a.id: 0 for a in agents}
    excursion: dict[int, int] = {a.id: 0 for a in agents}
    tabu: dict[int, deque] = {a.id: deque(maxlen=ESCAPE_TABU_LEN) for a in agents}
    stale_window = 10 * (grid.width + grid.height)
    best_remaining = None
    last_improvement = 0
    idle_ticks = 0
    guard_waits = 0
    deadlocked = False
    timed_out = False
    start_time = _time.monotonic()
    t = 0

    for a in agents:
        if a.pos == a.goal:
            a.arrived = True
            a.arrival_time = 0

    while t < tick_limit:
        active = [a for a in agents if not a.arrived]
        if not active:
            break
        if timeout is not None and _time.monotonic() - start_time > timeout:
            timed_out = True
            break

        occupied = {a.pos for a in active}
        held = {
            aid: release
            for order in orders
            for aid, release in order.holders.items()
            if release > t and not agents_by_id[aid].arrived
        }

        proposals: dict[int, tuple[Cell, MoveAction]] = {}
        for a in active:
            if a.id in held:
                proposals[a.id] = (a.pos, WAIT)
                continue
            # no sweep re-enters its start cell, so the mover's own cell may
            # stay in `occupied`
            move = propose_move(grid, potentials[a.goal], a, occupied)
            if move.direction == "wait" and stall[a.id] >= STALL_ESCAPE_TICKS:
                if excursion[a.id] == 0:
                    excursion[a.id] = ESCAPE_COMMIT_TICKS
            if excursion[a.id] > 0:
                excursion[a.id] -= 1
                move = escape_move(grid, potentials[a.goal], a, occupied, tabu[a.id])
            proposals[a.id] = (a.pos, move)

        conflicts = detect_conflicts(proposals, tick=t)
        # one shared-cell index per tick, for intrusion checks and reassignment
        users = cell_users(proposals) if conflicts or orders else {}

        # movers intruding on a cell with an unexpired ordering force a fresh
        # auction among the remaining holders plus the newcomers
        for order in list(orders):
            pending = {aid for aid, rel in order.holders.items() if rel > t}
            if not pending:
                continue
            intruders = {
                aid
                for aid in users.get(order.cell, _NOBODY)
                if aid not in order.holders and proposals[aid][1].direction != "wait"
            }
            if not intruders:
                continue
            members = pending | intruders
            merged = [c for c in conflicts if c.contenders & members]
            for c in merged:
                members |= c.contenders
                conflicts.remove(c)
            conflicts.append(
                Conflict(cell=order.cell, time=t, contenders=members,
                         cells=frozenset({order.cell}))
            )
            orders.remove(order)
        conflicts.sort(key=lambda c: c.cell)

        residuals = []
        for conflict in conflicts:
            residuals.append(
                try_reassign(conflict, grid, potentials, proposals, agents_by_id, occupied, users)
            )

        for conflict in residuals:
            if len(conflict.contenders) < 2:
                continue
            for aid in conflict.contenders:
                contention_tick.setdefault((aid, conflict.cell), t)
            arrivals = {aid: contention_tick[(aid, conflict.cell)] for aid in conflict.contenders}
            contenders = [agents_by_id[aid] for aid in sorted(conflict.contenders)]
            ordering, bids = _resolve(resolver, contenders, arrivals, rng)
            orders.append(
                _ActiveOrder(
                    cell=conflict.cell,
                    holders={aid: t + q - 1 for aid, q in ordering.ordering.items()},
                )
            )
            resolved_log.append(
                ResolvedConflict(
                    tick=t,
                    cell=conflict.cell,
                    contenders=tuple(sorted(conflict.contenders)),
                    bids=bids,
                    ordering=ordering,
                )
            )
            for aid, q in ordering.ordering.items():
                if q > 1:
                    proposals[aid] = (agents_by_id[aid].pos, WAIT)
                elif proposals[aid][1].direction == "wait":
                    # winner was holding from a superseded ordering: give it a
                    # fresh move, vetted below by the final safety pass
                    a = agents_by_id[aid]
                    proposals[aid] = (a.pos, propose_move(grid, potentials[a.goal], a, occupied))

        # final safety pass: executed sweeps must be pairwise disjoint
        taken: dict[Cell, int] = {}
        for a in active:
            if proposals[a.id][1].direction == "wait":
                taken[a.pos] = a.id
        moved_any = False
        for a in sorted(active, key=lambda x: x.id):
            pos, action = proposals[a.id]
            if action.direction == "wait":
                if a.id not in held:
                    stall[a.id] += 1
                lines.append(TraceLine(t, a.id, pos[0], pos[1], "wait", 0, True))
                continue
            cells = sweep_cells(pos, action)
            if any(cell in taken for cell in cells[1:]):
                proposals[a.id] = (pos, WAIT)
                taken[pos] = a.id
                guard_waits += 1
                stall[a.id] += 1
                lines.append(TraceLine(t, a.id, pos[0], pos[1], "wait", 0, True))
                continue
            for cell in cells:
                taken[cell] = a.id
            a.pos = apply_action(pos, action, grid)
            tabu[a.id].append(pos)
            stall[a.id] = 0
            moved_any = True
            lines.append(TraceLine(t, a.id, a.pos[0], a.pos[1], action.direction, action.step, False))

        for a in active:
            if not a.arrived and a.pos == a.goal:
                a.arrived = True
                a.arrival_time = t + 1

        configurations.append([a.pos for a in agents])

        for order in list(orders):
            order.holders = {
                aid: rel
                for aid, rel in order.holders.items()
                if rel > t and not agents_by_id[aid].arrived
            }
            if not order.holders:
                orders.remove(order)

        idle_ticks = 0 if moved_any else idle_ticks + 1
        # a single all-wait tick is not terminal: blocked agents escape only
        # after their stall counter builds up; an order that survived the
        # pruning above still holds an agent past this tick
        if idle_ticks > STALL_ESCAPE_TICKS + 1 and not orders:
            deadlocked = True
            t += 1
            break

        # stalemate: nobody has gotten closer to a goal for a long stretch,
        # so further ticks just repeat an oscillation
        remaining = sum(
            potentials[a.goal][a.pos] for a in agents if not a.arrived
        )
        if best_remaining is None or remaining < best_remaining:
            best_remaining = remaining
            last_improvement = t
        elif t - last_improvement > stale_window:
            deadlocked = True
            t += 1
            break
        t += 1

    completed = all(a.arrived for a in agents)
    return SimulationTrace(
        configurations=configurations,
        conflicts=resolved_log,
        collisions=[],
        arrival_times={a.id: a.arrival_time for a in agents},
        lines=lines,
        ticks=t,
        completed=completed,
        deadlocked=deadlocked,
        timed_out=timed_out,
        guard_waits=guard_waits,
    )
