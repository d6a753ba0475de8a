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
from itertools import groupby
from operator import attrgetter
from typing import Iterator, Optional, Sequence

from . import potential
from .auction import AuctionOutcome, Bid, harmonic_schedule, run_auction, turn_key
from .world import UNREACHABLE, AgentState, Cell, CellIds, Scenario

# Inside a trial a cell is its `world.CellIds` id and a move is (direction,
# id offset, step); cells come back only in the trace's moves, the auction
# log and the configurations.
Move = tuple[str, int, int]
WAIT: Move = ("wait", 0, 0)
Proposals = dict[int, tuple[int, Move]]  # agent id -> (position, move) this tick

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
    cell: int                       # id of the least shared cell, or of an intruded order's
    contenders: set[int]


@dataclass(slots=True)
class ResolvedConflict:
    """One logged auction. Within a trial, records with equal turn order
    share one read-only `ordering` outcome and one `bids` dict."""

    tick: int
    cell: Cell
    contenders: tuple[int, ...]
    bids: dict[int, Fraction]
    ordering: AuctionOutcome


@dataclass(slots=True)
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
    """One trial of either solver. `moves` is the record: the executed moves,
    by tick, then id. `lines` is its lazy rendering: one line per unarrived
    agent per tick, a wait at its cell (from `starts` and its moves) where it
    did not move; `export_lines` joins it a tick at a time. `configurations`,
    `conflicts`, `deadlocked` and `guard_waits` are the planner's,
    `collisions` the CBS replay's. Conflicts with equal turn order share one
    read-only outcome and bids dict."""

    arrival_times: dict[int, Optional[int]]
    moves: list[TraceLine] = field(default_factory=list)
    starts: dict[int, Cell] = field(default_factory=dict)
    ticks: int = 0
    configurations: list[list[Cell]] = field(default_factory=list)
    conflicts: list[ResolvedConflict] = field(default_factory=list)
    deadlocked: bool = False
    guard_waits: int = 0
    collisions: list[tuple[int, Cell, tuple[int, ...]]] = field(default_factory=list)

    @property
    def completed(self) -> bool:
        return None not in self.arrival_times.values()

    @property
    def lines(self) -> Iterator[TraceLine]:
        """Built one line at a time, never as a list; all-wait ticks too."""
        at = dict(self.starts)
        moves = iter(self.moves)
        move = next(moves, None)
        agents = sorted(self.arrival_times.items())
        for t in range(self.ticks):
            for aid, arrived in agents:
                if arrived is not None and arrived <= t:
                    continue
                if move is not None and move.tick == t and move.agent_id == aid:
                    at[aid] = move.row, move.col
                    yield move
                    move = next(moves, None)
                else:
                    yield TraceLine(t, aid, *at[aid], "wait", 0, True)

    def export_lines(self) -> str:
        return "\n".join(
            "\n".join(
                f"{ln.tick},{ln.agent_id},{ln.row},{ln.col},{ln.direction},{ln.step},"
                f"{int(ln.waiting)}"
                for ln in tick_lines
            )
            for _, tick_lines in groupby(self.lines, key=attrgetter("tick"))
        )


_NOBODY: frozenset[int] = frozenset()


@dataclass(slots=True)
class _ActiveOrder:
    cell: int
    holders: dict[int, int]  # agent id -> release tick


def _max_step(field: list[int], pos: int, d: int, limit: int, occupied: set[int]) -> int:
    """Longest sweep along id offset `d` that descends the potential every
    cell. Obstacles and the ring round the grid are UNREACHABLE in every
    field, so the descent test alone keeps the sweep on free cells."""
    prev = field[pos]
    tau = 0
    while tau < limit:
        pos += d
        val = field[pos]
        if not 0 <= val < prev or pos in occupied:
            break
        prev = val
        tau += 1
    return tau


def propose_move(
    ids: CellIds, field: list[int], agent: AgentState, pos: int, occupied: set[int]
) -> Move:
    """One agent's greedy descending move from id `pos`; wait only when fully
    blocked."""
    here = field[pos]
    best_by_axis: dict[bool, Move] = {}  # True for up and down
    for direction, d in ids.moves:
        # sweep only where the first cell is free and descends (UNREACHABLE
        # is negative), so the sweep is at least one cell long
        if not 0 <= field[pos + d] < here or pos + d in occupied:
            continue
        tau = _max_step(field, pos, d, agent.incentive, occupied)
        axis = abs(d) != 1
        if axis not in best_by_axis or tau > best_by_axis[axis][2]:
            best_by_axis[axis] = (direction, d, tau)
    if len(best_by_axis) < 2:
        return next(iter(best_by_axis.values()), WAIT)
    # prefer the axis with more ground to cover; break the remaining tie
    # row-before-column so runs are reproducible
    (r, c), (gr, gc) = ids.cells[pos], agent.goal
    return best_by_axis[abs(c - gc) <= abs(r - gr)]


def escape_move(
    ids: CellIds, field: list[int], pos: int, occupied: set[int], tabu: Sequence[int]
) -> Move:
    """One-step sidestep for an agent that has been blocked for a while.

    Picks the free, unoccupied neighbor with the lowest potential, preferring
    cells not in the agent's recent-position memory so opposing groups back
    out of corridors instead of oscillating in place.
    """
    candidates = []
    for direction, d in ids.moves:
        nxt = pos + d
        val = field[nxt]  # UNREACHABLE on obstacles and off the grid too
        if val == UNREACHABLE or nxt in occupied:
            continue
        # unvisited cells first, then visited ones by earliest remembered visit
        fresh = tabu.index(nxt) + 1 if nxt in tabu else 0
        candidates.append((fresh, val, direction, d))
    if not candidates:
        return WAIT
    _, _, direction, d = min(candidates)
    return (direction, d, 1)


def mover_index(proposals: Proposals) -> dict[int, set[int]]:
    """Movers per cell id this tick: every cell of each non-wait sweep, the
    ids `range(pos, pos + d * (step + 1), d)`. Waiting agents are left out,
    since no sweep enters an occupied cell."""
    movers: dict[int, set[int]] = {}
    for aid, (pos, (_, d, step)) in proposals.items():
        if step:
            for cell in range(pos, pos + d * (step + 1), d):
                movers.setdefault(cell, set()).add(aid)
    return movers


def detect_conflicts(movers: dict[int, set[int]]) -> list[Conflict]:
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
    ids: CellIds,
    fields: dict[int, list[int]],
    proposals: Proposals,
    agents_by_id: dict[int, AgentState],
    occupied: set[int],
    movers: dict[int, set[int]],
) -> Conflict:
    """Move contenders to equal-descent alternative targets where possible.
    `fields` holds each agent's potential by agent id.

    Mutates proposals for reassigned agents, keeps the tick's `mover_index`
    in step with them, and returns the residual conflict.
    """
    residual = set(conflict.contenders)
    for aid in sorted(conflict.contenders):
        pos, (_, d, tau) = proposals[aid]
        if not tau:
            continue
        for alt_direction, alt_d in ids.moves:
            if alt_d == d:
                continue
            # a straight sweep never re-enters its start, so `occupied` may
            # keep the mover's own cell
            if _max_step(fields[aid], pos, alt_d, agents_by_id[aid].incentive, occupied) != tau:
                continue
            alt_cells = range(pos, pos + alt_d * (tau + 1), alt_d)
            if any(movers.get(cell, _NOBODY) - {aid} for cell in alt_cells):
                continue
            for cell in range(pos, pos + d * (tau + 1), d):
                movers[cell].discard(aid)
            for cell in alt_cells:
                movers.setdefault(cell, set()).add(aid)
            proposals[aid] = (pos, (alt_direction, alt_d, tau))
            residual.discard(aid)
            break

    return Conflict(conflict.cell, residual)


def _resolve(
    resolver: str,
    contenders: list[AgentState],
    arrivals: dict[int, int],
    rng: random.Random,
    settled: dict[tuple[int, ...], AuctionOutcome],
    outcomes: dict[tuple[int, ...], tuple[AuctionOutcome, dict[int, Fraction]]],
) -> tuple[AuctionOutcome, dict[int, Fraction]]:
    """Turn order, and bids by id, for one conflict. Every resolver settles
    through `run_auction`, the baselines with every bid zero. Payments,
    utilities and welfare by turn depend only on the incentives in turn
    order: `settled` keeps one outcome per incentive tuple, so a trial
    settles each once. Incentives are fixed within a trial, so `outcomes`
    keeps the returned pair per ranked id tuple."""
    bidding = resolver == "auction"  # the baselines bid zero
    if resolver == "random-ordering":
        ranked = sorted(contenders, key=lambda a: a.id)
        rng.shuffle(ranked)
    else:  # auction, or fifo; run_trial has checked the name
        ranked = sorted(contenders, key=lambda a: turn_key(
            a.incentive if bidding else 0, arrivals[a.id], a.id))
    ids = tuple(a.id for a in ranked)
    if ids in outcomes:
        return outcomes[ids]
    key = tuple(a.incentive for a in ranked)
    if key not in settled:
        # bidder q arrives at tick q, so the auction keeps the ranked order
        bids = [Bid(q, x if bidding else 0, q) for q, x in enumerate(key, 1)]
        settled[key] = run_auction(bids, harmonic_schedule(len(key)), dict(enumerate(key, 1)))
    out = settled[key]
    ordering = {aid: q for q, aid in enumerate(ids, start=1)}
    outcome = AuctionOutcome(ordering, {aid: out.payments[q] for aid, q in ordering.items()},
                             {aid: out.utilities[q] for aid, q in ordering.items()}, out.welfare)
    outcomes[ids] = outcome, {aid: Fraction(x) for aid, x in sorted(zip(ids, key))}
    return outcomes[ids]


class _Trial:
    """One trial's state and the four phases of its tick: propose, resolve,
    execute and stop. The scenario's agents are read, never written: `at`
    holds each agent's cell id, `goal` its goal's id, `fields` its goal's
    potential by id and `arrival` its arrival tick (None until it arrives);
    `occupied` and `held` belong to the current tick. The trial writes its
    moves, configurations, conflicts and guard waits into `trace`."""

    def __init__(self, scenario: Scenario, resolver: str):
        grid = scenario.grid
        self.resolver = resolver
        self.agents = agents = scenario.agents
        self.agents_by_id = {a.id: a for a in agents}
        self.in_id_order = sorted(agents, key=lambda a: a.id)
        self.ids = ids = CellIds(grid)
        # one flood per agent: Scenario.validate keeps goals distinct
        self.fields = {a.id: potential.build_potential_map(ids, a.goal).field for a in agents}
        self.at = {a.id: ids.id(a.pos) for a in agents}
        self.goal = {a.id: ids.id(a.goal) for a in agents}
        self.arrival = {a.id: 0 if a.pos == a.goal else None for a in agents}
        self.trace = SimulationTrace(self.arrival, starts={a.id: a.pos for a in agents},
                                     configurations=[[a.pos for a in agents]])
        self.settled: dict[tuple[int, ...], AuctionOutcome] = {}
        self.outcomes: dict[tuple[int, ...], tuple[AuctionOutcome, dict[int, Fraction]]] = {}
        self.rng = random.Random(f"{scenario.seed}:{resolver}")
        self.orders: list[_ActiveOrder] = []
        self.contention_tick: dict[tuple[int, int], int] = {}
        self.stall = {a.id: 0 for a in agents}
        self.excursion = {a.id: 0 for a in agents}
        self.tabu = {a.id: deque(maxlen=ESCAPE_TABU_LEN) for a in agents}
        self.stale_window = 10 * (grid.width + grid.height)
        # at least 12 (W+H) ticks, longer than the stale window, so a
        # stalemate of one or two agents also ends the trial as deadlocked
        self.tick_limit = 4 * (grid.width + grid.height) * max(len(agents), 3)
        # sum of every agent's potential; an arrived agent adds 0
        self.remaining = sum(self.fields[a.id][self.at[a.id]] for a in agents)
        self.best_remaining = math.inf
        self.last_improvement = 0
        self.idle_ticks = 0
        self.t = 0

    def propose(self, active: list[AgentState]) -> Proposals:
        """Agents held by a standing order wait; the rest descend, or start
        an escape excursion once stalled."""
        ids, at, excursion = self.ids, self.at, self.excursion
        self.occupied = occupied = {at[a.id] for a in active}
        # pruning after every tick leaves only unarrived holders released at
        # this tick or later
        self.held = held = {
            aid for order in self.orders for aid, rel in order.holders.items() if rel > self.t
        }
        proposals: Proposals = {}
        for a in active:
            aid = a.id
            pos = at[aid]
            if aid in held:
                proposals[aid] = (pos, WAIT)
                continue
            field = self.fields[aid]
            # no sweep re-enters its start cell, so the mover's own cell may
            # stay in `occupied`; an agent already on an excursion escapes
            # whatever descent would propose
            if excursion[aid] == 0:
                move = propose_move(ids, field, a, pos, occupied)
                if not move[2] and self.stall[aid] >= STALL_ESCAPE_TICKS:
                    excursion[aid] = ESCAPE_COMMIT_TICKS
            if excursion[aid] > 0:
                excursion[aid] -= 1
                move = escape_move(ids, field, pos, occupied, self.tabu[aid])
            proposals[aid] = (pos, move)
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
            try_reassign(c, self.ids, self.fields, proposals, self.agents_by_id,
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
            in_id_order = tuple(sorted(conflict.contenders))
            contenders = [self.agents_by_id[aid] for aid in in_id_order]
            ordering, bids = _resolve(self.resolver, contenders, arrivals, self.rng,
                                      self.settled, self.outcomes)
            self.orders.append(
                _ActiveOrder(
                    cell=conflict.cell,
                    holders={aid: t + q - 1 for aid, q in ordering.ordering.items()},
                )
            )
            self.trace.conflicts.append(
                ResolvedConflict(t, self.ids.cells[conflict.cell], in_id_order, bids, ordering))
            for aid, q in ordering.ordering.items():
                pos, move = proposals[aid]
                if q > 1:
                    proposals[aid] = (pos, WAIT)
                elif not move[2]:
                    # winner was holding from a superseded ordering: give it a
                    # fresh move, vetted by the safety pass
                    proposals[aid] = (pos, propose_move(
                        self.ids, self.fields[aid], self.agents_by_id[aid], pos, self.occupied))

    def execute(self, proposals: Proposals) -> bool:
        """Safety pass, arrivals and order pruning; True if anyone moved."""
        t, cells, at, held, stall = self.t, self.ids.cells, self.at, self.held, self.stall
        arrival = self.arrival
        trace = self.trace
        record = trace.moves.append
        # executed sweeps must be pairwise disjoint
        taken = {pos for pos, move in proposals.values() if not move[2]}
        moved_any = False
        for a in self.in_id_order:
            aid = a.id
            if arrival[aid] is not None:
                continue
            pos, (direction, d, step) = proposals[aid]
            end = pos + d * step
            # a move sweeps range(pos, end + d, d); past its start it may
            # enter no taken cell
            guarded = step > 0 and not taken.isdisjoint(range(pos + d, end + d, d))
            if guarded or not step:
                # a held agent waiting its turn is not stalled
                if guarded or aid not in held:
                    stall[aid] += 1
                trace.guard_waits += guarded
                taken.add(pos)
                continue
            taken.update(range(pos, end + d, d))
            # `_max_step` and `escape_move` keep sweeps on the grid
            at[aid] = end
            field = self.fields[aid]
            self.remaining += field[end] - field[pos]
            self.tabu[aid].append(pos)
            stall[aid] = 0
            moved_any = True
            record(TraceLine(t, aid, *cells[end], direction, step, False))
            if end == self.goal[aid]:
                arrival[aid] = t + 1

        trace.configurations.append([cells[p] for p in at.values()])  # in scenario order

        for order in list(self.orders):
            order.holders = {
                aid: rel
                for aid, rel in order.holders.items()
                if rel > t and arrival[aid] is None
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
    scenario.check_cells()
    trial = _Trial(scenario, resolver)
    trace = trial.trace
    start_time = _time.monotonic()
    while trial.t < trial.tick_limit:
        active = [a for a in trial.agents if trial.arrival[a.id] is None]
        if not active:
            break
        if timeout is not None and _time.monotonic() - start_time > timeout:
            break
        proposals = trial.propose(active)
        trial.resolve(proposals)
        trace.deadlocked = trial.stop(trial.execute(proposals))
        trial.t += 1
        if trace.deadlocked:
            break
    trace.ticks = trial.t
    return trace
