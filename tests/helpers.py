"""Independent oracles used by the test suite.

These deliberately avoid the library's own graph code: the distance oracles
are a heap-based Dijkstra and a breadth-first flood over `[row][col]` rows
with bounds checks (vs the library's flood over padded cell ids), the
sum-of-costs oracles search the joint configuration space directly over
their own bounds-checked neighbours (A* under the summed distance fields,
and uninformed as a check on it), the first-conflict oracle rescans every
agent pair of a CBS plan in `(row, col)` cells, the edge-weight oracle
draws CBS's noisy edge costs into a dict keyed by edge, the path-cost oracle
re-adds a CBS path's edge weights step by step, the collision and
sweep-bounds audits re-derive sweeps from a trace's raw lines, and the
conflict-group oracle floods "shares a cell" between raw sweeps, and
`neighbors` lists a cell's free 4-neighbours by bounds checks, as the oracle
for CBS's move table.

The auction's closed forms live here too, as oracles for
`auction._rank` and `auction._settle`: `allocate` (the q-th highest bid
gets turn q), `payment` (turn q's externality charge, summed term by term)
and `utility` (value x alpha_q - payment).
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from fractions import Fraction


def dijkstra_distance_field(width, height, obstacles, goal):
    """Unit-cost Dijkstra from the goal; -1 for blocked/unreachable cells."""
    dist = {goal: 0}
    heap = [(0, goal)]
    while heap:
        d, (r, c) = heapq.heappop(heap)
        if d > dist[(r, c)]:
            continue
        for nr, nc in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)):
            if not (0 <= nr < height and 0 <= nc < width):
                continue
            if (nr, nc) in obstacles:
                continue
            if d + 1 < dist.get((nr, nc), float("inf")):
                dist[(nr, nc)] = d + 1
                heapq.heappush(heap, (d + 1, (nr, nc)))
    field = [[-1] * width for _ in range(height)]
    for (r, c), d in dist.items():
        field[r][c] = d
    return field


def bfs_distances(grid, source):
    """Hop count between `source` and every cell, indexed [row][col], by one
    breadth-first flood over (row, col) cells; -1 for obstacles and cut-off
    cells."""
    values = [[-1] * grid.width for _ in range(grid.height)]
    values[source[0]][source[1]] = 0
    queue = deque([source])
    while queue:
        r, c = queue.popleft()
        for nr, nc in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)):
            if (
                0 <= nr < grid.height
                and 0 <= nc < grid.width
                and values[nr][nc] == -1
                and (nr, nc) not in grid.obstacles
            ):
                values[nr][nc] = values[r][c] + 1
                queue.append((nr, nc))
    return values


def neighbors(grid, cell):
    """The free 4-neighbours of `cell`, up, down, left, right, by bounds and
    obstacle checks over `(row, col)` cells."""
    r, c = cell
    return [
        (nr, nc)
        for nr, nc in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1))
        if 0 <= nr < grid.height and 0 <= nc < grid.width and (nr, nc) not in grid.obstacles
    ]


def _joint_successors(grid, positions, credits, goals, credit_cap):
    """(cost, next state) for every collision-free joint move.

    Cost accounting matches the usual MAPF convention: an agent pays one per
    tick until it reaches its goal for the last time; waiting at the goal is
    free unless the agent later leaves, in which case the deferred waits are
    charged retroactively (tracked as per-agent credits). Vertex and swap
    collisions are forbidden.
    """
    k = len(positions)
    per_agent = []
    for i, pos in enumerate(positions):
        options = []
        at_goal = pos == goals[i]
        # waiting
        if at_goal:
            if credits[i] < credit_cap:
                options.append((pos, 0, credits[i] + 1))
        else:
            options.append((pos, 1, 0))
        r, c = pos
        for nxt in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)):
            if (
                0 <= nxt[0] < grid.height
                and 0 <= nxt[1] < grid.width
                and nxt not in grid.obstacles
            ):
                options.append((nxt, (credits[i] + 1) if at_goal else 1, 0))
        per_agent.append(options)
    for combo in itertools.product(*per_agent):
        new_positions = tuple(opt[0] for opt in combo)
        if len(set(new_positions)) != k:
            continue
        if any(
            new_positions[i] == positions[j] and new_positions[j] == positions[i]
            for i in range(k)
            for j in range(i + 1, k)
            if new_positions[i] != positions[i]
        ):
            continue
        yield sum(opt[1] for opt in combo), (new_positions, tuple(opt[2] for opt in combo))


def _joint_search(grid, starts, goals, credit_cap, h):
    """Best-first search over joint (positions, credits) states by g + h(positions)."""
    start_state = (tuple(starts), (0,) * len(starts))
    best = {start_state: 0}
    heap = [(h(start_state[0]), 0, start_state)]
    while heap:
        _, g, (positions, credits) = heapq.heappop(heap)
        if g > best.get((positions, credits), float("inf")):
            continue
        if all(p == goal for p, goal in zip(positions, goals)):
            return g
        for cost, key in _joint_successors(grid, positions, credits, goals, credit_cap):
            ng = g + cost
            if ng < best.get(key, float("inf")):
                best[key] = ng
                heapq.heappush(heap, (ng + h(key[0]), ng, key))
    raise RuntimeError("joint search exhausted without reaching the goals")


def joint_soc_oracle(grid, starts, goals, credit_cap=12):
    """Optimal sum-of-costs over the joint configuration space, by A*.

    The heuristic sums each agent's `dijkstra_distance_field` distance to its
    goal. It is consistent: a step off the goal costs >= 1 and brings the
    agent at most 1 closer, leaving the goal costs credits + 1 >= 1, and
    waiting at the goal costs 0 and leaves the distance as it is. So the
    first goal state popped is optimal, as in `joint_soc_dijkstra`.
    """
    fields = [dijkstra_distance_field(grid.width, grid.height, grid.obstacles, g) for g in goals]

    def h(positions):
        return sum(field[r][c] for field, (r, c) in zip(fields, positions))

    return _joint_search(grid, starts, goals, credit_cap, h)


def joint_soc_dijkstra(grid, starts, goals, credit_cap=12):
    """`joint_soc_oracle` without a heuristic: uninformed Dijkstra over the
    same states, successors and costs."""
    return _joint_search(grid, starts, goals, credit_cap, lambda positions: 0)


def first_conflict_oracle(paths):
    """The earliest conflict between `(row, col)` paths keyed by agent id,
    each path waiting at its goal once it ends, as `(agent id, (tick, cell,
    cell moved from or None))` for both agents: a vertex meeting bars both
    from the shared cell at that tick, a swap bars each from its own move.
    Ties go to the lowest agent pair, and a meeting to the vertex; None when
    no pair conflicts."""
    horizon = max(len(p) for p in paths.values())

    def at(aid, t):
        return paths[aid][min(t, len(paths[aid]) - 1)]

    found = []
    for i, j in itertools.combinations(sorted(paths), 2):
        for t in range(horizon):
            if at(i, t) == at(j, t):
                found.append((t, i, j, (i, (t, at(i, t), None)), (j, (t, at(j, t), None))))
                break
            if t + 1 < horizon and at(i, t) == at(j, t + 1) and at(j, t) == at(i, t + 1):
                found.append(
                    (t, i, j, (i, (t, at(i, t + 1), at(i, t))), (j, (t, at(j, t + 1), at(j, t))))
                )
                break
    return min(found)[3:] if found else None


def sample_edge_weights(grid, sigma, rng):
    """One weight per undirected free edge, keyed by the frozenset of its two
    cells, drawn from max(0.01, 1 + N(0, sigma^2)) in the order CBS's move
    table draws them: cells row-major, each drawing its down edge, then its
    right edge."""
    weights = {}
    for r in range(grid.height):
        for c in range(grid.width):
            if (r, c) in grid.obstacles:
                continue
            for nxt in ((r + 1, c), (r, c + 1)):
                if nxt[0] < grid.height and nxt[1] < grid.width and nxt not in grid.obstacles:
                    noise = rng.gauss(0.0, sigma) if sigma > 0 else 0.0
                    weights[frozenset(((r, c), nxt))] = max(0.01, 1.0 + noise)
    return weights


def path_cost(path, weights):
    """Cost of a unit-step path: 1 per wait, the undirected edge's weight per
    move, added in path order."""
    total = 0.0
    for a, b in zip(path, path[1:]):
        total += 1.0 if a == b else weights[frozenset((a, b))]
    return total


# unit vector per trace-line direction, written out here rather than taken
# from the library
_UNIT = {"up": (-1, 0), "down": (1, 0), "left": (0, -1), "right": (0, 1), "wait": (0, 0)}


def sweep_collisions(trace):
    """Cells that two agents sweep in the same tick, from `trace.lines` alone.

    A line records where its agent ends the tick, so the sweep runs back from
    that cell against the direction for `step` cells: the start is the end
    minus direction x step. A waiting agent sweeps only its own cell. Two
    agents that swap cells share both. An arrived agent leaves the grid and
    writes no more lines, so its goal cell is free to others.

    Returns one (tick, cell, sorted agent ids) entry per shared cell.
    """
    swept = {}
    for ln in trace.lines:
        dr, dc = _UNIT[ln.direction]
        for k in range(ln.step + 1):
            cell = (ln.row - dr * k, ln.col - dc * k)
            swept.setdefault((ln.tick, cell), []).append(ln.agent_id)
    return sorted(
        (tick, cell, tuple(sorted(aids)))
        for (tick, cell), aids in swept.items()
        if len(aids) > 1
    )


def sweep_bounds_violations(trace, grid):
    """Swept cells off the grid or on an obstacle, from `trace.lines` alone.

    Each line's sweep is rebuilt as in `sweep_collisions`: back from its end
    cell against the direction for `step` cells, start included.

    Returns one (tick, agent id, cell) entry per such cell.
    """
    bad = []
    for ln in trace.lines:
        dr, dc = _UNIT[ln.direction]
        for k in range(ln.step + 1):
            r, c = ln.row - dr * k, ln.col - dc * k
            if not (0 <= r < grid.height and 0 <= c < grid.width) or (r, c) in grid.obstacles:
                bad.append((ln.tick, ln.agent_id, (r, c)))
    return bad


def sweep_conflict_groups(sweeps):
    """Conflict groups of one tick's sweeps, from {agent id: (pos, direction,
    step)} alone: the connected components of "two sweeps share a cell".
    A waiting agent takes part in none, since no sweep enters an occupied cell.

    Returns one (least shared cell, sorted agent ids) entry per group, sorted
    by cell.
    """
    swept = {}
    for aid, (pos, direction, step) in sweeps.items():
        if direction == "wait":
            continue
        dr, dc = _UNIT[direction]
        for k in range(step + 1):
            swept.setdefault((pos[0] + dr * k, pos[1] + dc * k), set()).add(aid)
    shared = {cell: aids for cell, aids in swept.items() if len(aids) > 1}
    neighbours = {}
    for aids in shared.values():
        for aid in aids:
            neighbours.setdefault(aid, set()).update(aids)
    groups, seen = [], set()
    for first in sorted(neighbours):
        if first in seen:
            continue
        component, frontier = set(), [first]
        while frontier:
            aid = frontier.pop()
            if aid not in component:
                component.add(aid)
                frontier.extend(neighbours[aid])
        seen |= component
        least = min(cell for cell, aids in shared.items() if aids & component)
        groups.append((least, tuple(sorted(component))))
    return sorted(groups)


def allocate(bids):
    """Turn permutation: q-th highest bid gets turn q.

    Ties go to the earlier-arriving contender, then to the lower agent id.
    """
    if not bids:
        raise ValueError("cannot allocate with no bids")
    ranked = sorted(bids, key=lambda b: (-b.amount, b.arrival, b.agent_id))
    return {b.agent_id: q for q, b in enumerate(ranked, start=1)}


def payment(amounts_sorted_desc, q, schedule):
    """Charge for turn q: sum_{j=q..k} b_{j+1} (alpha_j - alpha_{j+1}).

    Boundary convention b_{k+1} = 0, alpha_{k+1} = 0, so the last turn pays 0.
    """
    k = len(amounts_sorted_desc)
    if not 1 <= q <= k:
        raise ValueError(f"turn {q} out of range for {k} bids")
    total = Fraction(0)
    for j in range(q, k + 1):
        b_next = Fraction(amounts_sorted_desc[j]) if j < k else Fraction(0)
        total += b_next * (schedule.alpha(j) - schedule.alpha(j + 1))
    return total


def utility(value, q, pay, schedule):
    """Phi = value x alpha_q - payment: a turn-q holder's utility at its true value."""
    return Fraction(value) * schedule.alpha(q) - Fraction(pay)
