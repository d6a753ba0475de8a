"""Output checks for benchmark trials.

Two kinds of check, neither of which reuses the planner's own code:

* a SHA-256 digest of each trial's observable output, compared with the
  digest the reference commit produced for the same instance, so a
  performance change that alters behaviour is caught;
* invariants re-derived from the raw trace: configurations stay on free
  cells and vertex-disjoint, each tick's displacement is a straight line no
  longer than the agent's incentive, and CBS plans are conflict-free when
  executed at unit speed.

The planner takes an agent off the grid once it reaches its goal (its cell
no longer blocks anyone), so a planner configuration is checked for
disjointness among the agents still on the grid: those that have not
arrived, plus those arriving at that tick. Arrived agents must stay put.
"""

from __future__ import annotations

import hashlib

MAX_PROBLEMS = 5


def planner_digest(trace) -> str:
    """Digest of a planner trial: trace lines plus the exact auction log."""
    h = hashlib.sha256()
    h.update(
        f"ticks={trace.ticks} completed={int(trace.completed)} "
        f"deadlocked={int(trace.deadlocked)} guard_waits={trace.guard_waits}\n".encode()
    )
    h.update(trace.export_lines().encode())
    for rc in trace.conflicts:
        turns = ";".join(
            f"{aid}:{rc.bids[aid]}:{rc.ordering.ordering[aid]}:{rc.ordering.payments[aid]}"
            for aid in rc.contenders
        )
        h.update(f"\n{rc.tick}|{rc.cell[0]},{rc.cell[1]}|{turns}".encode())
    return h.hexdigest()


def cbs_digest(trace, result) -> str:
    """Digest of a CBS trial: planned paths, expansion count and execution."""
    h = hashlib.sha256()
    h.update(f"expansions={result.expansions}\n".encode())
    for aid in sorted(result.paths):
        cells = " ".join(f"{r},{c}" for r, c in result.paths[aid])
        h.update(f"{aid}:{cells}\n".encode())
    h.update(trace.export_lines().encode())
    for t, cell, aids in trace.collisions:
        h.update(f"\n{t}|{cell[0]},{cell[1]}|{','.join(map(str, aids))}".encode())
    return h.hexdigest()


def _free(grid, cell) -> bool:
    r, c = cell
    return 0 <= r < grid.height and 0 <= c < grid.width and cell not in grid.obstacles


def check_planner_trace(scenario, trace) -> list[str]:
    """Problems found in a planner trace; empty when every invariant holds."""
    grid = scenario.grid
    agents = scenario.agents
    problems: list[str] = []
    configs = trace.configurations
    arrival = [trace.arrival_times[a.id] for a in agents]
    if configs[0] != [a.pos for a in agents]:
        problems.append("first configuration is not the start configuration")
    if trace.completed and configs[-1] != [a.goal for a in agents]:
        problems.append("completed trial does not end on the goals")
    for t, config in enumerate(configs):
        if len(problems) >= MAX_PROBLEMS:
            break
        present = [cell for cell, at in zip(config, arrival) if at is None or t <= at]
        if len(set(present)) != len(present):
            problems.append(f"tick {t}: two agents share a cell")
        for cell in config:
            if not _free(grid, cell):
                problems.append(f"tick {t}: agent on blocked cell {cell}")
        if t == 0:
            continue
        for agent, at, (r0, c0), (r1, c1) in zip(agents, arrival, configs[t - 1], config):
            dr, dc = r1 - r0, c1 - c0
            if at is not None and t > at and (dr or dc):
                problems.append(f"tick {t}: agent {agent.id} moved after arriving")
                continue
            if dr and dc:
                problems.append(f"tick {t}: agent {agent.id} moved diagonally")
                continue
            length = abs(dr) + abs(dc)
            if length > agent.incentive:
                problems.append(
                    f"tick {t}: agent {agent.id} moved {length} > incentive {agent.incentive}"
                )
            sr, sc = (dr > 0) - (dr < 0), (dc > 0) - (dc < 0)
            for k in range(1, length + 1):
                if not _free(grid, (r0 + sr * k, c0 + sc * k)):
                    problems.append(f"tick {t}: agent {agent.id} swept a blocked cell")
                    break
    return problems[:MAX_PROBLEMS]


def check_cbs_paths(scenario, paths) -> list[str]:
    """Problems in CBS plans at unit speed; empty when the plan is valid."""
    grid = scenario.grid
    problems: list[str] = []
    for a in scenario.agents:
        path = paths[a.id]
        if path[0] != a.pos or path[-1] != a.goal:
            problems.append(f"agent {a.id}: path does not join start to goal")
        for (r0, c0), (r1, c1) in zip(path, path[1:]):
            if abs(r1 - r0) + abs(c1 - c0) > 1 or not _free(grid, (r1, c1)):
                problems.append(f"agent {a.id}: illegal unit step to {(r1, c1)}")
                break
    horizon = max(len(p) for p in paths.values())
    padded = {aid: p + [p[-1]] * (horizon - len(p)) for aid, p in paths.items()}
    ids = sorted(padded)
    for t in range(horizon):
        if len(problems) >= MAX_PROBLEMS:
            break
        cells = [padded[aid][t] for aid in ids]
        if len(set(cells)) != len(cells):
            problems.append(f"tick {t}: vertex conflict")
        if t == 0:
            continue
        for x, i in enumerate(ids):
            for j in ids[x + 1:]:
                if (
                    padded[i][t] == padded[j][t - 1]
                    and padded[j][t] == padded[i][t - 1]
                    and padded[i][t] != padded[i][t - 1]
                ):
                    problems.append(f"tick {t}: agents {i} and {j} swap cells")
    return problems[:MAX_PROBLEMS]
