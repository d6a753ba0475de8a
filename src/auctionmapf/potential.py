"""Per-goal potential maps: exact shortest-path distance fields on the grid.

A breadth-first flood from the goal assigns each free cell its hop count to
the goal; on a unit-cost grid this equals the A* distance. Exact distances
have no local minima, so greedy descent always makes progress when unblocked.
"""

from __future__ import annotations

from dataclasses import dataclass

from .world import Cell, GridWorld, distances


@dataclass(frozen=True)
class PotentialMap:
    values: list[list[int]]  # world.distances rows, [row][col]; UNREACHABLE when blocked


def build_potential_map(grid: GridWorld, goal: Cell) -> PotentialMap:
    # hand-built scenarios reach the planner without Scenario.validate
    if not grid.is_free(goal):
        raise ValueError(f"goal {goal} is not a free cell")
    return PotentialMap(distances(grid, goal))
