"""Per-goal potential maps: exact shortest-path distance fields on the grid.

A breadth-first flood from the goal assigns each free cell its hop count to
the goal; on a unit-cost grid this equals the A* distance. Exact distances
have no local minima, so greedy descent always makes progress when unblocked.
"""

from __future__ import annotations

from dataclasses import dataclass

from .world import UNREACHABLE, Cell, GridWorld, distances


@dataclass(frozen=True)
class PotentialMap:
    goal: Cell
    values: tuple[tuple[int, ...], ...]  # [row][col]; UNREACHABLE for blocked cells

    def __getitem__(self, cell: Cell) -> int:
        return self.values[cell[0]][cell[1]]


def build_potential_map(grid: GridWorld, goal: Cell) -> PotentialMap:
    if not grid.is_free(goal):
        raise ValueError(f"goal {goal} is not a free cell")
    return PotentialMap(goal, tuple(map(tuple, distances(grid, goal))))


def build_potential_maps(grid: GridWorld, goals: list[Cell]) -> dict[Cell, PotentialMap]:
    """One map per distinct goal."""
    return {goal: build_potential_map(grid, goal) for goal in set(goals)}
