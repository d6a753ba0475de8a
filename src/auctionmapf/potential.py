"""Per-goal potential maps: exact shortest-path distance fields on the grid.

A breadth-first flood from the goal assigns each free cell its hop count to
the goal; on a unit-cost grid this equals the A* distance. Exact distances
have no local minima, so greedy descent always makes progress when unblocked.
"""

from __future__ import annotations

from dataclasses import dataclass

from .world import Cell, CellIds


@dataclass(frozen=True)
class PotentialMap:
    field: list[int]  # CellIds.flood of the goal, indexed by id; UNREACHABLE when blocked
    stride: int  # the CellIds stride, which `values` slices by

    @property
    def values(self) -> list[list[int]]:
        """The field's [row][col] rows, sliced off for 2-D readers; the
        planner reads `field`."""
        s, field = self.stride, self.field
        return [field[i + 1 : i + s - 1] for i in range(s, len(field) - s, s)]


def build_potential_map(ids: CellIds, goal: Cell) -> PotentialMap:
    # for direct callers: an id off the grid can wrap into another row
    if not ids.grid.is_free(goal):
        raise ValueError(f"goal {goal} is not a free cell")
    return PotentialMap(ids.flood(ids.id(goal)), ids.stride)
