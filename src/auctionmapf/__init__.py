"""Auction-based multi-agent grid path finding.

Agents with private integer incentives descend exact-distance potential maps;
conflicts over shared cells are resolved by a strategy-proof turn auction.
Includes CBS baselines, trial metrics, and an experiment harness. The root
exports the README example's names; import the rest from their modules.
"""

from . import auction, cbs, harness, metrics, planner, potential, world
from .metrics import score_trial
from .planner import run_trial
from .world import make_scenario

__version__ = "0.1.0"
