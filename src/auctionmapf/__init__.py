"""Auction-based multi-agent grid path finding.

Agents with private integer incentives descend exact-distance potential maps;
conflicts over shared cells are resolved by a strategy-proof turn auction.
Includes CBS baselines, trial metrics, and an experiment harness.
"""

from .auction import (
    AuctionOutcome,
    Bid,
    RewardSchedule,
    harmonic_schedule,
    run_auction,
    sweep_utilities,
)
from .cbs import CBSResult, execute_multihop, plan_cbs, run_cbs_trial
from .harness import ExperimentConfig, parse_config, run_experiment, sweep_utility_experiment
from .metrics import AggregateRecord, TrialRecord, aggregate, score_trial
from .planner import (
    Conflict,
    SimulationTrace,
    detect_conflicts,
    mover_index,
    run_trial,
    try_reassign,
)
from .world import (
    UNREACHABLE,
    AgentState,
    GridWorld,
    Scenario,
    ScenarioError,
    grid_to_ascii,
    make_scenario,
    scenario_from_json,
    scenario_to_json,
)

__version__ = "0.1.0"
