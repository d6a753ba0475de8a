"""Experiment runner: parameter sweeps over seeded trials, CSV artifacts.

Config files are flat text, one `key = value` per line (# comments allowed).
Every trial's seed derives from (base_seed, solver, kind, sweep point, trial
index) through SHA-256, so runs are reproducible across machines and the
worker pool; only the runtime_s column varies between runs.
"""

from __future__ import annotations

import concurrent.futures  # lazy: multiprocessing loads only when a pool starts
import hashlib
import os
import time as _time
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from math import inf
from pathlib import Path
from typing import Optional

from . import cbs as cbs_mod
from . import metrics as metrics_mod
from . import planner as planner_mod
from .auction import Bid, harmonic_schedule, sweep_utilities
from .world import SCENARIO_KINDS, Scenario, make_scenario

PLANNER_SOLVERS = planner_mod.RESOLVERS
CBS_SOLVERS = cbs_mod.CBS_VARIANTS
ALL_SOLVERS = PLANNER_SOLVERS + CBS_SOLVERS

SWEEP_FIELDS = ("n_agents", "gap_size", "n_obstacles", "none")

OUTPUT_DIR_ENV = "AUCTIONMAPF_OUT_DIR"


class ConfigError(ValueError):
    pass


@dataclass
class ExperimentConfig:
    kinds: tuple[str, ...] = ("intersection",)
    width: int = 10
    height: int = 10
    n_agents: int = 4
    gap_size: int = 3
    n_obstacles: int = 0
    incentive_range: tuple[int, int] = (1, 3)
    sweep: str = "none"
    sweep_values: tuple[int, ...] = ()
    trials: int = 100
    solvers: tuple[str, ...] = ("auction",)
    noise_sigma: float = 0.3
    timeout: float = 20.0
    base_seed: int = 0
    out_dir: str = "results"
    jobs: int = 1

    def validate(self) -> None:
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        # written as chained comparisons so that NaN fails them too
        if not 0 < self.timeout < inf:
            raise ConfigError("timeout must be positive and finite")
        if not 0 <= self.noise_sigma < inf:
            raise ConfigError("noise_sigma must be finite and >= 0")
        if self.jobs < 1:
            raise ConfigError("jobs must be >= 1")
        if self.sweep not in SWEEP_FIELDS:
            raise ConfigError(f"sweep must be one of {SWEEP_FIELDS}")
        if self.sweep != "none" and not self.sweep_values:
            raise ConfigError("sweep_values must be nonempty when sweeping")
        if not self.solvers or not self.kinds:
            raise ConfigError("solvers and kind must be nonempty")
        for s in self.solvers:
            if s not in ALL_SOLVERS:
                raise ConfigError(f"unknown solver {s!r}")
        for k in self.kinds:
            if k not in SCENARIO_KINDS or k == "custom":
                raise ConfigError(f"unknown scenario kind {k!r}")

    def sweep_points(self) -> tuple[int, ...]:
        return self.sweep_values if self.sweep != "none" else (self.n_agents,)


def parse_config(text: str) -> ExperimentConfig:
    cfg = ExperimentConfig()
    incentive_min, incentive_max = cfg.incentive_range
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        try:
            if key == "kind":
                cfg.kinds = tuple(v.strip() for v in value.split(","))
            elif key in ("width", "height", "n_agents", "gap_size", "n_obstacles",
                         "trials", "base_seed", "jobs"):
                setattr(cfg, key, int(value))
            elif key == "incentive_min":
                incentive_min = int(value)
            elif key == "incentive_max":
                incentive_max = int(value)
            elif key == "sweep":
                cfg.sweep = value
            elif key == "sweep_values":
                cfg.sweep_values = tuple(int(v) for v in value.split(","))
            elif key == "solvers":
                cfg.solvers = tuple(v.strip() for v in value.split(","))
            elif key in ("noise_sigma", "timeout"):
                setattr(cfg, key, float(value))
            elif key == "out_dir":
                cfg.out_dir = value
            else:
                raise ConfigError(f"line {lineno}: unknown key {key!r}")
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: {exc}") from exc
    cfg.incentive_range = (incentive_min, incentive_max)
    cfg.validate()
    return cfg


def trial_seed(base_seed: int, solver: str, kind: str, point: int, index: int) -> int:
    digest = hashlib.sha256(
        f"{base_seed}:{solver}:{kind}:{point}:{index}".encode()
    ).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def build_scenario(cfg: ExperimentConfig, kind: str, point: int, seed: int) -> Scenario:
    params = {
        "n_agents": cfg.n_agents,
        "gap_size": cfg.gap_size,
        "n_obstacles": cfg.n_obstacles,
    }
    if cfg.sweep != "none":
        params[cfg.sweep] = point
    return make_scenario(
        kind,
        width=cfg.width,
        height=cfg.height,
        incentive_range=cfg.incentive_range,
        rng_seed=seed,
        **params,
    )


def run_one_trial(cfg: ExperimentConfig, solver: str, kind: str, point: int, index: int):
    seed = trial_seed(cfg.base_seed, solver, kind, point, index)
    scenario = build_scenario(cfg, kind, point, seed)
    t0 = _time.monotonic()
    if solver in PLANNER_SOLVERS:
        trace = planner_mod.run_trial(scenario, resolver=solver, timeout=cfg.timeout)
        runtime = _time.monotonic() - t0
    else:
        trace, result = cbs_mod.run_cbs_trial(
            scenario,
            noise_sigma=cfg.noise_sigma,
            variant=solver,
            timeout=cfg.timeout,
        )
        runtime = result.elapsed
        if trace is None:
            trace = planner_mod.SimulationTrace(
                configurations=[[a.pos for a in scenario.agents]],
                conflicts=[],
                collisions=[],
                arrival_times={a.id: None for a in scenario.agents},
                lines=[],
                ticks=0,
                completed=False,
                timed_out=True,
            )
    return metrics_mod.score_trial(trace, scenario, runtime, solver)


def _out_dir(cfg: ExperimentConfig, out_dir: Optional[str]) -> Path:
    path = Path(out_dir or os.environ.get(OUTPUT_DIR_ENV) or cfg.out_dir)
    path.mkdir(parents=True, exist_ok=True)
    return path


def run_experiment(
    cfg: ExperimentConfig, out_dir: Optional[str] = None
) -> list[metrics_mod.TrialRecord]:
    """Run the full sweep and write trials.csv / aggregates.csv.

    Trials run in min(cfg.jobs, trials, CPUs) worker processes, or serially
    for one; records come back in key order, so artifacts ignore jobs.
    """
    cfg.validate()
    out_dir = _out_dir(cfg, out_dir)
    keys = [
        (solver, kind, point, index)
        for solver in cfg.solvers
        for kind in cfg.kinds
        for point in cfg.sweep_points()
        for index in range(cfg.trials)
    ]
    map_args = (run_one_trial, repeat(cfg), *zip(*keys))
    # the executor starts every worker up front, so never more than can run
    workers = min(cfg.jobs, len(keys), os.cpu_count() or 1)
    if workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(*map_args))
    else:
        records = list(map(*map_args))

    group_field = cfg.sweep if cfg.sweep != "none" else "n_agents"
    group_by = ("solver", "kind", group_field)
    aggs = metrics_mod.aggregate(records, group_by)
    (out_dir / "trials.csv").write_text(metrics_mod.trials_csv(records))
    (out_dir / "aggregates.csv").write_text(metrics_mod.aggregates_csv(aggs, group_by))
    return records


def sweep_utility_experiment(
    cfg: ExperimentConfig, out_dir: Optional[str] = None
) -> list[tuple[int, float, float, float]]:
    """Utility-vs-bid curves for one conflict's contenders (plot data).

    The contenders and their true incentives come from the configured
    scenario; every other agent bids truthfully while the focal agent's bid
    sweeps 0 to twice the largest incentive in steps of 1/2.
    """
    cfg.validate()
    out_dir = _out_dir(cfg, out_dir)
    kind = cfg.kinds[0]
    seed = trial_seed(cfg.base_seed, "sweep-utility", kind, cfg.n_agents, 0)
    scenario = build_scenario(cfg, kind, cfg.n_agents, seed)
    bids = [Bid(a.id, Fraction(a.incentive)) for a in scenario.agents]
    grid = [Fraction(i, 2) for i in range(4 * max(a.incentive for a in scenario.agents) + 1)]
    schedule = harmonic_schedule(len(bids))
    rows = [
        (agent.id, float(agent.incentive), float(bid), float(util))
        for agent in scenario.agents
        for bid, util in sweep_utilities(bids, agent.id, grid, schedule=schedule)
    ]
    (out_dir / "utility_curves.csv").write_text(metrics_mod.utility_curves_csv(rows))
    return rows
