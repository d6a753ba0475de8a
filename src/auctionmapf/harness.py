"""Experiment runner: parameter sweeps over seeded trials, CSV artifacts.

Config files are flat text, one `key = value` per line (# comments allowed).
Every trial's seed derives from (base_seed, solver, kind, sweep point, trial
index) through SHA-256, so runs are reproducible across machines and the
worker pool; only the runtime_s column varies between runs.
"""

from __future__ import annotations

import concurrent.futures
import hashlib
import os
import time as _time
from dataclasses import dataclass
from fractions import Fraction
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
        if self.timeout <= 0:
            raise ConfigError("timeout must be positive")
        if self.jobs < 1:
            raise ConfigError("jobs must be >= 1")
        if self.sweep not in SWEEP_FIELDS:
            raise ConfigError(f"sweep must be one of {SWEEP_FIELDS}")
        if self.sweep != "none" and not self.sweep_values:
            raise ConfigError("sweep_values must be nonempty when sweeping")
        for s in self.solvers:
            if s not in ALL_SOLVERS:
                raise ConfigError(f"unknown solver {s!r}")
        for k in self.kinds:
            if k not in SCENARIO_KINDS or k == "custom":
                raise ConfigError(f"unknown scenario kind {k!r}")

    def sweep_points(self) -> tuple[int, ...]:
        return self.sweep_values if self.sweep != "none" else (getattr(self, "n_agents"),)


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
        n_agents=params["n_agents"],
        gap_size=params["gap_size"],
        incentive_range=cfg.incentive_range,
        rng_seed=seed,
        n_obstacles=params["n_obstacles"],
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


def _worker(args):
    cfg_dict, solver, kind, point, index = args
    cfg = ExperimentConfig(**cfg_dict)
    return (solver, kind, point, index), run_one_trial(cfg, solver, kind, point, index)


def run_experiment(
    cfg: ExperimentConfig, out_dir: Optional[str] = None, jobs: Optional[int] = None
) -> list[metrics_mod.TrialRecord]:
    """Run the full sweep and write trials.csv / aggregates.csv."""
    cfg.validate()
    jobs = jobs if jobs is not None else cfg.jobs
    out_dir = out_dir or os.environ.get(OUTPUT_DIR_ENV) or cfg.out_dir
    os.makedirs(out_dir, exist_ok=True)

    keys = [
        (solver, kind, point, index)
        for solver in cfg.solvers
        for kind in cfg.kinds
        for point in cfg.sweep_points()
        for index in range(cfg.trials)
    ]
    results: dict[tuple, metrics_mod.TrialRecord] = {}
    if jobs > 1:
        cfg_dict = {f: getattr(cfg, f) for f in cfg.__dataclass_fields__}
        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            for key, rec in pool.map(_worker, [(cfg_dict, *k) for k in keys]):
                results[key] = rec
    else:
        for key in keys:
            results[key] = run_one_trial(cfg, *key)

    records = [results[k] for k in keys]
    group_field = cfg.sweep if cfg.sweep != "none" else "n_agents"
    group_by = ("solver", "kind", group_field)
    aggs = metrics_mod.aggregate(records, group_by)

    with open(os.path.join(out_dir, "trials.csv"), "w") as fh:
        fh.write(metrics_mod.trials_csv(records))
    with open(os.path.join(out_dir, "aggregates.csv"), "w") as fh:
        fh.write(metrics_mod.aggregates_csv(aggs, group_by))
    return records


def sweep_utility_experiment(
    cfg: ExperimentConfig,
    out_dir: Optional[str] = None,
    bid_step: Fraction = Fraction(1, 2),
    bid_max: Optional[Fraction] = None,
) -> list[tuple[int, float, float, float]]:
    """Utility-vs-bid curves for one conflict's contenders (plot data).

    The contenders and their true incentives come from the configured
    scenario; every other agent bids truthfully while the focal agent's bid
    sweeps a grid.
    """
    cfg.validate()
    out_dir = out_dir or os.environ.get(OUTPUT_DIR_ENV) or cfg.out_dir
    os.makedirs(out_dir, exist_ok=True)
    kind = cfg.kinds[0]
    seed = trial_seed(cfg.base_seed, "sweep-utility", kind, cfg.n_agents, 0)
    scenario = build_scenario(cfg, kind, cfg.n_agents, seed)
    bids = [Bid(a.id, Fraction(a.incentive)) for a in scenario.agents]
    if bid_max is None:
        bid_max = Fraction(max(a.incentive for a in scenario.agents) * 2)
    grid = []
    x = Fraction(0)
    while x <= bid_max:
        grid.append(x)
        x += bid_step
    schedule = harmonic_schedule(len(bids))
    rows: list[tuple[int, float, float, float]] = []
    for agent in scenario.agents:
        curve = sweep_utilities(bids, agent.id, grid, schedule=schedule)
        for bid, util in curve:
            rows.append((agent.id, float(agent.incentive), float(bid), float(util)))
    with open(os.path.join(out_dir, "utility_curves.csv"), "w") as fh:
        fh.write(metrics_mod.utility_curves_csv(rows))
    return rows
