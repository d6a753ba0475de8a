"""Experiment runner: parameter sweeps over seeded trials, CSV artifacts.

Config files are flat text, one `key = value` per line (# comments allowed);
each key is a field of ExperimentConfig, which checks its values whenever
one is built, by dataclasses.replace too.
Every trial's seed derives from (base_seed, solver, kind, sweep point, trial
index) through SHA-256, so runs are reproducible across machines and the
worker pool; only the runtime_s column varies between runs.
"""

from __future__ import annotations

import concurrent.futures  # lazy: multiprocessing loads only when a pool starts
import hashlib
import os
import time as _time
from dataclasses import dataclass, fields
from fractions import Fraction
from itertools import repeat
from math import inf
from pathlib import Path

from . import cbs as cbs_mod
from . import metrics as metrics_mod
from . import planner as planner_mod
from .auction import Bid, sweep_utilities
from .world import SCENARIO_KINDS, Scenario, make_scenario

SWEEP_FIELDS = ("n_agents", "gap_size", "n_obstacles", "none")

class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class ExperimentConfig:
    kind: tuple[str, ...] = ("intersection",)
    width: int = 10
    height: int = 10
    n_agents: int = 4
    gap_size: int = 3
    n_obstacles: int = 0
    incentive_min: int = 1
    incentive_max: int = 3
    sweep: str = "none"
    sweep_values: tuple[int, ...] = ()
    trials: int = 100
    solvers: tuple[str, ...] = ("auction",)
    noise_sigma: float = 0.3
    timeout: float = cbs_mod.DEFAULT_TIMEOUT  # seconds per CBS plan; planner trials stop on ticks
    base_seed: int = 0
    jobs: int = 1

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        # written as chained comparisons so that NaN fails them too
        if not 0 < self.timeout < inf:
            raise ConfigError("timeout must be positive and finite")
        if not 0 <= self.noise_sigma <= cbs_mod.MAX_NOISE_SIGMA:
            raise ConfigError(f"noise_sigma must be in [0, {cbs_mod.MAX_NOISE_SIGMA:g}]")
        if self.jobs < 1:
            raise ConfigError("jobs must be >= 1")
        if self.sweep not in SWEEP_FIELDS:
            raise ConfigError(f"sweep must be one of {SWEEP_FIELDS}")
        if (self.sweep != "none") != bool(self.sweep_values):
            raise ConfigError("sweep_values must be given exactly when sweeping")
        if not self.solvers or not self.kind:
            raise ConfigError("solvers and kind must be nonempty")
        for s in self.solvers:
            if s not in planner_mod.RESOLVERS + cbs_mod.CBS_VARIANTS:
                raise ConfigError(f"unknown solver {s!r}")
        for k in self.kind:
            if k not in SCENARIO_KINDS:
                raise ConfigError(f"unknown scenario kind {k!r}")
            # make_scenario reads n_obstacles only for random-obstacles, gap_size only elsewhere
            if self.sweep in ("gap_size", "n_obstacles") and (
                    (k == "random-obstacles") != (self.sweep == "n_obstacles")):
                raise ConfigError(f"sweep {self.sweep} does not shape kind {k!r}")
        for key, values in (("kind", self.kind), ("solvers", self.solvers),
                            ("sweep_values", self.sweep_values)):
            if len(set(values)) < len(values):  # it would replay the same trials
                raise ConfigError(f"{key} repeats an entry")

    @property
    def swept(self) -> str:
        """The scenario field a sweep point sets."""
        return "n_agents" if self.sweep == "none" else self.sweep

    def sweep_points(self) -> tuple[int, ...]:
        return self.sweep_values or (self.n_agents,)


# Each config key is a field; its value is parsed by the field's annotation,
# a string under `from __future__ import annotations`. A field whose
# annotation has no parser fails here, at import.
_PARSE_ANNOTATION = {
    "int": int,
    "float": float,
    "str": str,
    "tuple[str, ...]": lambda value: tuple(v.strip() for v in value.split(",")),
    "tuple[int, ...]": lambda value: tuple(int(v) for v in value.split(",")),
}
_PARSERS = {f.name: _PARSE_ANNOTATION[f.type] for f in fields(ExperimentConfig)}


def parse_config(text: str) -> ExperimentConfig:
    values: dict[str, object] = {}
    seen: dict[str, int] = {}  # key -> the line that set it
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in seen:
            raise ConfigError(f"line {lineno}: {key!r} repeats line {seen[key]}")
        if key not in _PARSERS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        seen[key] = lineno
        try:
            values[key] = _PARSERS[key](value)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: {exc}") from exc
    return ExperimentConfig(**values)


def trial_seed(base_seed: int, solver: str, kind: str, point: int, index: int) -> int:
    digest = hashlib.sha256(
        f"{base_seed}:{solver}:{kind}:{point}:{index}".encode()
    ).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def build_scenario(cfg: ExperimentConfig, kind: str, point: int, seed: int) -> Scenario:
    params = {"n_agents": cfg.n_agents, "gap_size": cfg.gap_size, "n_obstacles": cfg.n_obstacles}
    params[cfg.swept] = point
    return make_scenario(
        kind,
        width=cfg.width,
        height=cfg.height,
        incentive_range=(cfg.incentive_min, cfg.incentive_max),
        rng_seed=seed,
        **params,
    )


def run_one_trial(cfg: ExperimentConfig, solver: str, kind: str, point: int, index: int):
    seed = trial_seed(cfg.base_seed, solver, kind, point, index)
    scenario = build_scenario(cfg, kind, point, seed)
    t0 = _time.monotonic()
    if solver in planner_mod.RESOLVERS:
        # bounded by the planner's tick limit, never by the wall clock
        trace = planner_mod.run_trial(scenario, resolver=solver)
    else:
        trace, _ = cbs_mod.run_cbs_trial(
            scenario, noise_sigma=cfg.noise_sigma, variant=solver, timeout=cfg.timeout
        )
    runtime = _time.monotonic() - t0
    if trace is None:  # no CBS plan within the timeout: nobody moved
        trace = planner_mod.SimulationTrace({a.id: None for a in scenario.agents})
    return metrics_mod.score_trial(trace, scenario, runtime, solver)


def _out_dir(out_dir: str) -> Path:
    path = Path(out_dir)
    path.mkdir(parents=True, exist_ok=True)
    return path


def run_experiment(
    cfg: ExperimentConfig, out_dir: str
) -> list[metrics_mod.TrialRecord]:
    """Run the full sweep and write trials.csv / aggregates.csv.

    Trials run in min(cfg.jobs, trials, CPUs) worker processes, or serially
    for one; records come back in key order, so artifacts ignore jobs.
    """
    out_dir = _out_dir(out_dir)
    keys = [
        (solver, kind, point, index)
        for solver in cfg.solvers
        for kind in cfg.kind
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

    group_by = ("solver", "kind", cfg.swept)
    aggs = metrics_mod.aggregate(records, group_by)
    (out_dir / "trials.csv").write_text(metrics_mod.trials_csv(records))
    (out_dir / "aggregates.csv").write_text(metrics_mod.aggregates_csv(aggs, group_by))
    return records


def sweep_utility_experiment(
    cfg: ExperimentConfig, out_dir: str
) -> list[tuple[int, float, float, float]]:
    """Utility-vs-bid curves for one conflict's contenders (plot data).

    The contenders and their true incentives come from the configured
    scenario; every other agent bids truthfully while the focal agent's bid
    sweeps 0 to twice the largest incentive in steps of 1/2.
    """
    out_dir = _out_dir(out_dir)
    kind = cfg.kind[0]
    seed = trial_seed(cfg.base_seed, "sweep-utility", kind, cfg.n_agents, 0)
    scenario = build_scenario(cfg, kind, getattr(cfg, cfg.swept), seed)
    bids = [Bid(a.id, Fraction(a.incentive)) for a in scenario.agents]
    grid = [Fraction(i, 2) for i in range(4 * max(a.incentive for a in scenario.agents) + 1)]
    rows = [
        (agent.id, float(agent.incentive), float(bid), float(util))
        for agent in scenario.agents
        for bid, util in sweep_utilities(bids, agent.id, grid)
    ]
    (out_dir / "utility_curves.csv").write_text(metrics_mod.utility_curves_csv(rows))
    return rows
