"""Trial scoring and cross-trial aggregation.

Welfare at the trial level uses realized per-agent rewards 1/t_g; the
per-turn rewards used inside a conflict auction are a separate schedule and
are reported with the auction log, never mixed into these figures.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, fields
from typing import Iterable, Optional, Sequence

from .planner import SimulationTrace
from .world import Scenario

TRIALS_COLUMNS = [
    "solver",
    "kind",
    "n_agents",
    "gap_size",
    "n_obstacles",
    "seed",
    "runtime_s",
    "completed",
    "collisions",
    "soc",
    "weighted_soc",
    "welfare",
]

AGGREGATE_METRICS = ["runtime_s", "collisions", "soc", "weighted_soc", "welfare"]

UTILITY_CURVE_COLUMNS = ["agent_id", "true_value", "bid", "utility"]


@dataclass
class TrialRecord:
    solver: str
    kind: str
    n_agents: int
    gap_size: int
    n_obstacles: int
    seed: int
    runtime_s: float
    completed: bool
    collisions: int
    time_to_goal: dict[int, Optional[int]]
    soc: int
    weighted_soc: int
    welfare: float
    utilities: dict[int, float]
    total_payments: float

    def csv_row(self) -> list:
        return [_csv_field(getattr(self, name)) for name in TRIALS_COLUMNS]


def _csv_field(value):
    """A bool as 0/1, a float to six decimals, anything else as it is."""
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, float):
        return f"{value:.6f}"
    return value


@dataclass
class AggregateRecord:
    group: dict[str, object]
    stats: dict[str, tuple[float, float, float]]  # metric -> (mean, std, ci95)
    count: int


def score_trial(
    trace: SimulationTrace,
    scenario: Scenario,
    runtime_s: float,
    solver: str,
) -> TrialRecord:
    incentives = {a.id: a.incentive for a in scenario.agents}
    t_g = dict(trace.arrival_times)
    arrived = {aid: t for aid, t in t_g.items() if t is not None}
    soc = sum(arrived.values())
    weighted_soc = sum(incentives[aid] * t for aid, t in arrived.items())
    welfare = sum((incentives[aid] / t for aid, t in arrived.items() if t > 0), 0.0)
    welfare += sum(float(incentives[aid]) for aid, t in arrived.items() if t == 0)
    utilities: dict[int, float] = {}
    total_payments = 0.0
    for rc in trace.conflicts:
        for aid, u in rc.ordering.utilities.items():
            utilities[aid] = utilities.get(aid, 0.0) + float(u)
        total_payments += float(sum(rc.ordering.payments.values()))
    return TrialRecord(
        solver=solver,
        kind=scenario.kind,
        n_agents=len(scenario.agents),
        gap_size=scenario.gap_size,
        n_obstacles=scenario.n_obstacles,
        seed=scenario.seed,
        runtime_s=runtime_s,
        completed=trace.completed,
        collisions=len(trace.collisions),
        time_to_goal=t_g,
        soc=soc,
        weighted_soc=weighted_soc,
        welfare=welfare,
        utilities=utilities,
        total_payments=total_payments,
    )


def _mean_std_ci(values: Sequence[float]) -> tuple[float, float, float]:
    n = len(values)
    mean = sum(values) / n
    if n < 2:
        return mean, 0.0, 0.0
    var = sum((v - mean) ** 2 for v in values) / (n - 1)
    std = math.sqrt(var)
    ci95 = 1.96 * std / math.sqrt(n)
    return mean, std, ci95


def aggregate(
    records: Sequence[TrialRecord],
    group_by: Sequence[str] = ("solver", "kind", "n_agents"),
) -> list[AggregateRecord]:
    if not records:
        raise ValueError("no records to aggregate")
    valid = {f.name for f in fields(TrialRecord)}
    for key in group_by:
        if key not in valid:
            raise ValueError(f"unknown grouping field {key!r}")
    groups: dict[tuple, list[TrialRecord]] = {}
    for rec in records:
        key = tuple(getattr(rec, k) for k in group_by)
        groups.setdefault(key, []).append(rec)
    out = []
    for key in sorted(groups, key=lambda k: tuple(str(x) for x in k)):
        members = groups[key]
        stats = {
            metric: _mean_std_ci([float(getattr(r, metric)) for r in members])
            for metric in AGGREGATE_METRICS
        }
        out.append(
            AggregateRecord(
                group=dict(zip(group_by, key)),
                stats=stats,
                count=len(members),
            )
        )
    return out


def _csv(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def trials_csv(records: Iterable[TrialRecord]) -> str:
    return _csv(TRIALS_COLUMNS, (rec.csv_row() for rec in records))


def aggregates_csv(records: Sequence[AggregateRecord], group_by: Sequence[str]) -> str:
    header = list(group_by) + ["count"]
    header += [f"{metric}_{stat}" for metric in AGGREGATE_METRICS for stat in ("mean", "std", "ci95")]
    rows = (
        [rec.group[k] for k in group_by]
        + [rec.count]
        + [f"{v:.6f}" for metric in AGGREGATE_METRICS for v in rec.stats[metric]]
        for rec in records
    )
    return _csv(header, rows)


def utility_curves_csv(curves: Iterable[tuple[int, float, float, float]]) -> str:
    """Rows of (agent_id, true_value, bid, utility)."""
    rows = (
        [agent_id, f"{true_value:.6f}", f"{bid:.6f}", f"{util:.6f}"]
        for agent_id, true_value, bid, util in curves
    )
    return _csv(UTILITY_CURVE_COLUMNS, rows)
