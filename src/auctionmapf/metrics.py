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
from typing import Iterable, Sequence

from .planner import SimulationTrace
from .world import Scenario

UTILITY_CURVE_COLUMNS = ["agent_id", "true_value", "bid", "utility"]


@dataclass
class TrialRecord:
    """One trials.csv row, a column per field: the identity fields, then from
    runtime_s on the measurements that aggregates.csv summarises per group."""

    solver: str
    kind: str
    n_agents: int
    gap_size: int
    n_obstacles: int
    seed: int
    runtime_s: float
    completed: bool
    collisions: int
    soc: int
    weighted_soc: int
    welfare: float
    total_payments: float


TRIALS_COLUMNS = [f.name for f in fields(TrialRecord)]
AGGREGATE_METRICS = TRIALS_COLUMNS[TRIALS_COLUMNS.index("runtime_s"):]


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
    arrived = {aid: t for aid, t in trace.arrival_times.items() if t is not None}
    soc = sum(arrived.values())
    weighted_soc = sum(incentives[aid] * t for aid, t in arrived.items())
    welfare = sum((incentives[aid] / t for aid, t in arrived.items() if t > 0), 0.0)
    welfare += sum(float(incentives[aid]) for aid, t in arrived.items() if t == 0)
    payments = (p for rc in trace.conflicts for p in rc.ordering.payments.values())
    # float()'s own correctly rounded division, without its method call
    total_payments = math.fsum(p.numerator / p.denominator for p in payments)
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
        soc=soc,
        weighted_soc=weighted_soc,
        welfare=welfare,
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
    for key in group_by:
        if key not in TRIALS_COLUMNS:
            raise ValueError(f"unknown grouping field {key!r}")
    groups: dict[tuple, list[TrialRecord]] = {}
    for rec in records:
        key = tuple(getattr(rec, k) for k in group_by)
        groups.setdefault(key, []).append(rec)
    out = []
    # each key position is one field, so the tuples compare by value
    for key in sorted(groups):
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
    """Every cell through `_csv_field`, in every CSV the package writes."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(map(_csv_field, row) for row in rows)
    return buf.getvalue()


def trials_csv(records: Iterable[TrialRecord]) -> str:
    return _csv(TRIALS_COLUMNS, ([getattr(rec, k) for k in TRIALS_COLUMNS] for rec in records))


def aggregates_csv(records: Sequence[AggregateRecord], group_by: Sequence[str]) -> str:
    header = list(group_by) + ["count"]
    header += [f"{metric}_{stat}" for metric in AGGREGATE_METRICS for stat in ("mean", "std", "ci95")]
    rows = (
        [rec.group[k] for k in group_by]
        + [rec.count]
        + [v for metric in AGGREGATE_METRICS for v in rec.stats[metric]]
        for rec in records
    )
    return _csv(header, rows)


def utility_curves_csv(curves: Iterable[tuple[int, float, float, float]]) -> str:
    """Rows of (agent_id, true_value, bid, utility)."""
    return _csv(UTILITY_CURVE_COLUMNS, curves)
