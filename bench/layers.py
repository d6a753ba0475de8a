"""Which package functions are traced, and how per-layer metrics are formed.

Layers are the package's modules. Each target is a module-level function
the layer above calls through module globals (the planner calls
`propose_move`, `run_auction`; CBS calls `_low_level`), so wrapping the module
attribute times every call. `planner.loop` is `run_trial`'s residual after its
child spans: order-intrusion merging, the safety pass and deadlock checks.
`cbs.ct` is `plan_cbs`'s residual: constraint-tree push/pop, constraint
building and edge-weight sampling.
"""

from __future__ import annotations


def _flooded(rec, args, kwargs, result) -> None:
    rec.add("potential.cells_flooded", sum(v >= 0 for row in result.values for v in row))


def _conflicts(rec, args, kwargs, result) -> None:
    rec.add("planner.conflicts", len(result))


def _reassigned(rec, args, kwargs, result) -> None:
    offered = len(args[0].contenders)
    rec.add("planner.reassign.offered", offered)
    rec.add("planner.reassign.moved", offered - len(result.contenders))


def _contenders(rec, args, kwargs, result) -> None:
    rec.add("auction.contenders", len(args[0]))


def _low_level(rec, args, kwargs, result) -> None:
    rec.add("cbs.low_level.none", result is None)


SETUP_TARGETS = (("world", "make_scenario", "world.make_scenario", None),)

TRIAL_TARGETS = (
    ("planner", "run_trial", "planner.loop", None),
    ("potential", "build_potential_map", "potential.build", _flooded),
    ("planner", "propose_move", "planner.propose", None),
    ("planner", "escape_move", "planner.escape", None),
    ("planner", "detect_conflicts", "planner.detect", _conflicts),
    ("planner", "try_reassign", "planner.reassign", _reassigned),
    ("planner", "run_auction", "auction.run", _contenders),
    ("planner", "harmonic_schedule", "auction.schedule", None),
    ("cbs", "run_cbs_trial", "cbs.trial", None),
    ("cbs", "plan_cbs", "cbs.ct", None),
    ("cbs", "_low_level", "cbs.low_level", _low_level),
    ("cbs", "_first_conflict", "cbs.first_conflict", None),
    ("cbs", "execute_multihop", "cbs.execute", None),
    ("metrics", "score_trial", "metrics.score_trial", None),
)

# (metric, unit, better); the catalogue maps each to the end-to-end metric
# and workload it should move
PER_LAYER = (
    ("world.make_scenario.self_s", "s", "lower"),
    ("world.make_scenario.calls", "count", "lower"),
    ("potential.build.self_s", "s", "lower"),
    ("potential.build.calls", "count", "lower"),
    ("potential.cells_flooded", "count", "lower"),
    ("planner.propose.self_s", "s", "lower"),
    ("planner.propose.calls", "count", "lower"),
    ("planner.escape.self_s", "s", "lower"),
    ("planner.escape.calls", "count", "lower"),
    ("planner.reassign.self_s", "s", "lower"),
    ("planner.reassign.calls", "count", "lower"),
    ("planner.reassign.success_ratio", "ratio", "higher"),
    ("planner.detect.self_s", "s", "lower"),
    ("planner.conflicts", "count", "lower"),
    ("planner.loop.self_s", "s", "lower"),
    ("planner.ticks", "count", "lower"),
    ("planner.moving_tick_ratio", "ratio", "higher"),
    ("planner.guard_waits", "count", "lower"),
    ("planner.deadlocked_trials", "count", "lower"),
    ("auction.run.self_s", "s", "lower"),
    ("auction.run.calls", "count", "lower"),
    ("auction.contenders", "count", "lower"),
    ("auction.schedule.self_s", "s", "lower"),
    ("cbs.low_level.self_s", "s", "lower"),
    ("cbs.low_level.calls", "count", "lower"),
    ("cbs.low_level.fail_ratio", "ratio", "lower"),
    ("cbs.first_conflict.self_s", "s", "lower"),
    ("cbs.first_conflict.calls", "count", "lower"),
    ("cbs.ct.self_s", "s", "lower"),
    ("cbs.ct_expansions", "count", "lower"),
    ("cbs.collisions", "count", "lower"),
    ("cbs.execute.self_s", "s", "lower"),
    ("metrics.score_trial.self_s", "s", "lower"),
)


def ratio(num: float, den: float) -> float:
    """num / den, or 0 where the layer did no work on this workload."""
    return num / den if den else 0.0


def pass_counts(rec, outcome_counts: dict) -> dict:
    """Exact per-pass counts: span calls, observer counts and trace counts."""
    counts = {f"{span}.calls": n for span, n in rec.calls.items()}
    counts.update(rec.counts)
    counts.update(outcome_counts)
    return counts


def per_layer_values(self_s: dict, counts: dict) -> dict:
    """Every PER_LAYER metric from mean self times and one pass's counts."""
    c = counts.get
    derived = {
        "planner.reassign.success_ratio": ratio(
            c("planner.reassign.moved", 0), c("planner.reassign.offered", 0)
        ),
        "planner.moving_tick_ratio": ratio(c("planner.moving_ticks", 0), c("planner.ticks", 0)),
        "cbs.low_level.fail_ratio": ratio(
            c("cbs.low_level.none", 0), c("cbs.low_level.calls", 0)
        ),
    }
    values = {}
    for name, _, _ in PER_LAYER:
        if name in derived:
            values[name] = derived[name]
        elif name.endswith(".self_s"):
            values[name] = self_s.get(name[: -len(".self_s")], 0.0)
        else:
            values[name] = c(name, 0)
    return values
