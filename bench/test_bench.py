"""Fast self-tests for the benchmark's own code.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import random
import statistics
import sys
import types

import pytest

import checks
import layers
import run
import spans
from workloads import WORKLOADS, Cell, select, stratified

if str(run.SRC) not in sys.path:
    sys.path.insert(0, str(run.SRC))

from auctionmapf.cbs import run_cbs_trial  # noqa: E402
from auctionmapf.planner import run_trial  # noqa: E402
from auctionmapf.world import AgentState, GridWorld, Scenario, make_scenario  # noqa: E402


def _crossing():
    grid = GridWorld(5, 5)
    agents = [
        AgentState(id=0, pos=(2, 0), goal=(2, 4), incentive=3),
        AgentState(id=1, pos=(0, 2), goal=(4, 2), incentive=3),
    ]
    return Scenario(grid=grid, agents=agents, kind="custom")


# -- percentiles ------------------------------------------------------------

def test_percentile_matches_inclusive_quantiles():
    rng = random.Random(3)
    for n in (2, 3, 10, 101):
        xs = [rng.random() for _ in range(n)]
        expected = statistics.quantiles(xs, n=10, method="inclusive")
        got = [run.percentile(xs, q / 10) for q in range(1, 10)]
        assert got == pytest.approx(expected)


def test_percentile_edges():
    assert run.percentile([5.0], 0.9) == 5.0
    assert run.percentile([1.0, 2.0, 3.0, 4.0], 0.0) == 1.0
    assert run.percentile([1.0, 2.0, 3.0, 4.0], 1.0) == 4.0
    assert run.quartiles([4.0, 1.0, 3.0, 2.0, 5.0]) == [2.0, 3.0, 4.0]
    with pytest.raises(ValueError):
        run.percentile([], 0.5)
    with pytest.raises(ValueError):
        run.percentile([1.0], 1.5)


# -- spans ------------------------------------------------------------------

class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_enclosed_spans():
    clock = FakeClock()
    rec = spans.Recorder(clock)

    def leaf():
        clock.now += 2.0

    def observed(rec_, args, kwargs, result):
        clock.now += 100.0  # observer time must not land in any span

    leaf = rec.wrap("leaf", leaf, observe=observed)

    def root():
        clock.now += 1.0
        leaf()
        clock.now += 0.5
        leaf()

    root = rec.wrap("root", root)
    root()
    assert rec.calls == {"leaf": 2, "root": 1}
    assert rec.self_s["leaf"] == pytest.approx(4.0)
    assert rec.self_s["root"] == pytest.approx(1.5)
    assert rec.observe_s == pytest.approx(200.0)
    assert spans.check_coverage(rec, 205.5) == pytest.approx(1.0)
    with pytest.raises(spans.TraceGuardError):
        spans.check_coverage(rec, 300.0)


def test_span_closes_when_the_call_raises():
    clock = FakeClock()
    rec = spans.Recorder(clock)

    def boom():
        clock.now += 1.0
        raise KeyError("x")

    boom = rec.wrap("boom", boom)
    with pytest.raises(KeyError):
        boom()
    assert rec.calls == {"boom": 1} and rec.self_s["boom"] == 1.0
    assert rec._open == []


def test_traced_patches_restores_and_guards():
    mod = types.SimpleNamespace(__name__="fake.mod", f=lambda x: x + 1)
    pkg = types.SimpleNamespace(mod=mod)
    original = mod.f
    rec = spans.Recorder()
    with spans.traced(pkg, rec, [("mod", "f", "mod.f", None)]):
        assert mod.f(1) == 2
        spans.require_calls(rec, ["mod.f"])
        with pytest.raises(spans.TraceGuardError):
            spans.require_calls(rec, ["mod.g"])
    assert mod.f is original
    with pytest.raises(spans.TraceGuardError):
        with spans.traced(pkg, rec, [("mod", "f", "mod.f", None), ("mod", "gone", "x", None)]):
            pass
    assert mod.f is original


def test_every_trial_target_exists_in_the_package():
    import auctionmapf as pkg

    with spans.traced(pkg, spans.Recorder(), layers.SETUP_TARGETS + layers.TRIAL_TARGETS):
        pass


# -- digests and invariants -------------------------------------------------

def test_planner_digest_is_stable_and_sees_payments():
    a = run_trial(_crossing())
    b = run_trial(_crossing())
    assert checks.planner_digest(a) == checks.planner_digest(b)
    assert a.conflicts, "the crossing scenario must hold one auction"
    rc = b.conflicts[0]
    aid = rc.contenders[0]
    rc.ordering.payments[aid] += 1
    assert checks.planner_digest(a) != checks.planner_digest(b)


def test_planner_invariants_pass_and_catch_violations():
    scenario = _crossing()
    trace = run_trial(scenario)
    assert checks.check_planner_trace(scenario, trace) == []
    bad = run_trial(scenario)
    bad.configurations[1][0] = (0, 0)  # agent 0 jumps diagonally
    assert any("diagonally" in p for p in checks.check_planner_trace(scenario, bad))
    bad = run_trial(scenario)
    bad.configurations[1][1] = bad.configurations[1][0]  # both on one cell
    assert any("share a cell" in p for p in checks.check_planner_trace(scenario, bad))
    slow = _crossing()
    slow.agents[0].incentive = 1
    assert any("> incentive" in p for p in checks.check_planner_trace(slow, trace))


def test_cbs_digest_and_path_check():
    scenario = make_scenario("intersection", 11, 11, 3, gap_size=9, rng_seed=4)
    trace, result = run_cbs_trial(scenario, noise_sigma=0.3)
    again, result2 = run_cbs_trial(scenario, noise_sigma=0.3)
    assert checks.cbs_digest(trace, result) == checks.cbs_digest(again, result2)
    assert checks.check_cbs_paths(scenario, result.paths) == []
    paths = {0: [(5, 0), (5, 1)], 1: [(5, 1), (5, 0)]}
    two = Scenario(
        grid=GridWorld(11, 11),
        agents=[
            AgentState(id=0, pos=(5, 0), goal=(5, 1), incentive=1),
            AgentState(id=1, pos=(5, 1), goal=(5, 0), incentive=1),
        ],
        kind="custom",
    )
    assert any("swap" in p for p in checks.check_cbs_paths(two, paths))


# -- workloads and the benchmark definition ---------------------------------

def _reference():
    return json.loads(run.REFERENCE.read_text())


def test_stratified_draws_one_per_stratum():
    ranked = list(range(100))
    picks = stratified(ranked, 10, random.Random(1))
    assert [p // 10 for p in picks] == list(range(10))
    assert stratified(ranked, 4, None) == [12, 37, 62, 87]
    with pytest.raises(ValueError):
        stratified(ranked, 101, random.Random(1))


def test_selection_is_a_function_of_the_seed():
    reference = _reference()
    for workload in WORKLOADS.values():
        first = select(workload, 7, reference)
        assert first == select(workload, 7, reference)
        keys = [cell.key(seed) for cell, seed in first]
        assert len(set(keys)) == len(keys)
        assert all(key in reference for key in keys)

    def keys(name, seed):
        return {cell.key(s) for cell, s in select(WORKLOADS[name], seed, reference)}

    assert keys("crossing-flow", 1) != keys("crossing-flow", 2)
    assert keys("hallway-jam", 1) == keys("hallway-jam", 2)


def test_cbs_pool_skips_the_excluded_instances():
    workload = WORKLOADS["cbs-solve"]
    chosen = {cell.key(seed) for cell, seed in select(workload, 0, _reference())}
    assert len(chosen) == 197
    gap1 = Cell("intersection", 11, 11, 3, 1)
    assert not chosen & {gap1.key(s) for s in (15, 86, 95)}


def test_benchmark_json_matches_the_code_and_catalogue():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(layers.PER_LAYER)
    catalogue = json.loads((run.BENCH_DIR / "catalogue.json").read_text())
    listed = {m["name"] for m in catalogue["end_to_end"]} | {m["name"] for m in catalogue["per_layer"]}
    assert set(run.E2E_UNITS) | {name for name, _, _ in layers.PER_LAYER} <= listed


def test_per_layer_values_cover_every_metric_and_guard_empty_ratios():
    values = layers.per_layer_values({}, {})
    assert set(values) == {name for name, _, _ in layers.PER_LAYER}
    assert values["cbs.low_level.fail_ratio"] == 0.0
    values = layers.per_layer_values(
        {"planner.loop": 2.5}, {"planner.reassign.moved": 1, "planner.reassign.offered": 4}
    )
    assert values["planner.loop.self_s"] == 2.5
    assert values["planner.reassign.success_ratio"] == 0.25
