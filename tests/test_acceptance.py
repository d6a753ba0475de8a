"""End-to-end acceptance suite.

Each test is one acceptance criterion; `pytest -v` prints one pass/fail line
per criterion. The heavier criteria (full trial matrices, CBS timeouts) live
here rather than in the per-module suites.
"""

import csv
import itertools
import math
import random
import statistics
import time
from fractions import Fraction

from auctionmapf.auction import (
    Bid,
    harmonic_schedule,
    payment,
    run_auction,
    sweep_utilities,
)
from auctionmapf.cbs import execute_multihop, path_time_to_goal, plan_cbs, run_cbs_trial
from auctionmapf.harness import parse_config, run_experiment
from auctionmapf.metrics import score_trial
from auctionmapf.planner import run_trial
from auctionmapf.world import (
    AgentState,
    GridWorld,
    MoveAction,
    Scenario,
    make_scenario,
    sweep_cells,
)

from helpers import joint_soc_oracle, sweep_collisions

F = Fraction

# grid dimensions and gap sizes per (kind, n_agents) chosen so placement is
# feasible at every agent count; the same map is reused across criteria
GEOMETRY = {
    ("doorway", 4): (10, 10, 1),
    ("doorway", 10): (10, 10, 1),
    ("doorway", 20): (14, 14, 2),
    ("doorway", 50): (20, 20, 3),
    ("hallway", 4): (10, 10, 2),
    ("hallway", 10): (10, 10, 2),
    ("hallway", 20): (14, 14, 3),
    ("hallway", 50): (20, 20, 3),
    ("intersection", 4): (12, 12, 3),
    ("intersection", 10): (12, 12, 3),
    ("intersection", 20): (16, 16, 4),
    ("intersection", 50): (24, 24, 5),
}


def _focal_utility(values, others_sorted, focal_value, focal_id, bid, schedule):
    """Focal agent's true-value utility when bidding `bid`, others truthful.

    Independent re-derivation of the mechanism used as a fast oracle: rank
    the bid among the others (ties: lower id first), then charge the suffix
    of successor bids weighted by reward drops.
    """
    q = 1
    for other_id, amount in others_sorted:
        if amount > bid or (amount == bid and other_id < focal_id):
            q += 1
    k = len(others_sorted) + 1
    pay = F(0)
    for j in range(q, k):
        # the bid at global position j+1 is the j-th entry of others_sorted
        pay += others_sorted[j - 1][1] * (schedule.alpha(j) - schedule.alpha(j + 1))
    return focal_value * schedule.alpha(q) - pay


def test_criterion_01_truthful_bidding_is_dominant():
    rng = random.Random(20240817)
    bid_grid = [F(i, 2) for i in range(0, 31)]  # 0.5 steps over [0, 15]
    start = time.monotonic()
    checked = 0
    for trial in range(1000):
        k = rng.randint(2, 6)
        values = [F(rng.randint(1, 10)) for _ in range(k)]
        schedule = harmonic_schedule(k)
        truthful = run_auction(
            [Bid(i, v) for i, v in enumerate(values)],
            schedule,
            {i: v for i, v in enumerate(values)},
        )
        for focal in range(k):
            others = sorted(
                ((i, values[i]) for i in range(k) if i != focal),
                key=lambda iv: (-iv[1], iv[0]),
            )
            base = truthful.utilities[focal]
            lean_truthful = _focal_utility(
                values, others, values[focal], focal, values[focal], schedule
            )
            assert lean_truthful == base  # oracle agrees with the mechanism
            for bid in bid_grid:
                deviating = _focal_utility(
                    values, others, values[focal], focal, bid, schedule
                )
                assert base >= deviating
                checked += 1
    elapsed = time.monotonic() - start
    assert checked >= 1000 * 2 * len(bid_grid)
    assert elapsed < 10.0


def test_criterion_02_allocation_maximizes_welfare():
    rng = random.Random(555)
    start = time.monotonic()
    for trial in range(500):
        k = rng.randint(2, 6)
        values = [F(rng.randint(1, 10)) for _ in range(k)]
        schedule = harmonic_schedule(k)
        outcome = run_auction([Bid(i, v) for i, v in enumerate(values)], schedule)
        best = max(
            sum(v * schedule.alpha(q) for q, v in enumerate(perm, start=1))
            for perm in itertools.permutations(values)
        )
        assert outcome.welfare == best
    assert time.monotonic() - start < 10.0


def test_criterion_03_payment_worked_example_exact():
    schedule = harmonic_schedule(3)
    amounts = [F(7), F(4), F(2)]
    assert [payment(amounts, q, schedule) for q in (1, 2, 3)] == [F(7, 3), F(1, 3), F(0)]
    outcome = run_auction([Bid(0, F(7)), Bid(1, F(4)), Bid(2, F(2))], schedule)
    assert outcome.payments == {0: F(7, 3), 1: F(1, 3), 2: F(0)}
    assert outcome.utilities == {0: F(14, 3), 1: F(5, 3), 2: F(2, 3)}


def test_criterion_04_auction_solver_never_collides():
    start = time.monotonic()
    for kind in ("doorway", "hallway", "intersection"):
        for n in (4, 10, 20, 50):
            width, height, gap = GEOMETRY[(kind, n)]
            for seed in range(100):
                scenario = make_scenario(kind, width, height, n, gap_size=gap, rng_seed=seed)
                trace = run_trial(scenario, resolver="auction")
                assert trace.collisions == [], (kind, n, seed)
                assert sweep_collisions(trace) == [], (kind, n, seed)
    assert time.monotonic() - start < 300.0


def test_criterion_05_obstacle_scaling_zero_collisions_within_budget():
    for n_obstacles in (10, 15, 20, 25):
        for seed in range(100):
            n_agents = 4 + seed % 12  # agents 4..15
            scenario = make_scenario(
                "random-obstacles", 10, 10, n_agents, rng_seed=seed,
                n_obstacles=n_obstacles,
            )
            t0 = time.monotonic()
            trace = run_trial(scenario, resolver="auction")
            runtime = time.monotonic() - t0
            assert trace.collisions == [], (n_obstacles, seed)
            assert sweep_collisions(trace) == [], (n_obstacles, seed)
            assert runtime <= 5.0, (n_obstacles, seed, runtime)


def _crossing_scenario():
    grid = GridWorld(5, 5)
    agents = [
        AgentState(id=0, pos=(2, 0), goal=(2, 4), incentive=3),
        AgentState(id=1, pos=(0, 2), goal=(4, 2), incentive=3),
    ]
    return Scenario(grid=grid, agents=agents, kind="custom")


def test_criterion_06_crossing_micro_scenario():
    # of the 9 joint step choices, exactly 4 collide (5/9 are collision-free)
    colliding = 0
    for tau_a in (1, 2, 3):
        for tau_b in (1, 2, 3):
            sweep_a = set(sweep_cells((2, 0), MoveAction("right", tau_a)))
            sweep_b = set(sweep_cells((0, 2), MoveAction("down", tau_b)))
            if sweep_a & sweep_b:
                colliding += 1
    assert colliding == 4
    trace = run_trial(_crossing_scenario(), resolver="auction")
    assert trace.completed
    assert trace.collisions == []
    assert sweep_collisions(trace) == []
    waits = [ln for ln in trace.lines if ln.waiting]
    assert len(waits) == 1  # losing contender waits exactly one tick


def test_criterion_07_cbs_collides_and_times_out():
    means = {}
    for gap in (1, 9):
        counts = []
        for seed in range(100):
            scenario = make_scenario("intersection", 11, 11, 3, gap_size=gap, rng_seed=seed)
            trace, result = run_cbs_trial(scenario, noise_sigma=0.3, variant="cbs")
            counts.append(len(trace.collisions) if trace is not None else 0)
        means[gap] = statistics.mean(counts)
    assert means[1] > 0
    assert means[1] > means[9]
    timeouts = 0
    trials = 6
    for seed in range(trials):
        scenario = make_scenario("intersection", 11, 11, 6, gap_size=1, rng_seed=seed)
        _, result = run_cbs_trial(scenario, noise_sigma=0.3, variant="cbs", timeout=20.0)
        timeouts += result.timed_out
    assert timeouts / trials > 0.5


def test_criterion_08_auction_welfare_dominates_random_ordering():
    intersection_diffs = []
    for kind in ("doorway", "hallway", "intersection"):
        for n in (4, 10, 20):
            width, height, gap = GEOMETRY[(kind, n)]
            diffs = []
            for seed in range(100):
                scenario = make_scenario(kind, width, height, n, gap_size=gap, rng_seed=seed)
                auction = score_trial(
                    run_trial(scenario, resolver="auction"), scenario, 0.0, "auction"
                )
                baseline = score_trial(
                    run_trial(scenario, resolver="random-ordering"),
                    scenario, 0.0, "random-ordering",
                )
                diffs.append(auction.welfare - baseline.welfare)
            mean_diff = statistics.mean(diffs)
            assert mean_diff >= 0, (kind, n, mean_diff)
            if kind == "intersection":
                intersection_diffs.extend(diffs)
    # the gap must be statistically positive in the intersection scenario
    # (paired per-seed differences, pooled over the agent counts)
    mean_diff = statistics.mean(intersection_diffs)
    half_width = 1.96 * statistics.stdev(intersection_diffs) / math.sqrt(
        len(intersection_diffs)
    )
    assert mean_diff > half_width, (mean_diff, half_width)


def test_criterion_09_utility_curves_peak_at_true_incentive():
    bid_grid = [F(i, 2) for i in range(0, 2 * 2 * 10 + 1)]
    for seed in range(100):
        scenario = make_scenario(
            "hallway", 10, 10, 4, gap_size=2, rng_seed=seed, incentive_range=(1, 10)
        )
        bids = [Bid(a.id, F(a.incentive)) for a in scenario.agents]
        schedule = harmonic_schedule(4)
        for agent in scenario.agents:
            curve = dict(sweep_utilities(bids, agent.id, bid_grid, schedule))
            assert curve[F(agent.incentive)] == max(curve.values()), (seed, agent.id)


def test_criterion_10_cbs_matches_joint_search_optimum():
    for seed in range(50):
        scenario = make_scenario(
            "random-obstacles", 5, 5, 3, rng_seed=seed,
            n_obstacles=seed % 5, incentive_range=(1, 1),
        )
        result = plan_cbs(scenario, noise_sigma=0.0)
        assert not result.timed_out
        soc = sum(path_time_to_goal(p) for p in result.paths.values())
        optimum = joint_soc_oracle(
            scenario.grid,
            [a.pos for a in scenario.agents],
            [a.goal for a in scenario.agents],
        )
        assert soc == optimum, seed
        trace = execute_multihop(result.paths, {a.id: 1 for a in scenario.agents})
        assert trace.collisions == []


def test_criterion_11_repeat_runs_identical_modulo_runtime(tmp_path):
    cfg_text = (
        "kind = doorway, intersection\nwidth = 10\nheight = 10\nn_agents = 4\n"
        "gap_size = 3\ntrials = 3\nsolvers = auction, fifo, cbs\nbase_seed = 99\n"
    )
    for name in ("first", "second"):
        run_experiment(parse_config(cfg_text), out_dir=str(tmp_path / name))
    stripped = []
    for name in ("first", "second"):
        with open(tmp_path / name / "trials.csv") as fh:
            rows = list(csv.reader(fh))
        idx = rows[0].index("runtime_s")
        stripped.append("\n".join(",".join(v for i, v in enumerate(r) if i != idx) for r in rows))
    assert stripped[0] == stripped[1]
    assert len(stripped[0].splitlines()) == 1 + 2 * 3 * 3
