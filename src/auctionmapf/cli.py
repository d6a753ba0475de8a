"""Command-line interface.

Subcommands:
  run <config>           run an experiment sweep, writing CSV artifacts
  scenario gen|show ...  build a scenario; gen prints JSON, show prints ASCII
  auction demo ...       run one auction from explicit bids
  sweep-utility <config> emit utility-vs-bid curve data

Exit codes: 0 success, 2 malformed config, scenario or bid, 3 I/O error.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from . import harness
from .auction import Bid, RewardSchedule, harmonic_schedule, run_auction
from .world import ScenarioError, grid_to_ascii, make_scenario, scenario_to_json

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="auctionmapf")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run an experiment from a config file")
    run_p.add_argument("config")
    run_p.add_argument("--out", help="output directory (overrides config)")
    run_p.add_argument("--jobs", type=int, help="parallel trial workers")
    run_p.add_argument("--trials", type=int, help="override trials per point")
    run_p.add_argument("--timeout", type=float, help="override per-trial timeout (s)")

    scen_p = sub.add_parser("scenario", help="generate or display scenarios")
    scen_p.add_argument("action", choices=["gen", "show"])
    scen_p.add_argument("kind")
    scen_p.add_argument("--width", type=int, default=10)
    scen_p.add_argument("--height", type=int, default=10)
    scen_p.add_argument("--agents", type=int, default=2)
    scen_p.add_argument("--gap", type=int, default=1)
    scen_p.add_argument("--obstacles", type=int, default=0)
    scen_p.add_argument("--incentive-min", type=int, default=1)
    scen_p.add_argument("--incentive-max", type=int, default=3)
    scen_p.add_argument("--seed", type=int, default=0)

    auc_p = sub.add_parser("auction", help="auction utilities")
    auc_p.add_argument("action", choices=["demo"])
    auc_p.add_argument("--bids", required=True, help="comma-separated bid amounts")
    auc_p.add_argument("--schedule", help="comma-separated per-turn rewards (default 1/q)")

    sweep_p = sub.add_parser("sweep-utility", help="utility-vs-bid curve data")
    sweep_p.add_argument("config")
    sweep_p.add_argument("--out", help="output directory (overrides config)")
    return parser


def _load_config(path: str, args) -> harness.ExperimentConfig:
    with open(path) as fh:
        cfg = harness.parse_config(fh.read())
    # an override of 0 is applied too, so validation rejects it
    for key in ("trials", "timeout", "jobs"):
        value = getattr(args, key, None)
        if value is not None:
            setattr(cfg, key, value)
    return cfg


def _cmd_run(args) -> int:
    records = harness.run_experiment(_load_config(args.config, args), out_dir=args.out)
    print(f"wrote {len(records)} trial records")
    return EXIT_OK


def _cmd_scenario(args) -> int:
    scenario = make_scenario(
        args.kind,
        width=args.width,
        height=args.height,
        n_agents=args.agents,
        gap_size=args.gap,
        incentive_range=(args.incentive_min, args.incentive_max),
        rng_seed=args.seed,
        n_obstacles=args.obstacles,
    )
    if args.action == "gen":
        print(scenario_to_json(scenario))
    else:
        print(grid_to_ascii(scenario.grid))
        for a in scenario.agents:
            print(f"agent {a.id}: start {a.pos} goal {a.goal} incentive {a.incentive}")
    return EXIT_OK


def _parse_fractions(text: str) -> list[Fraction]:
    return [Fraction(part) for part in text.split(",")]


def _cmd_auction(args) -> int:
    # every input comes from the command line, so a rejection by the parse,
    # the bid and schedule checks or the auction itself is a config error
    try:
        bids = [Bid(i, amount) for i, amount in enumerate(_parse_fractions(args.bids))]
        if args.schedule:
            schedule = RewardSchedule(tuple(_parse_fractions(args.schedule)))
        else:
            schedule = harmonic_schedule(len(bids))
        outcome = run_auction(bids, schedule=schedule)
    except (ValueError, ZeroDivisionError) as exc:
        raise harness.ConfigError(f"auction demo: {exc}") from exc
    order = outcome.turn_order()
    print("turn order (agent ids):", order)
    print("turns:", {aid: outcome.ordering[aid] for aid in sorted(outcome.ordering)})
    print("payments:", {aid: str(outcome.payments[aid]) for aid in sorted(outcome.payments)})
    print("utilities:", {aid: str(outcome.utilities[aid]) for aid in sorted(outcome.utilities)})
    print("welfare:", str(outcome.welfare))
    return EXIT_OK


def _cmd_sweep_utility(args) -> int:
    rows = harness.sweep_utility_experiment(_load_config(args.config, args), out_dir=args.out)
    print(f"wrote {len(rows)} utility-curve points")
    return EXIT_OK


_COMMANDS = {
    "run": _cmd_run,
    "scenario": _cmd_scenario,
    "auction": _cmd_auction,
    "sweep-utility": _cmd_sweep_utility,
}


def cli(argv=None) -> int:
    """Run one subcommand; the only place errors become exit codes.

    Only the typed input errors are caught, so a bug still shows a traceback.
    """
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    try:
        return _COMMANDS[args.command](args)
    except (harness.ConfigError, UnicodeDecodeError) as exc:
        # a config file that does not decode as text is malformed too
        message, code = f"config error: {exc}", EXIT_CONFIG
    except ScenarioError as exc:
        message, code = f"scenario error: {exc}", EXIT_CONFIG
    except OSError as exc:
        message, code = f"I/O error: {exc}", EXIT_IO
    print(message, file=sys.stderr)
    return code


def main() -> None:
    sys.exit(cli())


if __name__ == "__main__":
    main()
