import csv
import json
import os

import pytest

from auctionmapf.cli import EXIT_CONFIG, EXIT_IO, EXIT_OK, cli
from auctionmapf.harness import (
    ConfigError,
    ExperimentConfig,
    build_scenario,
    parse_config,
    run_experiment,
    run_one_trial,
    sweep_utility_experiment,
    trial_seed,
)
from auctionmapf.metrics import TRIALS_COLUMNS


SMALL_CONFIG = """
# small smoke experiment
kind = doorway
width = 8
height = 8
n_agents = 3
gap_size = 1
trials = 3
solvers = auction, fifo
base_seed = 7
"""


def test_parse_config_defaults_and_overrides():
    cfg = parse_config(SMALL_CONFIG)
    assert cfg.kinds == ("doorway",)
    assert cfg.width == 8 and cfg.height == 8
    assert cfg.n_agents == 3
    assert cfg.trials == 3
    assert cfg.solvers == ("auction", "fifo")
    assert cfg.base_seed == 7
    assert cfg.sweep == "none"
    assert cfg.timeout == 20.0


def test_parse_config_sweep_and_incentives():
    cfg = parse_config(
        "kind = intersection\nsweep = n_agents\nsweep_values = 4, 6, 8\n"
        "incentive_min = 2\nincentive_max = 5\nnoise_sigma = 0.1\n"
    )
    assert cfg.sweep == "n_agents"
    assert cfg.sweep_values == (4, 6, 8)
    assert cfg.incentive_range == (2, 5)
    assert cfg.noise_sigma == 0.1
    assert cfg.sweep_points() == (4, 6, 8)


def test_parse_config_errors():
    with pytest.raises(ConfigError):
        parse_config("no equals sign here")
    with pytest.raises(ConfigError):
        parse_config("unknown_key = 3")
    with pytest.raises(ConfigError):
        parse_config("trials = many")
    with pytest.raises(ConfigError):
        parse_config("solvers = dijkstra")
    with pytest.raises(ConfigError):
        parse_config("kind = labyrinth")
    with pytest.raises(ConfigError):
        parse_config("sweep = gap_size")  # sweeping without values
    with pytest.raises(ConfigError):
        parse_config("jobs = 0")


def test_trial_seed_is_stable_and_distinct():
    a = trial_seed(0, "auction", "doorway", 4, 0)
    assert a == trial_seed(0, "auction", "doorway", 4, 0)
    assert a >= 0
    others = {
        trial_seed(0, "fifo", "doorway", 4, 0),
        trial_seed(0, "auction", "hallway", 4, 0),
        trial_seed(0, "auction", "doorway", 5, 0),
        trial_seed(0, "auction", "doorway", 4, 1),
        trial_seed(1, "auction", "doorway", 4, 0),
    }
    assert a not in others


def test_build_scenario_applies_sweep_point():
    cfg = parse_config("kind = doorway\nsweep = n_agents\nsweep_values = 5\n")
    scenario = build_scenario(cfg, "doorway", 5, seed=3)
    assert len(scenario.agents) == 5


def test_run_one_trial_planner_and_cbs():
    cfg = parse_config("kind = doorway\nwidth = 8\nheight = 8\nn_agents = 2\ntrials = 1\n")
    rec = run_one_trial(cfg, "auction", "doorway", 2, 0)
    assert rec.solver == "auction"
    assert rec.collisions == 0
    rec = run_one_trial(cfg, "cbs", "doorway", 2, 0)
    assert rec.solver == "cbs"
    assert rec.completed


def test_run_experiment_writes_artifacts(tmp_path):
    cfg = parse_config(SMALL_CONFIG)
    records = run_experiment(cfg, out_dir=str(tmp_path))
    assert len(records) == 2 * 3  # solvers x trials
    with open(tmp_path / "trials.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == TRIALS_COLUMNS
    assert len(rows) == 1 + len(records)
    with open(tmp_path / "aggregates.csv") as fh:
        agg_rows = list(csv.reader(fh))
    assert agg_rows[0][:4] == ["solver", "kind", "n_agents", "count"]
    assert len(agg_rows) == 1 + 2  # one aggregate row per solver


def _strip_runtime(path):
    with open(path) as fh:
        rows = list(csv.reader(fh))
    idx = rows[0].index("runtime_s")
    return [[v for i, v in enumerate(row) if i != idx] for row in rows]


def test_run_experiment_deterministic_apart_from_runtime(tmp_path):
    cfg = parse_config(SMALL_CONFIG)
    run_experiment(cfg, out_dir=str(tmp_path / "a"))
    run_experiment(cfg, out_dir=str(tmp_path / "b"))
    assert _strip_runtime(tmp_path / "a" / "trials.csv") == _strip_runtime(
        tmp_path / "b" / "trials.csv"
    )


def test_run_experiment_parallel_matches_serial(tmp_path):
    cfg = parse_config(SMALL_CONFIG)
    run_experiment(cfg, out_dir=str(tmp_path / "serial"), jobs=1)
    run_experiment(cfg, out_dir=str(tmp_path / "parallel"), jobs=2)
    assert _strip_runtime(tmp_path / "serial" / "trials.csv") == _strip_runtime(
        tmp_path / "parallel" / "trials.csv"
    )


def test_sweep_utility_experiment(tmp_path):
    cfg = parse_config("kind = hallway\nn_agents = 4\ngap_size = 2\n")
    rows = sweep_utility_experiment(cfg, out_dir=str(tmp_path))
    assert rows
    text = (tmp_path / "utility_curves.csv").read_text()
    assert text.splitlines()[0] == "agent_id,true_value,bid,utility"
    agent_ids = {r[0] for r in rows}
    assert agent_ids == {0, 1, 2, 3}


def test_cli_auction_demo(capsys):
    assert cli(["auction", "demo", "--bids", "7,4,2"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "7/3" in out and "1/3" in out
    assert "14/3" in out and "5/3" in out and "2/3" in out
    assert "29/3" in out


def test_cli_auction_demo_bad_bids(capsys):
    assert cli(["auction", "demo", "--bids", "7"]) == EXIT_CONFIG
    assert cli(["auction", "demo", "--bids", "seven,four"]) == EXIT_CONFIG


def test_cli_scenario_show(capsys):
    assert cli(["scenario", "show", "doorway", "--gap", "1"]) == EXIT_OK
    out = capsys.readouterr().out
    wall_rows = [line for line in out.splitlines() if "#" in line]
    assert len(wall_rows) == 9  # 10 rows minus the one-cell gap


def test_cli_scenario_gen_emits_json(capsys):
    assert cli(["scenario", "gen", "doorway", "--agents", "3", "--seed", "5"]) == EXIT_OK
    data = json.loads(capsys.readouterr().out)
    assert data["kind"] == "doorway"
    assert len(data["agents"]) == 3


def test_cli_scenario_error(capsys):
    assert cli(["scenario", "show", "labyrinth"]) == EXIT_CONFIG


def test_cli_run_missing_config(capsys):
    assert cli(["run", "does-not-exist.cfg"]) == EXIT_IO


def test_cli_run_bad_config(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("solvers = dijkstra\n")
    assert cli(["run", str(bad)]) == EXIT_CONFIG
    # an override of 0 must fail validation, not fall back to the file's value
    good = tmp_path / "good.cfg"
    good.write_text(SMALL_CONFIG)
    out = tmp_path / "out"
    for flag in ("--trials", "--timeout", "--jobs"):
        assert cli(["run", str(good), "--out", str(out), flag, "0"]) == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err
    assert not out.exists()


def test_cli_run_small_experiment(tmp_path, capsys):
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text(SMALL_CONFIG)
    out_dir = tmp_path / "results"
    code = cli(["run", str(cfg_file), "--out", str(out_dir), "--trials", "2"])
    assert code == EXIT_OK
    assert (out_dir / "trials.csv").exists()
    assert (out_dir / "aggregates.csv").exists()


def test_cli_run_infeasible_geometry(tmp_path, capsys):
    cfg_file = tmp_path / "tight.cfg"
    cfg_file.write_text("kind = doorway\nwidth = 3\nheight = 3\nn_agents = 5\n")
    out = str(tmp_path / "out")
    assert cli(["run", str(cfg_file), "--out", out]) == EXIT_CONFIG
    assert cli(["sweep-utility", str(cfg_file), "--out", out]) == EXIT_CONFIG
    assert "scenario error" in capsys.readouterr().err
    cfg_file.write_text("kind = doorway\nwidth = 0\nheight = 10\nn_agents = 2\n")
    assert cli(["run", str(cfg_file), "--out", out]) == EXIT_CONFIG
    assert "grid dimensions must be positive" in capsys.readouterr().err


def test_cli_unknown_subcommand():
    assert cli(["frobnicate"]) == EXIT_CONFIG


def test_output_dir_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("AUCTIONMAPF_OUT_DIR", str(tmp_path / "env-out"))
    cfg = parse_config("kind = doorway\nn_agents = 2\ntrials = 1\n")
    run_experiment(cfg)
    assert (tmp_path / "env-out" / "trials.csv").exists()


def test_config_validation_direct():
    cfg = ExperimentConfig(trials=0)
    with pytest.raises(ConfigError):
        cfg.validate()
    cfg = ExperimentConfig(timeout=0)
    with pytest.raises(ConfigError):
        cfg.validate()
