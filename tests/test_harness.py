import csv
import dataclasses
import hashlib
import io
import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from auctionmapf import harness
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


# CBS values that validate() rejects: a negative or non-finite noise_sigma,
# a non-finite timeout
BAD_CBS_LINES = (
    "noise_sigma = -1",
    "noise_sigma = nan",
    "noise_sigma = inf",
    "timeout = nan",
    "timeout = inf",
)


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
    for line in BAD_CBS_LINES:
        with pytest.raises(ConfigError):
            parse_config(line)



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


def test_run_experiment_parallel_matches_serial(tmp_path, monkeypatch):
    # the worker bound counts CPUs; two keep the pool in use on any machine
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    cfg = parse_config(SMALL_CONFIG)
    run_experiment(dataclasses.replace(cfg, jobs=1), out_dir=str(tmp_path / "serial"))
    run_experiment(dataclasses.replace(cfg, jobs=2), out_dir=str(tmp_path / "parallel"))
    assert _strip_runtime(tmp_path / "serial" / "trials.csv") == _strip_runtime(
        tmp_path / "parallel" / "trials.csv"
    )


@pytest.mark.parametrize("cpus, workers", [(64, 3), (2, 2), (1, None), (None, None)])
def test_run_experiment_caps_workers(tmp_path, monkeypatch, cpus, workers):
    """At most min(jobs, trials, CPUs) workers, and no pool at all for one."""
    started = []

    class RecordingExecutor:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(harness.concurrent.futures, "ProcessPoolExecutor", RecordingExecutor)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    cfg = dataclasses.replace(
        parse_config(SMALL_CONFIG), solvers=("auction",), trials=3, jobs=10_000
    )
    assert len(run_experiment(cfg, out_dir=str(tmp_path))) == 3
    assert started == ([] if workers is None else [workers])


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
    # bids and schedule take anything Fraction() parses
    assert cli(["auction", "demo", "--bids", " 7/2, 0.5 ,3", "--schedule", "1,1/2,1e-1"]) == EXIT_OK
    assert "turn order (agent ids): [0, 2, 1]" in capsys.readouterr().out


def _one_error_line(capsys, prefix):
    """The CLI reported one line on stderr, starting with `prefix`: no traceback."""
    err = capsys.readouterr().err
    assert err.startswith(prefix) and err.count("\n") == 1, err
    return err


def test_cli_auction_demo_bad_bids(capsys):
    for argv in (
        ["--bids", "7"],
        ["--bids", "seven,four"],
        ["--bids=-1,2"],
        ["--bids", "3,2,1", "--schedule", "1,1/2"],
        ["--bids", "3,2", "--schedule", "1/2,1"],
        ["--bids", "1/0,2"],
    ):
        assert cli(["auction", "demo", *argv]) == EXIT_CONFIG, argv
        _one_error_line(capsys, "config error: ")



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
    _one_error_line(capsys, "I/O error: ")


def test_cli_run_bad_config(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("solvers = dijkstra\n")
    assert cli(["run", str(bad)]) == EXIT_CONFIG
    _one_error_line(capsys, "config error: ")
    # an override of 0 must fail validation, not fall back to the file's value
    good = tmp_path / "good.cfg"
    good.write_text(SMALL_CONFIG)
    out = tmp_path / "out"
    for flag, value in (("--trials", "0"), ("--timeout", "0"), ("--jobs", "0"),
                        ("--timeout", "inf"), ("--timeout", "nan")):
        assert cli(["run", str(good), "--out", str(out), flag, value]) == EXIT_CONFIG
        _one_error_line(capsys, "config error: ")
    bad.write_bytes(SMALL_CONFIG.encode() + b"\xff\xfe = 3\n")  # not UTF-8 text
    assert cli(["run", str(bad), "--out", str(out)]) == EXIT_CONFIG
    _one_error_line(capsys, "config error: ")
    for line in BAD_CBS_LINES:
        bad.write_text(SMALL_CONFIG + line + "\n")
        for command in ("run", "sweep-utility"):
            assert cli([command, str(bad), "--out", str(out)]) == EXIT_CONFIG, line
            _one_error_line(capsys, "config error: ")
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
    cfg_file.write_text("kind = random-obstacles\nn_agents = 2\nn_obstacles = -1\n")
    for command in ("run", "sweep-utility"):
        assert cli([command, str(cfg_file), "--out", out]) == EXIT_CONFIG
        _one_error_line(capsys, "scenario error: n_obstacles must be in [0, 100)")
    argv = ["scenario", "gen", "random-obstacles", "--obstacles", "-1"]
    assert cli(argv) == EXIT_CONFIG
    _one_error_line(capsys, "scenario error: ")


CONFIG_KEYS = (
    "kind", "width", "height", "n_agents", "gap_size", "n_obstacles", "incentive_min",
    "incentive_max", "sweep", "sweep_values", "trials", "solvers", "noise_sigma",
    "timeout", "base_seed", "out_dir", "jobs",
)
CONFIG_VALUES = st.one_of(
    st.text(max_size=6),
    st.integers(-3, 12).map(str),
    st.floats().map(str),
    st.sampled_from(["1e400", "-0", "1/2", "4, 6", "4,,6", "doorway", "auction, cbs", "gap_size"]),
)


def test_parse_config_fuzz_raises_only_config_error(tmp_path):
    """Random `key = value` lines: parse_config raises nothing but
    ConfigError, and `run` on text it rejects exits 2 before any trial."""
    path = tmp_path / "fuzz.cfg"
    out = tmp_path / "out"

    @settings(max_examples=300, deadline=None)
    @given(st.lists(
        st.tuples(st.one_of(st.sampled_from(CONFIG_KEYS), st.text(max_size=4)), CONFIG_VALUES),
        max_size=5,
    ))
    def check(pairs):
        text = "".join(f"{key} = {value}\n" for key, value in pairs)
        try:
            cfg = parse_config(text)
        except ConfigError:
            path.write_text(text, encoding="utf-8")
            assert cli(["run", str(path), "--out", str(out)]) == EXIT_CONFIG
            return
        cfg.validate()

    check()
    assert not out.exists()


# Digests of trials.csv and aggregates.csv with their runtime columns removed,
# and of utility_curves.csv, for PINNED_CONFIG. Recorded before the experiment
# layer was rewritten; a change to any artifact byte fails here.
PINNED_CONFIG = """
kind = doorway, random-obstacles, intersection
width = 8
height = 8
n_agents = 3
gap_size = 2
n_obstacles = 6
sweep = n_agents
sweep_values = 2, 3
trials = 2
solvers = auction, random-ordering, fifo, cbs, cbs-random
base_seed = 3
"""
PINNED_DIGESTS = {
    "trials.csv": "1f55ddb244fb99f1dbff7a7b39ec7060399ff49cd6681c2ee3fc375cdc309662",
    "aggregates.csv": "d040be5a4868d5ad173187169c673322c05191d7e85df7349dc0b11562937402",
    "utility_curves.csv": "58966303b683ffd4bb30fb1c052951535f7ff9d7fe9f3a8d609fe51ff326d35c",
}


def _artifact_digest(path):
    with open(path) as fh:
        rows = list(csv.reader(fh))
    keep = [i for i, name in enumerate(rows[0]) if not name.startswith("runtime_s")]
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([row[i] for i in keep] for row in rows)
    return hashlib.sha256(buf.getvalue().encode()).hexdigest()


@pytest.mark.parametrize("jobs", [1, 2])
def test_artifacts_match_pinned_digests(tmp_path, jobs):
    cfg = dataclasses.replace(parse_config(PINNED_CONFIG), jobs=jobs)
    records = run_experiment(cfg, out_dir=str(tmp_path))
    assert len(records) == 5 * 3 * 2 * 2
    assert all(rec.completed for rec in records)  # no CBS trial near its timeout
    sweep_utility_experiment(cfg, out_dir=str(tmp_path))
    digests = {name: _artifact_digest(tmp_path / name) for name in PINNED_DIGESTS}
    assert digests == PINNED_DIGESTS


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
    # an empty solver or kind list would leave run_experiment no trial to map
    for cfg in (ExperimentConfig(solvers=()), ExperimentConfig(kinds=())):
        with pytest.raises(ConfigError):
            cfg.validate()
