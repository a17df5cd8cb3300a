"""The output checks reject tampered files and accept real ones."""
import json
import math

import pytest

import checks
import workloads
from gradroute.config import config_from_dict
from gradroute.harness import run_experiment


@pytest.fixture
def outputs(tmp_path):
    doc = workloads.build("braess1_fine", 1, str(tmp_path / "m.csv"), str(tmp_path / "t.json"))
    doc["run"].update(steps=30, ma_window=4)
    cfg = config_from_dict(doc)
    res = run_experiment(cfg)
    return cfg, res


def _check(cfg, res):
    return checks.check_csv(cfg.csv_path, cfg.steps, cfg.sample_every, cfg.ma_window,
                            res.final_running_mean)


def _edit_cell(path, row, column, fn):
    lines = open(path).read().splitlines()
    header = lines[0].split(",")
    cells = lines[row].split(",")
    i = header.index(column)
    cells[i] = fn(cells[i])
    lines[row] = ",".join(cells)
    open(path, "w").write("\n".join(lines) + "\n")


def test_real_outputs_pass(outputs):
    cfg, res = outputs
    assert _check(cfg, res) == 30
    checks.check_theta(cfg.theta_path)


def test_reward_decomposition_break_is_caught(outputs):
    cfg, res = outputs
    _edit_cell(cfg.csv_path, 7, "reward_shaping", lambda v: repr(float(v) - 1.0))
    with pytest.raises(checks.CheckError, match="tick 7: reward_total"):
        _check(cfg, res)


def test_moving_average_break_is_caught(outputs):
    cfg, res = outputs
    _edit_cell(cfg.csv_path, 12, "reward_ma", lambda v: repr(math.nextafter(float(v), 0.0)))
    with pytest.raises(checks.CheckError, match="tick 12: reward_ma"):
        _check(cfg, res)


def test_missing_row_is_caught(outputs):
    cfg, res = outputs
    lines = open(cfg.csv_path).read().splitlines()
    open(cfg.csv_path, "w").write("\n".join(lines[:-1]) + "\n")
    with pytest.raises(checks.CheckError, match="sampled ticks"):
        _check(cfg, res)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_non_finite_theta_is_caught(outputs, bad):
    cfg, _ = outputs
    theta = json.load(open(cfg.theta_path))
    theta["E"]["B"][1] = bad
    json.dump(theta, open(cfg.theta_path, "w"))
    with pytest.raises(checks.CheckError, match="non-finite"):
        checks.check_theta(cfg.theta_path)
