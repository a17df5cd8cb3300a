import json
import math
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradroute.cli import main as cli_main
from gradroute.config import ConfigError, config_from_dict, config_to_dict, load_config, save_config
from gradroute.harness import batch, run_experiment
from gradroute.metrics import column_names, read_csv
from gradroute.presets import PRESET_NAMES, preset


class TestPresetHyperparameters:
    def test_triangle(self):
        cfg = preset("triangle")
        assert (cfg.learner.beta, cfg.learner.gamma) == (0.99, 1e-5)
        assert cfg.shaping.cycle_penalty == 0.0 and cfg.shaping.drop_penalty == 0.0

    def test_contention(self):
        cfg = preset("contention")
        assert (cfg.learner.beta, cfg.learner.gamma) == (0.99, 1e-7)
        assert cfg.shaping.drop_penalty == 21.0

    def test_six_node(self):
        cfg = preset("six_node")
        assert (cfg.learner.beta, cfg.learner.gamma) == (0.9, 1e-6)
        assert cfg.shaping.cycle_penalty == -100.0
        assert cfg.shaping.history_length == 2

    def test_braess1(self):
        cfg = preset("braess1")
        assert (cfg.learner.beta, cfg.learner.gamma) == (0.99, 1e-5)

    def test_tracked_probability_columns(self):
        assert column_names(preset("triangle"))[6] == "p[A->AB|dest=C]"
        assert column_names(preset("contention"))[6] == "p[A->top|dest=B]"
        braess_cols = column_names(preset("braess1"))
        assert braess_cols[6] == "p[A->AC|dest=B]"
        assert braess_cols[7] == "p[E->EF|dest=B]"

    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            preset("square")


class TestConfigRoundTrip:
    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_save_load_equal(self, name, tmp_path):
        cfg = preset(name)
        path = tmp_path / "cfg.json"
        save_config(cfg, path)
        assert load_config(path) == cfg

    def test_dict_round_trip_survives_json(self, name="braess1"):
        cfg = preset(name)
        doc = json.loads(json.dumps(config_to_dict(cfg)))
        assert config_from_dict(doc) == cfg

    def test_beta_one_rejected(self, tmp_path):
        doc = config_to_dict(preset("triangle"))
        doc["learner"]["beta"] = 1.0
        with pytest.raises(ConfigError, match="beta"):
            config_from_dict(doc)

    def test_negative_delay_rejected(self):
        doc = config_to_dict(preset("triangle"))
        doc["network"]["links"][0]["delay"] = -1
        with pytest.raises(ConfigError, match="delay"):
            config_from_dict(doc)

    def test_parse_error_carries_location(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"network": ')
        with pytest.raises(ConfigError, match="line"):
            load_config(path)

    def test_unknown_tracked_link_rejected(self):
        doc = config_to_dict(preset("triangle"))
        doc["run"]["tracked_probabilities"][0]["link"] = "XY"
        with pytest.raises(ConfigError, match="tracked"):
            config_from_dict(doc)

    def test_steps_lower_bound(self):
        doc = config_to_dict(preset("triangle"))
        doc["run"]["steps"] = 0
        with pytest.raises(ConfigError, match="steps"):
            config_from_dict(doc)

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("learner", "gamma", math.inf),
            ("learner", "gamma", "abc"),
            ("learner", "beta", math.nan),
            ("learner", "credit_current_tick", "false"),
            ("shaping", "cycle_penalty", math.nan),
            ("shaping", "drop_penalty", math.inf),
            ("shaping", "history_length", None),
            ("traffic", "rates", [1, 0, 0]),
            ("run", "seed", "one"),
            ("output", "csv", 5),
        ],
    )
    def test_bad_value_names_key(self, section, key, value):
        doc = config_to_dict(preset("triangle"))
        doc[section][key] = value
        with pytest.raises(ConfigError, match=key):
            config_from_dict(doc)


def _paths(node, prefix=()):
    """Every (container, key) path into a JSON document."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for k, v in items:
        yield prefix + (k,)
        if isinstance(v, (dict, list)):
            yield from _paths(v, prefix + (k,))


_ODD_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=4),
    st.lists(st.integers(-2, 2), max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(-2, 2), max_size=2),
)


class TestConfigFuzz:
    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(PRESET_NAMES), st.data())
    def test_mutated_preset_loads_or_raises_config_error(self, name, data):
        doc = config_to_dict(preset(name))
        for _ in range(data.draw(st.integers(1, 3))):
            path = data.draw(st.sampled_from(list(_paths(doc))))
            parent = doc
            for k in path[:-1]:
                parent = parent[k]
            if isinstance(parent, dict) and data.draw(st.booleans()):
                del parent[path[-1]]
            else:
                parent[path[-1]] = data.draw(_ODD_VALUES)
        try:
            cfg = config_from_dict(doc)
        except ConfigError:
            return
        # an accepted config holds no NaN: it survives a round trip equal
        assert config_from_dict(json.loads(json.dumps(config_to_dict(cfg)))) == cfg


class TestRunExperiment:
    def test_row_count_is_ceil_steps_over_interval(self):
        for steps, expected in ((100, 1), (250, 3), (50, 1), (1000, 10)):
            cfg = preset("contention").with_overrides(steps=steps)
            res = run_experiment(cfg)
            assert len(res.rows) == expected, steps

    def test_csv_schema_and_ma_recompute(self, tmp_path):
        cfg = preset("six_node").with_overrides(steps=3_000, ma_window=7)
        res = run_experiment(cfg, tmp_path)
        header, rows = read_csv(res.csv_path)
        assert header == column_names(cfg)
        totals = [r[header.index("reward_total")] for r in rows]
        mas = [r[header.index("reward_ma")] for r in rows]
        for i, ma in enumerate(mas):
            window = totals[max(0, i - 6) : i + 1]
            assert ma == math.fsum(window) / len(window)  # exact, not approx

    def test_csv_bytes_identical_for_same_seed(self, tmp_path):
        cfg = preset("triangle").with_overrides(steps=2_000)
        a = run_experiment(cfg, tmp_path / "a")
        b = run_experiment(cfg, tmp_path / "b")
        with open(a.csv_path, "rb") as fa, open(b.csv_path, "rb") as fb:
            assert fa.read() == fb.read()

    def test_theta_snapshot_format(self, tmp_path):
        cfg = preset("contention").with_overrides(steps=500)
        res = run_experiment(cfg, tmp_path)
        snap = json.loads((tmp_path / f"theta-seed{cfg.seed}.json").read_text())
        assert set(snap.keys()) == {"A"}  # B has no outgoing links
        assert set(snap["A"].keys()) == {"B"}
        assert len(snap["A"]["B"]) == 2  # ordered slots: top, bottom

    def test_running_mean_column_matches_exact_mean(self):
        cfg = preset("contention").with_overrides(steps=400, sample_every=100)
        res = run_experiment(cfg)
        # recompute from an independent engine pass
        from gradroute.engine import Simulation

        sim = Simulation(cfg)
        totals = [sim.step().reward.total for _ in range(cfg.steps)]
        for row in res.rows:
            assert row.running_mean == sum(totals[: row.tick]) / row.tick


class TestBatch:
    def test_single_seed_equals_single_run(self):
        cfg = preset("contention").with_overrides(steps=2_000)
        single = run_experiment(cfg.with_overrides(seed=9))
        b = batch(cfg, [9])
        assert b.seed_results[0].final_running_mean == single.final_running_mean
        assert b.mean_final_reward == single.final_running_mean

    def test_empty_seed_list_rejected(self):
        with pytest.raises(ValueError):
            batch(preset("contention"), [])

    def test_threshold_detection_and_censoring(self):
        cfg = preset("contention").with_overrides(steps=2_000)
        # impossible threshold: every run is censored at cfg.steps
        b = batch(cfg, [1, 2, 3], underlying_threshold=1.0)
        assert b.median_ticks_to_threshold == cfg.steps
        # trivially satisfied threshold: crossing at the first sampled tick
        b2 = batch(cfg, [1, 2], underlying_threshold=-1e9)
        assert b2.median_ticks_to_threshold == cfg.sample_every

    def test_stop_at_threshold_shortens_run(self):
        cfg = preset("contention").with_overrides(steps=5_000)
        res = run_experiment(
            cfg, underlying_threshold=-1e9, stop_at_threshold=True
        )
        assert res.steps_run == cfg.sample_every


class TestCli:
    def test_preset_and_rerun_config(self, tmp_path, capsys):
        rc = cli_main(
            ["preset", "contention", "--steps", "400", "--seed", "3",
             "--gamma", "1e-5", "--out", str(tmp_path)]
        )
        assert rc == 0
        out_dir = tmp_path / "contention-seed3"
        assert (out_dir / "metrics-seed3.csv").exists()
        assert (out_dir / "theta-seed3.json").exists()
        saved = out_dir / "config.json"
        assert load_config(saved).learner.gamma == 1e-5

        rc = cli_main(["run", str(saved), "--out", str(tmp_path / "again")])
        assert rc == 0

    def test_batch_cli(self, tmp_path, capsys):
        cfg = preset("contention").with_overrides(steps=300)
        path = tmp_path / "c.json"
        save_config(cfg, path)
        rc = cli_main(["batch", str(path), "--seeds", "1,2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "median_ticks_to_threshold" in out and "mean_final_reward" in out

    def test_oracle_subcommands(self, capsys):
        assert cli_main(["oracle", "contention-reward", "0.25", "21"]) == 0
        assert capsys.readouterr().out.strip() == "-10.75"
        assert cli_main(["oracle", "contention-optimal", "21"]) == 0
        assert capsys.readouterr().out.strip() == "0.25"
        assert cli_main(["oracle", "braess-cost", "ACDB=2", "AEFB=2", "AEGDB=2"]) == 0
        assert capsys.readouterr().out.strip() == "92.0"
        assert cli_main(["oracle", "braess-expected", "0.5", "1.0"]) == 0
        assert capsys.readouterr().out.strip() == "88.5"
        assert cli_main(["oracle", "triangle-optimal"]) == 0
        assert capsys.readouterr().out.strip() == "-4.0"

    def test_bad_config_reports_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{}")
        assert cli_main(["run", str(path)]) == 2
        assert "error" in capsys.readouterr().err

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "gradroute.cli", "oracle", "triangle-optimal"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == "-4.0"
