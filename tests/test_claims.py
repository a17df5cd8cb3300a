"""The claim records and `gradroute reproduce`, on records shrunk to a
few hundred ticks; the full-length runs are the slow acceptance gates."""
import json
import math

import pytest

from gradroute import claims, harness
from gradroute.cli import main as cli_main
from gradroute.config import config_from_dict, config_to_dict
from gradroute.engine import LoadDiverged
from gradroute.oracles import (
    braess_expected_cost,
    contention_optimal_p,
    expected_optimal_reward,
)
from gradroute.presets import preset, six_node_network, triangle_network


def test_each_target_is_its_oracle():
    targets = {
        name: claim.target
        for name, claim in claims.CLAIMS.items()
        if isinstance(claim, claims.Endpoint)
    }
    assert targets == {
        "triangle": expected_optimal_reward(*triangle_network()),
        "contention": contention_optimal_p(21.0),
        "six_node": expected_optimal_reward(*six_node_network()),
        "braess1": braess_expected_cost(0.5, 1.0),
    }
    assert list(targets.values()) == [-4.0, 0.25, -6.0, 88.5]


def test_learning_claims_run_presets_over_seeds_1_to_3():
    for name in ("triangle", "contention", "six_node", "braess1"):
        claim = claims.CLAIMS[name]
        assert claim.seeds == (1, 2, 3)
        assert claim.arms() == {"": preset(name)}


def test_shaping_speedup_arms():
    claim = claims.CLAIMS["shaping_speedup"]
    assert claim.seeds == (1, 2, 3, 4, 5)
    arms = claim.arms()
    assert list(arms) == ["shaped", "unshaped"]
    for cfg, penalty in zip(arms.values(), (-100.0, 0.0)):
        assert cfg == preset("six_node").with_overrides(
            steps=1_500_000, ma_window=100, cycle_penalty=penalty
        )


@pytest.mark.parametrize("name", list(claims.CLAIMS))
def test_every_arm_loads_and_validates(name):
    for cfg in claims.CLAIMS[name].arms().values():
        cfg.validate()
        assert config_from_dict(json.loads(json.dumps(config_to_dict(cfg)))) == cfg


def shrink(monkeypatch, steps=300, **fields):
    for name, claim in list(claims.CLAIMS.items()):
        monkeypatch.setitem(
            claims.CLAIMS, name, claim._replace(steps=steps, seeds=(1,), **fields)
        )


def table_rows(out: str) -> dict[str, str]:
    """The reproduce table's rows by claim, without the header."""
    lines = out.strip().splitlines()
    assert lines[0].startswith("claim")
    return {line.split()[0]: line for line in lines[1:]}


def test_reproduce_prints_one_row_per_claim(monkeypatch, tmp_path, capsys):
    shrink(monkeypatch)
    code = cli_main(["reproduce", "--out", str(tmp_path)])
    rows = table_rows(capsys.readouterr().out)
    assert list(rows) == list(claims.CLAIMS)
    verdicts = [row.rsplit("|", 1)[1].strip() for row in rows.values()]
    assert set(verdicts) <= {"PASS", "FAIL"}
    assert code == (1 if "FAIL" in verdicts else 0)
    assert (tmp_path / "reproduce" / "triangle" / "metrics-seed1.csv").exists()
    assert (tmp_path / "reproduce" / "shaping_speedup" / "unshaped" / "theta-seed1.json").exists()


def test_reproduce_exit_code_follows_the_verdicts(monkeypatch, tmp_path, capsys):
    shrink(monkeypatch)
    wide = claims.CLAIMS["triangle"]._replace(tolerance=math.inf)
    monkeypatch.setitem(claims.CLAIMS, "triangle", wide)
    assert cli_main(["reproduce", "triangle", "--out", str(tmp_path)]) == 0
    assert table_rows(capsys.readouterr().out)["triangle"].endswith("PASS")
    monkeypatch.setitem(claims.CLAIMS, "triangle", wide._replace(tolerance=0.0))
    assert cli_main(["reproduce", "triangle", "--out", str(tmp_path)]) == 1
    assert table_rows(capsys.readouterr().out)["triangle"].endswith("FAIL")


def test_unknown_claim_exits_2(capsys):
    assert cli_main(["reproduce", "triangle", "nope"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: unknown claim 'nope'")
    assert len(err.strip().splitlines()) == 1


def test_diverged_seed_fails_its_claim_and_the_others_still_run(monkeypatch):
    triangle = claims.CLAIMS["triangle"]._replace(steps=300, tolerance=math.inf)
    monkeypatch.setitem(claims.CLAIMS, "triangle", triangle)
    real = harness.run_experiment
    ran = []

    def run(cfg, out, **kwargs):
        ran.append(cfg.seed)
        if cfg.seed == 2:
            raise LoadDiverged("load diverged at tick 7: 99 packets in flight")
        return real(cfg, out, **kwargs)

    monkeypatch.setattr(harness, "run_experiment", run)
    target, cells, summary, passed = claims.check("triangle", None)
    assert ran == [1, 2, 3]
    assert "2: load diverged at tick 7" in cells
    assert not passed


def test_rank_sum_p_on_fixed_numbers():
    censored = [1_500_000] * 5
    shaped = [709_400, 761_900, 786_800, 837_600, 684_000]
    # every shaped run below every censored one: 1 split of C(10, 5) = 252
    assert claims.rank_sum_p(shaped, censored) == 1 / 252
    assert claims.rank_sum_p(censored, shaped) == 1.0
    # ranks 1, 3 against 2, 4: pair sums 3, 4, 5, 5, 6, 7, two at most 4
    assert claims.rank_sum_p([1, 3], [2, 4]) == 2 / 6
    # all tied: every split has the same rank sum
    assert claims.rank_sum_p([7, 7], [7, 7, 7]) == 1.0
    # a tie across the arms shares its mid-rank: low ranks 1.5, 3 (doubled
    # 3, 6, sum 9) against doubled ranks 3, 8 of 5, 9; splits of {3, 3, 6,
    # 8} with doubled sum at most 9: (3, 3), (3, 6), (3, 6)
    assert claims.rank_sum_p([5, 6], [5, 9]) == 3 / 6
    # three ties share doubled rank 6 of positions 2-4: low sums to 2 + 10;
    # pairs of {2, 6, 6, 6, 10} summing to at most 12: three 8s, 2 + 10 and
    # three 6 + 6 (with the tie ranked last instead, 4 of 10)
    assert claims.rank_sum_p([1, 4], [2, 2, 2]) == 7 / 10


def test_speedup_summary_reports_the_rank_p():
    claim = claims.CLAIMS["shaping_speedup"]
    shaped = [709_400, 761_900, 786_800, 837_600, 684_000]
    target, summary, passed = claim.verdict(shaped, [1_500_000] * 5)
    assert passed
    assert summary.endswith("x1.97, rank p 0.00397")
