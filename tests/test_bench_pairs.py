"""scripts/bench_pairs.py: its seed parsing, run parsing and pair summary,
on fixed numbers (no benchmark is run)."""
import importlib.util
import json
import math
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

SPECS = [
    {"name": "ticks_per_s", "unit": "1/s", "better": "higher"},
    {"name": "setup_s", "unit": "s", "better": "lower"},
    {"name": "absent", "unit": "s", "better": "lower"},
]


def test_summary_on_fixed_pairs():
    parent = [100.0, 102.0, 98.0, 104.0, 96.0]
    change = [110.0, 101.0, 99.0, 104.0, 120.0]
    setup_p = [0.10, 0.12, 0.11, 0.10, 0.13]
    setup_c = [0.09, 0.12, 0.12, 0.09, 0.10]
    pairs = [
        ({"ticks_per_s": p, "setup_s": sp}, {"ticks_per_s": c, "setup_s": sc})
        for p, c, sp, sc in zip(parent, change, setup_p, setup_c)
    ]
    ticks, setup = bench_pairs.summarize(pairs, SPECS)  # "absent" is skipped
    assert ticks["name"] == "ticks_per_s" and ticks["unit"] == "1/s"
    assert (ticks["parent_median"], ticks["change_median"]) == (100.0, 104.0)
    # statistics.quantiles(n=4) of 96, 98, 100, 102, 104: 97 and 103
    assert (ticks["parent_q1"], ticks["parent_q3"], ticks["parent_iqr"]) == (97.0, 103.0, 6.0)
    assert ticks["ratio"] == 1.04
    # higher is better: 110>100, 99>98, 120>96 win; 101<102 loses; 104 ties
    assert (ticks["wins"], ticks["ties"], ticks["pairs"]) == (3, 1, 5)
    # lower is better: 0.09<0.10 twice and 0.10<0.13 win; 0.12 ties
    assert (setup["wins"], setup["ties"], setup["pairs"]) == (3, 1, 5)
    assert setup["parent_median"] == 0.11 and setup["change_median"] == 0.10
    text = bench_pairs.format_rows([ticks, setup])
    assert "3/5 (1 tied)" in text.splitlines()[1]


def test_one_pair_has_no_spread():
    (row,) = bench_pairs.summarize([({"setup_s": 2.0}, {"setup_s": 3.0})], SPECS[1:2])
    assert (row["parent_q1"], row["parent_q3"], row["parent_iqr"]) == (2.0, 2.0, 0.0)
    assert (row["wins"], row["ties"]) == (0, 0)
    (row,) = bench_pairs.summarize([({"setup_s": 0.0}, {"setup_s": 3.0})], SPECS[1:2])
    assert math.isnan(row["ratio"])


def test_parse_seeds():
    assert bench_pairs.parse_seeds("201-203") == [201, 202, 203]
    assert bench_pairs.parse_seeds("5,7,9-10") == [5, 7, 9, 10]
    assert bench_pairs.parse_seeds("7-7,3") == [7, 3]
    with pytest.raises(ValueError):
        bench_pairs.parse_seeds("x")
    # a descending range and a repeated seed would change the pair count
    with pytest.raises(ValueError, match="part '9-7' runs downwards"):
        bench_pairs.parse_seeds("1-3,9-7")
    with pytest.raises(ValueError, match="part '4' repeats seed 4"):
        bench_pairs.parse_seeds("4,4,4")
    with pytest.raises(ValueError, match="part '3-5' repeats seed 3"):
        bench_pairs.parse_seeds("1-3,3-5")


def test_parse_run():
    stdout = "\n".join([
        "provenance {}",
        "digest six_node sim_seed=4 steps=8000 mean_reward=-1.5 "
        "csv_sha256=ab12 theta_sha256=cd34",
        '{"correct": true, "attempted": 3, "failed": 0, '
        '"metrics": {"ticks_per_s": {"value": 5.0, "unit": "1/s"}}}',
    ])
    report, digests = bench_pairs.parse_run(stdout)
    assert report["correct"] is True
    assert report["metrics"]["ticks_per_s"]["value"] == 5.0
    assert digests == {4: ("ab12", "cd34")}


def ten_pairs(parent, change, name="ticks_per_s"):
    return [({name: p}, {name: c}) for p, c in zip(parent, change)]


PARENT10 = [100.0, 101.0, 102.0, 103.0, 104.0, 105.0, 106.0, 107.0, 108.0, 109.0]


@pytest.mark.parametrize(
    "change, expected",
    [
        ([p + 20 for p in PARENT10], "gain"),
        ([p - 20 for p in PARENT10], "loss"),
        # nine wins and a tie: the tie counts for neither side
        ([p + 20 for p in PARENT10[:9]] + [109.0], "gain"),
        # eight wins, two ties: not nine in ten
        ([p + 20 for p in PARENT10[:8]] + [108.0, 109.0], "-"),
        # every pair won, but the medians differ by less than the IQR
        ([p + 5 for p in PARENT10], "-"),
        # eight wins by far, two losses
        ([p + 50 for p in PARENT10[:8]] + [107.0, 108.0], "-"),
    ],
    ids=["gain", "loss", "tie_counts_for_neither", "eight_of_ten", "within_iqr", "two_lost"],
)
def test_verdict_on_fixed_pairs(change, expected):
    (row,) = bench_pairs.summarize(ten_pairs(PARENT10, change), SPECS[:1])
    # statistics.quantiles(n=4) of 100..109: 101.75 and 107.25
    assert row["parent_iqr"] == 5.5
    assert row["verdict"] == expected
    assert bench_pairs.format_rows([row]).splitlines()[1].split()[7] == expected


def test_verdict_follows_the_metric_direction():
    parent = [p / 100 for p in PARENT10]  # seconds, lower is better
    (row,) = bench_pairs.summarize(
        ten_pairs(parent, [p - 0.2 for p in parent], "setup_s"), SPECS[1:2]
    )
    assert row["verdict"] == "gain"
    (row,) = bench_pairs.summarize(
        ten_pairs(parent, [p + 0.2 for p in parent], "setup_s"), SPECS[1:2]
    )
    assert row["verdict"] == "loss"


def test_fewer_than_ten_pairs_get_no_verdict():
    (row,) = bench_pairs.summarize(
        ten_pairs(PARENT10[:9], [p + 20 for p in PARENT10[:9]]), SPECS[:1]
    )
    assert (row["wins"], row["pairs"], row["verdict"]) == (9, 9, "-")


def test_one_table_per_workload(monkeypatch, tmp_path, capsys):
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
    (tmp_path / "change" / "BENCHMARK.json").write_text(
        '{"end_to_end": [{"name": "ticks_per_s", "unit": "1/s", "better": "higher"}],'
        ' "per_layer": []}'
    )
    calls = []

    def run_side(checkout, workload, seed, seconds, trace):
        calls.append((checkout.name, workload, seed))
        value = 110.0 if checkout.name == "change" else 100.0
        return {"ok": True, "metrics": {"ticks_per_s": value + seed},
                "digests": {seed: ("a", "b")}, "output": ""}

    monkeypatch.setattr(bench_pairs, "run_side", run_side)
    code = bench_pairs.main([
        "--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"),
        "--workload", "six_node,ring60", "--seeds", "1-2", "--seconds", "1",
    ])
    assert code == 0
    # all pairs of one workload before the next, alternating which side runs first
    assert calls == [
        ("parent", "six_node", 1), ("change", "six_node", 1),
        ("change", "six_node", 2), ("parent", "six_node", 2),
        ("parent", "ring60", 1), ("change", "ring60", 1),
        ("change", "ring60", 2), ("parent", "ring60", 2),
    ]
    out = capsys.readouterr().out
    summaries = [line for line in out.splitlines() if line.startswith("workload ")]
    assert [line.split()[1] for line in summaries] == ["six_node", "ring60"]
    assert all("digests equal in 2 of 2" in line for line in summaries)
    assert out.count("ticks_per_s ") == 2


def test_json_holds_what_is_printed(monkeypatch, tmp_path, capsys):
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
    (tmp_path / "change" / "BENCHMARK.json").write_text(
        '{"end_to_end": [{"name": "peak_rss_mb", "unit": "MB", "better": "lower"}],'
        ' "per_layer": []}'
    )

    def run_side(checkout, workload, seed, seconds, trace):
        value = 22.0 if checkout.name == "change" else 23.0 + seed / 100
        # seed 3's theta differs between the sides
        theta = "t" if checkout.name == "parent" or seed != 3 else "u"
        return {"ok": True, "metrics": {"peak_rss_mb": value},
                "digests": {seed: ("c", theta)}, "output": ""}

    monkeypatch.setattr(bench_pairs, "run_side", run_side)
    out = tmp_path / "bench.json"
    code = bench_pairs.main([
        "--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"),
        "--workload", "braess1_fine", "--seeds", "1-10", "--seconds", "2",
        "--json", str(out),
    ])
    assert code == 0
    doc = json.loads(out.read_text())
    assert (doc["seeds"], doc["seconds"], doc["trace"]) == ("1-10", 2.0, 0)
    (name,) = doc["workloads"]
    w = doc["workloads"][name]
    assert name == "braess1_fine"
    assert (w["complete_pairs"], w["digests_equal"], w["failed_runs"]) == (10, 9, 0)
    assert [p["seed"] for p in w["pairs"]] == list(range(1, 11))
    assert [p["first"] for p in w["pairs"][:2]] == ["parent", "change"]
    assert w["pairs"][2]["digests_equal"] is False
    assert w["pairs"][0]["parent"] == {"peak_rss_mb": 23.01}
    (row,) = w["metrics"]
    pairs = [(p["parent"], p["change"]) for p in w["pairs"]]
    assert row == bench_pairs.summarize(pairs, [{"name": "peak_rss_mb", "unit": "MB",
                                                 "better": "lower"}])[0]
    assert (row["wins"], row["verdict"]) == (10, "gain")
    assert row["parent_median"] == 23.055 and row["change_median"] == 22.0
    assert "digests equal in 9 of 10" in capsys.readouterr().out
