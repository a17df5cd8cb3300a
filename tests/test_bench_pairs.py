"""scripts/bench_pairs.py: its seed parsing, run parsing and pair summary,
on fixed numbers (no benchmark is run)."""
import importlib.util
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
    with pytest.raises(ValueError):
        bench_pairs.parse_seeds("x")


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
