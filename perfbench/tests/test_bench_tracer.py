"""Tracer self-check: it restores every patched name, counts exactly, and
leaves the program's outputs byte-identical."""
import json
import subprocess
import sys
import types
from pathlib import Path

import pytest

import run as bench
import tracer
import workloads
import gradroute.config
import gradroute.engine
import gradroute.harness
import gradroute.metrics

GR = types.SimpleNamespace(engine=gradroute.engine, harness=gradroute.harness,
                           config=gradroute.config, metrics=gradroute.metrics)


def _originals():
    return {(owner, attr): owner.__dict__[attr] for owner, attr, _, _ in tracer.targets(GR)}


def _config_file(tmp_path, name, steps):
    doc = workloads.build(name, 5, str(tmp_path / "m.csv"), str(tmp_path / "t.json"))
    doc["run"]["steps"] = steps
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


def test_originals_restored_after_traced_run(tmp_path):
    before = _originals()
    bench.run_once(GR, _config_file(tmp_path, "six_node", 50), traced=True)
    after = _originals()
    assert all(after[k] is v for k, v in before.items())
    assert not any(hasattr(v, "__wrapped__") for v in after.values())


def test_originals_restored_when_the_run_raises():
    before = _originals()
    tr = tracer.Tracer(GR)
    with pytest.raises(RuntimeError):
        with tr.installed():
            assert gradroute.engine.tick_update is not before[(gradroute.engine, "tick_update")]
            raise RuntimeError("boom")
    after = _originals()
    assert all(after[k] is v for k, v in before.items())


def test_contention_makes_exactly_two_decisions_per_tick(tmp_path):
    steps = 300
    run = bench.run_once(GR, _config_file(tmp_path, "contention", steps), traced=True)
    layers = run["layers"]
    assert layers["engine.decisions"] == 2.0
    assert layers["learner.calls"] == 1.0  # only A has outgoing links
    assert layers["learner.rows_with_grad"] == 1.0
    assert layers["harness.rows_sampled"] == 3


@pytest.mark.parametrize("name", ["six_node", "braess1_fine", "ring60"])
def test_traced_and_plain_runs_write_identical_files(tmp_path, name):
    path = _config_file(tmp_path, name, 40)
    traced = bench.run_once(GR, path, traced=True)
    plain = bench.run_once(GR, path, traced=False)
    assert traced["csv_sha256"] == plain["csv_sha256"]
    assert traced["theta_sha256"] == plain["theta_sha256"]
    assert all(v >= 0.0 for v in traced["spans_s"].values())


def test_per_layer_report_names_every_declared_metric_and_overhead(tmp_path):
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    run = bench.run_once(GR, _config_file(tmp_path, "six_node", 30), traced=True)
    declared = {m["name"] for m in spec["per_layer"]}
    assert declared == set(run["layers"]) | {"trace.ticks_per_s", "trace.overhead_pct"}


def test_refuses_to_run_without_program_sources(tmp_path):
    """In a directory holding only BENCHMARK.json and the benchmark, the
    command exits non-zero without printing a result."""
    (tmp_path / "perfbench").mkdir()
    for p in Path(bench.HERE).glob("*.py"):
        (tmp_path / "perfbench" / p.name).write_bytes(p.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((bench.ROOT / "BENCHMARK.json").read_bytes())
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "six_node", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
