"""gradroute benchmark: one workload, end-to-end or per-layer figures.

    python3 perfbench/run.py --workload six_node --seed 1 --seconds 25 --trace 0

Run from anywhere inside a checkout; the program is imported from the
checkout's `src/`. Each run goes through the public path of
`gradroute run`: the generated config JSON is read by `load_config` and
run by `harness.run_experiment` with CSV and theta output on. Every run's
output files are checked (see checks.py), and all runs of one seed must
write byte-identical CSV and theta files, traced or not.

A benchmark seed stands for a few simulation seeds (workloads.sim_seeds).
--trace 0 measures the end-to-end metrics: one traced reference run per
simulation seed (it gives the decision count and the reference digests),
then rounds of untraced runs over the seeds for --seconds, with set-up
probes in fresh interpreters after each round.
--trace 1 measures the per-layer metrics: traced and untraced runs
alternate for --seconds; the difference in ticks/s is the tracing overhead.

The metric names, units and the workload list live in BENCHMARK.json at
the checkout root. The last line of stdout is one JSON object
{"correct", "attempted", "failed", "metrics"}; the exit code is 0 only
when every run and check passed.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import json
import hashlib
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import types
from pathlib import Path

import calibrate
import checks
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_PROBES = 3  # fresh interpreters per round of runs, after one warm-up probe
TIME_CAP_S = 110.0  # start no round after this, so the process ends within 180 s
PROBE_TIMEOUT_S = 60


def import_program():
    """Import gradroute from this checkout's src/, never from elsewhere."""
    if not (SRC / "gradroute" / "__init__.py").is_file():
        raise SystemExit(f"error: no program sources at {SRC / 'gradroute'}")
    sys.path.insert(0, str(SRC))
    import gradroute.config
    import gradroute.engine
    import gradroute.harness
    import gradroute.metrics

    where = Path(gradroute.__file__).resolve().parent
    if where != (SRC / "gradroute").resolve():
        raise SystemExit(f"error: gradroute imported from {where}, not {SRC}")
    return types.SimpleNamespace(
        engine=gradroute.engine,
        harness=gradroute.harness,
        config=gradroute.config,
        metrics=gradroute.metrics,
    )


# -- provenance -------------------------------------------------------------

def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(args, steps: int, sim_seeds: list[int]) -> dict:
    src = hashlib.sha256()
    for p in sorted((SRC / "gradroute").glob("*.py")):
        src.update(p.name.encode() + b"\0" + p.read_bytes())
    return {
        "git_commit": git_commit(),
        "src_sha256": src.hexdigest(),
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "workload": args.workload,
        "seed": args.seed,
        "sim_seeds": sim_seeds,
        "steps": steps,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# -- one run ----------------------------------------------------------------

def setup_probe(cfg_path: Path) -> dict:
    """Seconds from starting a fresh interpreter to a constructed Simulation,
    raw and scaled by the reference kernel timed just before and after."""
    before = calibrate.kernel_seconds()
    t0 = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    done = subprocess.run(
        [sys.executable, str(HERE / "probe.py"), str(ROOT), str(cfg_path)],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
    )
    if done.returncode != 0:
        raise RuntimeError(f"probe exited {done.returncode}: {done.stderr.strip()[-500:]}")
    setup_s = (int(done.stdout.split()[-1]) - t0) / 1e9
    kernel_s = (before + calibrate.kernel_seconds()) / 2
    return {"setup_s": setup_s,
            "scaled_setup_s": setup_s * calibrate.REFERENCE_S / kernel_s}


def run_once(gr, cfg_path: Path, traced: bool, probe_speed: bool = False) -> dict:
    """One run_experiment call on the config file, then its output checks.

    With probe_speed, a SpeedProbe samples machine speed during the call;
    its own time is taken out of the wall time, and the run also gets
    figures scaled to the reference speed (see calibrate.py).
    """
    tr = None
    probe = calibrate.SpeedProbe()
    if traced:
        tr = tracer.Tracer(gr)
        with tr.installed():
            cfg = tr.call("config.load", gr.config.load_config, cfg_path)
            gc.collect()
            t0 = time.perf_counter()
            res = tr.call("harness.run_experiment", gr.harness.run_experiment, cfg)
            wall = time.perf_counter() - t0
    else:
        cfg = gr.config.load_config(cfg_path)
        gc.collect()
        with probe if probe_speed else contextlib.nullcontext():
            t0 = time.perf_counter()
            res = gr.harness.run_experiment(cfg)
            wall = time.perf_counter() - t0
        wall -= probe.probe_s
    rows = checks.check_csv(cfg.csv_path, cfg.steps, cfg.sample_every, cfg.ma_window,
                            res.final_running_mean)
    checks.check_theta(cfg.theta_path)
    run = {
        "wall_s": wall,
        "steps": res.steps_run,
        "ticks_per_s": res.steps_run / wall,
        "mean_reward": res.final_running_mean,
        "csv_sha256": checks.sha256(cfg.csv_path),
        "theta_sha256": checks.sha256(cfg.theta_path),
    }
    if probe_speed:
        scale = probe.scale()
        run["scale"] = scale
        run["scaled_ticks_per_s"] = run["ticks_per_s"] * scale
        run["scaled_wall_s"] = wall / scale
    if tr is not None:
        run["decisions"] = tr.counts["decisions"]
        run["layers"] = tracer.layer_metrics(
            tr, res.steps_run, rows, os.path.getsize(cfg.csv_path))
        run["spans_s"] = dict(tr.self_s)
    return run


def attempt(runs: list, tags: dict, fn, *args) -> dict | None:
    """Run fn, recording a failure (with its text) instead of raising."""
    try:
        rec = {**fn(*args), **tags}
    except Exception as e:  # a failed run is counted and the benchmark goes on
        rec = {**tags, "error": f"{type(e).__name__}: {e}"}
    runs.append(rec)
    return None if "error" in rec else rec


# -- reporting --------------------------------------------------------------

def quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"median={q2:.6g} q1={q1:.6g} q3={q3:.6g} min={min(values):.6g} n={len(values)}"


def layer_shares(run: dict) -> list[tuple[str, float]]:
    """Share of the traced run_experiment wall time per layer (self times)."""
    s = run["spans_s"]
    groups = {
        "engine (step self)": ["engine.step"],
        "learner": ["learner.tick_update"],
        "shaping": ["shaping.detect_cycle", "shaping.shaping_reward"],
        "policy (softmax_row)": ["policy.softmax_row"],
        "metrics": ["metrics.ma_push", "metrics.format_row"],
        "harness (self)": ["harness.run_experiment"],
        "set-up (init, tables, validate)": [
            "engine.init", "policy.make_tables", "network.validate_topology"],
    }
    total = run["wall_s"]
    shares = [(g, sum(s.get(x, 0.0) for x in xs) / total) for g, xs in groups.items()]
    shares.append(("tracer bookkeeping", 1.0 - sum(v for _, v in shares)))
    return shares


def median_of(recs: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in recs) if recs else 0.0


def measure(gr, args, cfgs: dict[int, Path], steps: int) -> dict:
    """All runs of one benchmark process; cfgs maps simulation seed to config."""
    runs: list[dict] = []
    started = time.perf_counter()
    seeds = list(cfgs)
    setups: list[dict] = []

    def probe_setup(n: int) -> list[dict]:
        recs = [attempt(runs, {"kind": "setup", "seed": seeds[0]}, setup_probe, cfgs[seeds[0]])
                for _ in range(n)]
        return [r for r in recs if r is not None]

    if args.trace == 0:
        probe_setup(1)  # warm-up: the first interpreter start fills caches
        for seed in seeds:
            attempt(runs, {"kind": "traced", "seed": seed}, run_once, gr, cfgs[seed], True)
        kinds = ("plain",)
    else:
        kinds = ("traced", "plain")

    # whole rounds only, so that every simulation seed weighs the same; the
    # set-up probes are spread over the rounds to sample the same host phases
    loop_start = time.perf_counter()
    while True:
        for seed in seeds:
            for kind in kinds:
                attempt(runs, {"kind": kind, "seed": seed}, run_once, gr, cfgs[seed],
                        kind == "traced", args.trace == 0)
        if args.trace == 0:
            setups += probe_setup(SETUP_PROBES)
        now = time.perf_counter()
        if now - loop_start >= args.seconds or now - started > TIME_CAP_S:
            break

    refs: dict[int, dict] = {}
    for r in runs:
        if r["kind"] == "traced" and "error" not in r:
            refs.setdefault(r["seed"], r)
    for seed in seeds:
        if seed not in refs:
            runs.append({"kind": "check", "seed": seed, "error": "no traced run completed"})
    for r in runs:
        ref = refs.get(r["seed"])
        if r["kind"] in kinds and "error" not in r and ref is not None and (
                (r["csv_sha256"], r["theta_sha256"]) != (ref["csv_sha256"], ref["theta_sha256"])):
            r["error"] = (f"outputs differ from the traced run: csv {r['csv_sha256'][:12]} "
                          f"vs {ref['csv_sha256'][:12]}, theta {r['theta_sha256'][:12]} "
                          f"vs {ref['theta_sha256'][:12]}")
    print_runs(runs)
    ok = [r for r in runs if "error" not in r]
    traced = [r for r in ok if r["kind"] == "traced"]
    plain = [r for r in ok if r["kind"] == "plain"]
    attempted = len(runs)
    failed = attempted - len(ok)
    for seed, ref in refs.items():
        print(f"digest {args.workload} sim_seed={seed} steps={steps} mean_reward={ref['mean_reward']!r}"
              f" csv_sha256={ref['csv_sha256']} theta_sha256={ref['theta_sha256']}")

    if args.trace == 0:
        for key in ("ticks_per_s", "scaled_ticks_per_s"):
            print(f"{key} {quartiles([r[key] for r in plain])}")
        for key in ("setup_s", "scaled_setup_s"):
            print(f"{key} {quartiles([r[key] for r in setups])}")
        # per seed, the median scaled wall time; the seeds' sum is one fixed mix
        walls = [median_of([r for r in plain if r["seed"] == seed], "scaled_wall_s")
                 for seed in seeds]
        complete = len(refs) == len(seeds) and all(walls)
        decisions = sum(ref["decisions"] for ref in refs.values())
        metrics = {
            "ticks_per_s": len(seeds) * steps / sum(walls) if complete else 0.0,
            "decisions_per_s": decisions / sum(walls) if complete else 0.0,
            "setup_s": median_of(setups, "scaled_setup_s"),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "mean_cost": (statistics.fmean(-ref["mean_reward"] for ref in refs.values())
                          if complete else 0.0),
            "ok_run_ratio": len(ok) / attempted,
        }
    else:
        metrics = {k: statistics.median(r["layers"][k] for r in traced)
                   for k in (traced[0]["layers"] if traced else [])}
        t_tps = median_of(traced, "ticks_per_s")
        p_tps = median_of(plain, "ticks_per_s")
        metrics["trace.ticks_per_s"] = t_tps
        metrics["trace.overhead_pct"] = (p_tps - t_tps) / p_tps * 100 if p_tps else 0.0
        print(f"traced ticks_per_s {quartiles([r['ticks_per_s'] for r in traced])}")
        print(f"plain ticks_per_s {quartiles([r['ticks_per_s'] for r in plain])}")
        if traced:
            mid = sorted(traced, key=lambda r: r["wall_s"])[len(traced) // 2]
            print("layer shares of traced run_experiment wall time (median run):")
            for name, share in layer_shares(mid):
                print(f"  {name:40s} {share * 100:6.2f}%")
    return {"attempted": attempted, "failed": failed, "metrics": metrics}


def print_runs(runs: list[dict]) -> None:
    for i, r in enumerate(runs):
        if "error" in r:
            print(f"run {i} {r['kind']} sim_seed={r['seed']} FAILED: {r['error']}")
        elif r["kind"] == "setup":
            print(f"run {i} setup setup_s={r['setup_s']:.6f} scaled={r['scaled_setup_s']:.6f}"
                  + (" (warm-up)" if i == 0 else ""))
        else:
            scaled = f" scale={r['scale']:.4f}" if "scale" in r else ""
            print(f"run {i} {r['kind']} sim_seed={r['seed']} wall_s={r['wall_s']:.4f}"
                  f" ticks_per_s={r['ticks_per_s']:.2f}{scaled} csv_sha256={r['csv_sha256']} theta_sha256={r['theta_sha256']}")


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=names)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    gr = import_program()
    out = ROOT / ".perfbench_out" / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    try:
        cfgs = {}
        for sim_seed in workloads.sim_seeds(args.workload, args.seed):
            d = out / f"sim{sim_seed}"
            d.mkdir(parents=True)
            doc = workloads.build(args.workload, sim_seed, str(d / "metrics.csv"),
                                  str(d / "theta.json"))
            cfgs[sim_seed] = d / "config.json"
            cfgs[sim_seed].write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
        steps = doc["run"]["steps"]
        print("provenance " + json.dumps(provenance(args, steps, list(cfgs))))
        result = measure(gr, args, cfgs, steps)
    finally:
        shutil.rmtree(out, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another run
            out.parent.rmdir()

    declared = spec["per_layer" if args.trace else "end_to_end"]
    missing = {m["name"] for m in declared} ^ set(result["metrics"])
    if missing and not result["failed"]:
        raise SystemExit(f"error: metrics differ from BENCHMARK.json: {sorted(missing)}")
    metrics = {m["name"]: {"value": result["metrics"].get(m["name"], 0.0), "unit": m["unit"]}
               for m in declared}
    for name, m in metrics.items():
        print(f"metric {name} {m['value']!r} {m['unit']}")
    correct = result["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
